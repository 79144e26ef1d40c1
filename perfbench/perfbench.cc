// perfbench: end-to-end serving benchmark of the PQCache stack.
//
// One process generates the load of one named workload, serves it through
// the real stack, checks every output, and writes the raw samples to
// <out>/result.json; perfbench/run.py turns them into the metrics.
//
//   longctx  in process through SessionManager, closed loop, 4 clients.
//   chat     over the wire protocol, open loop (Poisson arrivals), nested
//            shared templates, prefix sharing and in-flight dedup on.
//   tenants  over the wire protocol: a batch tenant on three closed-loop
//            connections, an interactive tenant open loop on a fourth,
//            preemption on.
//
// The socket workloads run the server in a child process (this binary,
// started with --serve-child), configured with the workload's own
// ServeOptions; the parent drives it over a stdin/stdout control pipe
// ("begin" arms the measured window, "end" drains, snapshots and exits).
//
// With --trace 1 the workload runs twice on fresh stacks: untraced (for the
// tracing-overhead ratio) and traced, with the span tracer and kernel
// profiling armed over the measured window. Counters are always read as the
// difference of MetricsRegistry snapshots taken around the window.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//             [--rate R] [--one-tenant]
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/threadpool.h"
#include "src/core/pqcache_engine.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/session_manager.h"

extern char** environ;

namespace {

using namespace pqcache;

// ---------------------------------------------------------------------------
// Workload shapes. Every length list is fixed; the seed chooses token
// contents, the order in which stratified quantiles are used, and arrival
// gaps, so two seeds draw the same distributions.

// longctx: unshared long prompts, long outputs, one tenant.
constexpr size_t kLongClients = 4;
// Client c's k-th request is type (c + k) % 4: half of all prompts are
// ~4k tokens, so the TTFT median sits on that class, and a quarter are
// ~8k, which sets the p90.
constexpr size_t kLongPromptTokens[] = {4096, 2048, 4096, 8192};
constexpr size_t kLongOutputTokens[] = {384, 512, 640, 768};
constexpr size_t kLongReferenceSample = 4;  // One sampled request per client.
constexpr size_t kRecallQueries = 8;

// chat: 2 system templates x 4 sub-templates, then a unique tail.
constexpr size_t kChatSystems = 2;
constexpr size_t kChatSubs = 4;
constexpr size_t kChatSystemTokens = 256;
constexpr size_t kChatSubTokens = 128;
// Unique tails: a third short, two thirds long. Two well-separated classes
// keep the TTFT and TPOT percentiles inside one class's cluster instead of
// on the edge between two.
constexpr size_t kChatTailTokens[] = {64, 544, 544};
constexpr size_t kChatOutputMin = 8;
constexpr size_t kChatOutputMax = 256;
constexpr double kChatParetoAlpha = 1.5;
constexpr double kChatRate = 20.0;  // Requests per second.
constexpr size_t kChatBlockTokens = 32;
constexpr size_t kChatSlots = 8;

// tenants: three batch connections plus one interactive connection.
constexpr size_t kBatchConns = 3;
constexpr size_t kBatchPromptTokens = 1024;
constexpr size_t kBatchOutputTokens[] = {768, 1024, 1280};
constexpr double kInteractiveRate = 10.0;
constexpr size_t kInteractivePromptMin = 96;
constexpr size_t kInteractivePromptMax = 256;
constexpr size_t kInteractiveOutputMin = 8;
constexpr size_t kInteractiveOutputMax = 32;
constexpr size_t kTenantSlots = 3;
constexpr double kPreemptAfterSeconds = 0.005;

// Warm-up: one request per client at the workload's largest prompt, so
// thread pools, per-thread allocator arenas and the engines' scratch
// buffers reach their working size before the window.
constexpr size_t kWarmupNewTokens = 16;
// Per-thread trace ring, sized so a window never wraps (checked: a dropped
// event fails the run).
constexpr size_t kTraceRingEvents = size_t{1} << 18;
// Hard cap on one pass past its window: the drain must finish in time.
constexpr double kDrainLimitSeconds = 100;

const char* const kMeasuredTag = "m";
const char* const kWarmupTag = "w";

/// CPUs this process may run on (what `nproc` prints).
size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

double NowS() { return static_cast<double>(obs::MonotonicNowNs()) * 1e-9; }

// ---------------------------------------------------------------------------
// Inputs.

struct RequestSpec {
  std::string tenant;
  uint32_t weight = 1;
  int32_t priority = 0;
  std::vector<int32_t> prompt;
  size_t max_new = 0;
  size_t conn = 0;      ///< Client / connection index.
  double due_s = -1;    ///< Open loop: send offset from window start.
  bool hi_prio = false; ///< Counts toward hi_prio_ttft.
};

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b = 0) {
  uint64_t s = seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full);
  return SplitMix64(s);
}

std::vector<int32_t> RandomTokens(Rng& rng, size_t n, int vocab) {
  std::vector<int32_t> out(n);
  for (auto& t : out) {
    t = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(vocab)));
  }
  return out;
}

/// Stratified uniforms: n values (i + 0.5) / n in a seeded order, so every
/// run draws exactly the same multiset of quantiles.
std::vector<double> StratifiedUniforms(size_t n, Rng& rng) {
  std::vector<double> u(n);
  for (size_t i = 0; i < n; ++i) u[i] = (static_cast<double>(i) + 0.5) / n;
  for (size_t i = n; i > 1; --i) {
    std::swap(u[i - 1], u[rng.UniformInt(i)]);
  }
  return u;
}

/// Poisson arrival offsets of exactly n requests spread over `seconds`:
/// stratified exponential gaps, rescaled so the last arrival is due at
/// the end of the window.
std::vector<double> PoissonSchedule(size_t n, double seconds, Rng& rng) {
  const std::vector<double> u = StratifiedUniforms(n, rng);
  std::vector<double> due(n);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - u[i]);
    due[i] = t;
  }
  for (double& d : due) d *= seconds / t;
  return due;
}

/// Maps a quantile u in [0, 1) onto the integers lo..hi.
size_t Lerp(size_t lo, size_t hi, double u) {
  return lo + static_cast<size_t>(u * static_cast<double>(hi - lo + 1));
}

PQCacheEngineOptions EngineTemplate() {
  PQCacheEngineOptions options;
  options.model = ModelConfig::Tiny();
  options.initial_tokens = 4;
  options.local_window = 16;
  options.pq_partitions = 2;
  options.pq_bits = 5;
  options.kmeans_iterations = 6;
  options.token_ratio = 0.25;
  options.cache.capacity_tokens = 128;
  options.cache.block_tokens = 16;
  return options;
}

struct Workload {
  std::string name;
  bool socket = false;
  ServeOptions serve;  ///< Engine template included; pool set at run time.
  size_t conns = 0;
  std::vector<RequestSpec> open_loop;  ///< Scheduled requests, due order.
  std::vector<bool> closed_loop_conn;  ///< Per connection.
  /// Closed loop: k-th request of connection c.
  std::function<RequestSpec(size_t c, size_t k)> next;
  size_t warmup_prompt_tokens = 0;
};

Workload MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                      double rate_override, bool one_tenant) {
  Workload w;
  w.name = name;
  w.serve.engine = EngineTemplate();
  const int vocab = w.serve.engine.model.vocab_size;
  if (name == "longctx") {
    w.conns = kLongClients;
    w.warmup_prompt_tokens = 8192;
    w.serve.max_sessions = kLongClients;
    w.closed_loop_conn.assign(kLongClients, true);
    w.next = [seed, vocab](size_t c, size_t k) {
      RequestSpec r;
      r.conn = c;
      Rng rng(Mix(seed, 1, c * 1000 + k));
      const size_t base = kLongPromptTokens[(c + k) % 4];
      r.prompt = RandomTokens(rng, base - 32 + rng.UniformInt(64), vocab);
      r.max_new = kLongOutputTokens[(c + k) % 4];
      r.hi_prio = true;  // The only tenant is the highest-priority one.
      return r;
    };
  } else if (name == "chat") {
    w.socket = true;
    w.conns = 4;
    w.warmup_prompt_tokens = 1024;
    w.serve.max_sessions = kChatSlots;
    w.serve.max_queue = 1024;
    w.serve.engine.pq_span_tokens = kChatBlockTokens;
    w.serve.enable_prefix_sharing = true;
    w.serve.dedup_in_flight = true;
    w.serve.prefix.block_tokens = kChatBlockTokens;
    w.serve.prefix.max_nodes = 256;
    w.closed_loop_conn.assign(4, false);
    Rng trng(Mix(seed, 2));
    std::vector<std::vector<int32_t>> systems, subs;
    for (size_t s = 0; s < kChatSystems; ++s) {
      systems.push_back(RandomTokens(trng, kChatSystemTokens, vocab));
    }
    for (size_t s = 0; s < kChatSystems * kChatSubs; ++s) {
      subs.push_back(RandomTokens(trng, kChatSubTokens, vocab));
    }
    const double rate = rate_override > 0 ? rate_override : kChatRate;
    const size_t n = static_cast<size_t>(std::lround(rate * seconds));
    Rng rng(Mix(seed, 3));
    const std::vector<double> due = PoissonSchedule(n, seconds, rng);
    // Every tail class gets the same stratified set of output lengths, so
    // the token-weighted mix of context lengths is the same for every seed;
    // the seed orders the (class, output) shapes.
    constexpr size_t kClasses = std::size(kChatTailTokens);
    const size_t per_class = (n + kClasses - 1) / kClasses;
    std::vector<std::pair<size_t, double>> shapes(n);
    for (size_t i = 0; i < n; ++i) {
      shapes[i] = {i % kClasses,
                   (static_cast<double>(i / kClasses) + 0.5) / per_class};
    }
    for (size_t i = n; i > 1; --i) {
      std::swap(shapes[i - 1], shapes[rng.UniformInt(i)]);
    }
    const std::vector<double> tpl_u = StratifiedUniforms(n, rng);
    for (size_t i = 0; i < n; ++i) {
      RequestSpec r;
      r.conn = i % 4;
      r.due_s = due[i];
      r.hi_prio = true;
      const size_t tpl = static_cast<size_t>(tpl_u[i] * kChatSystems * kChatSubs);
      r.prompt = systems[tpl / kChatSubs];
      r.prompt.insert(r.prompt.end(), subs[tpl].begin(), subs[tpl].end());
      const std::vector<int32_t> tail =
          RandomTokens(rng, kChatTailTokens[shapes[i].first], vocab);
      r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
      const double pareto =
          static_cast<double>(kChatOutputMin) /
          std::pow(1.0 - shapes[i].second, 1.0 / kChatParetoAlpha);
      r.max_new = std::min<size_t>(kChatOutputMax,
                                   static_cast<size_t>(pareto));
      w.open_loop.push_back(std::move(r));
    }
  } else if (name == "tenants") {
    w.socket = true;
    w.conns = kBatchConns + 1;
    w.warmup_prompt_tokens = 1024;
    w.serve.max_sessions = kTenantSlots;
    w.serve.max_queue = 1024;
    w.serve.preempt_after_seconds = kPreemptAfterSeconds;
    w.closed_loop_conn.assign(w.conns, true);
    w.closed_loop_conn[kBatchConns] = false;
    w.next = [seed, vocab, one_tenant](size_t c, size_t k) {
      RequestSpec r;
      r.conn = c;
      r.tenant = one_tenant ? "" : "batch";
      Rng rng(Mix(seed, 4, c * 1000 + k));
      r.prompt = RandomTokens(rng, kBatchPromptTokens, vocab);
      r.max_new = kBatchOutputTokens[(c + 2 * k) % 3];
      return r;
    };
    const double rate = rate_override > 0 ? rate_override : kInteractiveRate;
    const size_t n = static_cast<size_t>(std::lround(rate * seconds));
    Rng rng(Mix(seed, 5));
    const std::vector<double> due = PoissonSchedule(n, seconds, rng);
    const std::vector<double> len_u = StratifiedUniforms(n, rng);
    const std::vector<double> out_u = StratifiedUniforms(n, rng);
    for (size_t i = 0; i < n; ++i) {
      RequestSpec r;
      r.conn = kBatchConns;
      r.due_s = due[i];
      r.hi_prio = true;
      if (!one_tenant) {
        r.tenant = "interactive";
        r.weight = 4;
        r.priority = 1;
      }
      r.prompt = RandomTokens(
          rng, Lerp(kInteractivePromptMin, kInteractivePromptMax, len_u[i]),
          vocab);
      r.max_new = Lerp(kInteractiveOutputMin, kInteractiveOutputMax, out_u[i]);
      w.open_loop.push_back(std::move(r));
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// Client-side record of one request.

struct StreamLog {
  RequestSpec spec;
  bool measured = true;
  double due_s = 0;   ///< Absolute scheduled send (open loop) or send.
  double send_s = 0;
  double ack_s = 0;
  std::vector<double> token_s;
  std::vector<int32_t> tokens;
  uint64_t done_count = 0;
  bool done = false;
  bool failed = false;
  std::string error;
};

/// Server-side facts of one pass (counter deltas, pool bytes, record sums),
/// flat key -> number.
using ServerSide = std::map<std::string, double>;

struct PassResult {
  bool ok = true;
  std::vector<std::string> failures;
  double setup_s = 0;
  double window_start = 0;
  std::vector<StreamLog> logs;
  std::vector<double> gen_lag_ms;
  double client_rss_mb = 0;
  double server_rss_mb = 0;  ///< Socket workloads: the server child's peak.
  ServerSide server;
  std::vector<std::string> bench_spans;  ///< Chrome trace events (JSON).

  void Fail(const std::string& what) {
    ok = false;
    failures.push_back(what);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
};

double PeakRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string SpanJson(const char* name, double start_s, double end_s,
                     size_t tid, int64_t arg) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                "\"pid\":2,\"tid\":%zu,\"args\":{\"request\":%" PRId64 "}}",
                name, start_s * 1e6, (end_s - start_s) * 1e6, tid, arg);
  return buf;
}

obs::MetricsSnapshot Snap() { return obs::MetricsRegistry::Global().Snapshot(); }

uint64_t Delta(const obs::MetricsSnapshot& a, const obs::MetricsSnapshot& b,
               obs::Counter c) {
  return b.counter(c) - a.counter(c);
}

Status WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok ? Status::OK()
                                   : Status::Internal("short write " + path);
}

/// Arms the tracer (ring sized before any armed event) and kernel
/// profiling, and snapshots the registry: the start of a measured window.
obs::MetricsSnapshot BeginWindow(bool traced) {
  if (traced) {
    obs::Tracer::Global().ResetForTesting(kTraceRingEvents);
    obs::MetricsRegistry::EnableKernelProfiling(true);
  }
  obs::MetricsSnapshot begin = Snap();
  if (traced) obs::Tracer::Global().Start();
  return begin;
}

/// Server-side facts gathered after the drain: counter deltas, pool and
/// registry bytes, and sums over the measured SessionRecords. Also writes
/// the two snapshots (and the trace when armed) into `dir`.
ServerSide EndWindow(SessionManager& manager, const obs::MetricsSnapshot& a,
                     bool traced, const std::string& dir) {
  if (traced) obs::Tracer::Global().Stop();
  const obs::MetricsSnapshot b = Snap();
  obs::MetricsRegistry::EnableKernelProfiling(false);
  ServerSide out;
  auto& v = out;
  v["tokens_generated"] = Delta(a, b, obs::Counter::kTokensGenerated);
  v["decode_steps"] = Delta(a, b, obs::Counter::kDecodeSteps);
  v["prefills"] = Delta(a, b, obs::Counter::kPrefills);
  v["gpu_used_bytes"] = manager.hierarchy().gpu().used_bytes();
  v["cpu_used_bytes"] = manager.hierarchy().cpu().used_bytes();
  v["gpu_peak_bytes"] = manager.hierarchy().gpu().peak_bytes();
  v["gpu_capacity_bytes"] = manager.hierarchy().gpu().capacity_bytes();
  v["cpu_peak_bytes"] = manager.hierarchy().cpu().peak_bytes();
  v["cpu_capacity_bytes"] = manager.hierarchy().cpu().capacity_bytes();
  size_t retained_gpu = 0, retained_cpu = 0;
  if (manager.prefix_registry() != nullptr) {
    const PrefixRegistry::Stats stats = manager.prefix_registry()->stats();
    retained_gpu = stats.resident_gpu_bytes;
    retained_cpu = stats.resident_cpu_bytes;
  }
  v["registry_gpu_bytes"] = retained_gpu;
  v["registry_cpu_bytes"] = retained_cpu;
  double tokens = 0, lookups = 0, hits = 0, prompt = 0, shared = 0,
         failed = 0;
  for (const SessionRecord& r : manager.stats().sessions) {
    if (r.tag != kMeasuredTag) continue;
    tokens += r.generated_tokens;
    lookups += r.cache_token_lookups;
    hits += r.cache_token_hits;
    if (!r.resumed) {
      prompt += r.prompt_tokens;
      shared += r.prefix_shared_tokens;
    }
    if (r.failed || r.shed) failed += 1;
  }
  v["record_tokens"] = tokens;
  v["cache_token_lookups"] = lookups;
  v["cache_token_hits"] = hits;
  v["prompt_tokens"] = prompt;
  v["prefix_shared_tokens"] = shared;
  v["failed_records"] = failed;
  v["dropped_events"] =
      traced ? static_cast<double>(obs::Tracer::Global().DroppedEvents()) : 0;
  v["maxrss_mb"] = PeakRssMb(RUSAGE_SELF);
  Status st = WriteFile(dir + "/metrics_begin.json", a.ToJson());
  if (st.ok()) st = WriteFile(dir + "/metrics_end.json", b.ToJson());
  if (st.ok() && traced) {
    st = obs::Tracer::Global().ExportChromeTrace(dir + "/trace.json");
  }
  v["files_ok"] = st.ok() ? 1 : 0;
  return out;
}

// ---------------------------------------------------------------------------
// In-process workload (longctx): SessionManager driven from its own
// streaming callbacks, closed loop.

PassResult RunInProcess(const Workload& w, double seconds, bool traced,
                        const std::string& dir, double process_start) {
  PassResult result;
  ThreadPool pool(Nproc());
  ServeOptions serve = w.serve;
  serve.pool = &pool;
  auto created = SessionManager::Create(serve);
  if (!created.ok()) {
    result.Fail("SessionManager::Create: " + created.status().ToString());
    return result;
  }
  SessionManager& manager = *created.value();
  std::vector<StreamLog>& logs = result.logs;
  logs.reserve(4096);
  std::vector<size_t> next_k(w.conns, 0);
  std::unordered_map<int64_t, size_t> session_log;
  bool window_open = false;
  double window_end = 0;

  // Submits one request; its callback records tokens and, on the last
  // token of a measured request, submits the client's next one.
  std::function<void(RequestSpec, bool)> submit = [&](RequestSpec spec,
                                                      bool measured) {
    const size_t index = logs.size();
    logs.push_back(StreamLog{});
    StreamLog& log = logs.back();
    log.spec = std::move(spec);
    log.measured = measured;
    ServeRequest request;
    request.tag = measured ? kMeasuredTag : kWarmupTag;
    request.identity.tenant = log.spec.tenant;
    request.identity.weight = log.spec.weight;
    request.identity.priority = log.spec.priority;
    request.prompt = log.spec.prompt;
    request.max_new_tokens = log.spec.max_new;
    request.on_token = [&, index](int32_t token, size_t i) {
      const double now = NowS();
      StreamLog& l = logs[index];
      if (i != l.tokens.size()) {
        result.Fail("token index gap in stream " + std::to_string(index));
      }
      l.tokens.push_back(token);
      l.token_s.push_back(now);
      if (l.tokens.size() == l.spec.max_new) {
        l.done = true;
        l.done_count = l.tokens.size();
        result.bench_spans.push_back(
            SpanJson("bench.request", l.send_s, now, l.spec.conn + 1, index));
        if (l.measured && window_open && now < window_end) {
          const size_t c = l.spec.conn;
          submit(w.next(c, next_k[c]++), true);
        }
      }
    };
    log.send_s = log.due_s = NowS();
    auto id = manager.Submit(std::move(request));
    result.bench_spans.push_back(SpanJson("serve.submit", logs[index].send_s,
                                          NowS(), 0, index));
    if (id.ok()) {
      session_log[id.value()] = index;
    } else {
      logs[index].failed = true;
      logs[index].error = id.status().ToString();
    }
  };

  // Warm-up, outside the window: all clients at once, so every pool
  // worker prefills one largest-shape prompt.
  for (size_t c = 0; c < w.conns; ++c) {
    RequestSpec spec;
    spec.conn = c;
    Rng rng(Mix(0xA11CE, c));
    spec.prompt = RandomTokens(rng, w.warmup_prompt_tokens,
                               serve.engine.model.vocab_size);
    spec.max_new = kWarmupNewTokens;
    submit(std::move(spec), false);
  }
  Status drained = manager.RunUntilDrained();
  if (!drained.ok()) result.Fail("warm-up drain: " + drained.ToString());
  logs.clear();
  session_log.clear();
  result.bench_spans.clear();

  const obs::MetricsSnapshot begin = BeginWindow(traced);
  result.setup_s = NowS() - process_start;
  result.window_start = NowS();
  window_end = result.window_start + seconds;
  window_open = true;
  for (size_t c = 0; c < w.conns; ++c) submit(w.next(c, next_k[c]++), true);
  const double run_start = NowS();
  drained = manager.RunUntilDrained();
  result.bench_spans.push_back(
      SpanJson("serve.run_until_drained", run_start, NowS(), 0, -1));
  window_open = false;
  if (!drained.ok()) result.Fail("drain: " + drained.ToString());
  result.client_rss_mb = PeakRssMb(RUSAGE_SELF);
  result.server = EndWindow(manager, begin, traced, dir);
  for (const SessionRecord& r : manager.stats().sessions) {
    if (r.tag == kMeasuredTag && (r.failed || r.shed)) {
      StreamLog& l = logs[session_log.at(r.id)];
      l.failed = true;
      l.error = r.error;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Socket workloads: a server child plus one generator thread polling every
// connection.

class ServerChild {
 public:
  ~ServerChild() { Stop(); }

  Status Start(const std::string& exe, const std::vector<std::string>& args) {
    int to_child[2], from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0) {
      return Status::Internal("pipe");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(exe.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    to_ = to_child[1];
    from_ = fdopen(from_child[0], "r");
    if (rc != 0) {
      pid_ = -1;
      return Status::Internal(std::string("posix_spawn: ") + std::strerror(rc));
    }
    return Status::OK();
  }

  /// Reads one line the child printed on stdout (empty on EOF).
  std::string ReadLine() {
    char buf[4096];
    if (from_ == nullptr || std::fgets(buf, sizeof(buf), from_) == nullptr) {
      return "";
    }
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    return line;
  }

  bool Send(const std::string& line) {
    const std::string msg = line + "\n";
    return write(to_, msg.data(), msg.size()) ==
           static_cast<ssize_t>(msg.size());
  }

  /// Waits for the child; returns its exit status (-1 if it did not exit
  /// cleanly). Kills it first when `kill_first`.
  int Stop(bool kill_first = true) {
    if (to_ >= 0) close(to_);
    to_ = -1;
    if (from_ != nullptr) std::fclose(from_);
    from_ = nullptr;
    if (pid_ <= 0) return -1;
    if (kill_first) kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int to_ = -1;
  std::FILE* from_ = nullptr;
};

struct Conn {
  int fd = -1;
  uint8_t version = net::kProtocolVersion;
  uint32_t next_stream = 1;
  std::string inbuf;
  std::unordered_map<uint32_t, size_t> streams;  ///< Stream id -> log index.
  size_t open = 0;
  bool goodbye = false;
};

Status SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Connects to the loopback port and completes the Hello handshake.
Result<Conn> OpenConnection(uint16_t port) {
  Conn conn;
  conn.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (conn.fd < 0) return Status::Internal("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(conn.fd);
    return Status::Internal(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::string hello;
  net::AppendHello(&hello, net::HelloFrame{net::kMinProtocolVersion,
                                           net::kProtocolVersion});
  PQC_RETURN_IF_ERROR(SendAll(conn.fd, hello));
  // Blocking reads until the whole HelloAck frame is buffered.
  auto read_until = [&](size_t bytes) -> Status {
    while (conn.inbuf.size() < bytes) {
      char buf[256];
      const ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
      if (n <= 0) return Status::Internal("handshake: connection closed");
      conn.inbuf.append(buf, static_cast<size_t>(n));
    }
    return Status::OK();
  };
  PQC_RETURN_IF_ERROR(read_until(net::kFrameHeaderBytes));
  const auto* data = reinterpret_cast<const uint8_t*>(conn.inbuf.data());
  auto header = net::ParseFrameHeader(data, net::kFrameHeaderBytes);
  if (!header.ok()) return header.status();
  if (header.value().type != net::FrameType::kHelloAck) {
    return Status::FailedPrecondition("handshake: no HelloAck");
  }
  PQC_RETURN_IF_ERROR(
      read_until(net::kFrameHeaderBytes + header.value().length));
  auto version = net::DecodeHelloAck(
      reinterpret_cast<const uint8_t*>(conn.inbuf.data()) +
          net::kFrameHeaderBytes,
      header.value().length);
  if (!version.ok()) return version.status();
  conn.version = version.value();
  conn.inbuf.erase(0, net::kFrameHeaderBytes + header.value().length);
  return conn;
}

class SocketClient {
 public:
  SocketClient(const Workload& w, PassResult* result)
      : w_(w), result_(*result), logs_(result->logs) {}

  ~SocketClient() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
  }

  Status Connect(uint16_t port) {
    for (size_t c = 0; c < w_.conns; ++c) {
      auto conn = OpenConnection(port);
      if (!conn.ok()) return conn.status();
      conns_.push_back(std::move(conn).value());
    }
    return Status::OK();
  }

  /// One request per connection, each driven to completion before the
  /// next: concurrent warm-ups would race into the first scheduler rounds
  /// and make the set-up time depend on how they happened to batch.
  Status Warmup() {
    for (size_t c = 0; c < w_.conns; ++c) {
      RequestSpec spec;
      spec.conn = c;
      Rng rng(Mix(0xA11CE, c));
      spec.prompt = RandomTokens(rng, w_.warmup_prompt_tokens,
                                 w_.serve.engine.model.vocab_size);
      spec.max_new = kWarmupNewTokens;
      PQC_RETURN_IF_ERROR(Submit(std::move(spec), false, NowS()));
      PQC_RETURN_IF_ERROR(Loop(NowS() + kDrainLimitSeconds, false));
    }
    logs_.clear();
    result_.bench_spans.clear();
    return Status::OK();
  }

  /// The measured window: open-loop sends on schedule, closed-loop
  /// connections resubmit on each Done until the window closes; returns
  /// once every stream sent is terminal.
  Status Measure(double seconds) {
    window_start_ = NowS();
    window_end_ = window_start_ + seconds;
    result_.window_start = window_start_;
    for (size_t c = 0; c < w_.conns; ++c) {
      if (w_.closed_loop_conn[c]) {
        PQC_RETURN_IF_ERROR(Submit(w_.next(c, next_k_[c]++), true, NowS()));
      }
    }
    return Loop(window_end_ + kDrainLimitSeconds, true);
  }

 private:
  Status Submit(RequestSpec spec, bool measured, double due) {
    Conn& conn = conns_[spec.conn];
    const uint32_t stream = conn.next_stream++;
    net::SubmitFrame frame;
    frame.tag = measured ? kMeasuredTag : kWarmupTag;
    frame.tenant = spec.tenant;
    frame.weight = spec.weight;
    frame.priority = spec.priority;
    frame.max_new_tokens = spec.max_new;
    frame.prompt = spec.prompt;
    std::string bytes;
    net::AppendSubmit(&bytes, stream, frame, conn.version);
    StreamLog log;
    log.spec = std::move(spec);
    log.measured = measured;
    log.due_s = due;
    log.send_s = NowS();
    conn.streams[stream] = logs_.size();
    logs_.push_back(std::move(log));
    ++conn.open;
    ++outstanding_;
    return SendAll(conn.fd, bytes);
  }

  Status Loop(double deadline, bool measured) {
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
      const double now = NowS();
      if (measured) {
        while (next_open_ < w_.open_loop.size() &&
               now >= window_start_ + w_.open_loop[next_open_].due_s) {
          const double due = window_start_ + w_.open_loop[next_open_].due_s;
          result_.gen_lag_ms.push_back((NowS() - due) * 1e3);
          PQC_RETURN_IF_ERROR(
              Submit(w_.open_loop[next_open_], true, due));
          ++next_open_;
        }
      }
      const bool schedule_done =
          !measured || next_open_ == w_.open_loop.size();
      if (schedule_done && outstanding_ == 0) return Status::OK();
      if (now > deadline) {
        return Status::DeadlineExceeded("streams still open past the drain limit");
      }
      double wait = 0.05;
      if (measured && next_open_ < w_.open_loop.size()) {
        wait = std::min(wait, window_start_ +
                                  w_.open_loop[next_open_].due_s - now);
      }
      wait = std::max(wait, 0.0);
      timespec ts{static_cast<time_t>(wait),
                  static_cast<long>((wait - std::floor(wait)) * 1e9)};
      for (size_t i = 0; i < conns_.size(); ++i) {
        fds[i] = pollfd{conns_[i].fd, POLLIN, 0};
      }
      const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready < 0 && errno != EINTR) {
        return Status::Internal(std::string("ppoll: ") + std::strerror(errno));
      }
      for (size_t i = 0; ready > 0 && i < conns_.size(); ++i) {
        if (fds[i].revents == 0) continue;
        PQC_RETURN_IF_ERROR(ReadConn(i));
      }
    }
  }

  Status ReadConn(size_t index) {
    Conn& conn = conns_[index];
    char buf[65536];
    const ssize_t n = recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return Status::Unavailable("server closed a connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EINTR) return Status::OK();
      return Status::Internal(std::string("recv: ") + std::strerror(errno));
    }
    const double now = NowS();
    conn.inbuf.append(buf, static_cast<size_t>(n));
    size_t off = 0;
    while (conn.inbuf.size() - off >= net::kFrameHeaderBytes) {
      const auto* data =
          reinterpret_cast<const uint8_t*>(conn.inbuf.data()) + off;
      auto header = net::ParseFrameHeader(data, net::kFrameHeaderBytes);
      if (!header.ok()) return header.status();
      const size_t total = net::kFrameHeaderBytes + header.value().length;
      if (conn.inbuf.size() - off < total) break;
      PQC_RETURN_IF_ERROR(HandleFrame(conn, header.value(),
                                      data + net::kFrameHeaderBytes, now));
      off += total;
    }
    conn.inbuf.erase(0, off);
    return Status::OK();
  }

  Status HandleFrame(Conn& conn, const net::FrameHeader& header,
                     const uint8_t* payload, double now) {
    if (header.type == net::FrameType::kGoodbye) {
      conn.goodbye = true;
      return Status::OK();
    }
    auto it = conn.streams.find(header.stream);
    if (it == conn.streams.end()) {
      return Status::DataLoss("frame for unknown stream");
    }
    const size_t index = it->second;
    StreamLog& log = logs_[index];
    switch (header.type) {
      case net::FrameType::kSubmitAck:
        log.ack_s = now;
        result_.bench_spans.push_back(SpanJson(
            "net.ack", log.send_s, now, log.spec.conn + 1, index));
        return Status::OK();
      case net::FrameType::kToken: {
        auto token = net::DecodeToken(payload, header.length);
        if (!token.ok()) return token.status();
        if (token.value().index != log.tokens.size()) {
          return Status::DataLoss("token index gap");
        }
        log.tokens.push_back(token.value().token);
        log.token_s.push_back(now);
        return Status::OK();
      }
      case net::FrameType::kDone: {
        auto done = net::DecodeDone(payload, header.length);
        if (!done.ok()) return done.status();
        log.done = true;
        log.done_count = done.value().generated_tokens;
        break;
      }
      case net::FrameType::kError: {
        auto error = net::DecodeError(payload, header.length);
        log.failed = true;
        log.error = error.ok() ? error.value().message : "undecodable error";
        break;
      }
      default:
        return Status::DataLoss("unexpected frame type");
    }
    result_.bench_spans.push_back(SpanJson("bench.request", log.send_s, now,
                                           log.spec.conn + 1, index));
    conn.streams.erase(it);
    --conn.open;
    --outstanding_;
    const size_t c = log.spec.conn;
    if (log.measured && w_.closed_loop_conn[c] && now < window_end_) {
      return Submit(w_.next(c, next_k_[c]++), true, now);
    }
    return Status::OK();
  }

  const Workload& w_;
  PassResult& result_;
  std::vector<StreamLog>& logs_;
  std::vector<Conn> conns_;
  std::vector<size_t> next_k_ = std::vector<size_t>(w_.conns, 0);
  size_t next_open_ = 0;
  size_t outstanding_ = 0;
  double window_start_ = 0;
  double window_end_ = 0;
};

ServerSide ParseServerLine(const std::string& line) {
  ServerSide out;
  size_t pos = 0;
  while (pos < line.size()) {
    const size_t end = std::min(line.find(' ', pos), line.size());
    const std::string item = line.substr(pos, end - pos);
    const size_t eq = item.find('=');
    if (eq != std::string::npos) {
      out[item.substr(0, eq)] = std::atof(item.c_str() + eq + 1);
    }
    pos = end + 1;
  }
  return out;
}

PassResult RunSocket(const Workload& w, const std::string& exe,
                     const std::vector<std::string>& child_args,
                     double seconds, double process_start) {
  PassResult result;
  ServerChild child;
  Status st = child.Start(exe, child_args);
  if (!st.ok()) {
    result.Fail("server start: " + st.ToString());
    return result;
  }
  const std::string hello = child.ReadLine();
  if (hello.rfind("port ", 0) != 0) {
    result.Fail("server did not report its port");
    return result;
  }
  const auto port = static_cast<uint16_t>(std::atoi(hello.c_str() + 5));
  SocketClient client(w, &result);
  st = client.Connect(port);
  if (st.ok()) st = client.Warmup();
  if (st.ok() && !(child.Send("begin") && child.ReadLine() == "ok")) {
    st = Status::Internal("server did not arm the window");
  }
  if (!st.ok()) {
    result.Fail("setup: " + st.ToString());
    return result;
  }
  result.setup_s = NowS() - process_start;
  st = client.Measure(seconds);
  result.client_rss_mb = PeakRssMb(RUSAGE_SELF);
  if (!st.ok()) {
    result.Fail("measured window: " + st.ToString());
    return result;
  }
  child.Send("end");
  const std::string line = child.ReadLine();
  if (line.rfind("ok ", 0) != 0) {
    result.Fail("server did not report after the drain");
    return result;
  }
  result.server = ParseServerLine(line.substr(3));
  result.server_rss_mb = result.server["maxrss_mb"];
  if (child.Stop(/*kill_first=*/false) != 0) {
    result.Fail("server exited with an error");
  }
  return result;
}

/// Child side of the socket workloads.
int RunServeChild(const Workload& w, bool traced, const std::string& dir) {
  ThreadPool pool(Nproc());
  ServeOptions serve = w.serve;
  serve.pool = &pool;
  net::ServerOptions options;
  auto server = net::Server::Start(serve, options);
  if (!server.ok()) {
    std::fprintf(stderr, "server start: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf("port %u\n", server.value()->tcp_port());
  std::fflush(stdout);
  char line[256];
  obs::MetricsSnapshot begin;
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    if (std::strncmp(line, "begin", 5) == 0) {
      begin = BeginWindow(traced);
      std::printf("ok\n");
      std::fflush(stdout);
    } else if (std::strncmp(line, "end", 3) == 0) {
      const Status shutdown = server.value()->Shutdown();
      ServerSide side =
          EndWindow(server.value()->manager(), begin, traced, dir);
      const net::NetStats net_stats = server.value()->net_stats();
      side["shutdown_ok"] = shutdown.ok() ? 1 : 0;
      side["protocol_errors"] = net_stats.protocol_errors;
      std::printf("ok");
      for (const auto& [key, value] : side) {
        std::printf(" %s=%.17g", key.c_str(), value);
      }
      std::printf("\n");
      std::fflush(stdout);
      return 0;
    }
  }
  server.value()->Shutdown();
  return 1;
}

// ---------------------------------------------------------------------------
// Output checks.

std::vector<int32_t> RunAlone(const PQCacheEngineOptions& tmpl,
                              const std::vector<int32_t>& prompt,
                              size_t max_new,
                              std::unique_ptr<PQCacheEngine>* keep = nullptr) {
  PQCacheEngineOptions options = tmpl;
  options.pool = nullptr;
  options.prefix = nullptr;
  options.shared_hierarchy = nullptr;
  std::vector<int32_t> out;
  auto engine = PQCacheEngine::Create(options);
  if (!engine.ok()) return out;
  auto first = engine.value()->Prefill(prompt);
  if (!first.ok()) return out;
  out.push_back(first.value());
  while (out.size() < max_new) {
    auto next = engine.value()->DecodeNext();
    if (!next.ok()) return out;
    out.push_back(next.value());
  }
  if (keep != nullptr) *keep = std::move(engine).value();
  return out;
}

/// Recall@k of the PQ top-k against the exact inner-product top-k, over
/// every (layer, kv-head) of a reference engine, with seeded queries.
/// Returns the lowest per-store mean recall and the random-selection
/// baseline k/n of that store.
std::pair<double, double> WorstStoreRecall(const PQCacheEngine& engine,
                                           uint64_t seed) {
  const ModelConfig& model = engine.options().model;
  double worst = 2, worst_random = 0;
  std::vector<float> table, scores, key(model.head_dim), query(model.head_dim);
  std::vector<int32_t> approx;
  for (int l = 0; l < model.num_layers; ++l) {
    for (int h = 0; h < model.num_kv_heads; ++h) {
      const KVStore& store = engine.cache().store(l, h);
      const PQSpanSet& set = engine.pq_index(l, h);
      const size_t n = set.size();
      const size_t base = set.base_token();
      const size_t k = std::max<size_t>(
          1, static_cast<size_t>(engine.options().token_ratio * n));
      Rng rng(Mix(seed, 6, static_cast<uint64_t>(l * 64 + h)));
      double recall = 0;
      std::vector<float> exact(n);
      for (size_t q = 0; q < kRecallQueries; ++q) {
        for (float& x : query) x = rng.Gaussian();
        for (size_t i = 0; i < n; ++i) {
          store.GetKey(base + i, key);
          exact[i] = std::inner_product(key.begin(), key.end(),
                                        query.begin(), 0.0f);
        }
        std::vector<int32_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                         [&](int32_t a, int32_t b) {
                           return exact[a] > exact[b];
                         });
        std::vector<bool> in_exact(n, false);
        for (size_t i = 0; i < k; ++i) in_exact[order[i]] = true;
        set.TopKInto(query, k, table, scores, approx);
        size_t hit = 0;
        for (int32_t i : approx) hit += in_exact[static_cast<size_t>(i)];
        recall += static_cast<double>(hit) / static_cast<double>(k);
      }
      recall /= kRecallQueries;
      if (recall < worst) {
        worst = recall;
        worst_random = static_cast<double>(k) / static_cast<double>(n);
      }
    }
  }
  return {worst, worst_random};
}

void CheckOutputs(const Workload& w, uint64_t seed, PassResult& r) {
  // Streams complete and internally consistent.
  uint64_t token_frames = 0, done_sum = 0;
  size_t measured = 0;
  for (const StreamLog& l : r.logs) {
    if (!l.measured) continue;
    ++measured;
    token_frames += l.tokens.size();
    done_sum += l.done_count;
    if (l.failed) continue;
    if (!l.done || l.tokens.size() != l.spec.max_new) {
      r.Fail("stream incomplete: " + std::to_string(l.tokens.size()) + " of " +
             std::to_string(l.spec.max_new) + " tokens");
    }
  }
  auto& s = r.server;
  const auto server_tokens = static_cast<uint64_t>(s["tokens_generated"]);
  const auto record_tokens = static_cast<uint64_t>(s["record_tokens"]);
  if (token_frames != done_sum || token_frames != server_tokens ||
      token_frames != record_tokens) {
    r.Fail("token totals disagree: client " + std::to_string(token_frames) +
           ", done counts " + std::to_string(done_sum) + ", tokens_generated " +
           std::to_string(server_tokens) + ", records " +
           std::to_string(record_tokens));
  }
  if (s["gpu_used_bytes"] != s["registry_gpu_bytes"] ||
      s["cpu_used_bytes"] != s["registry_cpu_bytes"]) {
    r.Fail("pool bytes leaked after the drain: gpu " +
           std::to_string(s["gpu_used_bytes"]) + " vs retained " +
           std::to_string(s["registry_gpu_bytes"]) + ", cpu " +
           std::to_string(s["cpu_used_bytes"]) + " vs retained " +
           std::to_string(s["registry_cpu_bytes"]));
  }
  if (s["gpu_peak_bytes"] > s["gpu_capacity_bytes"] ||
      s["cpu_peak_bytes"] > s["cpu_capacity_bytes"]) {
    r.Fail("peak pool bytes exceed the budget");
  }
  if (s["dropped_events"] != 0) r.Fail("trace ring dropped events");
  if (s["files_ok"] != 1) r.Fail("could not write snapshots or trace");
  if (s.count("shutdown_ok") && s["shutdown_ok"] != 1) {
    r.Fail("server drain did not finish cleanly");
  }

  // Bit-identity against lone engines.
  std::vector<size_t> check;
  for (size_t i = 0; i < r.logs.size(); ++i) {
    if (r.logs[i].measured && !r.logs[i].failed) check.push_back(i);
  }
  const bool sample = !w.socket;
  if (sample) {
    // longctx: one seeded request per client.
    std::vector<size_t> picked;
    for (size_t c = 0; c < w.conns && picked.size() < kLongReferenceSample;
         ++c) {
      std::vector<size_t> mine;
      for (size_t i : check) {
        if (r.logs[i].spec.conn == c) mine.push_back(i);
      }
      if (mine.empty()) continue;
      Rng rng(Mix(seed, 7, c));
      picked.push_back(mine[rng.UniformInt(mine.size())]);
    }
    check = picked;
  }
  std::vector<std::unique_ptr<PQCacheEngine>> engines(check.size());
  std::vector<char> same(check.size(), 0);  // One byte per writer thread.
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const size_t width =
      std::min<size_t>(Nproc(), check.size());
  const double ref_start = NowS();
  for (size_t t = 0; t < width; ++t) {
    threads.emplace_back([&] {
      for (size_t j = next++; j < check.size(); j = next++) {
        const StreamLog& l = r.logs[check[j]];
        const std::vector<int32_t> ref =
            RunAlone(w.serve.engine, l.spec.prompt, l.spec.max_new,
                     sample ? &engines[j] : nullptr);
        same[j] = ref == l.tokens;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  r.bench_spans.push_back(
      SpanJson("bench.reference", ref_start, NowS(), 0, -1));
  const size_t mismatched = std::count(same.begin(), same.end(), 0);
  if (mismatched > 0) {
    r.Fail(std::to_string(mismatched) + " of " + std::to_string(check.size()) +
           " streams differ from their lone-engine reference");
  }
  std::printf("checked %zu of %zu streams against lone engines\n",
              check.size(), measured);

  // PQ retrieval quality on the longctx reference engines.
  for (size_t j = 0; j < engines.size(); ++j) {
    if (engines[j] == nullptr) continue;
    const auto [recall, random] = WorstStoreRecall(*engines[j], seed + j);
    std::printf("pq recall@k: worst store %.3f vs random %.3f\n", recall,
                random);
    if (!(recall > random)) {
      r.Fail("PQ top-k recall " + std::to_string(recall) +
             " does not beat random selection " + std::to_string(random));
    }
  }
}

// ---------------------------------------------------------------------------
// Result file.

/// Generated tokens of the measured requests over the measured period:
/// from the window's start to the last token delivered. (Counting only the
/// tokens inside the fixed window would quantize closed-loop runs whose
/// window closes during a long prefill round.)
std::pair<double, double> MeasuredTokens(const PassResult& r) {
  double tokens = 0, last = r.window_start;
  for (const StreamLog& l : r.logs) {
    if (!l.measured) continue;
    tokens += static_cast<double>(l.token_s.size());
    if (!l.token_s.empty()) last = std::max(last, l.token_s.back());
  }
  return {tokens, last - r.window_start};
}

double TokensPerSecond(const PassResult& r) {
  const auto [tokens, span] = MeasuredTokens(r);
  return span > 0 ? tokens / span : 0;
}

void AppendNumbers(std::string& out, const char* key,
                   const std::vector<double>& values) {
  out += "\"";
  out += key;
  out += "\":[";
  char buf[40];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  out += "],";
}

void AppendNumber(std::string& out, const char* key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g,", key, value);
  out += buf;
}

std::string ResultJson(const PassResult& r, bool traced,
                       double untraced_tokens_per_s) {
  std::vector<double> ttft, hi_ttft, tpot;
  size_t attempted = 0, failed = 0;
  for (const StreamLog& l : r.logs) {
    if (!l.measured) continue;
    ++attempted;
    if (l.failed) ++failed;
    for (size_t i = 1; i < l.token_s.size(); ++i) {
      tpot.push_back((l.token_s[i] - l.token_s[i - 1]) * 1e3);
    }
    if (l.failed || l.token_s.empty()) continue;
    const double t = (l.token_s[0] - l.due_s) * 1e3;
    ttft.push_back(t);
    if (l.spec.hi_prio) hi_ttft.push_back(t);
  }
  std::vector<double> ack;
  for (const StreamLog& l : r.logs) {
    if (l.measured && l.ack_s > 0) ack.push_back((l.ack_s - l.send_s) * 1e3);
  }
  std::string out = "{";
  AppendNumber(out, "correct", r.ok ? 1 : 0);
  AppendNumber(out, "traced", traced ? 1 : 0);
  AppendNumber(out, "attempted", static_cast<double>(attempted));
  AppendNumber(out, "failed", static_cast<double>(failed));
  AppendNumber(out, "setup_s", r.setup_s);
  const auto [tokens, span] = MeasuredTokens(r);
  AppendNumber(out, "measured_tokens", tokens);
  AppendNumber(out, "measured_span_s", span);
  AppendNumber(out, "peak_rss_mb", r.client_rss_mb + r.server_rss_mb);
  AppendNumber(out, "untraced_tokens_per_s", untraced_tokens_per_s);
  AppendNumbers(out, "ttft_ms", ttft);
  AppendNumbers(out, "hi_prio_ttft_ms", hi_ttft);
  AppendNumbers(out, "tpot_ms", tpot);
  AppendNumbers(out, "net_ack_ms", ack);
  AppendNumbers(out, "gen_lag_ms", r.gen_lag_ms);
  out += "\"server\":{";
  bool first = true;
  for (const auto& [key, value] : r.server) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", first ? "" : ",",
                  key.c_str(), value);
    out += buf;
    first = false;
  }
  out += "},\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    for (char c : r.failures[i]) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
  }
  out += "]}\n";
  return out;
}

std::string SpansJson(const PassResult& r) {
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < r.bench_spans.size(); ++i) {
    if (i > 0) out += ",\n";
    out += r.bench_spans[i];
  }
  out += "]}\n";
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
  double rate = 0;
  bool one_tenant = false;
  bool serve_child = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args->trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--out" && has_value) {
      args->out = argv[++i];
    } else if (a == "--rate" && has_value) {
      args->rate = std::atof(argv[++i]);
    } else if (a == "--one-tenant") {
      args->one_tenant = true;
    } else if (a == "--serve-child") {
      args->serve_child = true;
    } else {
      return false;
    }
  }
  return (args->workload == "longctx" || args->workload == "chat" ||
          args->workload == "tenants") &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double process_start = NowS();
  // A server child that died must surface as a failed check, not kill the
  // benchmark on its next control write.
  signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload longctx|chat|tenants --seed N "
                 "--seconds S --trace 0|1 --out DIR [--rate R] "
                 "[--one-tenant]\n");
    return 2;
  }
  const Workload w = MakeWorkload(args.workload, args.seed, args.seconds,
                                  args.rate, args.one_tenant);
  if (args.serve_child) return RunServeChild(w, args.trace, args.out);

  mkdir(args.out.c_str(), 0755);
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return 1;
  exe[len] = '\0';

  // Runs one pass on a fresh stack (a new manager, or a new server child).
  auto run_pass = [&](bool traced) {
    const double start = traced ? NowS() : process_start;
    PassResult r;
    if (w.socket) {
      std::vector<std::string> child = {
          "--workload", args.workload, "--seed", std::to_string(args.seed),
          "--seconds", std::to_string(args.seconds), "--trace",
          traced ? "1" : "0", "--out", args.out, "--serve-child"};
      if (args.one_tenant) child.push_back("--one-tenant");
      r = RunSocket(w, exe, child, args.seconds, start);
    } else {
      r = RunInProcess(w, args.seconds, traced, args.out, start);
    }
    if (r.ok) CheckOutputs(w, args.seed, r);
    return r;
  };

  double untraced_tokens_per_s = 0;
  PassResult result;
  if (args.trace) {
    PassResult untraced = run_pass(false);
    untraced_tokens_per_s = TokensPerSecond(untraced);
    result = run_pass(true);
    if (!untraced.ok) {
      result.ok = false;
      for (const std::string& f : untraced.failures) {
        result.failures.push_back("untraced pass: " + f);
      }
    }
  } else {
    result = run_pass(false);
  }
  Status st = WriteFile(args.out + "/result.json",
                        ResultJson(result, args.trace, untraced_tokens_per_s));
  if (st.ok()) st = WriteFile(args.out + "/bench_spans.json", SpansJson(result));
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!result.gen_lag_ms.empty()) {
    std::printf("generator lag: max %.3f ms over %zu sends\n",
                *std::max_element(result.gen_lag_ms.begin(),
                                  result.gen_lag_ms.end()),
                result.gen_lag_ms.size());
  }
  return result.ok ? 0 : 1;
}
