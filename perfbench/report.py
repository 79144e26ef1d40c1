"""Turns one perfbench run into metrics.

End-to-end metrics come from the raw client-side samples in result.json.
Per-layer metrics come from a traced run: the exported span trace
(trace.json), the two MetricsRegistry snapshots taken around the measured
window (metrics_begin.json, metrics_end.json) and the benchmark's own spans
(bench_spans.json). `python3 perfbench/report.py DIR` prints the per-layer
table of a traced run's output directory.
"""
import json
import math
import os
import sys

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = [
    ("setup_s", "s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p90_ms", "ms"),
    ("tpot_p50_ms", "ms"),
    ("tpot_p99_ms", "ms"),
    ("output_tokens_per_s", "tokens/s"),
    ("hi_prio_ttft_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("llm.prefill_forward_ms", "ms"),
    ("pq.build_ms", "ms"),
    ("kmeans.train_ms", "ms"),
    ("kmeans.span_trains", "count"),
    ("kernel.lut_build_us", "us"),
    ("kernel.gather_reduce_us", "us"),
    ("kernel.lut_builds", "count"),
    ("kernel.gather_reduces", "count"),
    ("engine.decode_step_us", "us"),
    ("engine.decode_step_p99_us", "us"),
    ("engine.decode_step_mean_us", "us"),
    ("engine.decode_other_us", "us"),
    ("engine.checkpoint_save_ms", "ms"),
    ("engine.checkpoint_restore_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.token_lookups", "count"),
    ("prefix.hit_ratio", "ratio"),
    ("prefix.lookups", "count"),
    ("prefix.reused_token_share", "ratio"),
    ("prefix.prompt_tokens", "count"),
    ("prefix.dedup_deferrals", "count"),
    ("serve.round_ms", "ms"),
    ("serve.rounds", "count"),
    ("serve.steps_per_round", "steps"),
    ("serve.seated_per_round", "sessions"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.preemptions", "count"),
    ("memory.gpu_peak_mb", "MB"),
    ("net.ack_ms", "ms"),
    ("net.frames_sent", "count"),
    ("net.backpressure_suspends", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_tokens_per_s", "tokens/s"),
    ("trace.traced_tokens_per_s", "tokens/s"),
]

# A tail percentile is a tail only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile (p in (0, 100]); 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, p):
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n)) if n else 0


def tail_supported(n, p):
    """The percentile rule: at least MIN_BEYOND samples beyond it."""
    return beyond(n, p) >= MIN_BEYOND


def self_times(events):
    """Self time of every complete span: its duration minus the part its
    direct children on the same track cover. Spans on one track nest
    strictly, so a stack walk in start order finds each span's parent.
    Returns a list of (event, self_us) in input order."""
    by_track = {}
    for i, ev in enumerate(events):
        by_track.setdefault((ev.get("pid"), ev.get("tid")), []).append(i)
    child_us = [0.0] * len(events)
    for indexes in by_track.values():
        indexes.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack = []
        for i in indexes:
            ev = events[i]
            while stack and (events[stack[-1]]["ts"] + events[stack[-1]]["dur"]
                             <= ev["ts"]):
                stack.pop()
            if stack:
                child_us[stack[-1]] += ev["dur"]
            stack.append(i)
    return [(ev, ev["dur"] - child_us[i]) for i, ev in enumerate(events)]


def histogram_delta(begin, end, name):
    """Bucket counts of one histogram over the window: list of
    (lower_s, upper_s, count), plus count and sum of seconds."""
    b = begin["histograms"][name]
    e = end["histograms"][name]
    before = {str(x["le"]): x["count"] for x in b["buckets"]}
    buckets = []
    for x in e["buckets"]:
        upper = math.inf if x["le"] == "+Inf" else float(x["le"])
        count = x["count"] - before.get(str(x["le"]), 0)
        lower = upper / 2 if upper > 1.5e-7 else 0.0
        if count:
            buckets.append((lower, upper, count))
    return buckets, e["count"] - b["count"], e["sum_seconds"] - b["sum_seconds"]


def histogram_p50(buckets):
    """Median interpolated linearly inside its power-of-two bucket."""
    total = sum(c for _, _, c in buckets)
    if total == 0:
        return 0.0
    target = total / 2.0
    seen = 0
    for lower, upper, count in sorted(buckets):
        if seen + count >= target:
            if math.isinf(upper):
                return lower
            return lower + (upper - lower) * (target - seen) / count
        seen += count
    return 0.0


def tokens_per_s(result):
    """Tokens of the measured requests over the measured period (window
    start to the last token delivered)."""
    return result["measured_tokens"] / result["measured_span_s"]


def end_to_end(result):
    """Every end-to-end metric from a result.json dict, plus the sample
    count behind each latency metric."""
    ttft = result["ttft_ms"]
    tpot = result["tpot_ms"]
    hi = result["hi_prio_ttft_ms"]
    values = {
        "setup_s": result["setup_s"],
        "ttft_p50_ms": percentile(ttft, 50),
        "ttft_p90_ms": percentile(ttft, 90),
        "tpot_p50_ms": percentile(tpot, 50),
        "tpot_p99_ms": percentile(tpot, 99),
        "output_tokens_per_s": tokens_per_s(result),
        "hi_prio_ttft_p50_ms": percentile(hi, 50),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {
        "ttft_p50_ms": (len(ttft), 50),
        "ttft_p90_ms": (len(ttft), 90),
        "tpot_p50_ms": (len(tpot), 50),
        "tpot_p99_ms": (len(tpot), 99),
        "hi_prio_ttft_p50_ms": (len(hi), 50),
    }
    return values, samples


def load(path):
    with open(path) as f:
        return json.load(f)


def per_layer(out_dir, result):
    """Every per-layer metric of a traced run, and the list of consistency
    failures between the trace and the counters (empty when they agree)."""
    trace = [e for e in load(os.path.join(out_dir, "trace.json"))["traceEvents"]
             if e.get("ph") == "X"]
    bench = load(os.path.join(out_dir, "bench_spans.json"))["traceEvents"]
    begin = load(os.path.join(out_dir, "metrics_begin.json"))
    end = load(os.path.join(out_dir, "metrics_end.json"))
    server = result["server"]

    def counter(name):
        return end["counters"][name] - begin["counters"][name]

    def durations(name, events=trace):
        return [e["dur"] for e in events if e["name"] == name]

    def ratio(num, den):
        return num / den if den else 0.0

    # pq.build is engine.prefill's only child, so its self time is the
    # forward pass.
    prefill = [self_us / 1e3 for ev, self_us in self_times(trace)
               if ev["name"] == "engine.prefill"]
    steps = durations("engine.decode_step")
    lut, lut_n, lut_sum = histogram_delta(begin, end, "lut_build_seconds")
    gather, gather_n, gather_sum = histogram_delta(begin, end,
                                                   "gather_reduce_seconds")
    rounds = [e for e in trace if e["name"] == "serve.round"]
    seated = [e.get("args", {}).get("active", 0) for e in rounds]
    decode_steps = counter("decode_steps")
    serve_rounds = counter("serve_rounds")
    untraced = result["untraced_tokens_per_s"]
    traced = tokens_per_s(result)
    m = {
        "llm.prefill_forward_ms": percentile(prefill, 50),
        "pq.build_ms": percentile(durations("pq.build"), 50) / 1e3,
        "kmeans.train_ms": percentile(durations("pq.train_span"), 50) / 1e3,
        "kmeans.span_trains": counter("kmeans_span_trains"),
        "kernel.lut_build_us": histogram_p50(lut) * 1e6,
        "kernel.gather_reduce_us": histogram_p50(gather) * 1e6,
        "kernel.lut_builds": counter("lut_builds"),
        "kernel.gather_reduces": counter("gather_reduces"),
        "engine.decode_step_us": percentile(steps, 50),
        "engine.decode_step_p99_us": percentile(steps, 99),
        "engine.decode_step_mean_us": ratio(sum(steps), len(steps)),
        "engine.decode_other_us": ratio(
            sum(steps) - (lut_sum + gather_sum) * 1e6, len(steps)),
        "engine.checkpoint_save_ms":
            percentile(durations("checkpoint.save"), 50) / 1e3,
        "engine.checkpoint_restore_ms":
            percentile(durations("checkpoint.restore"), 50) / 1e3,
        "cache.hit_ratio": ratio(server["cache_token_hits"],
                                 server["cache_token_lookups"]),
        "cache.token_lookups": server["cache_token_lookups"],
        "prefix.hit_ratio": ratio(counter("prefix_hits"),
                                  counter("prefix_lookups")),
        "prefix.lookups": counter("prefix_lookups"),
        "prefix.reused_token_share": ratio(server["prefix_shared_tokens"],
                                           server["prompt_tokens"]),
        "prefix.prompt_tokens": server["prompt_tokens"],
        "prefix.dedup_deferrals": counter("prefix_dedup_deferrals"),
        "serve.round_ms": percentile([e["dur"] for e in rounds], 50) / 1e3,
        "serve.rounds": serve_rounds,
        "serve.steps_per_round": ratio(counter("prefills") + decode_steps,
                                       serve_rounds),
        "serve.seated_per_round": ratio(sum(seated), len(seated)),
        "serve.queue_wait_ms": percentile(durations("queue.wait"), 50) / 1e3,
        "serve.preemptions": counter("sessions_preempted"),
        "memory.gpu_peak_mb": end["gauges"]["gpu_peak_bytes"] / 2.0**20,
        "net.ack_ms": percentile(durations("net.ack", bench), 50) / 1e3,
        "net.frames_sent": counter("net_frames_sent"),
        "net.backpressure_suspends": counter("net_backpressure_suspends"),
        "trace.overhead_ratio": ratio(untraced, traced),
        "trace.untraced_tokens_per_s": untraced,
        "trace.traced_tokens_per_s": traced,
    }
    failures = []
    if len(steps) != decode_steps:
        failures.append("%d engine.decode_step spans but decode_steps grew by "
                        "%d" % (len(steps), decode_steps))
    if len(rounds) != serve_rounds:
        failures.append("%d serve.round spans but serve_rounds grew by %d"
                        % (len(rounds), serve_rounds))
    if lut_n != m["kernel.lut_builds"] or gather_n != m["kernel.gather_reduces"]:
        failures.append("kernel histograms disagree with kernel counters")
    return m, failures


def self_time_table(out_dir):
    """Per span name: count, p50 duration and p50 self time (ms)."""
    events = [e for e in load(os.path.join(out_dir, "trace.json"))["traceEvents"]
              if e.get("ph") == "X"]
    events += load(os.path.join(out_dir, "bench_spans.json"))["traceEvents"]
    rows = {}
    for ev, self_us in self_times(events):
        rows.setdefault(ev["name"], []).append((ev["dur"], self_us))
    table = []
    for name, spans in sorted(rows.items()):
        table.append((name, len(spans),
                      percentile([d for d, _ in spans], 50) / 1e3,
                      percentile([s for _, s in spans], 50) / 1e3))
    return table


def main(argv):
    out_dir = argv[1] if len(argv) > 1 else ".bench_build/out"
    result = load(os.path.join(out_dir, "result.json"))
    metrics, failures = per_layer(out_dir, result)
    print("%-34s %14s  %s" % ("span", "count", "p50 ms / p50 self ms"))
    for name, n, dur, self_ms in self_time_table(out_dir):
        print("%-34s %14d  %.4f / %.4f" % (name, n, dur, self_ms))
    print()
    for name, unit in PER_LAYER:
        print("%-34s %14.6g %s" % (name, metrics[name], unit))
    for failure in failures:
        print("INCONSISTENT: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
