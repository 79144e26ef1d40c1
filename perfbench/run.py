#!/usr/bin/env python3
"""End-to-end serving benchmark of the PQCache stack.

Builds the library and the benchmark binary in Release under .bench_build/
(from the checkout this file sits in), runs one workload, and prints one
JSON object as its last line of output:

  python3 perfbench/run.py --workload longctx|chat|tenants --seed N \
      --seconds S --trace 0|1 [--rate R] [--one-tenant]

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload
untraced and then traced, and prints the per-layer metrics. A failed build,
a failed output check or an inconsistent trace exits non-zero. See
perfbench/README.md for the workloads and what each metric should move.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")

sys.path.insert(0, HERE)
import report  # noqa: E402


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["longctx", "chat", "tenants"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--rate", type=float, default=0,
                        help="open-loop arrival rate override (req/s)")
    parser.add_argument("--one-tenant", action="store_true",
                        help="tenants: put every request on one tenant")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    if args.rate > 0:
        cmd += ["--rate", str(args.rate)]
    if args.one_tenant:
        cmd.append("--one-tenant")
    code = subprocess.run(cmd, stdout=sys.stderr).returncode
    result_path = os.path.join(out_dir, "result.json")
    if not os.path.exists(result_path):
        print("perfbench: binary exited %d without a result" % code,
              file=sys.stderr)
        return 1
    result = report.load(result_path)
    correct = code == 0 and result["correct"] == 1
    for failure in result["failures"]:
        print("perfbench: CHECK FAILED: " + failure, file=sys.stderr)

    if args.trace:
        values, failures = report.per_layer(out_dir, result)
        for failure in failures:
            print("perfbench: INCONSISTENT TRACE: " + failure, file=sys.stderr)
        correct = correct and not failures
        names = report.PER_LAYER
        for name, n, dur, self_ms in report.self_time_table(out_dir):
            print("span %-30s n=%-7d p50 %.4f ms, self %.4f ms"
                  % (name, n, dur, self_ms))
    else:
        values, samples = report.end_to_end(result)
        names = report.END_TO_END
        for name, (n, p) in samples.items():
            note = "" if p == 50 or report.tail_supported(n, p) else (
                "  (not a tail: %d beyond p%d, fewer than %d)"
                % (report.beyond(n, p), p, report.MIN_BEYOND))
            print("%-22s %12.4f  n=%d%s" % (name, values[name], n, note))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
