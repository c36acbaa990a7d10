#!/usr/bin/env python3
"""Smoke test of the fleet governing benchmark.

Runs every workload at a tiny size (8 sessions, 12 intervals), untraced
and traced, on two seeds, and asserts that

  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, and correct is true;
  * the metrics printed are exactly those BENCHMARK.json names
    (end_to_end untraced, per_layer traced), each with its unit and a
    finite value;
  * every correctness check passes, and the traced run's digests equal
    the untraced run's (fleet re-run and single-worker per-layer pass);
  * the untraced report names all eight end-to-end metrics.

Run from the root of a source checkout: python3 fleetbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 7)
TINY = ["--sessions", "8", "--intervals", "12", "--seconds", "0.3",
        "--setup-reps", "1"]
REPORT_NAMES = ("setup_s", "intervals_per_s", "epoch_ms_p50",
                "epoch_ms_p99", "peak_rss_mb", "power_mae_w",
                "budget_violation_intervals", "failed_share")
TRACED_DIGEST_CHECKS = ("traced.digests_equal_untraced",
                        "manual.digests_equal_fleet")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + TINY
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return out.returncode, out.stdout.strip().splitlines(), out.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
        return cond

    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in SEEDS:
            for trace, wanted in ((0, bench["end_to_end"]),
                                  (1, bench["per_layer"])):
                tag = "%s seed %d trace %d" % (workload, seed, trace)
                code, lines, err = run(workload, seed, trace)
                if not expect(code == 0 and lines,
                              "%s: exit %d\n%s" % (tag, code, err[-2000:])):
                    continue
                result = json.loads(lines[-1])
                expect(sorted(result) == ["attempted", "correct", "failed",
                                          "metrics"],
                       "%s: result keys %s" % (tag, sorted(result)))
                expect(result["correct"] is True, tag + ": not correct")
                expect(result["attempted"] >= 1 and result["failed"] == 0,
                       "%s: attempted %s failed %s" % (
                           tag, result["attempted"], result["failed"]))
                metrics = result["metrics"]
                expect(sorted(metrics) == sorted(m["name"] for m in wanted),
                       "%s: metric set differs from BENCHMARK.json: %s" % (
                           tag, sorted(set(metrics) ^ {m["name"]
                                                       for m in wanted})))
                for m in wanted:
                    got = metrics.get(m["name"])
                    expect(got is not None and got.get("unit") == m["unit"]
                           and isinstance(got.get("value"), (int, float))
                           and math.isfinite(got["value"]),
                           "%s: metric %s missing or wrong: %s" % (
                               tag, m["name"], got))
                checks = [json.loads(l)["checks"] for l in lines
                          if l.startswith('{"checks"')]
                if expect(len(checks) == 1, tag + ": no check list"):
                    for name, c in checks[0].items():
                        expect(c["ok"], "%s: check %s failed: %s" % (
                            tag, name, c["detail"]))
                    if trace:
                        for name in TRACED_DIGEST_CHECKS:
                            expect(checks[0].get(name, {}).get("ok"),
                                   "%s: %s missing" % (tag, name))
                else:
                    continue
                if not trace:
                    text = "\n".join(lines)
                    for name in REPORT_NAMES:
                        expect(("  " + name + " ") in text,
                               "%s: report lacks %s" % (tag, name))
                print("ok   " + tag, flush=True)

    for f in failures:
        print("FAIL " + f)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
