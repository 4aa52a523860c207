#!/usr/bin/env python3
"""Self-check of the benchmark, in short mode (a few steps per call).

Run from the repository root:

    python3 e2ebench/selfcheck.py

For every workload in BENCHMARK.json, and for the unregistered duct3d_lb,
it runs the untraced and the traced mode twice with one seed and checks
that

  * each run exits 0 with correct=true, failed=0 and attempted >= 1;
  * the metrics are exactly the ones BENCHMARK.json names for that mode,
    each with its unit, and every end-to-end value is positive;
  * the seed is echoed in the output;
  * the exact counts repeat exactly between the two traced runs.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
EXACT = ["comm.msgs_per_step", "comm.doubles_per_step", "io.dump_bytes",
         "runtime.restarts", "runtime.forks"]
# Runnable by hand but not registered (see README.md, "Workloads").
UNREGISTERED = ["duct3d_lb"]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--short"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    where = "%s trace=%d" % (workload, trace)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit("selfcheck: %s exited %d" % (where, p.returncode))
    lines = p.stdout.strip().splitlines()
    if not any(("seed=%d" % SEED) in line for line in lines):
        raise SystemExit("selfcheck: %s does not echo its seed" % where)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit("selfcheck: %s result keys %s" % (
            where, sorted(result)))
    if not (result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1):
        raise SystemExit("selfcheck: %s not correct: %s" % (where, lines[-1]))
    return result


def check_metrics(result, defs, where, positive):
    metrics = result["metrics"]
    names = [d["name"] for d in defs]
    if sorted(metrics) != sorted(names):
        raise SystemExit("selfcheck: %s metrics differ from BENCHMARK.json: "
                         "extra %s, missing %s" % (
                             where, sorted(set(metrics) - set(names)),
                             sorted(set(names) - set(metrics))))
    for d in defs:
        m = metrics[d["name"]]
        if m["unit"] != d["unit"]:
            raise SystemExit("selfcheck: %s %s has unit %s, want %s" % (
                where, d["name"], m["unit"], d["unit"]))
        if positive and not m["value"] > 0:
            raise SystemExit("selfcheck: %s %s = %r is not positive" % (
                where, d["name"], m["value"]))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    for name in [w["name"] for w in spec["workloads"]] + UNREGISTERED:
        for trace, defs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            first, second = run(name, trace), run(name, trace)
            for r in (first, second):
                check_metrics(r, defs, "%s trace=%d" % (name, trace),
                              positive=trace == 0)
            if trace == 1:
                for k in EXACT:
                    a = first["metrics"][k]["value"]
                    b = second["metrics"][k]["value"]
                    if a != b:
                        raise SystemExit("selfcheck: %s %s does not repeat: "
                                         "%r vs %r" % (name, k, a, b))
        print("selfcheck: %s ok" % name, flush=True)
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
