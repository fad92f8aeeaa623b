#!/usr/bin/env python3
"""Run every workload of the benchmark from one seed and validate each result.

    python3 perfbench/suite.py --seed N [--smoke]

For each workload in BENCHMARK.json this runs perfbench/run.py untraced
(--trace 0) and traced (--trace 1), prints the human-readable report of each
run, and checks the final JSON line: exactly the keys correct / attempted /
failed / metrics, every metric the mode requires present, finite and carrying
its unit, the output checks passed, no operation failed and the run is
valid.  Exits 1 if any of that does not hold.  Each run measures for
BENCHMARK.json's run_seconds.

--smoke shrinks every workload to a tiny trace (batch: 1 day, 16 nodes; serve:
Citysee.tiny) and measures for 1 s
(seconds per run, not minutes): the benchmark's own smoke test.  Run from
the root of a checkout.
"""

import argparse
import json
import math
import subprocess
import sys


def check_result(line, spec, trace):
    want = spec["per_layer" if trace else "end_to_end"]
    problems = []
    try:
        res = json.loads(line)
    except ValueError:
        return [f"last line is not JSON: {line[:200]!r}"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
        return problems
    if res["correct"] is not True:
        problems.append("an output check failed")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append(f"attempted = {res['attempted']}")
    if res["failed"] != 0:
        problems.append(f"{res['failed']} of {res['attempted']} operations failed")
    metrics = res["metrics"]
    names = {m["name"] for m in want}
    if set(metrics) != names:
        problems.append(f"metrics missing {sorted(names - set(metrics))} "
                        f"extra {sorted(set(metrics) - names)}")
    for m in want:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{m['name']}: value {v!r} is not a finite number")
        elif not trace and v <= 0:
            problems.append(f"{m['name']}: end-to-end value {v} is not positive")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = 1 if args.smoke else spec["run_seconds"]
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            if args.smoke:
                cmd += ["--scale", "smoke"]
            r = subprocess.run(cmd, capture_output=True, text=True)
            out = r.stdout.strip().splitlines()
            print("\n".join(out[:-1]))
            if r.returncode != 0 or not out:
                problems = [f"exit {r.returncode}: {r.stderr.strip()[-500:]}"]
            else:
                problems = check_result(out[-1], spec, trace)
                if out[0].endswith("valid False"):
                    problems.append("run invalid: the load generator fell behind")
            status = "ok" if not problems else "FAIL"
            print(f"== {w['name']} --trace {trace}: {status}")
            for p in problems:
                print(f"   {p}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
