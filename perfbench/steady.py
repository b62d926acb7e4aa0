"""Steadiness of the benchmark: two sets of runs of every workload.

    python3 perfbench/steady.py [--runs 10] [--trace 0|1]

Each set runs every workload in BENCHMARK.json once per seed 1..runs, for
the run length BENCHMARK.json fixes. For every end-to-end metric it prints
each set's median, quartiles and spread (q3 - q1) / median against the
metric's bound, and how far the second set's median moved from the first;
both must stay within the bound, in either direction. It checks that the
share of failed operations is the same in every run. With ``--trace 1`` it
checks instead that every count among the per-layer metrics repeats between
the sets. The summary is written to ``.perfbench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        bench = json.load(stream)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary, ok = {}, True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[run_once(workload, seed, bench["run_seconds"], args.trace)
                 for seed in range(1, args.runs + 1)] for _ in range(SETS)]
        runs = [r for results in sets for r in results]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        walls = [r["wall_s"] for r in runs]
        print(f"{workload}: {len(runs)} runs of {min(walls):.1f}-{max(walls):.1f} s, "
              f"correct {correct}, failed share "
              + ", ".join(f"{s.numerator}/{s.denominator}" for s in shares))
        ok &= correct and len(shares) == 1
        entry = {"correct": correct, "failed_shares": sorted(str(s) for s in shares),
                 "attempted": sorted({r["attempted"] for r in runs}), "metrics": {}}
        if args.trace:
            # the same seeds in each set: every count must repeat exactly
            for name in runs[0]["metrics"]:
                if runs[0]["metrics"][name]["unit"] == "count":
                    values = [[r["metrics"][name]["value"] for r in results] for results in sets]
                    same = all(v == values[0] for v in values)
                    entry["metrics"][name] = {"repeats": same}
                    ok &= same
                    if not same:
                        print(f"  {name} differs between sets: {values}")
        else:
            for name, bound in bounds.items():
                rows = []
                for results in sets:
                    values = [r["metrics"][name]["value"] for r in results]
                    q1, med, q3, rel = spread(values)
                    rows.append({"q1": q1, "median": med, "q3": q3, "spread": rel,
                                 "values": values})
                    ok &= rel <= bound
                    print(f"  {name:12s} median {med:11.5g}  q1 {q1:11.5g}  q3 {q3:11.5g}  "
                          f"spread {rel:6.2%}  bound {bound:.0%}  "
                          + ("ok" if rel <= bound / 3 else "within bound" if rel <= bound
                             else "TOO WIDE"))
                shift = rows[1]["median"] / rows[0]["median"] - 1
                ok &= abs(shift) <= bound
                print(f"  {name:12s} second median moved {shift:+.2%} "
                      + ("ok" if abs(shift) <= bound else "MOVED MORE THAN BOUND"))
                entry["metrics"][name] = rows
        summary[workload] = entry
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w", encoding="utf-8") as stream:
        json.dump(summary, stream, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
