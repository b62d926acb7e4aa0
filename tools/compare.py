"""Paired A/B benchmark comparison of two checkouts of qotto on one workload.

    python tools/compare.py --parent DIR --change DIR --workload W --seed S --pairs N
                            [--seconds 22] [--out BENCH.json]

Runs each checkout's own ``perfbench/run.py --workload W --seed S --seconds T
--trace 0``, from the root of that checkout, N times in alternating pairs: the
parent runs first in odd pairs and the change first in even pairs. For each
end-to-end metric of the change's ``BENCHMARK.json`` it reports both sides'
medians and quartiles, the pairs the change wins, and the median of the
per-pair ratio change / parent with a distribution-free 95 % interval (order
statistics of the ratios). It also reports the verdict of the claim rule: the
change wins at least 9 pairs in 10, and its median beats the parent's by more
than the parent's interquartile spread.

With ``--parent`` equal to ``--change`` the run is an A/A comparison: its
interval is the smallest effect a claim can resolve on that machine.

The comparison goes to stdout as JSON; with ``--out`` it is added to that
file's ``comparisons`` (the file is made if it does not exist). The exit code
is 1 if a run fails or reports a failed operation or ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 600  # perfbench/run.py stops its own worker after 165 s
LEVEL = 0.95
WIN_SHARE = 0.9  # the claim rule's 9 wins in 10


def median_interval(values: list[float]) -> dict:
    """The distribution-free interval of the median of ``values``: the order statistics
    x_(k) and x_(n+1-k) for the largest k whose coverage 1 - 2 P(B <= k - 1), with B
    binomial (n, 1/2), is at least ``LEVEL``; both ends None when even the extremes
    fall short (n < 6 at 95 %)."""
    xs, n = sorted(values), len(values)
    k, coverage = 0, 0.0
    while k < n // 2:
        tail = sum(math.comb(n, j) for j in range(k + 1)) / 2 ** n
        if 1.0 - 2.0 * tail < LEVEL:
            break
        k, coverage = k + 1, 1.0 - 2.0 * tail
    return {"lo": xs[k - 1] if k else None, "hi": xs[n - k] if k else None,
            "coverage": coverage}


def _quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Paired statistics of one metric over runs in pairs (``parent[i]``, ``change[i]``);
    ``better`` is "higher" or "lower".

    ``claim_rule`` holds when the change wins at least ``WIN_SHARE`` of the pairs and its
    median beats the parent's by more than the parent's interquartile spread;
    ``paired_rule`` when the ratio's interval lies wholly on the better side of 1."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of runs")
    sign = 1.0 if better == "higher" else -1.0
    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = _quartiles(parent), _quartiles(change)
    interval = median_interval(ratios)
    ends = [interval["lo"], interval["hi"]]
    return {
        "better": better, "pairs": len(parent),
        "parent_median": p_med, "parent_q1_q3": p_q,
        "change_median": c_med, "change_q1_q3": c_q,
        "change_wins": wins, "median_change": c_med / p_med - 1.0,
        "ratio_median": statistics.median(ratios), "ratio_interval": interval,
        "claim_rule": (wins >= math.ceil(WIN_SHARE * len(parent))
                       and sign * (c_med - p_med) > p_q[1] - p_q[0]),
        "paired_rule": None not in ends and all(sign * (r - 1.0) > 0.0 for r in ends),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py`` run of a checkout, or its failure."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def compare(parent: Path, change: Path, workload: str, seed: int, pairs: int,
            seconds: float) -> dict:
    """Alternating pairs of runs of both checkouts and the statistics of each metric."""
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(parent if side == "parent" else change, workload, seed,
                                  seconds)
        runs.append(pair)
        print(f"pair {k + 1}/{pairs}: " + ", ".join(
            f"{side} {pair[side].get('metrics', pair[side].get('error'))}"
            for side in ("parent", "change")), file=sys.stderr)
    done = [pair for pair in runs if all("metrics" in pair[side] for side in ("parent", "change"))]
    metrics = {}
    if len(done) >= 2:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarize([pair["parent"]["metrics"][name] for pair in done],
                              [pair["change"]["metrics"][name] for pair in done],
                              metric["better"])
            worse = -stats["median_change"] if metric["better"] == "higher" \
                else stats["median_change"]
            metrics[name] = {**stats, "bound": metric["bound"],
                             "within_bound": worse <= metric["bound"]}
    healthy = all(pair[side].get("correct") is True and pair[side].get("failed") == 0
                  for pair in runs for side in ("parent", "change"))
    return {"workload": workload, "seed": seed, "pairs": pairs, "seconds": seconds,
            "healthy": healthy, "metrics": metrics, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--change", required=True, type=Path, help="checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0, help="perfbench --seconds")
    parser.add_argument("--out", type=Path, help="BENCH file to add the comparison to")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    for checkout in (parent, change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {checkout}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    result = {"parent": str(args.parent), "change": str(args.change),
              **compare(parent, change, args.workload, args.seed, args.pairs, args.seconds)}
    print(json.dumps(result, indent=1))
    if args.out is not None:
        bench = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {
            "command": "python tools/compare.py --parent DIR --change DIR --workload W "
                       "--seed S --pairs N --seconds T",
            "machine": {"os": platform.platform(), "python": platform.python_version(),
                        "logical_cpus": os.cpu_count()},
            "comparisons": []})
        bench["comparisons"].append(result)
        args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0 if result["healthy"] else 1


if __name__ == "__main__":
    sys.exit(main())
