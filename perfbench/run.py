"""qotto benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qotto is imported from ``src/``.
With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run instead. Inputs, outputs and traces go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

STARTS = 3              # fresh interpreters timed per run for set-up figures
WORKER_TIMEOUT_S = 165  # a run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "rows_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def child_env() -> dict:
    """qotto from this checkout; BLAS pinned to one thread (the machine has 2 cores)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    return env


# the import must resolve to this checkout's src/, not an installed copy
_IMPORT = ("import os, qotto; "
           f"raise SystemExit(0 if os.path.dirname(os.path.dirname(qotto.__file__)) == {SRC!r} else 3)")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qotto", "cli.py")):
        return fail(f"no qotto source under {SRC}; run from a source checkout")
    env = child_env()
    workdir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.plan(args.workload, args.seed, workdir)
    rounds = workloads.rounds_for(args.workload, args.seconds)
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as stream:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                   "trace": args.trace, "workdir": workdir, "setup_code": _IMPORT,
                   "setup_starts": STARTS, "ops": ops}, stream)
    # the worker leads its own process group, so a timeout also stops the
    # fresh interpreters it has started
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), "run",
                             plan_path, result_path], env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        return fail(f"worker exited with {proc.returncode}: {stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as stream:
        res = json.load(stream)

    times = res["times"]
    for problem in res["problems"][:20]:
        print(f"check failed: {problem}")
    print(f"{args.workload} seed {args.seed}: {res['attempted']} operations "
          f"({len(ops)} per round), {res['failed']} failed, "
          f"{len(res['problems'])} check problems")
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in tracing.UNITS.items()}
        for name, metric in metrics.items():
            print(f"  {name:42s} {metric['value']:12.6g} {metric['unit']}")
    else:
        metrics = {"setup_s": statistics.median(res["setup_s"]),
                   "op_p50_ms": statistics.median(times) * 1e3,
                   "rows_per_s": res["rows"] / sum(times),
                   "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
        for name, value in metrics.items():
            print(f"  {name:12s} {value:12.6g} {END_TO_END_UNITS[name]}"
                  + (f"  (median of {len(times)} operations)" if name == "op_p50_ms" else "")
                  + (f"  (median of {STARTS} starts)" if name == "setup_s" else ""))
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in metrics.items()}
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
