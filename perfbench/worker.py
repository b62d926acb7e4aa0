"""Runs one workload's operations and checks each one's output.

    python worker.py run PLAN.json RESULT.json
    python worker.py cli TRACE.jsonl OP -- <qotto argv>

``run`` executes the rounds in the plan, one operation at a time (a closed
loop with one client). In ``cli_cold`` each operation is a fresh
``python -m qotto`` process; elsewhere it is ``qotto.cli.main(argv)`` in
this process, after one untimed warm-up round. ``cli`` is the traced
stand-in for ``python -m qotto`` that the traced ``cli_cold`` rounds start;
it appends its spans to the run's trace file.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_ROUNDS = 3  # each after an untraced round of the same operations


def time_start(*args):
    """(wall seconds, stderr) of a fresh interpreter run with ``args``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} failed: {proc.stderr[-500:]}")
    return elapsed, proc.stderr


def startup_layers(code, starts):
    """Medians over fresh interpreters: bare start, and -X importtime of qotto
    and scipy.integrate (cumulative; a module not imported reads 0)."""
    bare = [time_start("-c", "pass")[0] for _ in range(starts)]
    found = {"qotto": [], "scipy.integrate": []}
    for _ in range(starts):
        seen = dict.fromkeys(found, 0.0)
        for line in time_start("-X", "importtime", "-c", code)[1].splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in seen:
                seen[parts[2]] = int(parts[1]) / 1e3
        for name, value in seen.items():
            found[name].append(value)
    return {"startup.interpreter_ms": statistics.median(bare) * 1e3,
            "startup.import_qotto_ms": statistics.median(found["qotto"]),
            "startup.import_scipy_integrate_ms": statistics.median(found["scipy.integrate"])}


def _data_rows(text: str) -> int:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return max(len(lines) - 1, 0)


class Runner:
    def __init__(self, plan):
        self.plan = plan
        self.cold = plan["workload"] == "cli_cold"
        self.tracer = None
        self.attempts = 0  # operation id of the spans, unique within the run
        self.trace_path = os.path.join(plan["workdir"], "trace.jsonl")
        if not self.cold:
            import qotto.cli
            self.cli = qotto.cli

    def run_op(self, op_id, op, traced):
        """(seconds, exit code) of one operation; the output is left in op['out']."""
        if os.path.exists(op["out"]):
            os.remove(op["out"])
        if self.cold:
            if traced:
                cmd = [sys.executable, os.path.join(HERE, "worker.py"), "cli",
                       self.trace_path, str(op_id), "--", *op["argv"]]
            else:
                cmd = [sys.executable, "-m", "qotto", *op["argv"]]
            start = time.perf_counter()
            code = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
            return time.perf_counter() - start, code
        if traced:
            self.tracer.op = op_id
        start = time.perf_counter()
        try:
            code = self.cli.main(op["argv"])
        except Exception:  # an escaped traceback is a failed operation
            code = -1
        return time.perf_counter() - start, code

    def round(self, traced, stats, samples):
        """One pass over the plan's operations; returns its wall time."""
        if traced and not self.cold:
            self.tracer.install()
        wall = 0.0
        try:
            for op in self.plan["ops"]:
                self.attempts += 1
                elapsed, code = self.run_op(self.attempts, op, traced)
                wall += elapsed
                try:
                    with open(op["out"], encoding="utf-8") as stream:
                        text = stream.read()
                except FileNotFoundError:
                    text = ""
                failed, problems = checks.check(op, text, code)
                if stats is not None:
                    stats["times"].append(elapsed)
                    stats["rows"] += _data_rows(text)
                    stats["attempted"] += 1
                    stats["failed"] += failed
                    stats["problems"] += [f"{op['id']}: {p}" for p in problems]
                if not failed and op["cmd"] not in samples:
                    samples[op["cmd"]] = (op, text)
        finally:
            if traced and not self.cold:
                self.tracer.uninstall()
        return wall

    def run(self):
        plan = self.plan
        stats = {"times": [], "rows": 0, "attempted": 0, "failed": 0, "problems": []}
        samples = {}
        if not self.cold:
            self.round(False, None, samples)
        result = {}
        if plan["trace"]:
            # untraced and traced rounds alternate, and the overhead is the
            # median over operations of traced / untraced time in adjacent
            # rounds, so drift in the shared core's speed mostly cancels
            self.tracer = tracing.Tracer()
            n, walls, ratios = len(plan["ops"]), [0.0, 0.0], []
            for _ in range(TRACED_ROUNDS):
                walls[0] += self.round(False, stats, samples)
                walls[1] += self.round(True, stats, samples)
                times = stats["times"][-2 * n:]
                ratios += [t / u for u, t in zip(times[:n], times[n:])]
            if not self.cold:
                self.tracer.append_to(self.trace_path)
            result["layers"] = tracing.layer_metrics(self.trace_path, TRACED_ROUNDS)
            result["layers"].update(startup_layers(plan["setup_code"], plan["setup_starts"]))
            result["layers"].update({"trace.untraced_wall_ms": walls[0] * 1e3,
                                     "trace.traced_wall_ms": walls[1] * 1e3,
                                     "trace.overhead_ratio": statistics.median(ratios)})
        else:
            # set-up starts are spread over the run, so a slow phase of the
            # shared core falls on a few of them rather than on all
            rounds, starts = plan["rounds"], plan["setup_starts"]
            result["setup_s"] = []
            for r in range(rounds):
                for _ in range(sum(k * rounds // starts == r for k in range(starts))):
                    result["setup_s"].append(time_start("-c", plan["setup_code"])[0])
                self.round(False, stats, samples)
        stats["problems"] += checks.self_test(list(samples.values()))
        who = resource.RUSAGE_CHILDREN if self.cold else resource.RUSAGE_SELF
        result.update(stats, peak_rss_kb=resource.getrusage(who).ru_maxrss)
        return result


def traced_cli(trace_path, op, argv):
    tracer = tracing.Tracer()
    tracer.op = op
    import qotto.cli
    tracer.install()
    try:
        code = qotto.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.append_to(trace_path)
    return code


def main(argv):
    if argv[:1] == ["run"] and len(argv) == 3:
        with open(argv[1], encoding="utf-8") as stream:
            plan = json.load(stream)
        result = Runner(plan).run()
        with open(argv[2], "w", encoding="utf-8") as stream:
            json.dump(result, stream)
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 4 and argv[3] == "--":
        return traced_cli(argv[1], int(argv[2]), argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
