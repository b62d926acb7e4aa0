"""Spans around qotto's layers, installed from outside the package.

Each wrapper replaces a public function at the name its caller binds
(``qotto.cycle.joint_state_closed_form``, ``qotto.dynamics.solve_ivp``...),
so qotto's source stays untouched. A span records name, start, end, the
enclosing span and the operation it belongs to; spans stay in memory until
the process ends, when each process appends them to one JSONL file, and the
per-layer table is computed from that file alone.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (module, attribute, span name): the caller-side bindings of each layer
TARGETS = (
    ("qotto.cli", "main", "cli.main"),
    ("qotto.cli", "strong_cycle", "cycle.strong_cycle"),
    ("qotto.cli", "apply_axis", "cycle.apply_axis"),
    ("qotto.cli", "strong_cycle_via_oracle", "cycle.strong_cycle_via_oracle"),
    ("qotto.cli", "rate_gamma", "profiles.rate_gamma"),
    ("qotto.cli", "vectorized_reps", "dynamics.vectorized_reps"),
    ("qotto.cli", "cp_divisibility_witness", "dynamics.cp_divisibility_witness"),
    ("qotto.cycle", "joint_state_closed_form", "dynamics.joint_state_closed_form"),
    ("qotto.cycle", "oracle_propagate", "dynamics.oracle_propagate"),
    ("qotto.thermo", "entropy_production", "thermo.entropy_production"),
    ("qotto.linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("qotto.profiles", "MarkovianProfile.f", "profiles.f"),
    ("qotto.profiles", "MarkovianProfile.phase", "profiles.phase"),
    ("qotto.profiles", "NonMarkovianProfile.f", "profiles.f"),
    ("qotto.profiles", "NonMarkovianProfile.phase", "profiles.phase"),
    ("qotto.profiles", "TabulatedProfile.f", "profiles.f"),
    ("qotto.profiles", "TabulatedProfile.phase", "profiles.phase"),
)

# per-layer metric -> (span name, statistic, scale, unit); "calls" and
# "raised" are per round, "self" is the mean self time per call. A layer the
# workload never enters reads 0 calls and 0 time. A span with a "self" metric
# is timed; the time of the others (hermitian_eig, profiles.*) stays in the
# self time of their nearest timed ancestor.
LAYER_METRICS = {
    "cli.self_ms": ("cli.main", "self", 1e3, "ms"),
    "cycle.strong_cycle.calls": ("cycle.strong_cycle", "calls", 1, "count"),
    "cycle.strong_cycle.raised": ("cycle.strong_cycle", "raised", 1, "count"),
    "cycle.strong_cycle.self_us": ("cycle.strong_cycle", "self", 1e6, "us"),
    "cycle.apply_axis.us": ("cycle.apply_axis", "self", 1e6, "us"),
    "cycle.strong_cycle_via_oracle.self_ms": ("cycle.strong_cycle_via_oracle", "self", 1e3, "ms"),
    "thermo.entropy_production.calls": ("thermo.entropy_production", "calls", 1, "count"),
    "thermo.entropy_production.us": ("thermo.entropy_production", "self", 1e6, "us"),
    "linalg.hermitian_eig.calls": ("linalg.hermitian_eig", "calls", 1, "count"),
    "dynamics.joint_state_closed_form.calls": ("dynamics.joint_state_closed_form", "calls", 1,
                                               "count"),
    "dynamics.joint_state_closed_form.us": ("dynamics.joint_state_closed_form", "self", 1e6,
                                            "us"),
    "dynamics.oracle_propagate.calls": ("dynamics.oracle_propagate", "calls", 1, "count"),
    "dynamics.oracle_propagate.ms": ("dynamics.oracle_propagate", "self", 1e3, "ms"),
    "dynamics.oracle.rhs_evals": ("dynamics.oracle.rhs", "calls", 1, "count"),
    "dynamics.oracle.rhs_us": ("dynamics.oracle.rhs", "self", 1e6, "us"),
    "dynamics.vectorized_reps.calls": ("dynamics.vectorized_reps", "calls", 1, "count"),
    "dynamics.vectorized_reps.raised": ("dynamics.vectorized_reps", "raised", 1, "count"),
    "dynamics.vectorized_reps.us": ("dynamics.vectorized_reps", "self", 1e6, "us"),
    "dynamics.cp_divisibility_witness.us": ("dynamics.cp_divisibility_witness", "self", 1e6,
                                            "us"),
    "profiles.f.calls": ("profiles.f", "calls", 1, "count"),
    "profiles.phase.calls": ("profiles.phase", "calls", 1, "count"),
    "profiles.rate_gamma.calls": ("profiles.rate_gamma", "calls", 1, "count"),
}
TIMED = {spec[0] for spec in LAYER_METRICS.values() if spec[1] == "self"}
DEVIATION = "dynamics.oracle.deviation"  # keeps the value it returns

# every per-layer metric a traced run reports, with its unit
UNITS = {
    "startup.interpreter_ms": "ms",
    "startup.import_qotto_ms": "ms",
    "startup.import_scipy_integrate_ms": "ms",
    **{name: spec[3] for name, spec in LAYER_METRICS.items()},
    "dynamics.oracle.max_dev": "abs",
    "trace.untraced_wall_ms": "ms",
    "trace.traced_wall_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Installs the wrappers and collects one process's spans."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, raised, value]
        self.op = -1
        self._stack = [-1]
        self._saved = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep = name == DEVIATION

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                value = fn(*args, **kwargs)
                if keep:
                    span[6] = value
                return value
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            self._set(owner, attr, self.wrap(name, getattr(owner, attr)))
        dynamics, cli = importlib.import_module("qotto.dynamics"), importlib.import_module("qotto.cli")
        solve_ivp = dynamics.solve_ivp

        def traced_solve_ivp(fun, *args, **kwargs):
            return solve_ivp(self.wrap("dynamics.oracle.rhs", fun), *args, **kwargs)

        self._set(dynamics, "solve_ivp", traced_solve_ivp)
        self._set(cli, "max_energy_deviation", self.wrap(DEVIATION, cli.max_energy_deviation))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def append_to(self, path):
        """Append the spans, one JSON object per line, in the order they started.

        ``index`` and ``parent`` count spans within this process.
        """
        with open(path, "a", encoding="utf-8") as stream:
            for index, (name, start, end, parent, op, raised, value) in enumerate(self.spans):
                stream.write(json.dumps({"op": op, "index": index, "parent": parent,
                                         "name": name, "start": start, "end": end,
                                         "raised": raised, "value": value}) + "\n")


def layer_metrics(path, rounds):
    """The per-layer table from the spans in ``path``, recorded over ``rounds``
    identical rounds.

    Spans are read in the order they started, so the open ancestors of each
    span are the entries of a stack, and a span with parent -1 starts a new
    operation or process. A timed span's self time is its duration minus that
    of its nearest timed descendants.
    """
    stats = {}   # name -> [calls, raised, self seconds]
    stack = []   # open spans: [index, name, duration, timed descendants' time]
    max_dev = 0.0

    def close(entry):
        if entry[1] in TIMED:
            stats[entry[1]][2] += entry[2] - entry[3]

    with open(path, encoding="utf-8") as stream:
        for line in stream:
            span = json.loads(line)
            while stack and stack[-1][0] != span["parent"]:
                close(stack.pop())
            name, duration = span["name"], span["end"] - span["start"]
            s = stats.setdefault(name, [0, 0, 0.0])
            s[0] += 1
            s[1] += span["raised"]
            if name == DEVIATION:
                max_dev = max(max_dev, span["value"])
            if name in TIMED:
                owner = next((e for e in reversed(stack) if e[1] in TIMED), None)
                if owner is not None:
                    owner[3] += duration
            stack.append([span["index"], name, duration, 0.0])
    while stack:
        close(stack.pop())
    out = {}
    for metric, (name, stat, scale, _) in LAYER_METRICS.items():
        calls, raised, self_time = stats.get(name, (0, 0, 0.0))
        if stat == "calls":
            out[metric] = calls // rounds
        elif stat == "raised":
            out[metric] = raised // rounds
        else:
            out[metric] = self_time / calls * scale if calls else 0.0
    out["dynamics.oracle.max_dev"] = max_dev
    return out
