"""Command-line front end: dynamics traces, witness scans, cycles, sweeps.

Commands
--------
* ``dynamics`` -- power-ratio trace sin^2 F(t) for both analytic profiles.
* ``witness``  -- coupling, phase, rate and CP-divisibility witness scan.
* ``cycle``    -- one strongly coupled cycle: per-stroke CSV plus a summary.
* ``sweep``    -- grid over one cycle parameter, one CSV row per point.

``dynamics``, ``witness`` and ``sweep`` evaluate the closed forms once, on
their whole grid of times or parameter values.

Output is CSV with '#'-prefixed metadata lines, decimal serialization at 17
significant digits. Exit codes: 0 success, 1 usage/config error, 2
runtime/I-O error, 3 audit failure. ``QOTTO_OUT_DIR`` supplies the default
directory for relative output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Sequence

import numpy as np

from . import __version__
from .cycle import (NUMERIC_FIELDS, SWEEP_AXES, CycleConfig, CycleReport, build_config,
                    max_energy_deviation, strong_cycle, strong_cycle_sweep,
                    strong_cycle_via_oracle, STROKE_ORDER)
from .errors import ConfigError, QottoError
from .profiles import profile_from_spec, time_grid
# perfbench/tracing.py wraps these here, tests/test_perfbench_bindings.py pins them; ROADMAP item 3 removes them
from .cycle import apply_axis
from .dynamics import cp_divisibility_witness, vectorized_reps
from .profiles import rate_gamma
from .tolerances import TOL

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_AUDIT = 3

_PROFILE_KEYS = ("profile_h", "profile_c")
_ANALYTIC_PROFILES = ("markovian", "nonmarkovian")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _quote(value: str) -> str:
    """A string cell, quoted as in RFC 4180 where it holds a comma, a quote or a line break."""
    if "," in value or '"' in value or "\n" in value or "\r" in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return _quote(value) if isinstance(value, str) else str(value)


def _row_format(row) -> tuple[str, list[int]]:
    """printf format of a CSV row ('%.17g' per float cell, '%s' per other cell) and the
    positions of its string cells."""
    fmt = ",".join("%.17g" if isinstance(cell, float) else "%s" for cell in row) + "\n"
    return fmt, [k for k, cell in enumerate(row) if isinstance(cell, str)]


def _resolve_out(path: str | None):
    if path is None:
        return None
    if not os.path.isabs(path):
        base = os.environ.get("QOTTO_OUT_DIR")
        if base:
            path = os.path.join(base, path)
    return path


def _write_csv(path: str | None, header: list[str], rows: Iterable[Sequence],
               metadata: dict) -> None:
    def emit(stream):
        stream.write(f"# qotto {__version__}\n")
        for key, value in metadata.items():
            stream.write(f"# {key} = {_fmt(value)}\n")
        stream.write(",".join(header) + "\n")
        formats = {}  # cell types of a row -> its format; a table has one or two
        for row in rows:
            kinds = tuple(map(type, row))
            if kinds not in formats:
                formats[kinds] = _row_format(row)
            fmt, strings = formats[kinds]
            if strings:
                row = list(row)
                for k in strings:
                    row[k] = _quote(row[k])
            stream.write(fmt % tuple(row))

    if path is None:
        emit(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8") as stream:
            emit(stream)


# --- configuration ----------------------------------------------------------

_DEFAULT_CONFIG = {
    "omega_c": 1.0, "omega_h": 2.0, "beta_c": 1.0, "beta_h": 0.2,
    "tau_u1": 0.0, "tau_h": 2.0, "tau_u2": 0.0, "tau_c": 2.0,
    "profile_h": "markovian", "profile_c": "markovian",
}


def _parse_overrides(pairs: list[str]) -> dict:
    out, problems = {}, []
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep:
            problems.append(f"--set expects key=value, got '{pair}'")
        elif key in NUMERIC_FIELDS:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value  # as text, for the validator to name
        elif key in _PROFILE_KEYS:
            out[key] = value.strip()
        else:
            problems.append(f"unknown config key '{key}'")
    if problems:
        raise ConfigError(problems)
    return out


def load_cycle_config(path: str | None, overrides: dict) -> tuple[CycleConfig, dict]:
    raw = dict(_DEFAULT_CONFIG)
    if path is not None:
        with open(path, encoding="utf-8") as stream:
            data = json.load(stream)
        if not isinstance(data, dict):
            raise ConfigError(["config file must hold a JSON object, "
                               f"got {type(data).__name__}"])
        unknown = set(data) - set(_DEFAULT_CONFIG)
        if unknown:
            raise ConfigError([f"unknown config key '{k}'" for k in sorted(unknown)])
        raw.update(data)
    raw.update(overrides)
    config = build_config(**{key: raw[key] for key in NUMERIC_FIELDS},
                          kind_h=raw["profile_h"], kind_c=raw["profile_c"])
    return config, {f"config.{key}": raw[key] for key in sorted(raw)}


# --- commands ----------------------------------------------------------------

def _check_scan(args) -> None:
    """The --t-max and --points bounds shared by the dynamics and witness scans."""
    if args.t_max <= 0.0:
        raise ConfigError([f"--t-max must be positive, got {args.t_max}"])
    if not math.isfinite(args.t_max):
        raise ConfigError([f"--t-max must be finite, got {args.t_max}"])
    if args.points < 2:
        raise ConfigError([f"--points must be >= 2, got {args.points}"])


def _columns_csv(columns: list) -> Iterable[tuple]:
    """CSV rows from equal-length columns: ndarrays, lists or ranges."""
    return zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))


def run_power_trace(args) -> int:
    """Thermalization-weight trace sin^2 F(t) for both analytic profiles."""
    _check_scan(args)
    ts = np.linspace(0.0, args.t_max, args.points)
    with np.errstate(over="ignore"):  # intermediate terms overflow near the float maximum
        columns = [ts] + [profile_from_spec(name, args.g).thermal_weight(ts)
                          for name in _ANALYTIC_PROFILES]
    meta = {"command": "dynamics", "g": args.g, "t_max": args.t_max,
            "points": args.points, "seed": args.seed}
    _write_csv(_resolve_out(args.out), ["t", "p_ratio_markovian", "p_ratio_nonmarkovian"],
               _columns_csv(columns), meta)
    return EXIT_OK


def run_witness_scan(args) -> int:
    """Rate and CP-divisibility witness scan over (0, t_max] for both profiles."""
    _check_scan(args)
    omega = 1.0  # the projected witness spectrum does not depend on omega
    header, ts = ["t"], time_grid(args.t_max, args.points)
    columns = [ts]
    for name in _ANALYTIC_PROFILES:
        profile = profile_from_spec(name, args.g)
        with np.errstate(over="ignore"):  # intermediate terms overflow near the float maximum
            f, phase, gamma = profile.f(ts), profile.phase(ts), profile.rate(ts)
        # the projected witness is diag(0, (1+g) gamma, (1-g) gamma, 0)
        # (PRL 105, 050403); cp_divisibility_witness is its 4x4 audit route
        wmin = np.minimum(np.minimum(0.0, (1.0 + profile.g) * gamma), (1.0 - profile.g) * gamma)
        flag = np.where(np.isnan(gamma), -1, gamma >= TOL.rate_floor)  # -1: map singular
        header += [f"f_{name}", f"F_{name}", f"gamma_{name}",
                   f"markovian_flag_{name}", f"witness_min_eig_{name}"]
        columns += [f, phase, gamma, flag, wmin]
    meta = {"command": "witness", "g": args.g, "t_max": args.t_max,
            "points": args.points, "omega": omega, "seed": args.seed}
    _write_csv(_resolve_out(args.out), header, _columns_csv(columns), meta)
    return EXIT_OK


def _stroke_rows(report: CycleReport, oracle: CycleReport | None) -> tuple[list, list]:
    header = ["stroke", "work", "heat", "energy_initial", "energy_final",
              "entropy_production"]
    if oracle is not None:
        header += ["work_oracle", "heat_oracle"]
    rows = []
    for name in STROKE_ORDER:
        lg = report.strokes[name]
        row = [name, lg.work, lg.heat, lg.internal_energy_initial,
               lg.internal_energy_final, lg.entropy_production]
        if oracle is not None:
            row += [oracle.strokes[name].work, oracle.strokes[name].heat]
        rows.append(row)
    first = report.strokes[STROKE_ORDER[0]]
    last = report.strokes[STROKE_ORDER[-1]]
    total = ["total", report.work_total, report.heat_hot + report.heat_cold,
             first.internal_energy_initial, last.internal_energy_final,
             sum(report.strokes[n].entropy_production for n in STROKE_ORDER)]
    if oracle is not None:
        total += [oracle.work_total, oracle.heat_hot + oracle.heat_cold]
    rows.append(total)
    return header, rows


def _summary(report: CycleReport, audits: dict) -> str:
    lines = [
        f"regime: {report.regime}",
        f"W = {report.work_total:.10g}   Q_h = {report.heat_hot:.10g}   "
        f"Q_c = {report.heat_cold:.10g}   tau = {report.tau:.10g}",
        f"thermal weights: hot {report.thermal_weight_hot:.10g}, "
        f"cold {report.thermal_weight_cold:.10g}",
    ]
    if report.regime == "refrigerator":
        lines.append(f"K = {report.cop:.10g} (K0 = {report.cop0:.10g}, "
                     f"Carnot bound {report.carnot_cop:.10g})")
        lines.append(f"kappa = {report.kappa:.10g} (kappa0 = {report.kappa0:.10g})")
    else:
        lines.append(f"eta = {report.eta:.10g} (eta0 = {report.eta0:.10g}, "
                     f"Carnot bound {report.carnot_eta:.10g})")
        lines.append(f"P = {report.power:.10g} (P0 = {report.power0:.10g})")
    lines.append(f"cyclicity residual: {report.cyclicity_residual:.3e}   "
                 f"stored-energy mismatch: {report.energy_residual:.10g}")
    for name, (value, ok) in audits.items():
        lines.append(f"audit {name}: {'pass' if ok else 'FAIL'} ({value:.3e})")
    return "\n".join(lines)


def run_cycle(args) -> int:
    """One strongly coupled cycle: per-stroke CSV plus human-readable summary."""
    config, config_meta = load_cycle_config(args.config, _parse_overrides(args.set))
    report = strong_cycle(config)
    oracle = strong_cycle_via_oracle(config) if args.oracle else None
    audits = report.law_audits()

    header, rows = _stroke_rows(report, oracle)
    meta = {"command": "cycle", "seed": args.seed, **config_meta}
    for profile, name in ((config.profile_h, "profile_h"), (config.profile_c, "profile_c")):
        if getattr(profile, "head_phase_approximated", False):
            meta[f"{name}.head_phase_approximated"] = True
    if oracle is not None:
        oracle_dev = max_energy_deviation(report, oracle)
        meta["oracle_max_energy_deviation"] = oracle_dev
        relative_dev = oracle_dev / config.omega_h  # in units of omega_h, as the law audits
        audits["oracle_match"] = (relative_dev, relative_dev <= TOL.oracle_cycle_match)
    out = _resolve_out(args.out)
    _write_csv(out, header, rows, meta)
    print(_summary(report, audits), file=sys.stderr if out is None else sys.stdout)

    failed = [name for name, (_, ok) in audits.items() if not ok]
    if failed:
        print(f"audit failure: {', '.join(failed)}", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


# sweep metric columns in CSV order, each with the sweep metric it holds; a stroke
# name stands for the stroke's work
_SWEEP_METRICS = {
    "work": "work_total",
    **{name: name for name in (
        "heat_hot", "heat_cold", "eta", "power", "kappa", "cop", "eta0", "power0", "kappa0",
        "cop0", "carnot_eta", "carnot_cop", "thermal_weight_hot", "thermal_weight_cold")},
    **{f"w_{stroke}": stroke
       for stroke in ("connect_hot", "disconnect_hot", "connect_cold", "disconnect_cold")},
    "cyclicity_residual": "cyclicity_residual",
    "energy_residual": "energy_residual",
}


def run_sweep(args) -> int:
    """Grid over one cycle parameter; deterministic row order by grid index."""
    if args.sweep is None:
        raise ConfigError(["sweep requires --sweep AXIS:LO:HI:N"])
    parts = args.sweep.split(":")
    if len(parts) != 4:
        raise ConfigError([f"--sweep expects AXIS:LO:HI:N, got '{args.sweep}'"])
    axis, lo, hi, count = parts[0], parts[1], parts[2], parts[3]
    if axis not in SWEEP_AXES:
        raise ConfigError([f"sweep axis must be one of {', '.join(SWEEP_AXES)}, got '{axis}'"])
    try:
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise ConfigError([f"--sweep bounds must be numeric, got '{args.sweep}'"])
    try:
        count = int(count)
    except ValueError:
        raise ConfigError([f"--sweep count must be an integer, got '{count}'"])
    if count < 1 or (count > 1 and hi <= lo):
        raise ConfigError([f"degenerate sweep range '{args.sweep}'"])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError([f"--sweep bounds must be finite, got '{args.sweep}'"])

    base, config_meta = load_cycle_config(args.config, _parse_overrides(args.set))
    sweep = strong_cycle_sweep(base, axis, np.linspace(lo, hi, count))
    metrics = {**sweep.metrics, **{name: ledger.work for name, ledger in sweep.strokes.items()}}
    header = ["index", axis, "valid", "regime", *_SWEEP_METRICS, "error"]
    columns = [range(count), sweep.values, sweep.valid.astype(int),
               np.where(sweep.valid, sweep.metrics["regime"], "skipped"),
               *(metrics[key] for key in _SWEEP_METRICS.values()), sweep.errors]
    meta = {"command": "sweep", "axis": axis, "lo": lo, "hi": hi, "count": count,
            "seed": args.seed, **config_meta}
    _write_csv(_resolve_out(args.out), header, _columns_csv(columns), meta)
    return EXIT_OK


# --- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qotto",
                     description="Two-qubit Otto cycle simulator with finite single-qubit baths")
    parser.add_argument("--version", action="version", version=f"qotto {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.add_argument("--seed", type=int, default=0,
                       help="pipeline label echoed into the metadata; nothing in qotto is random")

    p_dyn = sub.add_parser("dynamics", help="power-ratio trace for both profiles")
    p_dyn.add_argument("--g", type=float, default=0.8)
    p_dyn.add_argument("--t-max", type=float, default=5.0, dest="t_max")
    p_dyn.add_argument("--points", type=int, default=500)
    common(p_dyn)

    p_wit = sub.add_parser("witness", help="rate and CP-divisibility witness scan")
    p_wit.add_argument("--g", type=float, default=0.8)
    p_wit.add_argument("--t-max", type=float, default=2.0, dest="t_max")
    p_wit.add_argument("--points", type=int, default=2000)
    common(p_wit)

    p_cyc = sub.add_parser("cycle", help="run one strongly coupled Otto cycle")
    p_cyc.add_argument("--config", default=None, help="JSON config file (flat keys)")
    p_cyc.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config entry (repeatable)")
    p_cyc.add_argument("--oracle", action="store_true",
                       help="also integrate every contact stroke numerically")
    common(p_cyc)

    p_swp = sub.add_parser("sweep", help="sweep one cycle parameter")
    p_swp.add_argument("--config", default=None)
    p_swp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_swp.add_argument("--sweep", default=None, metavar="AXIS:LO:HI:N")
    common(p_swp)

    return parser


_COMMANDS = {"dynamics": run_power_trace, "witness": run_witness_scan,
             "cycle": run_cycle, "sweep": run_sweep}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QottoError, OSError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
