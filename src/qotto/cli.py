"""Command-line front end: dynamics traces, witness scans, cycles, sweeps.

Commands
--------
* ``dynamics`` -- power-ratio trace sin^2 F(t) for both analytic profiles.
* ``witness``  -- coupling, phase, rate and CP-divisibility witness scan.
* ``cycle``    -- one strongly coupled cycle: per-stroke CSV plus a summary.
* ``sweep``    -- grid over one cycle parameter, one CSV row per point.

``dynamics``, ``witness`` and ``sweep`` evaluate the closed forms once, on
their whole grid of times or parameter values. Every command hands the CSV
writer its table as named 1-d ndarray columns of two kinds, told apart by dtype
alone: a float column holds numbers, written '%.17g', and any other column text,
written as ``str`` writes each cell and quoted where RFC 4180 needs it. A
flag or an index is a float column of whole numbers, which '%.17g' writes as
``str`` writes the int. A column whose cells are all written alike (compared by
their bytes) is formatted once and stands in each row as literal text. The
other columns take one of two routes, chosen by the table's size; both write
the same bytes, in blocks of rows:

* a table with fewer than ``_MATRIX_FLOATS`` varying float cells, such as a
  ``cycle`` table, is formatted row by row, one '%' format a row;
* a larger one, such as a ``witness`` scan or a sweep, takes the block route:
  each block is one byte matrix whose number cells come from one vectorized
  ``fmt17.render`` call, and whose text cells are encoded one by one; the
  padding is then dropped at once.

``fmt17`` is exact, not close. For 1e-11 <= |x| < 1e15 it forms the product of
the float's 53-bit significand and a power of five, up to 116 bits, exactly in
two uint64 limbs, shifts it right and rounds half to even on the exact
remainder, as CPython's '%.17g' rounds; every other cell (zeros, subnormals,
NaN, infinities and the rest) goes through '%.17g' itself, which is also the
reference the tests compare the kernel with.

Output is CSV with '#'-prefixed metadata lines, decimal serialization at 17
significant digits. Exit codes: 0 success, 1 usage/config error, 2
runtime/I-O error, 3 audit failure. ``QOTTO_OUT_DIR`` supplies the default
directory for relative output paths.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .cycle import (NUMERIC_FIELDS, SWEEP_AXES, CycleConfig, CycleReport, build_config,
                    max_energy_deviation, strong_cycle, strong_cycle_sweep,
                    strong_cycle_via_oracle, STROKE_ORDER)
from .errors import ConfigError, QottoError
from .profiles import profile_from_spec, time_grid
from .thermo import EnergyLedger
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


def _resolve_out(path: str | None):
    if path is None:
        return None
    if not os.path.isabs(path):
        base = os.environ.get("QOTTO_OUT_DIR")
        if base:
            path = os.path.join(base, path)
    return path


_BLOCK_ROWS = 512  # rows joined into one write
# varying float cells from which a table is written as byte matrices (_matrix_blocks).
# In a warm process the block route wins from 400-700 float cells on, by table shape; a
# fresh one also pays about 5 ms to import fmt17 and build its tables once
_MATRIX_FLOATS = 1000


def _constant(column: np.ndarray) -> bool:
    """Whether every cell of a non-empty column is written as its first: cells are compared
    by their bytes, so 0.0 and -0.0 stay apart, and an object column's by identity."""
    raw = column.tobytes()
    return raw == raw[:column.itemsize] * len(column)


def _row_blocks(literals: list, varying: list, count: int):
    """The rows in blocks of ``_BLOCK_ROWS``, each row from one '%' format."""
    import itertools

    row_format = "".join(text.replace("%", "%%") + ("%.17g" if is_float else "%s")
                         for text, (is_float, _) in zip(literals, varying))
    row_format += literals[-1].replace("%", "%%")
    columns = [column.tolist() if is_float else [_quote(str(cell)) for cell in column.tolist()]
               for is_float, column in varying]
    rows = (map(row_format.__mod__, zip(*columns)) if columns
            else itertools.repeat(row_format % (), count))
    while block := "".join(itertools.islice(rows, _BLOCK_ROWS)):
        yield block


def _matrix_blocks(literals: list, varying: list, count: int):
    """The rows in blocks of ``_BLOCK_ROWS``, each block one byte matrix: a row holds the
    literal text around the varying cells and a slot for each cell, padded with
    ``fmt17.DROP``, and the block's bytes are written without the padding. The number
    cells come from ``fmt17.render``, in one call a block; the text cells are quoted and
    encoded as UTF-8, which never holds ``DROP``, and padded past their length, so a NUL
    inside a string stays."""
    from . import fmt17

    fixed = [np.frombuffer(text.encode(), np.uint8) for text in literals]
    fixed = [np.broadcast_to(text, (_BLOCK_ROWS, text.size)) for text in fixed]
    drop = bytes([fmt17.DROP])
    for start in range(0, count, _BLOCK_ROWS):
        rows = min(count - start, _BLOCK_ROWS)
        block = np.stack([column[start:start + rows] for is_float, column in varying if is_float])
        slots = iter(fmt17.render(block).reshape(-1, rows, fmt17.WIDTH))
        parts = []
        for literal, (is_float, column) in zip(fixed, varying):
            parts.append(literal[:rows])
            if is_float:
                parts.append(next(slots))
                continue
            encoded = [_quote(str(cell)).encode() for cell in column[start:start + rows].tolist()]
            text = np.array(encoded).view(np.uint8).reshape(rows, -1)
            lengths = np.fromiter(map(len, encoded), np.intp, rows)
            parts.append(np.where(np.arange(text.shape[1]) < lengths[:, None], text,
                                  np.uint8(fmt17.DROP)))
        parts.append(fixed[-1][:rows])
        yield np.concatenate(parts, axis=1).tobytes().translate(None, drop).decode()


def _write_csv(path: str | None, table: dict, metadata: dict) -> None:
    """Write the metadata as '#' lines, then ``table``: header name -> column, equal-length
    1-d ndarrays. A float column holds numbers, written '%.17g'; any other column holds
    text, written ``_quote(str(cell))``, which for an int or a bool is ``str`` alone.

    A column whose cells are all written alike (``_constant``) is formatted once and
    stands in each row as literal text, so only the varying columns are formatted on each
    row. A table with at least ``_MATRIX_FLOATS`` varying float cells is written as byte
    matrices (``_matrix_blocks``), a smaller one row by row (``_row_blocks``); both write
    the same bytes, in blocks of ``_BLOCK_ROWS`` rows."""
    count, literals, varying = 0, [""], []
    for position, column in enumerate(table.values(), 1):
        count, is_float = len(column), column.dtype.kind == "f"
        end = "," if position < len(table) else "\n"
        if count and _constant(column):
            first = column.item(0)
            literals[-1] += ("%.17g" % first if is_float else _quote(str(first))) + end
        else:
            varying.append((is_float, column))
            literals.append(end)
    floats = count * sum(is_float for is_float, _ in varying)
    blocks = (_matrix_blocks if floats >= _MATRIX_FLOATS else _row_blocks)(
        literals, varying, count)

    def emit(stream):
        stream.write(f"# qotto {__version__}\n")
        for key, value in metadata.items():
            # a line break in a value would end its '#' line early
            text = _fmt(value).replace("\r", "\\r").replace("\n", "\\n")
            stream.write(f"# {key} = {text}\n")
        stream.write(",".join(table) + "\n")
        for block in blocks:
            stream.write(block)

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


def _parse_overrides(pairs: list[str]) -> tuple[dict, list[str]]:
    """The ``--set`` values by key, and a message for each unknown key or malformed pair."""
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
    return out, problems


def load_cycle_config(path: str | None, pairs: list[str],
                      faults: list[str] | tuple = ()) -> tuple[CycleConfig, dict]:
    """The config of the defaults, updated from the JSON file ``path`` and then from the
    ``--set`` ``pairs``, and its metadata. The ``faults`` found before it, such as a
    ``--sweep`` spec's, the malformed pairs and unknown keys, then the faults of the file
    and of ``build_config``, raise one ConfigError."""
    raw = dict(_DEFAULT_CONFIG)
    overrides, problems = _parse_overrides(pairs)
    problems[:0] = faults
    try:
        if path is not None:
            import json  # here, not at module level: only --config reads JSON

            with open(path, encoding="utf-8") as stream:
                try:
                    data = json.load(stream)
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    raise ConfigError([f"config file {path} is not valid JSON: {exc}"]) from None
            if not isinstance(data, dict):
                raise ConfigError(["config file must hold a JSON object, "
                                   f"got {type(data).__name__}"])
            problems += [f"unknown config key '{k}'" for k in sorted(set(data) - set(raw))]
            raw.update((key, value) for key, value in data.items() if key in _DEFAULT_CONFIG)
        raw.update(overrides)
        config = build_config(**{key: raw[key] for key in NUMERIC_FIELDS},
                              kind_h=raw["profile_h"], kind_c=raw["profile_c"])
    except ConfigError as exc:
        problems += exc.problems
    except (OSError, ValueError):  # a file that cannot be read: the problems before it stand
        if not problems:
            raise
    if problems:
        raise ConfigError(problems)
    return config, {f"config.{key}": raw[key] for key in sorted(raw)}


# --- commands ----------------------------------------------------------------

def _check_scan(args) -> None:
    """The --t-max, --points and --g bounds of the dynamics and witness scans, every fault
    named."""
    faults = []
    if args.t_max <= 0.0 or not math.isfinite(args.t_max):
        bound = "positive" if args.t_max <= 0.0 else "finite"
        faults.append(f"--t-max must be {bound}, got {args.t_max}")
    if args.points < 2:
        faults.append(f"--points must be >= 2, got {args.points}")
    if not 0.0 < args.g <= 1.0:  # the profiles' own bound, so NaN fails it too
        faults.append(f"bath parameter g must lie in (0, 1], got {args.g}")
    if faults:
        raise ConfigError(faults)


def run_power_trace(args) -> int:
    """Thermalization-weight trace sin^2 F(t) for both analytic profiles."""
    _check_scan(args)
    ts = np.linspace(0.0, args.t_max, args.points)
    with np.errstate(over="ignore"):  # intermediate terms overflow near the float maximum
        table = {"t": ts, **{f"p_ratio_{name}": profile_from_spec(name, args.g).thermal_weight(ts)
                             for name in _ANALYTIC_PROFILES}}
    meta = {"command": "dynamics", "g": args.g, "t_max": args.t_max,
            "points": args.points, "seed": args.seed}
    _write_csv(_resolve_out(args.out), table, meta)
    return EXIT_OK


def run_witness_scan(args) -> int:
    """Rate and CP-divisibility witness scan over (0, t_max] for both profiles."""
    _check_scan(args)
    omega = 1.0  # the projected witness spectrum does not depend on omega
    ts = time_grid(args.t_max, args.points)
    table = {"t": ts}
    for name in _ANALYTIC_PROFILES:
        profile = profile_from_spec(name, args.g)
        with np.errstate(over="ignore"):  # intermediate terms overflow near the float maximum
            f, phase, gamma = profile.f(ts), profile.phase(ts), profile.rate(ts)
        # the projected witness is diag(0, (1+g) gamma, (1-g) gamma, 0)
        # (PRL 105, 050403); cp_divisibility_witness is its 4x4 audit route. For g
        # in (0, 1], (1-g) gamma lies between 0 and (1+g) gamma, never below both
        wmin = np.minimum(0.0, (1.0 + profile.g) * gamma)
        flag = np.where(np.isnan(gamma), -1.0, gamma >= TOL.rate_floor)  # -1: map singular
        table.update({f"f_{name}": f, f"F_{name}": phase, f"gamma_{name}": gamma,
                      f"markovian_flag_{name}": flag, f"witness_min_eig_{name}": wmin})
    meta = {"command": "witness", "g": args.g, "t_max": args.t_max,
            "points": args.points, "omega": omega, "seed": args.seed}
    _write_csv(_resolve_out(args.out), table, meta)
    return EXIT_OK


def _ledgers(report: CycleReport) -> list[EnergyLedger]:
    """The report's stroke ledgers in STROKE_ORDER, then the whole cycle's."""
    strokes = [report.strokes[name] for name in STROKE_ORDER]
    return strokes + [EnergyLedger(
        report.work_total, report.heat_hot + report.heat_cold,
        strokes[0].internal_energy_initial, strokes[-1].internal_energy_final,
        sum(stroke.entropy_production for stroke in strokes))]


def _stroke_table(report: CycleReport, oracle: CycleReport | None) -> dict:
    # an EnergyLedger's entries are in column order
    table = {"stroke": np.array([*STROKE_ORDER, "total"]), **dict(zip(
        ("work", "heat", "energy_initial", "energy_final", "entropy_production"),
        np.array(_ledgers(report)).T))}
    if oracle is not None:
        table["work_oracle"], table["heat_oracle"], *_ = np.array(_ledgers(oracle)).T
    return table


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
    config, config_meta = load_cycle_config(args.config, args.set)
    report = strong_cycle(config)
    oracle = strong_cycle_via_oracle(config) if args.oracle else None
    audits = report.law_audits()

    meta = {"command": "cycle", "seed": args.seed, **config_meta}
    for profile, name in ((config.profile_h, "profile_h"), (config.profile_c, "profile_c")):
        if getattr(profile, "head_phase_approximated", False):
            meta[f"{name}.head_phase_approximated"] = True
    if oracle is not None:
        meta["oracle_max_energy_deviation"] = oracle_dev = max_energy_deviation(report, oracle)
        relative_dev = oracle_dev / config.omega_h  # in units of omega_h, as the law audits
        audits["oracle_match"] = (relative_dev, relative_dev <= TOL.oracle_cycle_match)
    out = _resolve_out(args.out)
    _write_csv(out, _stroke_table(report, oracle), meta)
    print(_summary(report, audits), file=sys.stderr if out is None else sys.stdout)

    failed = [name for name, (_, ok) in audits.items() if not ok]
    if failed:
        print(f"audit failure: {', '.join(failed)}", file=sys.stderr)
    return EXIT_AUDIT if failed else EXIT_OK


# sweep metric columns in CSV order: CycleReport metrics, "work" for work_total and
# w_STROKE for the work of a coupling switch (CycleReport.boundary_works)
_SWEEP_METRICS = (
    "work", "heat_hot", "heat_cold", "eta", "power", "kappa", "cop", "eta0", "power0", "kappa0",
    "cop0", "carnot_eta", "carnot_cop", "thermal_weight_hot", "thermal_weight_cold",
    "w_connect_hot", "w_disconnect_hot", "w_connect_cold", "w_disconnect_cold",
    "cyclicity_residual", "energy_residual")


def _sweep_spec(spec: str | None) -> tuple[list[str], tuple]:
    """Every fault of a ``--sweep`` AXIS:LO:HI:N spec, and its parts: a check that needs a
    value that an earlier fault left undefined (None) is skipped, and so is the range of
    infinite bounds."""
    if spec is None:
        return ["sweep requires --sweep AXIS:LO:HI:N"], ()
    parts = spec.split(":")
    if len(parts) != 4:
        return [f"--sweep expects AXIS:LO:HI:N, got '{spec}'"], ()
    axis, lo, hi, count = parts
    faults = [] if axis in SWEEP_AXES else [
        f"sweep axis must be one of {', '.join(SWEEP_AXES)}, got '{axis}'"]
    try:
        lo, hi = float(lo), float(hi)
    except ValueError:
        lo = hi = None
        faults.append(f"--sweep bounds must be numeric, got '{spec}'")
    try:
        count = int(count)
    except ValueError:
        faults.append(f"--sweep count must be an integer, got '{count}'")
        count = None
    if lo is not None and not (math.isfinite(lo) and math.isfinite(hi)):
        faults.append(f"--sweep bounds must be finite, got '{spec}'")
    elif None not in (lo, count) and (count < 1 or (count > 1 and hi <= lo)):
        faults.append(f"degenerate sweep range '{spec}'")
    return faults, (axis, lo, hi, count)


def run_sweep(args) -> int:
    """Grid over one cycle parameter; deterministic row order by grid index. The faults of
    the spec, then of the config, raise one ConfigError."""
    faults, spec = _sweep_spec(args.sweep)
    base, config_meta = load_cycle_config(args.config, args.set, faults)
    axis, lo, hi, count = spec
    sweep = strong_cycle_sweep(base, axis, np.linspace(lo, hi, count))
    report = sweep.report
    cells = {**report._asdict(), "work": report.work_total,
             **{f"w_{name}": work for name, work in report.boundary_works().items()}}
    table = {"index": np.arange(count, dtype=float), axis: sweep.values,
             "valid": sweep.valid.astype(float),
             "regime": np.where(sweep.valid, report.regime, "skipped"),
             **{key: cells[key] for key in _SWEEP_METRICS},
             "error": np.array(sweep.errors, dtype=object)}
    meta = {"command": "sweep", "axis": axis, "lo": lo, "hi": hi, "count": count,
            "seed": args.seed, **config_meta}
    _write_csv(_resolve_out(args.out), table, meta)

    # the valid rows' law audits, as cycle's; a rejected row is no cycle to audit
    failed = {name: sweep.valid & ~ok for name, (_, ok) in report.law_audits().items()}
    rows = np.flatnonzero(np.any(list(failed.values()), axis=0)).tolist()
    for k in rows:
        print(f"audit failure: row {k} ({axis} = {_fmt(sweep.values[k])}): "
              + ", ".join(name for name, bad in failed.items() if bad[k]), file=sys.stderr)
    return EXIT_AUDIT if rows else EXIT_OK


# --- entry point --------------------------------------------------------------

@functools.cache  # one parser per process: parse_args leaves it unchanged
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
    except (QottoError, OSError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
