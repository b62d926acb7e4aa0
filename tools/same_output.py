"""Do two checkouts of qotto print and write the same bytes?

    python tools/same_output.py --parent DIR [--change DIR] [--seeds 1 2 3]

Runs three sets of commands on each checkout, each command in a fresh
interpreter with ``PYTHONPATH=<checkout>/src``:

* every operation of ``perfbench/workloads.plan`` for each workload and seed,
  on inputs written once and read by both sides;
* every ``qotto`` example in the README;
* every line of the CI workflow's "Console script" step, with
  ``PYTHONWARNINGS=error`` as the workflow sets it.

The commands are the parent's (its plans, README and workflow): a command
that only the change has has no parent output to compare with. For each
command the exit code, stdout, stderr and the bytes of the CSV file it writes
are compared. For stdout or stderr that differs, the first few changed line
pairs (parent, change) are shown. For each CSV that differs, the changed
cells are counted per column, and among those that hold a finite float on
both sides the largest absolute and relative change is reported, also for
``#`` metadata values.
One JSON summary goes to stdout; the exit code is 1 on any difference.
``--change`` defaults to the checkout this file belongs to.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import repo_commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMAND_TIMEOUT_S = 300  # the slowest plan operation takes a few seconds
LINE_PAIRS = 5  # changed stdout or stderr lines shown per stream


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv_path(argv: list[str]) -> str | None:
    """The file a qotto argv writes its CSV to; None for stdout or /dev/null."""
    if "--out" not in argv:
        return None
    out = argv[argv.index("--out") + 1]
    return None if out == os.devnull else out


def plan_commands(checkout: Path, seeds: list[int], inputs: Path) -> list[dict]:
    """Every perfbench plan operation of every workload at each seed, writing to
    ``out.csv`` in its working directory."""
    workloads = _load(checkout / "perfbench" / "workloads.py")
    commands = []
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for op in workloads.plan(workload, seed, str(inputs / f"{workload}-s{seed}")):
                argv = list(op["argv"])
                argv[argv.index("--out") + 1] = "out.csv"
                commands.append({"name": f"{workload} seed {seed} {op['id']}",
                                 "argv": [sys.executable, "-m", "qotto", *argv],
                                 "csv": "out.csv", "env": {}})
    return commands


def readme_commands(checkout: Path) -> list[dict]:
    text = (checkout / "README.md").read_text(encoding="utf-8")
    return [{"name": shlex.join(["qotto", *argv]), "argv": [sys.executable, "-m", "qotto", *argv],
             "csv": _csv_path(argv), "env": {}}
            for argv in repo_commands.readme_examples(text)]


def ci_commands(checkout: Path) -> list[dict]:
    """The Console script lines; stdout is compared also where the workflow discards it."""
    text = (checkout / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    commands = []
    for line in repo_commands.console_script(text)[1]:
        argv, _ = repo_commands.console_command(line)
        commands.append({"name": line, "argv": argv, "csv": _csv_path(argv),
                         "env": {"PYTHONWARNINGS": "error"}})
    return commands


def run(checkout: Path, command: dict, cwd: Path) -> dict:
    """Exit code, stdout, stderr and CSV bytes (None if not written) of one command."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **command["env"])
    env.pop("QOTTO_OUT_DIR", None)  # relative --out paths resolve against cwd
    proc = subprocess.run(command["argv"], cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=COMMAND_TIMEOUT_S)
    path = cwd / command["csv"] if command["csv"] else None
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "csv": path.read_bytes() if path and path.exists() else None}


def _table(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """(metadata lines, header, rows) of a qotto CSV."""
    lines = text.splitlines(keepends=True)
    meta = [line for line in lines if line.startswith("#")]
    header, *rows = list(csv.reader(line for line in lines if not line.startswith("#"))) or [[]]
    return meta, header, rows


def _compared(parent: str, change: str):
    """(column, parent cell, change cell) for every cell two CSV texts compare.

    Metadata lines pair up in order under ``#``. A row, a column or a metadata line
    that only one table has pairs with None."""
    (meta_a, head_a, rows_a), (meta_b, head_b, rows_b) = _table(parent), _table(change)
    for a, b in zip_longest(meta_a, meta_b):
        yield "#", a, b

    def cells(header, rows, name):
        if name not in header:
            return []
        k = header.index(name)
        return [row[k] if k < len(row) else None for row in rows]

    for name in head_a + [name for name in head_b if name not in head_a]:
        for a, b in zip_longest(cells(head_a, rows_a, name), cells(head_b, rows_b, name)):
            yield name, a, b


def changed_cells(parent: str, change: str) -> dict:
    """{column: number of rows whose cell differs} between two CSV texts.

    Metadata lines are compared line by line and counted under ``#``. A row or a
    column that only one table has counts as changed in every cell it holds."""
    counts = {}
    for name, a, b in _compared(parent, change):
        if a != b:
            counts[name] = counts.get(name, 0) + 1
    return counts


def _finite(cell: str | None, column: str) -> float | None:
    """The finite float a cell holds, or the value of a ``# key = value`` metadata line."""
    if cell is None or (column == "#" and " = " not in cell):
        return None
    try:
        value = float(cell.split(" = ", 1)[1] if column == "#" else cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def largest_changes(parent: str, change: str) -> dict:
    """{column: {"abs": ..., "rel": ...}}: the largest absolute change of a changed cell,
    and the largest relative to the larger of its two magnitudes, over the changed cells
    (``#``: metadata values) that hold a finite float on both sides."""
    largest = {}
    for name, a, b in _compared(parent, change):
        x, y = _finite(a, name), _finite(b, name)
        if a == b or x is None or y is None:
            continue
        change_abs = abs(y - x)
        change_rel = change_abs / max(abs(x), abs(y)) if change_abs else 0.0
        found = largest.setdefault(name, {"abs": 0.0, "rel": 0.0})
        found["abs"], found["rel"] = max(found["abs"], change_abs), max(found["rel"], change_rel)
    return largest


def changed_lines(parent: bytes, change: bytes) -> list[list]:
    """The first ``LINE_PAIRS`` [parent line, change line] pairs that differ between two
    streams, paired in order; a line that only one stream has pairs with None."""
    lines = [side.decode("utf-8", "replace").splitlines() for side in (parent, change)]
    return [[a, b] for a, b in zip_longest(*lines) if a != b][:LINE_PAIRS]


def differences(parent: dict, change: dict) -> dict:
    """What differs between two outcomes of one command; empty when nothing does."""
    fields = [key for key in ("exit", "stdout", "stderr", "csv") if parent[key] != change[key]]
    if not fields:
        return {}
    found = {"differs": fields}
    streams = {key: changed_lines(parent[key], change[key])
               for key in ("stdout", "stderr") if key in fields}
    if streams:
        found["lines"] = streams
    if "csv" in fields and parent["csv"] is not None and change["csv"] is not None:
        texts = [side["csv"].decode("utf-8", "replace") for side in (parent, change)]
        found["cells"] = changed_cells(*texts)
        found["largest_change"] = largest_changes(*texts)
    return found


def compare(parent: Path, change: Path, commands: list[dict], workdir: Path) -> list[dict]:
    """Run each command on both checkouts; the commands whose outcomes differ."""
    differing = []
    for k, command in enumerate(commands):
        found = differences(run(parent, command, workdir / "parent" / str(k)),
                            run(change, command, workdir / "change" / str(k)))
        if found:
            differing.append({"command": command["name"], **found})
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout under test")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                        help="perfbench plan seeds")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    for checkout in (parent, change):
        if not (checkout / "src" / "qotto" / "cli.py").is_file():
            parser.error(f"no qotto source under {checkout}/src")
    with tempfile.TemporaryDirectory(prefix="same_output-") as tmp:
        sets = {"plan": plan_commands(parent, args.seeds, Path(tmp) / "inputs"),
                "readme": readme_commands(parent), "ci": ci_commands(parent)}
        differing = compare(parent, change, [c for cs in sets.values() for c in cs], Path(tmp))
    print(json.dumps({"parent": str(parent), "change": str(change), "seeds": args.seeds,
                      "commands": {name: len(cs) for name, cs in sets.items()},
                      "differences": len(differing), "differing": differing}, indent=2))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
