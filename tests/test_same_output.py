"""``tools/same_output.py``: its CSV diff, cell counts and largest changes, and one A/A run."""

from pathlib import Path

import pytest
import same_output

ROOT = Path(__file__).resolve().parents[1]

BASE = "# qotto 0.1.0\n# command = sweep\nt,W,regime\n1,0.5,engine\n2,0.25,engine\n3,0.125,other\n"


def _outcome(csv=BASE, exit=0, stdout=b"", stderr=b""):
    return {"exit": exit, "stdout": stdout, "stderr": stderr,
            "csv": None if csv is None else csv.encode()}


def test_identical_tables_have_no_changed_cells():
    assert same_output.changed_cells(BASE, BASE) == {}
    assert same_output.differences(_outcome(), _outcome()) == {}


def test_changed_cells_are_counted_per_column():
    change = BASE.replace("0.25", "0.25000000000000006").replace("0.125,other", "0.125,engine")
    assert same_output.changed_cells(BASE, change) == {"W": 1, "regime": 1}
    assert same_output.changed_cells(BASE, change.replace("1,0.5", "1,0.4")) == \
        {"W": 2, "regime": 1}


def test_metadata_rows_and_columns_count():
    assert same_output.changed_cells(BASE, BASE.replace("sweep", "cycle")) == {"#": 1}
    # a row only one side has changes every cell it holds
    assert same_output.changed_cells(BASE, BASE + "4,0.0625,other\n") == \
        {"t": 1, "W": 1, "regime": 1}
    # a renamed column: each name's rows all differ
    assert same_output.changed_cells(BASE, BASE.replace("W,regime", "work,regime")) == \
        {"W": 3, "work": 3}


def test_differences_name_each_field():
    assert same_output.differences(_outcome(), _outcome(exit=1, csv=None)) == \
        {"differs": ["exit", "csv"]}
    assert same_output.differences(_outcome(stderr=b"x"), _outcome(
        csv=BASE.replace("0.5", "0.625"))) == {"differs": ["stderr", "csv"],
                                               "lines": {"stderr": [["x", None]]},
                                               "cells": {"W": 1},
                                               "largest_change": {"W": {"abs": 0.125,
                                                                        "rel": 0.2}}}


def test_differing_streams_show_their_first_changed_lines():
    summary = b"regime: engine\naudit first_law_strokes: pass (2.776e-17)\naudit carnot: pass\n"
    change = summary.replace(b"2.776e-17", b"1.388e-17")
    assert same_output.differences(_outcome(stdout=summary, stderr=b"same\n"),
                                   _outcome(stdout=change, stderr=b"same\n")) == {
        "differs": ["stdout"], "lines": {"stdout": [
            ["audit first_law_strokes: pass (2.776e-17)",
             "audit first_law_strokes: pass (1.388e-17)"]]}}
    # lines pair in order; a line only one side has pairs with None
    assert same_output.changed_lines(b"a\nb\n", b"a\nc\nd\n") == [["b", "c"], [None, "d"]]
    # at most LINE_PAIRS pairs per stream, the first ones
    many = [f"row {k}" for k in range(3 * same_output.LINE_PAIRS)]
    parent, changed = "\n".join(many).encode(), "\n".join(m + "!" for m in many).encode()
    assert same_output.changed_lines(parent, changed) == \
        [[m, m + "!"] for m in many[:same_output.LINE_PAIRS]]
    assert same_output.differences(_outcome(stdout=parent, stderr=parent),
                                   _outcome(stdout=changed, stderr=b""))["lines"] == {
        "stdout": [[m, m + "!"] for m in many[:same_output.LINE_PAIRS]],
        "stderr": [[m, None] for m in many[:same_output.LINE_PAIRS]]}


def test_largest_change_reads_float_cells_and_metadata_values():
    parent = BASE.replace("sweep\n", "sweep\n# deviation = 4e-13\n")
    change = (parent.replace("4e-13", "5e-13").replace("sweep", "cycle")
              .replace("1,0.5", "1,0.75").replace("0.25", "nan")
              .replace("0.125,other", "0.0625,engine"))
    assert same_output.changed_cells(parent, change) == {"#": 2, "W": 3, "regime": 1}
    # W: the largest absolute change (0.25) and the largest relative one (0.0625 of
    # 0.125) come from different rows; nan, the command name and regime hold no float
    assert same_output.largest_changes(parent, change) == {
        "#": {"abs": pytest.approx(1e-13), "rel": pytest.approx(0.2)},
        "W": {"abs": 0.25, "rel": 0.5}}
    # a row only one side has, and cells equal as floats but not as text
    assert same_output.largest_changes(BASE, BASE.replace("0.5", "0.50") + "4,1,other\n") == \
        {"W": {"abs": 0.0, "rel": 0.0}}


def test_a_readme_example_matches_itself(tmp_path):
    (command,) = [c for c in same_output.readme_commands(ROOT)
                  if c["name"].startswith("qotto dynamics")]
    assert command["csv"] == "power.csv"
    assert same_output.compare(ROOT, ROOT, [command], tmp_path) == []
    assert (tmp_path / "change" / "0" / "power.csv").read_bytes() == \
        (tmp_path / "parent" / "0" / "power.csv").read_bytes()
