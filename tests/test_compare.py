"""``tools/compare.py``: the paired statistics, on synthetic runs; no timing runs here."""

import math

import compare
import pytest


@pytest.mark.parametrize("n, k", [(6, 1), (8, 1), (9, 2), (10, 2), (12, 3), (20, 6)])
def test_interval_is_the_widest_order_statistic_that_keeps_95_percent(n, k):
    ratios = [1.0 + j / 100 for j in range(n)][::-1]  # order does not matter
    interval = compare.median_interval(ratios)
    assert (interval["lo"], interval["hi"]) == (1.0 + (k - 1) / 100, 1.0 + (n - k) / 100)
    tail = sum(math.comb(n, j) for j in range(k)) / 2 ** n
    assert interval["coverage"] == pytest.approx(1.0 - 2.0 * tail)
    assert interval["coverage"] >= 0.95
    # one order statistic further in would fall short
    assert 1.0 - 2.0 * (tail + math.comb(n, k) / 2 ** n) < 0.95


@pytest.mark.parametrize("n", [2, 3, 5])
def test_too_few_pairs_give_no_interval(n):
    assert compare.median_interval([1.0] * n) == {"lo": None, "hi": None, "coverage": 0.0}


def test_a_clear_gain_meets_both_rules():
    parent = [100.0, 104.0, 98.0, 101.0, 99.0, 103.0, 97.0, 102.0, 100.0, 96.0]
    change = [p * 1.25 for p in parent]
    stats = compare.summarize(parent, change, "higher")
    assert stats["change_wins"] == 10 and stats["pairs"] == 10
    assert stats["ratio_median"] == pytest.approx(1.25)
    assert stats["ratio_interval"]["lo"] == pytest.approx(1.25)
    assert stats["median_change"] == pytest.approx(0.25)
    assert stats["claim_rule"] and stats["paired_rule"]
    # the same numbers for a lower-is-better metric are a loss
    lower = compare.summarize(parent, change, "lower")
    assert lower["change_wins"] == 0 and not lower["claim_rule"] and not lower["paired_rule"]


def test_eight_wins_in_ten_miss_the_claim_rule():
    parent = [100.0] * 10
    change = [120.0] * 8 + [90.0, 95.0]
    stats = compare.summarize(parent, change, "higher")
    assert stats["change_wins"] == 8 and not stats["claim_rule"]
    # the ratio's interval, r_(2) to r_(9), runs from 0.95 to 1.2: it holds 1
    assert stats["ratio_interval"]["lo"] == 0.95 and not stats["paired_rule"]


def test_a_gap_inside_the_parents_spread_misses_the_claim_rule():
    parent = [80.0, 90.0, 100.0, 110.0, 120.0, 85.0, 95.0, 105.0, 115.0, 100.0]
    change = [p + 5.0 for p in parent]  # wins every pair, by less than the IQR
    stats = compare.summarize(parent, change, "higher")
    q1, q3 = stats["parent_q1_q3"]
    assert stats["change_wins"] == 10 and q3 - q1 > 5.0
    assert not stats["claim_rule"] and stats["paired_rule"]


def test_ties_are_no_wins_and_an_even_ratio_sits_inside_its_interval():
    runs = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5]
    stats = compare.summarize(runs, runs, "lower")
    assert stats["change_wins"] == 0 and stats["ratio_median"] == 1.0
    assert stats["ratio_interval"]["lo"] == stats["ratio_interval"]["hi"] == 1.0
    assert not stats["claim_rule"] and not stats["paired_rule"]


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        compare.summarize([1.0, 2.0], [1.0], "higher")
    with pytest.raises(ValueError):
        compare.summarize([1.0], [1.0], "higher")


def _fake_checkout(root, rows_per_s):
    """A checkout whose perfbench/run.py prints one fixed result line."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "rows_per_s", "better": "higher", "bound": 0.25}]}')
    (root / "perfbench" / "run.py").write_text(
        "import json\nprint('a progress line')\n"
        f"print(json.dumps({{'correct': True, 'attempted': 3, 'failed': 0, 'metrics': "
        f"{{'rows_per_s': {{'value': {rows_per_s}, 'unit': '1/s'}}}}}}))\n")
    return root


def test_runs_alternate_and_each_side_runs_its_own_checkout(tmp_path):
    parent = _fake_checkout(tmp_path / "parent", 100.0)
    change = _fake_checkout(tmp_path / "change", 130.0)
    result = compare.compare(parent, change, "sweep_grid", 1, pairs=6, seconds=1.0)
    assert [pair["first"] for pair in result["runs"]] == ["parent", "change"] * 3
    assert result["healthy"]
    stats = result["metrics"]["rows_per_s"]
    assert (stats["parent_median"], stats["change_median"], stats["change_wins"]) == \
        (100.0, 130.0, 6)
    assert stats["within_bound"] and stats["paired_rule"] and stats["claim_rule"]
