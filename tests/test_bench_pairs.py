"""The summary of tools/bench_pairs.py on synthetic pairs: quartiles, wins,
the bound and the gain rule (at least 10 pairs, wins >= 9 of 10 and the
medians apart by more than the parent's interquartile range).  No benchmark
runs here."""

import importlib.util
import math
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_RATE = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
_TIME = {"name": "op_p50_ms", "better": "lower", "bound": 0.25}


def _pairs(parent, change, name):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_nine_wins_and_a_gap_past_the_parents_spread_is_a_gain():
    parent = [100.0 + i for i in range(10)]  # quartiles 102.25, 104.5, 106.75
    change = [110.0 + i for i in range(10)]
    change[3] = 102.0  # one loss: 9 of 10
    (row,) = bench_pairs.summarize(_pairs(parent, change, "ops_per_s"), [_RATE])
    assert row["n"] == 10 and row["wins"] == 9
    assert row["parent"] == (102.25, 104.5, 106.75)
    assert row["gain"] and not row["worse_beyond_bound"]
    assert row["rel_change"] == pytest.approx((row["change"][1] - 104.5) / 104.5)


def test_eight_wins_or_a_gap_inside_the_spread_is_no_gain():
    parent = [100.0 + i for i in range(10)]
    # 8 wins, however far apart
    change = [200.0] * 8 + [0.0, 0.0]
    (row,) = bench_pairs.summarize(_pairs(parent, change, "ops_per_s"), [_RATE])
    assert row["wins"] == 8 and not row["gain"]
    # 10 wins, but the medians 1 apart against a spread of 4.5
    change = [p + 1.0 for p in parent]
    (row,) = bench_pairs.summarize(_pairs(parent, change, "ops_per_s"), [_RATE])
    assert row["wins"] == 10 and not row["gain"]


def test_fewer_than_ten_pairs_are_no_gain():
    # every pair won by far, but a run missing its metric leaves 9 pairs
    parent = [100.0 + i for i in range(10)]
    pairs = _pairs(parent, [200.0] * 10, "ops_per_s")
    (row,) = bench_pairs.summarize(pairs, [_RATE])
    assert row["n"] == 10 and row["gain"]
    pairs[4] = ({}, pairs[4][1])
    (row,) = bench_pairs.summarize(pairs, [_RATE])
    assert row["n"] == 9 and row["wins"] == 9 and not row["gain"]
    (row,) = bench_pairs.summarize(pairs[:3], [_RATE])
    assert row["wins"] == 3 and not row["gain"]


def test_lower_is_better_and_ties_are_no_wins():
    parent = [0.04] * 10
    change = [0.03] * 9 + [0.04]
    (row,) = bench_pairs.summarize(_pairs(parent, change, "op_p50_ms"), [_TIME])
    assert row["wins"] == 9 and row["gain"]
    assert row["rel_change"] == pytest.approx(-0.25)
    (row,) = bench_pairs.summarize(_pairs(change, parent, "op_p50_ms"), [_TIME])
    assert row["wins"] == 0 and not row["gain"] and row["worse_beyond_bound"]


def test_worse_beyond_the_bound_is_flagged_on_either_direction():
    parent = [1000.0] * 10
    (row,) = bench_pairs.summarize(_pairs(parent, [760.0] * 10, "ops_per_s"), [_RATE])
    assert not row["worse_beyond_bound"]
    (row,) = bench_pairs.summarize(_pairs(parent, [740.0] * 10, "ops_per_s"), [_RATE])
    assert row["worse_beyond_bound"]
    # a share that leaves 0 is past every bound; one that stays there is not
    share = {"name": "est_underrun_share", "better": "lower", "bound": 0.2}
    (row,) = bench_pairs.summarize(_pairs([0.0] * 10, [1e-4] * 10, share["name"]), [share])
    assert row["rel_change"] == math.inf and row["worse_beyond_bound"]
    (row,) = bench_pairs.summarize(_pairs([0.0] * 10, [0.0] * 10, share["name"]), [share])
    assert row["rel_change"] == 0.0 and not row["worse_beyond_bound"] and not row["gain"]


def test_metrics_missing_from_the_runs_are_skipped():
    rows = bench_pairs.summarize(_pairs([1.0], [2.0], "ops_per_s"), [_TIME, _RATE])
    assert [r["name"] for r in rows] == ["ops_per_s"]
    assert "ops_per_s" in bench_pairs.render("monomial-sweep", rows)
