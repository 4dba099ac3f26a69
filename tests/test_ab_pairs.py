import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = [{"name": "wall_ref", "better": "lower"},
           {"name": "rate", "better": "higher"}]


def pairs(parent, change, name="wall_ref"):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def test_quartiles_interpolate_between_order_statistics():
    assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_is_shown():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2]
    change = [p - 0.5 for p in parent]
    s = ab_pairs.summarize(pairs(parent, change), METRICS[:1])["wall_ref"]
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["parent"]["median"] == pytest.approx(10.05)
    assert s["change"]["median"] == pytest.approx(9.55)
    assert s["parent_spread"] == pytest.approx(10.175 - 10.0)
    assert s["median_change"] == pytest.approx(-0.5)
    assert s["gain"]


def test_eight_wins_of_ten_show_no_gain():
    parent = [10.0] * 10
    change = [9.0] * 8 + [11.0] * 2
    s = ab_pairs.summarize(pairs(parent, change), METRICS[:1])["wall_ref"]
    assert s["wins"] == 8 and not s["gain"]


def test_ties_count_for_neither_side():
    s = ab_pairs.summarize(pairs([10.0] * 10, [10.0] * 10), METRICS[:1])["wall_ref"]
    assert s["wins"] == 0 and not s["gain"]


def test_gain_within_the_parent_spread_is_not_shown():
    # the change wins every pair, but by less than the parent's own spread
    parent = [9.0, 11.0] * 5
    change = [p - 0.1 for p in parent]
    s = ab_pairs.summarize(pairs(parent, change), METRICS[:1])["wall_ref"]
    assert s["wins"] == 10 and s["parent_spread"] == pytest.approx(2.0)
    assert not s["gain"]


def test_higher_is_better_wins_upward():
    parent = [1.0, 1.1, 1.0, 1.05, 1.0, 1.1, 1.0, 1.05, 1.0, 1.0]
    change = [p + 1.0 for p in parent]
    s = ab_pairs.summarize(pairs(parent, change, "rate"), METRICS[1:])["rate"]
    assert s["wins"] == 10 and s["gain"]
    s = ab_pairs.summarize(pairs(change, parent, "rate"), METRICS[1:])["rate"]
    assert s["wins"] == 0 and not s["gain"]
