"""The A/B verdict of ``tools/abpairs.py``: the arithmetic of the rule."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "tools" / "abpairs.py"
_SPEC = importlib.util.spec_from_file_location("abpairs", _PATH)
abpairs = sys.modules["abpairs"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abpairs)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_a_clear_gain_is_met():
    change = [value + 6.0 for value in PARENT]
    result = abpairs.verdict(PARENT, change, higher_is_better=True)
    assert (result.wins, result.pairs, result.gain) == (10, 10, 6.0)
    # statistics.quantiles (exclusive method): q1 98.75, q3 101.25.
    assert result.parent_iqr == pytest.approx(2.5)
    assert result.met


def test_nine_of_ten_is_enough_and_a_tie_wins_nothing():
    change = [value + 6.0 for value in PARENT]
    change[3] = PARENT[3]  # a tie
    assert abpairs.verdict(PARENT, change, True).wins == 9
    assert abpairs.verdict(PARENT, change, True).met
    change[4] = PARENT[4] - 1.0  # a loss
    result = abpairs.verdict(PARENT, change, True)
    assert result.wins == 8 and not result.met


def test_a_gain_inside_the_parents_spread_is_not_met():
    change = [value + 2.0 for value in PARENT]
    result = abpairs.verdict(PARENT, change, True)
    assert result.wins == 10 and result.gain == 2.0
    assert not result.met  # 2.0 < 2.5


def test_lower_is_better_flips_both_tests():
    change = [value - 6.0 for value in PARENT]
    assert abpairs.verdict(PARENT, change, higher_is_better=False).met
    assert not abpairs.verdict(PARENT, change, higher_is_better=True).met
    assert abpairs.verdict(PARENT, change, True).wins == 0


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        abpairs.verdict(PARENT, PARENT[:-1], True)
    with pytest.raises(ValueError):
        abpairs.verdict([], [], True)
