"""tools/bench_pairs.py summarizes alternated (base, change) run_s pairs and
decides the claim rule: at least 10 pairs, wins in 9 of every 10, and a
median gap wider than the base's quartile spread."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import quartiles, summarize  # noqa: E402

BASE = [0.80, 0.82, 0.84, 0.86, 0.88, 0.90, 0.92, 0.94, 0.96, 0.98]


def test_quartiles_interpolate_as_numpy_does():
    values = [0.7, 0.1, 0.4, 0.9, 0.3, 0.5]
    assert quartiles(values) == pytest.approx(tuple(np.percentile(values, [25, 50, 75])))
    assert quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_clear_gain_holds():
    summary = summarize([(b, b - 0.2) for b in BASE])
    assert (summary.wins, summary.ties, summary.losses) == (10, 0, 0)
    assert summary.base == pytest.approx((0.845, 0.89, 0.935))
    assert summary.change == pytest.approx((0.645, 0.69, 0.735))
    assert summary.holds


def test_gain_inside_the_base_spread_does_not_hold():
    # Lower in every pair, but by 0.05 against a base quartile spread of 0.09.
    summary = summarize([(b, b - 0.05) for b in BASE])
    assert summary.wins == 10 and not summary.holds


def test_ties_count_against_the_change():
    # Nine wins and one tie hold; eight wins and two ties do not.
    pairs = [(b, b - 0.2) for b in BASE]
    nine = summarize(pairs[:9] + [(0.98, 0.98)])
    assert (nine.wins, nine.ties, nine.losses) == (9, 1, 0) and nine.holds
    eight = summarize(pairs[:8] + [(0.96, 0.96), (0.98, 0.98)])
    assert (eight.wins, eight.ties, eight.losses) == (8, 2, 0) and not eight.holds


def test_a_loss_is_counted():
    summary = summarize([(b, b - 0.2) for b in BASE[:9]] + [(0.98, 1.5)])
    assert (summary.wins, summary.ties, summary.losses) == (9, 0, 1)
    assert summary.holds
    assert not summarize([(0.5, 0.4), (0.5, 0.6)]).holds


def test_fewer_than_ten_pairs_do_not_hold():
    # Every pair won by a wide margin, but one pair, or nine, is too few.
    assert not summarize([(0.9, 0.5)]).holds
    nine = summarize([(b, b - 0.2) for b in BASE[:9]])
    assert nine.wins == 9 and not nine.holds
    assert summarize([(b, b - 0.2) for b in BASE + BASE]).holds


def test_no_pairs_refused():
    with pytest.raises(ValueError, match="no pairs"):
        summarize([])
