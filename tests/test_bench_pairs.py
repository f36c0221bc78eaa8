"""tools/bench_pairs.py summarizes alternated (base, change) run_s pairs and
decides the claim rule: at least 10 pairs, wins in 9 of every 10, and a
median gap wider than the base's quartile spread.  It also gives each
end-to-end metric a verdict against its bound."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import UNRESOLVED, WITHIN, WORSE, quartiles, summarize, verdict  # noqa: E402

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


# BASE: median 0.89, quartiles [0.845, 0.935]; a spread of 0.09, 10.1% of the median.
def test_worse_beyond_the_bound_lower_is_better():
    # A median of 0.89 * 1.25 = 1.1125 is the edge of a 25% bound.
    assert verdict(BASE, [b + 0.25 for b in BASE], "lower", 0.25) == WORSE
    assert verdict(BASE, [b + 0.2 for b in BASE], "lower", 0.25) == WITHIN


def test_worse_beyond_the_bound_higher_is_better():
    # Rates with median 100 lose 30% or 20% against a 25% bound; a gain is never worse.
    rates = [90.0, 95.0, 100.0, 105.0, 110.0]
    assert verdict(rates, [r - 30 for r in rates], "higher", 0.25) == WORSE
    assert verdict(rates, [r - 20 for r in rates], "higher", 0.25) == WITHIN
    assert verdict(rates, [r + 50 for r in rates], "higher", 0.25) == WITHIN
    # Read as lower-is-better, the same gain is worse.
    assert verdict(rates, [r + 50 for r in rates], "lower", 0.25) == WORSE


def test_unresolved_when_the_base_spread_exceeds_the_bound():
    # A 10.1% spread against a 5% bound: unresolved unless every change run beats every base run.
    assert verdict(BASE, BASE, "lower", 0.05) == UNRESOLVED
    assert verdict(BASE, [0.79] * 10, "lower", 0.05) == WITHIN
    assert verdict(BASE, [0.80] * 10, "lower", 0.05) == UNRESOLVED  # ties the fastest base run
    assert verdict(BASE, [0.99] * 10, "higher", 0.05) == WITHIN
    # Inside a 25% bound the same spread resolves.
    assert verdict(BASE, BASE, "lower", 0.25) == WITHIN


def test_a_constant_metric_within_a_zero_spread():
    assert verdict([1.0] * 5, [1.0] * 5, "higher", 0.025) == WITHIN
    assert verdict([1.0] * 5, [0.9] * 5, "higher", 0.025) == WORSE
