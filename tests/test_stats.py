"""OLS, F distribution, ADF, differencing, Granger tests, BH, and the scan."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from egoflux.errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    NonStationarizableError,
    SingularDesignError,
)
from egoflux import stats as stats_module
from egoflux.series import TopicSeries, WeekIndex
from egoflux.stats import (
    CORRECTION_BH,
    CORRECTION_NONE,
    MATRIX_SCHEMA_VERSION,
    SKIP_DEGENERATE,
    SKIP_NONSTATIONARY,
    SKIP_SINGULAR,
    SKIP_TOO_SHORT,
    AdfResult,
    CausalityMatrix,
    GrangerResult,
    adf_test,
    bh_adjust,
    causality_scan,
    difference,
    f_sf,
    granger_test,
    mackinnon_pvalue,
    make_stationary_pair,
    ols,
)
from egoflux.synth import AlterSpec, Coupling, SynthSpec, generate_series

from conftest import without_key, written_keys

INDENTED = Path(__file__).resolve().parent / "data" / "indented_json"


class TestOls:
    def test_constant_only_hand_case(self):
        fit = ols(np.array([1.0, 2.0, 3.0]), np.ones((3, 1)))
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.rss == pytest.approx(2.0, abs=1e-12)
        # s^2 = rss/df = 1; (X'X)^-1 = 1/3
        assert fit.std_errors[0] == pytest.approx(math.sqrt(1 / 3), abs=1e-12)
        assert fit.df_resid == 2

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(21)
        X = np.column_stack([np.ones(40), rng.standard_normal((40, 3))])
        y = X @ np.array([1.0, 2.0, -1.0, 0.5]) + 0.1 * rng.standard_normal(40)
        fit = ols(y, X)

        xtx = X.T @ X
        beta = np.linalg.solve(xtx, X.T @ y)
        resid = y - X @ beta
        rss = float(resid @ resid)
        s2 = rss / (40 - 4)
        se = np.sqrt(s2 * np.diag(np.linalg.inv(xtx)))

        np.testing.assert_allclose(fit.coefficients, beta, atol=1e-10)
        assert fit.rss == pytest.approx(rss, rel=1e-12)
        np.testing.assert_allclose(fit.std_errors, se, atol=1e-10)

    def test_rank_deficient_rejected(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(SingularDesignError):
            ols(np.arange(10.0), X)

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(InsufficientDataError):
            ols(np.ones(3), np.eye(3))

    def test_one_dimensional_design_promoted(self):
        fit = ols(np.array([2.0, 4.0, 6.0]), np.array([1.0, 2.0, 3.0]))
        assert fit.coefficients[0] == pytest.approx(2.0)


class TestFDistribution:
    def test_median_symmetry_equal_dfs(self):
        for d in (1, 3, 10, 47, 200):
            assert f_sf(1.0, d, d) == pytest.approx(0.5, abs=1e-10)

    def test_frozen_value(self):
        assert f_sf(4.26, 2, 20) == pytest.approx(0.028761050512934795, rel=1e-12)

    def test_against_scipy_grid(self):
        worst = 0.0
        for d1 in (1, 2, 5, 8, 30):
            for d2 in (1, 4, 10, 30, 100):
                for x in (0.05, 0.5, 1.0, 2.5, 10.0):
                    worst = max(worst, abs(f_sf(x, d1, d2) - scipy.stats.f.sf(x, d1, d2)))
        assert worst < 1e-12

    def test_edges(self):
        assert f_sf(0.0, 3, 7) == 1.0
        assert f_sf(math.inf, 3, 7) == 0.0
        with pytest.raises(ValueError):
            f_sf(-1.0, 3, 7)
        with pytest.raises(ValueError):
            f_sf(1.0, 0, 7)

    def test_monotone_decreasing(self):
        xs = [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
        vals = [f_sf(x, 4, 17) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMacKinnon:
    def test_published_critical_values(self):
        # constant-case asymptotic criticals for 1% / 5% / 10%
        assert mackinnon_pvalue(-3.43035) == pytest.approx(0.01, abs=0.005)
        assert mackinnon_pvalue(-2.86154) == pytest.approx(0.05, abs=0.005)
        assert mackinnon_pvalue(-2.56677) == pytest.approx(0.10, abs=0.005)

    def test_frozen_values(self):
        assert mackinnon_pvalue(-3.43035) == pytest.approx(0.009966741214133023, rel=1e-12)
        assert mackinnon_pvalue(-2.86154) == pytest.approx(0.050006651165625596, rel=1e-12)
        assert mackinnon_pvalue(-2.56677) == pytest.approx(0.10006154517353134, rel=1e-12)

    def test_clamps(self):
        assert mackinnon_pvalue(3.0) == 1.0
        assert mackinnon_pvalue(-25.0) == 0.0

    def test_monotone_nondecreasing(self):
        grid = np.linspace(-19.0, 3.0, 250)
        vals = [mackinnon_pvalue(float(s)) for s in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestAdf:
    def test_white_noise_frozen(self):
        rng = np.random.default_rng(11)
        result = adf_test(rng.standard_normal(200))
        assert result.statistic == pytest.approx(-14.092651075220578, rel=1e-9)
        assert result.p_value == pytest.approx(2.704479526994369e-26, rel=1e-6)
        assert result.lags_used == 0
        assert result.is_stationary

    def test_random_walk_frozen(self):
        rng = np.random.default_rng(11)
        rng.standard_normal(200)  # advance past the white-noise draw
        result = adf_test(np.cumsum(rng.standard_normal(200)))
        assert result.statistic == pytest.approx(-1.1220810446765186, rel=1e-9)
        assert result.p_value == pytest.approx(0.7061863990828646, rel=1e-9)
        assert not result.is_stationary

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            adf_test(np.full(50, 3.0))

    def test_too_short_rejected(self):
        with pytest.raises(InsufficientDataError):
            adf_test(np.arange(10.0))

    def test_max_lag_zero_forces_no_lags(self):
        rng = np.random.default_rng(22)
        result = adf_test(rng.standard_normal(100), max_lag=0)
        assert result.lags_used == 0

    def test_lag_selection_within_bounds(self):
        rng = np.random.default_rng(23)
        y = rng.standard_normal(150)
        result = adf_test(y, max_lag=6)
        assert 0 <= result.lags_used <= 6


def _reference_adf(y, max_lag=None, alpha=0.05):
    """The former ADF lag search: one OLS fit per candidate lag, then the refit."""
    y = np.asarray(y, dtype=float)
    T = len(y)
    if T >= 1 and np.ptp(y) == 0.0:
        raise DegenerateSeriesError("series is constant")
    if T - 1 < 12:
        raise InsufficientDataError(f"need at least 13 observations, got {T}")
    hard_cap = min(T - 13, (T - 4) // 2)
    if max_lag is None:
        max_lag = int(math.floor(12.0 * (T / 100.0) ** 0.25))
    max_lag = min(max_lag, hard_cap)
    if max_lag < 0:
        raise InsufficientDataError(f"series of length {T} too short for lag search")
    best_lag, best_aic = 0, math.inf
    for p in range(0, max_lag + 1):
        target, X = (a[0] for a in stats_module._adf_design(y[None], p, trim=max_lag))
        fit = ols(target, X)
        crit = fit.n_obs * math.log(fit.rss / fit.n_obs) + 2 * fit.n_params
        if crit < best_aic:
            best_aic, best_lag = crit, p
    target, X = (a[0] for a in stats_module._adf_design(y[None], best_lag, trim=best_lag))
    fit = ols(target, X)
    stat = float(fit.coefficients[1] / fit.std_errors[1])
    return best_lag, stat, fit.n_obs


def _adf_reference_cases():
    """Fixture series at each differencing order, random walks, white noise and
    the rank-deficient shapes."""
    cases = {}
    for s in _scan_series() + _ladder_series():
        for order in (0, 1, 2):
            cases[f"{s.account}/{s.topic}/d{order}"] = np.diff(s.counts.astype(float), n=order)
    rng = np.random.default_rng(41)
    for n in (13, 20, 52, 150, 260, 520):
        cases[f"walk{n}"] = np.cumsum(rng.standard_normal(n))
        cases[f"noise{n}"] = rng.standard_normal(n)
        cases[f"counts{n}"] = rng.poisson(2.0, size=n).astype(float)
    for n in (52, 260):
        for name, counts in _adf_singular_series(n).items():
            cases[f"singular-{name}{n}"] = counts.astype(float)
    cases["too-short"] = np.arange(10.0)
    return cases


class TestAdfAgainstPerCandidateFits:
    @pytest.mark.parametrize("max_lag", [None, 0, 3, 6])
    def test_same_lag_statistic_and_errors(self, max_lag):
        outcomes = {"ok": 0}
        for name, y in _adf_reference_cases().items():
            try:
                expected = _reference_adf(y, max_lag)
            except (DegenerateSeriesError, InsufficientDataError,
                    SingularDesignError) as exc:
                with pytest.raises(type(exc)) as got:
                    adf_test(y, max_lag)
                assert str(got.value) == str(exc), name
                outcomes[type(exc).__name__] = outcomes.get(type(exc).__name__, 0) + 1
                continue
            result = adf_test(y, max_lag)
            assert (result.lags_used, result.statistic, result.n_obs) == expected, name
            outcomes["ok"] += 1
        # Every kind of outcome is reached, and most series are tested.
        assert set(outcomes) == {"ok", "DegenerateSeriesError", "InsufficientDataError",
                                 "SingularDesignError"}
        assert outcomes["ok"] > 60

    def test_lag_search_is_one_factorisation(self, monkeypatch):
        shapes = []
        real_qr = np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(stats_module.np.linalg, "qr", counting_qr)
        y = np.cumsum(np.random.default_rng(42).standard_normal(260))
        result = adf_test(y)
        # max_lag 15: one QR of the 244 x 17 search design, one of the refit,
        # each a stack of one.
        assert shapes == [(1, 244, 17), (1, 259 - result.lags_used, result.lags_used + 2)]


def _adf_block_rows(n):
    """Count series filling several ADF blocks, with white noise, a random walk,
    a constant series and the rank-deficient shapes inside the first block and
    again after it."""
    rng = np.random.default_rng(43)
    special = [rng.standard_normal(n), np.cumsum(rng.standard_normal(n)), np.full(n, 4.0)]
    special += [counts.astype(float) for counts in _adf_singular_series(n).values()]
    rows = [rng.poisson(3.0, size=n).astype(float) for _ in range(stats_module.ADF_BLOCK + 90)]
    for i, y in enumerate(special):
        rows.insert(1 + 5 * i, y)
        rows.insert(stats_module.ADF_BLOCK + 2 + 5 * i, y.copy())
    return rows


class TestAdfBatch:
    """`_adf_batch` tests many series of one length in stacked blocks."""

    @pytest.mark.parametrize("max_lag", [None, 0, 3])
    @pytest.mark.parametrize("n", [10, 52, 260])
    def test_each_series_gets_what_adf_test_gives_it_alone(self, n, max_lag):
        rows = _adf_block_rows(n)
        assert len(rows) > 2 * stats_module.ADF_BLOCK
        batch = stats_module._adf_batch(np.stack(rows), max_lag)
        assert len(batch) == len(rows)
        kinds = Counter()
        for i, (y, got) in enumerate(zip(rows, batch)):
            try:
                expected = adf_test(y, max_lag)
            except (DegenerateSeriesError, InsufficientDataError, SingularDesignError) as exc:
                assert type(got) is type(exc) and str(got) == str(exc), i
                kinds[type(exc).__name__] += 1
                continue
            assert got == expected, i
            assert got.statistic.hex() == expected.statistic.hex(), i
            kinds["ok"] += 1
        if n == 10:
            assert kinds == {"DegenerateSeriesError": 2,
                             "InsufficientDataError": len(rows) - 2}
        else:
            # Without lags, only the alternation's design is rank deficient.
            singular = 2 if max_lag == 0 else 6
            assert kinds == {"DegenerateSeriesError": 2, "SingularDesignError": singular,
                             "ok": len(rows) - 2 - singular}

    def test_one_search_factorisation_per_block(self, monkeypatch):
        shapes = []
        real_qr = np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(stats_module.np.linalg, "qr", counting_qr)
        rows = _adf_block_rows(260)
        batch = stats_module._adf_batch(np.stack(rows))
        # The constant series are refused before any block; the rest go in
        # blocks of ADF_BLOCK, each one search QR, then one refit QR per
        # distinct chosen lag.
        live = [got for got in batch if not isinstance(got, DegenerateSeriesError)]
        blocks = [live[i : i + stats_module.ADF_BLOCK]
                  for i in range(0, len(live), stats_module.ADF_BLOCK)]
        expected = []
        for block in blocks:
            expected.append((len(block), 244, 17))
            lags = Counter(got.lags_used for got in block if isinstance(got, AdfResult))
            expected += [(count, 259 - lag, lag + 2) for lag, count in lags.items()]
        assert len(blocks) >= 3
        assert shapes == expected


class TestDifferencing:
    def test_difference_values(self):
        np.testing.assert_allclose(difference([1.0, 4.0, 9.0]), [3.0, 5.0])

    def test_difference_too_short(self):
        with pytest.raises(InsufficientDataError):
            difference([1.0])

    def test_stationary_pair_untouched(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        xs, ys, order = make_stationary_pair(x, y)
        assert order == 0
        np.testing.assert_array_equal(xs, x)
        np.testing.assert_array_equal(ys, y)

    def test_one_walk_differences_both(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(150)
        y = np.cumsum(rng.standard_normal(150))
        xs, ys, order = make_stationary_pair(x, y)
        assert order == 1
        assert len(xs) == len(ys) == 149
        np.testing.assert_allclose(xs, np.diff(x))
        np.testing.assert_allclose(ys, np.diff(y))

    def test_non_stationarizable_at_max_diff_zero(self):
        rng = np.random.default_rng(25)
        walk = np.cumsum(rng.standard_normal(150))
        flat = rng.standard_normal(150)
        with pytest.raises(NonStationarizableError):
            make_stationary_pair(flat, walk, max_diff=0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_stationary_pair(np.ones(50), np.ones(60))

    def test_x_error_wins_over_y_error(self):
        alternating, flat = np.arange(60) % 2, np.full(60, 3)
        with pytest.raises(SingularDesignError):
            make_stationary_pair(alternating, flat)
        with pytest.raises(DegenerateSeriesError):
            make_stationary_pair(flat, alternating)


def _reference_granger(x, y, lag):
    """The former two-fit Granger test: restricted and unrestricted OLS fitted apart."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y) - lag
    target = y[lag:]
    own = [y[lag - j: len(y) - j] for j in range(1, lag + 1)]
    cross = [x[lag - j: len(x) - j] for j in range(1, lag + 1)]
    fit_r = ols(target, np.column_stack([np.ones(n)] + own))
    fit_u = ols(target, np.column_stack([np.ones(n)] + own + cross))
    df2 = n - 2 * lag - 1
    if fit_u.rss == 0.0:
        return GrangerResult(lag=lag, f_stat=math.inf, p_value=0.0, n_obs_effective=n)
    f_stat = max(((fit_r.rss - fit_u.rss) / lag) / (fit_u.rss / df2), 0.0)
    return GrangerResult(lag=lag, f_stat=f_stat, p_value=f_sf(f_stat, lag, df2),
                         n_obs_effective=n)


class TestGranger:
    def _coupled(self):
        rng = np.random.default_rng(7)
        n = 120
        src = rng.standard_normal(n)
        tgt = np.zeros(n)
        for t in range(n):
            tgt[t] = (
                0.3 * (tgt[t - 1] if t else 0.0)
                + (0.9 * src[t - 2] if t >= 2 else 0.0)
                + 0.5 * rng.standard_normal()
            )
        return src, tgt

    def test_frozen_values_at_true_lag(self):
        src, tgt = self._coupled()
        result = granger_test(src, tgt, lag=2)
        assert result.f_stat == pytest.approx(156.0764140531624, rel=1e-9)
        assert result.p_value == pytest.approx(3.0629187023830126e-33, rel=1e-6)
        assert result.n_obs_effective == 118

    def test_wrong_lag_not_significant(self):
        src, tgt = self._coupled()
        result = granger_test(src, tgt, lag=1)
        assert result.p_value > 0.05

    def test_matches_normal_equations_f(self):
        src, tgt = self._coupled()
        lag = 2
        n = len(tgt) - lag
        target = tgt[lag:]
        own = [tgt[lag - j: len(tgt) - j] for j in range(1, lag + 1)]
        cross = [src[lag - j: len(src) - j] for j in range(1, lag + 1)]
        Xr = np.column_stack([np.ones(n)] + own)
        Xu = np.column_stack([np.ones(n)] + own + cross)

        def rss(y, X):
            beta = np.linalg.solve(X.T @ X, X.T @ y)
            r = y - X @ beta
            return float(r @ r)

        rss_r, rss_u = rss(target, Xr), rss(target, Xu)
        df2 = n - 2 * lag - 1
        f_expected = ((rss_r - rss_u) / lag) / (rss_u / df2)
        result = granger_test(src, tgt, lag=lag)
        assert result.f_stat == pytest.approx(f_expected, rel=1e-8)
        assert result.p_value == pytest.approx(f_sf(f_expected, lag, df2), rel=1e-8)

    def test_shifted_copy_near_perfect(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal(80)
        y = np.zeros(80)
        y[1:] = x[:-1]
        result = granger_test(x, y, lag=1)
        assert result.p_value == 0.0
        assert result.f_stat > 1e20

    def test_exact_zero_rss_flagged(self):
        # all-zero target solves exactly, so the unrestricted RSS is 0.0
        rng = np.random.default_rng(26)
        x = rng.standard_normal(40)
        y = np.zeros(40)
        y[0] = 5.0
        result = granger_test(x, y, lag=1)
        assert result.perfect_fit
        assert result.f_stat == math.inf
        assert result.p_value == 0.0

    def _independent(self):
        rng = np.random.default_rng(8)
        return rng.standard_normal(120), np.cumsum(rng.standard_normal(120)) * 0.1

    @pytest.mark.parametrize("kind", ["coupled", "independent"])
    def test_matches_two_fit_reference(self, kind):
        x, y = self._coupled() if kind == "coupled" else self._independent()
        for lag in range(1, 9):
            result = granger_test(x, y, lag)
            expected = _reference_granger(x, y, lag)
            assert result.f_stat == pytest.approx(expected.f_stat, rel=1e-9)
            assert abs(result.p_value - expected.p_value) <= 1e-10
            assert result.n_obs_effective == expected.n_obs_effective
            assert not result.perfect_fit

    @pytest.mark.parametrize("y, lag", [
        (np.full(60, 3.0), 1),                     # y lags collinear with the constant
        (np.tile([1.0, 4.0], 30), 2),              # y_{t-1} + y_{t-2} is constant
    ])
    def test_singular_restricted_block_same_error(self, y, lag):
        x = np.random.default_rng(9).standard_normal(len(y))
        with pytest.raises(SingularDesignError) as expected:
            _reference_granger(x, y, lag)
        with pytest.raises(SingularDesignError) as got:
            granger_test(x, y, lag)
        assert str(got.value) == str(expected.value)

    def test_perfect_fit_matches_reference(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal(40)
        y = np.zeros(40)
        y[0] = 5.0
        assert granger_test(x, y, lag=1) == _reference_granger(x, y, lag=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("which", ["x", "y"])
    def test_non_finite_series_refused(self, bad, which):
        rng = np.random.default_rng(27)
        series = {"x": rng.standard_normal(60), "y": rng.standard_normal(60)}
        series[which][5] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
            granger_test(series["x"], series["y"], lag=2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            granger_test(np.ones(50), np.ones(50), lag=0)
        with pytest.raises(ValueError):
            granger_test(np.ones(50), np.ones(60), lag=1)
        with pytest.raises(InsufficientDataError):
            granger_test(np.ones(12), np.ones(12), lag=1)


class TestGrangerBatch:
    """`_granger_batch` tests many alters against one ego series at once."""

    def _draw(self, seed, n_alters=100, n=200):
        rng = np.random.default_rng(seed)
        y = rng.poisson(6.0, size=n).astype(float)
        xs = rng.poisson(4.0, size=(n_alters, n)).astype(float)
        xs[::5, :-2] += 0.8 * y[2:]  # some alters lead y by two weeks
        return xs, y

    @pytest.mark.parametrize("lag", [1, 3, 8])
    def test_batch_of_many_equals_batch_of_one(self, lag):
        for seed in range(10):
            xs, y = self._draw(seed)
            batch = stats_module._granger_batch(xs, y, lag)
            singles = [stats_module._granger_batch(xs[i : i + 1], y, lag)[0]
                       for i in range(len(xs))]
            assert batch == singles  # dataclass equality: every float bit for bit
            assert batch == [granger_test(x, y, lag) for x in xs]

    @pytest.mark.parametrize("lag", [1, 3])
    def test_singular_alter_leaves_neighbours_unchanged(self, lag):
        xs, y = self._draw(50, n_alters=6)
        # y itself: its lags repeat the restricted block's columns.
        with_copy = np.insert(xs, 2, y, axis=0)
        batch = stats_module._granger_batch(with_copy, y, lag)
        assert batch[2] is None
        assert batch[:2] + batch[3:] == stats_module._granger_batch(xs, y, lag)
        with pytest.raises(SingularDesignError, match="design matrix is rank deficient"):
            granger_test(y, y, lag)

    def test_f_tails_one_call_per_batch(self, monkeypatch):
        import scipy.special

        calls = []
        real_fdtrc = scipy.special.fdtrc

        def counting_fdtrc(d1, d2, x):
            calls.append(np.shape(x))
            return real_fdtrc(d1, d2, x)

        monkeypatch.setattr(scipy.special, "fdtrc", counting_fdtrc)
        xs, y = self._draw(52, n_alters=12)
        batch = stats_module._granger_batch(np.insert(xs, 4, y, axis=0), y, 3)
        assert calls == [(12,)]
        assert batch[4] is None
        monkeypatch.undo()
        for result in batch[:4] + batch[5:]:
            df2 = result.n_obs_effective - 2 * 3 - 1
            assert result.p_value == f_sf(result.f_stat, 3, df2)

    def test_singular_restricted_block_fails_every_alter(self):
        xs, _ = self._draw(51, n_alters=4, n=60)
        assert stats_module._granger_batch(xs, np.tile([1.0, 4.0], 30), 2) == [None] * 4


class TestBhAdjust:
    def test_hand_case(self):
        adjusted = bh_adjust([0.001, 0.01, 0.02, 0.9])
        np.testing.assert_allclose(adjusted, [0.004, 0.02, 4 / 150, 0.9], atol=1e-12)

    def test_running_minimum(self):
        np.testing.assert_allclose(bh_adjust([0.9, 0.95]), [0.95, 0.95])

    def test_order_independent(self):
        p = [0.03, 0.2, 0.005, 0.8]
        a = bh_adjust(p)
        b = bh_adjust(p[::-1])[::-1]
        np.testing.assert_allclose(a, b)

    def test_empty_and_single(self):
        assert len(bh_adjust([])) == 0
        np.testing.assert_allclose(bh_adjust([0.42]), [0.42])

    def test_matches_step_up_loop(self):
        def loop_reference(p):
            m = len(p)
            order = np.argsort(p, kind="stable")
            adjusted, running = np.empty(m), 1.0
            for rank in range(m, 0, -1):
                running = min(running, p[order[rank - 1]] * m / rank)
                adjusted[order[rank - 1]] = running
            return adjusted

        rng = np.random.default_rng(28)
        for size in (1, 2, 7, 50, 300):
            for p in (rng.random(size), np.round(rng.random(size), 1), rng.random(size) ** 6):
                assert bh_adjust(p).tobytes() == loop_reference(p).tobytes()

    def test_never_below_raw_never_above_one(self):
        rng = np.random.default_rng(27)
        p = rng.random(30)
        adjusted = bh_adjust(p)
        assert (adjusted >= p - 1e-15).all()
        assert (adjusted <= 1.0).all()


def _scan_series():
    """Two topics; alt_x topic 0 drives ego topic 0 at lag 1; alt_flat constant."""
    rng = np.random.default_rng(30)
    n = 120
    idx = WeekIndex(epoch_week_start=date(2020, 1, 6), n_weeks=n)
    alt0 = rng.poisson(10.0, size=n)
    alt1 = rng.poisson(10.0, size=n)
    ego0 = np.zeros(n, dtype=int)
    ego0[1:] = alt0[:-1] + rng.poisson(3.0, size=n - 1)
    ego0[0] = 13
    ego1 = rng.poisson(8.0, size=n)
    return [
        TopicSeries("ego", 0, ego0, idx),
        TopicSeries("ego", 1, ego1, idx),
        TopicSeries("alt_x", 0, alt0, idx),
        TopicSeries("alt_x", 1, alt1, idx),
        TopicSeries("alt_flat", 0, np.full(n, 4), idx),
        TopicSeries("alt_flat", 1, rng.poisson(6.0, size=n), idx),
        TopicSeries("alt_partial", 0, rng.poisson(5.0, size=n), idx),
    ]


class TestCausalityScan:
    def test_planted_coupling_found(self):
        matrix = causality_scan(_scan_series(), "ego", ["alt_x"], max_lag=4)
        hit = matrix.pair("alt_x", 0)
        assert hit.best.lag == 1
        assert hit.best.p_value < 1e-10
        assert matrix.significant(hit)
        miss = matrix.pair("alt_x", 1)
        assert not matrix.significant(miss)

    def test_lags_stop_at_the_first_one_too_short(self, monkeypatch):
        # Lag L needs 3L + 10 weeks, so 30 weeks test lags 1-6 of max_lag 8;
        # lag 7 is refused and lag 8 is never tried.
        spec = SynthSpec(n_weeks=30, n_topics=1, seed=3, alters=[
            AlterSpec(handle="a1", couplings=[Coupling(topic=0, lag=1, strength=0.8)])])
        tried = []
        real = stats_module._granger_batch

        def recording(xs, y, lag):
            tried.append(lag)
            return real(xs, y, lag)

        monkeypatch.setattr(stats_module, "_granger_batch", recording)
        outcome = causality_scan(generate_series(spec).series, "ego", ["a1"],
                                 max_lag=8).pair("a1", 0)
        assert outcome.diff_order == 0 and outcome.skip_reason is None
        assert [r.lag for r in outcome.results] == [1, 2, 3, 4, 5, 6]
        assert tried == [1, 2, 3, 4, 5, 6, 7]

    def test_skip_codes(self):
        matrix = causality_scan(
            _scan_series(), "ego", ["alt_x", "alt_flat", "alt_partial"], max_lag=4
        )
        assert matrix.pair("alt_flat", 0).skip_reason == SKIP_DEGENERATE
        assert matrix.pair("alt_flat", 0).best is None
        # alt_partial has no topic-1 series at all
        assert matrix.pair("alt_partial", 1).skip_reason == SKIP_TOO_SHORT
        assert matrix.pair("alt_x", 0).skip_reason is None

    def test_bh_correction_sets_adjusted(self):
        matrix = causality_scan(
            _scan_series(), "ego", ["alt_x", "alt_flat"],
            max_lag=4, correction=CORRECTION_BH,
        )
        tested = [p for p in matrix.pairs if p.best is not None]
        assert len(tested) < len(matrix.pairs)
        expected = bh_adjust([p.best.p_value for p in tested])
        assert matrix.adjusted_p == {(p.alter, p.topic): float(e)
                                     for p, e in zip(tested, expected)}

    def test_significance_rules(self):
        raw = causality_scan(_scan_series(), "ego", ["alt_x"], max_lag=4,
                             correction=CORRECTION_NONE)
        bh = causality_scan(_scan_series(), "ego", ["alt_x"], max_lag=4,
                            correction=CORRECTION_BH)
        p_raw = raw.pair("alt_x", 0)
        assert raw.significant(p_raw) == (p_raw.best.p_value < raw.alpha)
        p_bh = bh.pair("alt_x", 0)
        assert bh.significant(p_bh) == (bh.adjusted_p[("alt_x", 0)] <= bh.alpha)

    def test_bh_significant_exactly_when_adjusted_p_at_most_alpha(self):
        matrix = causality_scan(_scan_series(), "ego", ["alt_x", "alt_flat", "alt_partial"],
                                max_lag=4, correction=CORRECTION_BH)
        tested = [p for p in matrix.pairs if p.best is not None]
        adjusted = bh_adjust([p.best.p_value for p in tested])
        # Every adjusted value as alpha, so each pair meets the <= boundary once.
        for alpha in sorted(set(adjusted.tolist())):
            at_alpha = replace(matrix, alpha=alpha)
            assert [at_alpha.significant(p) for p in tested] == [a <= alpha for a in adjusted]
            assert not any(at_alpha.significant(p) for p in matrix.pairs if p.best is None)

    def test_best_lag_is_argmin_p_ties_to_smaller(self):
        matrix = causality_scan(_scan_series(), "ego", ["alt_x"], max_lag=4)
        outcome = matrix.pair("alt_x", 0)
        best_p = min(r.p_value for r in outcome.results)
        first_at_best = next(r.lag for r in outcome.results if r.p_value == best_p)
        assert outcome.best.lag == first_at_best

    def test_unknown_ego_rejected(self):
        with pytest.raises(ValueError):
            causality_scan(_scan_series(), "nobody", ["alt_x"])

    def test_alter_without_series_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"alters with no series: \['ghost', 'nobody'\]"):
            causality_scan(_scan_series(), "ego", ["alt_x", "ghost", "nobody"])

    def test_ego_listed_as_alter_rejected(self):
        with pytest.raises(ValueError, match=r"ego account 'ego' listed as an alter"):
            causality_scan(_scan_series(), "ego", ["alt_x", "ego"])

    def test_repeated_alters_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"alters repeated: \['alt_flat', 'alt_x'\]"):
            causality_scan(_scan_series(), "ego", ["alt_x", "alt_flat", "alt_x", "alt_flat"])

    def test_unknown_correction_rejected(self):
        with pytest.raises(ValueError):
            causality_scan(_scan_series(), "ego", ["alt_x"], correction="bonferroni")

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=rf"alpha must be in \(0, 1\), got {alpha}"):
            causality_scan(_scan_series(), "ego", ["alt_x"], alpha=alpha)

    def test_negative_max_diff_rejected(self):
        with pytest.raises(ValueError, match="max_diff must be >= 0, got -3"):
            causality_scan(_scan_series(), "ego", ["alt_x"], max_diff=-3)

    def test_roundtrip_dict_and_json(self):
        matrix = causality_scan(_scan_series(), "ego", ["alt_x", "alt_flat"],
                                max_lag=3, correction=CORRECTION_BH)
        again = CausalityMatrix.from_dict(matrix.to_dict())
        assert again.to_json() == matrix.to_json()
        assert again.pair("alt_x", 0).best.lag == matrix.pair("alt_x", 0).best.lag
        assert again.pair("alt_flat", 0).skip_reason == SKIP_DEGENERATE

    @pytest.mark.parametrize("correction", [CORRECTION_NONE, CORRECTION_BH])
    @pytest.mark.parametrize("case", ["scan", "ladder", "perfect_fit"])
    def test_from_dict_restores_every_field(self, case, correction):
        if case == "ladder":  # pairs at differencing orders 0, 1 and 2
            matrix = causality_scan(_ladder_series(), "ego", LADDER_ALTERS, max_lag=4,
                                    correction=correction)
        else:
            matrix = causality_scan(_scan_series(), "ego", ["alt_x", "alt_flat", "alt_partial"],
                                    max_lag=4, correction=correction)
        if case == "perfect_fit":
            pair = matrix.pair("alt_x", 1)
            first = pair.results[0]
            pair.results[0] = GrangerResult(lag=first.lag, f_stat=math.inf, p_value=0.0,
                                            n_obs_effective=first.n_obs_effective)
        again = CausalityMatrix.from_dict(json.loads(matrix.to_json()))
        # Field for field: every pair, and every GrangerResult's lag, F, p and n_obs_effective.
        assert again == matrix
        assert [r.perfect_fit for p in again.pairs for r in p.results] == [
            r.perfect_fit for p in matrix.pairs for r in p.results]
        assert again.adjusted_p == matrix.adjusted_p
        assert [again.significant(p) for p in again.pairs] == [
            matrix.significant(p) for p in matrix.pairs]
        assert any(r.perfect_fit for p in again.pairs for r in p.results) == (
            case == "perfect_fit")
        if case == "ladder":
            assert {p.diff_order for p in matrix.pairs if p.results} == {0, 1, 2}

    def test_matrix_json_holds_no_best_lag(self):
        d = causality_scan(_scan_series(), "ego", ["alt_x"], max_lag=4).to_dict()
        assert d["schema_version"] == MATRIX_SCHEMA_VERSION == 3
        assert "best_lag_rule" not in d
        assert all("best_lag" not in pd for pd in d["pairs"])

    def test_matrix_json_holds_no_derived_value(self):
        matrix = causality_scan(_scan_series(), "ego", ["alt_x", "alt_flat"], max_lag=4,
                                correction=CORRECTION_BH)
        paths = list(written_keys(json.loads(matrix.to_json())))
        names = Counter(path[-1] for path in paths)
        assert not names.keys() & {"adjusted_p", "perfect_fit", "n_obs_effective"}
        assert paths.count(("n_weeks",)) == names["n_weeks"] == 1
        assert matrix.n_weeks == 120

    @pytest.mark.parametrize("version", [1, 2, None, 4])
    def test_other_matrix_schema_rejected(self, version):
        d = causality_scan(_scan_series(), "ego", ["alt_x"], max_lag=4).to_dict()
        d["schema_version"] = version
        with pytest.raises(ValueError, match=f"matrix schema {version} != 3"):
            CausalityMatrix.from_dict(d)

    def test_repeated_alter_rejected(self):
        d = causality_scan(_scan_series(), "ego", ["alt_x"], max_lag=4).to_dict()
        d["alters"] = ["alt_x", "alt_x"]
        with pytest.raises(ValueError, match=re.escape("alters ['alt_x', 'alt_x'] repeat")):
            CausalityMatrix.from_dict(d)

    def test_claimed_grid_refused_before_it_is_built(self):
        d = json.loads((INDENTED / "matrix.json").read_text(encoding="utf-8"))
        d["n_topics"] = 1_000_000
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    "4 pairs for 2 alters x 1000000 topics, need 2000000")):
                CausalityMatrix.from_dict(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The grid itself would hold two million tuples (about 300 MB).
        assert peak < 1_000_000

    @pytest.mark.parametrize("n_topics", [2.0, True, "2"])
    def test_n_topics_not_an_integer_rejected(self, n_topics):
        d = json.loads((INDENTED / "matrix.json").read_text(encoding="utf-8"))
        d["n_topics"] = n_topics
        with pytest.raises(TypeError, match=re.escape(f"n_topics {n_topics!r} is not an integer")):
            CausalityMatrix.from_dict(d)

    def test_every_written_key_is_read(self):
        matrix = causality_scan(_scan_series(), "ego", ["alt_x", "alt_flat"],
                                max_lag=3, correction=CORRECTION_BH)
        written = json.loads(matrix.to_json())
        paths = list(written_keys(written))
        assert ("n_weeks",) in paths and ("pairs", 0, "results", 0, "p_value") in paths
        for path in paths:
            named = "schema None" if path == ("schema_version",) else f"'{path[-1]}'"
            with pytest.raises((KeyError, ValueError), match=named):
                CausalityMatrix.from_dict(without_key(written, path))

    @pytest.mark.parametrize("short", [("alt_a", 0), ("ego", 1)], ids=["shared", "ego_only"])
    def test_unequal_lengths_rejected_before_any_test(self, short, monkeypatch):
        def no_adf(*args, **kwargs):
            raise AssertionError("a pair was tested")

        monkeypatch.setattr(stats_module, "_adf_batch", no_adf)
        rng = np.random.default_rng(4)
        series = []
        for account, topic in (("ego", 0), ("ego", 1), ("alt_a", 0)):
            n = 59 if (account, topic) == short else 60
            idx = WeekIndex(epoch_week_start=date(2020, 1, 6), n_weeks=n)
            series.append(TopicSeries(account, topic, rng.poisson(5.0, size=n), idx))
        with pytest.raises(ValueError, match=re.escape("series of unequal length: [59, 60] weeks")):
            causality_scan(series, "ego", ["alt_a"])

    @pytest.mark.parametrize("topics", [[0, 2], [-1, 0], [1, 2]],
                             ids=["gap", "negative", "from_one"])
    def test_topics_not_zero_to_n_rejected_by_name(self, topics):
        idx = WeekIndex(epoch_week_start=date(2020, 1, 6), n_weeks=60)
        rng = np.random.default_rng(4)
        series = [TopicSeries(account, topic, rng.poisson(5.0, size=60), idx)
                  for account in ("ego", "alt_a") for topic in topics]
        with pytest.raises(ValueError, match=re.escape(f"series topics {topics} are not 0..1")):
            causality_scan(series, "ego", ["alt_a"])


def _adf_singular_series(n):
    """One lone post in the first week, one in the last week, and a 0,1
    alternation: each makes the ADF design rank deficient."""
    first, last = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    first[0] = last[-1] = 1
    return {"first": first, "last": last, "alternating": np.arange(n) % 2}


class TestAdfSingular:
    @pytest.mark.parametrize("n", [52, 260])
    def test_alter_series_skipped_as_singular(self, n):
        idx = WeekIndex(epoch_week_start=date(2020, 1, 6), n_weeks=n)
        ego = np.random.default_rng(5).poisson(5.0, size=n)
        alters = _adf_singular_series(n)
        series = [TopicSeries("ego", 0, ego, idx)]
        series += [TopicSeries(a, 0, counts, idx) for a, counts in alters.items()]
        matrix = causality_scan(series, "ego", list(alters))
        assert [p.skip_reason for p in matrix.pairs] == [SKIP_SINGULAR] * 3
        assert all(p.diff_order is None and not p.results for p in matrix.pairs)
        for counts in alters.values():
            with pytest.raises(SingularDesignError):
                make_stationary_pair(counts, ego)

    def test_singular_ego_verdict_tested_once(self, monkeypatch):
        n = 52
        idx = WeekIndex(epoch_week_start=date(2020, 1, 6), n_weeks=n)
        rng = np.random.default_rng(6)
        ego = _adf_singular_series(n)["alternating"]
        series = [TopicSeries("ego", 0, ego, idx)]
        series += [TopicSeries(f"alt_{i}", 0, rng.poisson(5.0, size=n), idx)
                   for i in range(3)]
        calls = []
        real_adf = stats_module._adf_batch

        def counting_adf(ys, *args, **kwargs):
            calls.extend(row.tobytes() for row in np.asarray(ys, dtype=float))
            return real_adf(ys, *args, **kwargs)

        monkeypatch.setattr(stats_module, "_adf_batch", counting_adf)
        matrix = causality_scan(series, "ego", ["alt_0", "alt_1", "alt_2"])
        assert [p.skip_reason for p in matrix.pairs] == [SKIP_SINGULAR] * 3
        assert calls.count(ego.astype(float).tobytes()) == 1


def _ladder_series():
    """Ego topics: 0 white noise, 1 random walk (I(1)), 2 constant.

    Alters: alt_i0 white noise, alt_i2 doubly integrated (not stationary at
    order 1), alt_walk a random walk; alt_missing has only topic 0.
    """
    rng = np.random.default_rng(31)
    n = 150
    idx = WeekIndex(epoch_week_start=date(2020, 1, 6), n_weeks=n)

    def noise():
        return rng.poisson(20.0, size=n)

    def walk():
        return 500 + np.cumsum(rng.integers(-3, 4, size=n))

    def double_walk():
        return 50_000 + np.cumsum(np.cumsum(rng.integers(-3, 4, size=n)))

    out = [TopicSeries("ego", 0, noise(), idx), TopicSeries("ego", 1, walk(), idx),
           TopicSeries("ego", 2, np.full(n, 7), idx)]
    for alter, make in (("alt_i0", noise), ("alt_i2", double_walk), ("alt_walk", walk)):
        out += [TopicSeries(alter, t, make(), idx) for t in range(3)]
    out.append(TopicSeries("alt_missing", 0, noise(), idx))
    return out


LADDER_ALTERS = ["alt_i0", "alt_i2", "alt_walk", "alt_missing"]


class TestScanDifferencing:
    def test_adf_runs_once_per_series_and_order(self, monkeypatch):
        calls = []
        real_adf = stats_module._adf_batch

        def counting_adf(ys, *args, **kwargs):
            calls.extend(row.tobytes() for row in np.asarray(ys, dtype=float))
            return real_adf(ys, *args, **kwargs)

        monkeypatch.setattr(stats_module, "_adf_batch", counting_adf)
        series = _ladder_series()
        causality_scan(series, "ego", LADDER_ALTERS, max_lag=3, max_diff=1)

        for s in series:
            if s.account != "ego":
                continue
            for order in (0, 1):
                level = np.diff(s.counts.astype(float), n=order).tobytes()
                assert calls.count(level) <= 1, (s.topic, order)
        # Ego topic 0 is stationary at order 0: one test serves all alters.
        assert calls.count(series[0].counts.astype(float).tobytes()) == 1

    def test_one_adf_batch_per_order_reached(self, monkeypatch):
        lengths = []
        real_adf = stats_module._adf_batch

        def counting_adf(ys, *args, **kwargs):
            lengths.append(np.shape(ys)[-1])
            return real_adf(ys, *args, **kwargs)

        monkeypatch.setattr(stats_module, "_adf_batch", counting_adf)
        matrix = causality_scan(_ladder_series(), "ego", LADDER_ALTERS, max_lag=3, max_diff=2)
        assert max(p.diff_order for p in matrix.pairs if p.results) == 2
        # Orders 0, 1 and 2 are reached: one batch each, of 150, 149 and 148 weeks.
        assert lengths == [150, 149, 148]

    def test_one_restricted_factorisation_per_topic_order_and_lag(self, monkeypatch):
        calls = []
        real_fit = stats_module._restricted_fit

        def counting_fit(y, lag):
            calls.append((y.tobytes(), lag))
            return real_fit(y, lag)

        monkeypatch.setattr(stats_module, "_restricted_fit", counting_fit)
        series = _ladder_series()
        max_lag = 3
        alters = LADDER_ALTERS + ["alt_i0_twin"]
        twin = [TopicSeries("alt_i0_twin", s.topic, s.counts + 1, s.week_index)
                for s in series if s.account == "alt_i0"]
        matrix = causality_scan(series + twin, "ego", alters, max_lag=max_lag)
        ego = {s.topic: s.counts.astype(float) for s in series if s.account == "ego"}
        groups = {(p.topic, p.diff_order) for p in matrix.pairs if p.results}
        expected = [(np.diff(ego[topic], n=order).tobytes(), lag)
                    for topic, order in sorted(groups) for lag in range(1, max_lag + 1)]
        assert sorted(calls) == sorted(expected)
        assert len(set(calls)) == len(calls)
        # Groups are shared: more pairs were tested than there are groups.
        assert sum(1 for p in matrix.pairs if p.results) > len(groups)

    def test_singular_alter_skipped_alone(self):
        series = _ladder_series()
        ego0 = next(s for s in series if (s.account, s.topic) == ("ego", 0))
        copy = TopicSeries("alt_copy", 0, ego0.counts, ego0.week_index)
        alters = ["alt_i0", "alt_copy", "alt_missing"]
        matrix = causality_scan(series + [copy], "ego", alters, max_lag=3)
        alone = causality_scan(series, "ego", ["alt_i0", "alt_missing"], max_lag=3)
        assert matrix.pair("alt_copy", 0).skip_reason == SKIP_SINGULAR
        assert matrix.pair("alt_copy", 0).diff_order is None
        for alter in ("alt_i0", "alt_missing"):
            assert matrix.pair(alter, 0) == alone.pair(alter, 0)
            assert matrix.pair(alter, 0).results

    def test_constant_ego_topic_degenerate_for_every_alter(self):
        matrix = causality_scan(_ladder_series(), "ego", LADDER_ALTERS, max_lag=3)
        for alter in ("alt_i0", "alt_i2", "alt_walk"):
            assert matrix.pair(alter, 2).skip_reason == SKIP_DEGENERATE

    def test_scan_matches_pairwise_path(self):
        series = _ladder_series()
        max_lag, max_diff = 3, 1
        matrix = causality_scan(series, "ego", LADDER_ALTERS, max_lag=max_lag,
                                max_diff=max_diff)
        lookup = {(s.account, s.topic): s.counts for s in series}
        codes = {DegenerateSeriesError: SKIP_DEGENERATE,
                 NonStationarizableError: SKIP_NONSTATIONARY,
                 InsufficientDataError: SKIP_TOO_SHORT,
                 SingularDesignError: SKIP_SINGULAR}
        seen = set()
        for outcome in matrix.pairs:
            x = lookup.get((outcome.alter, outcome.topic))
            y = lookup[("ego", outcome.topic)]
            if x is None:
                assert outcome.skip_reason == SKIP_TOO_SHORT
                continue
            try:
                xs, ys, order = make_stationary_pair(x, y, max_diff=max_diff)
            except tuple(codes) as exc:
                assert outcome.skip_reason == codes[type(exc)]
                assert outcome.diff_order is None and not outcome.results
                seen.add(outcome.skip_reason)
                continue
            assert outcome.skip_reason is None
            assert outcome.diff_order == order
            expected = [granger_test(xs, ys, lag) for lag in range(1, max_lag + 1)]
            assert [(r.lag, r.p_value) for r in outcome.results] == [
                (r.lag, r.p_value) for r in expected
            ]
            seen.add(order)
        # The fixture reaches both diff orders and both ADF-stage skip codes.
        assert seen == {0, 1, SKIP_DEGENERATE, SKIP_NONSTATIONARY}


def test_import_leaves_scipy_special_and_stats_unloaded():
    code = ("import sys, egoflux; "
            "print(sorted(m for m in ('scipy.special', 'scipy.stats') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(stats_module.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
