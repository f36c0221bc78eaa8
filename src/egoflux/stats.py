"""Stationarity testing, paired differencing, and pairwise Granger F-tests.

The numerical core of the package: OLS fitting via QR decomposition,
F-distribution tail probabilities from scipy.special.fdtrc, the augmented
Dickey-Fuller unit-root test with MacKinnon approximate p-values, and the
per-(alter, topic) causality scan over lags 1..max_lag, which tests each
series for stationarity at most once per differencing order.

Each statistic has one factorisation, and the scan computes them in stacks.
An ADF lag search is one QR of its largest design: the candidate designs
are nested, so every candidate's RSS is read off that one factor.  The scan
differences its pairs in one pass (`_diff_orders`): at each order
0..max_diff it differences the series that undecided pairs still need and
ADF-tests them in one call, in stacked blocks of ADF_BLOCK series (one QR
of the block's stacked search designs, then one stacked QR per distinct
chosen lag for the refits).  `adf_test` is the one-series call of the same
test and `make_stationary_pair` the one-pair call of the pass.  A Granger test
factors the ego's restricted design [1, y lags] once and tests every alter
sharing it (same topic and differencing order) against that factor, by
residualising their x-lag blocks on it (Frisch-Waugh-Lovell) and factoring
the residuals in one stacked QR, and it takes the batch's F tails in one
call; `granger_test` is the one-alter call of the same function.  Every
stacked slice is computed on its own, so a stack gives each series the same
bits as a stack of one.

Each rule of the decision has one owner: a pair's best lag is
`PairOutcome.best` (argmin p over its per-lag results, ties to the smaller
lag), and whether a pair is significant is `CausalityMatrix.significant`
(best p < alpha, or BH-adjusted p <= alpha under the BH correction).  The
matrix owns what follows from the scan and derives it rather than storing
it: the BH-adjusted p is `CausalityMatrix.adjusted_p`, computed once per
matrix.  A pair that cannot be tested carries a skip code instead of
results.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    NonStationarizableError,
    SingularDesignError,
)
from .series import TopicSeries

logger = logging.getLogger(__name__)

DEFAULT_MAX_LAG = 8
DEFAULT_MAX_DIFF = 2
DEFAULT_ALPHA = 0.05

# Skip reason codes used by causality_scan (rendered by the report module).
SKIP_DEGENERATE = "DEGEN"
SKIP_NONSTATIONARY = "NONSTAT"
SKIP_TOO_SHORT = "SHORT"
SKIP_SINGULAR = "SINGULAR"

# The skip code of each error the stationarity stage can raise for a pair.
_ADF_SKIPS = {
    DegenerateSeriesError: SKIP_DEGENERATE,
    NonStationarizableError: SKIP_NONSTATIONARY,
    InsufficientDataError: SKIP_TOO_SHORT,
    SingularDesignError: SKIP_SINGULAR,
}

CORRECTION_NONE = "none"
CORRECTION_BH = "benjamini_hochberg"

MATRIX_SCHEMA_VERSION = 3


# ---------------------------------------------------------------------------
# Ordinary least squares
# ---------------------------------------------------------------------------

@dataclass
class OlsFit:
    """OLS solution with the quantities the ADF and Granger tests consume."""

    coefficients: np.ndarray
    rss: float
    n_obs: int
    n_params: int
    r_factor: np.ndarray

    @property
    def df_resid(self) -> int:
        return self.n_obs - self.n_params

    @property
    def std_errors(self) -> np.ndarray:
        """sqrt(diag(s^2 (X'X)^-1)) with s^2 = rss / df_resid, from the R factor."""
        return _std_errors(self.rss / self.df_resid, self.r_factor)


_RANK_DEFICIENT = "design matrix is rank deficient"


def _rank_deficient(rdiag: np.ndarray):
    """Whether the |R_ii| along the last axis are all zero or one is below 1e-10 of the largest."""
    top = rdiag.max(axis=-1)
    return (top == 0.0) | (rdiag.min(axis=-1) < 1e-10 * top)


def _fit_stack(targets: np.ndarray, X: np.ndarray):
    """QR fits of each targets[i] on X[i]: one stacked QR, one stacked solve.

    Returns the full-rank mask over the slices and, for the full-rank slices
    only, their coordinates Q'target, coefficients, RSS and R factors.  Rank
    deficiency follows the R diagonal at 1e-10 relative tolerance.  Deficient
    slices are dropped before the solve, since one exactly singular R makes
    the whole stacked solve raise.  Each RSS is a per-slice r @ r product,
    the same sum a single fit takes.
    """
    Q, R = np.linalg.qr(X)
    full = ~_rank_deficient(np.abs(np.diagonal(R, axis1=1, axis2=2)))
    if not full.all():
        Q, R, X, targets = Q[full], R[full], X[full], targets[full]
    coords = np.swapaxes(Q, 1, 2) @ targets[..., None]
    beta = np.linalg.solve(R, coords)
    residuals = targets - (X @ beta)[..., 0]
    rss = (residuals[:, None, :] @ residuals[..., None])[:, 0, 0]
    return full, coords[..., 0], beta[..., 0], rss, R


def _std_errors(scale, r_factor: np.ndarray) -> np.ndarray:
    """sqrt(diag(scale (R'R)^-1)) of an R factor, or of a stack of them along the first axis."""
    r_inv = np.linalg.solve(r_factor, np.eye(r_factor.shape[-1]))
    return np.sqrt(scale * np.diagonal(r_inv @ np.swapaxes(r_inv, -1, -2), axis1=-2, axis2=-1))


def ols(y, X) -> OlsFit:
    """Fit y = X beta + eps by QR decomposition.

    The fit keeps the R factor; standard errors are computed from it only
    when read.  Rank deficiency is detected from the R diagonal at 1e-10
    relative tolerance and raises SingularDesignError.  This is the
    one-slice call of the stacked fit the ADF test uses.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if n <= p:
        raise InsufficientDataError(f"need more rows ({n}) than columns ({p})")

    full, _, beta, rss, R = _fit_stack(y[None], X[None])
    if not full[0]:
        raise SingularDesignError(_RANK_DEFICIENT)
    return OlsFit(beta[0], float(rss[0]), n, p, R[0])


# ---------------------------------------------------------------------------
# F distribution
# ---------------------------------------------------------------------------

def f_sf(x: float, d1: int, d2: int) -> float:
    """Upper-tail probability P[F(d1, d2) > x]."""
    # Imported here, not at module top: loading scipy.special would add a
    # measurable share to every `import egoflux`.
    from scipy.special import fdtrc

    if d1 < 1 or d2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0.0 or not math.isfinite(x):
        if x == math.inf:
            return 0.0
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    return float(fdtrc(d1, d2, x))


# ---------------------------------------------------------------------------
# Augmented Dickey-Fuller test
# ---------------------------------------------------------------------------

# MacKinnon (1994) response-surface coefficients for the Dickey-Fuller tau
# distribution, constant-only regression, one I(1) series.  Three regimes:
# below tau_min / above tau_max the p-value saturates at 0 / 1; in between,
# p = Phi(polynomial(stat)) with the small-p polynomial left of tau_star and
# the large-p polynomial right of it.
_TAU_MAX_C = 2.74
_TAU_MIN_C = -18.83
_TAU_STAR_C = -1.61
_TAU_SMALLP_C = (2.1659, 1.4412, 3.8269e-2)
_TAU_LARGEP_C = (1.7339, 9.3202e-1, -1.2745e-1, -1.0368e-2)


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def mackinnon_pvalue(stat: float) -> float:
    """Approximate p-value of an ADF tau statistic (constant-only case)."""
    if stat > _TAU_MAX_C:
        return 1.0
    if stat < _TAU_MIN_C:
        return 0.0
    coefs = _TAU_SMALLP_C if stat <= _TAU_STAR_C else _TAU_LARGEP_C
    poly = 0.0
    for c in reversed(coefs):
        poly = poly * stat + c
    return _norm_cdf(poly)


@dataclass
class AdfResult:
    """Outcome of the augmented Dickey-Fuller test (constant-only regression)."""

    statistic: float
    p_value: float
    lags_used: int
    is_stationary: bool
    n_obs: int


# Series per stacked ADF block.  At 260 weeks a block's stacked search
# designs take about 1 MB and their Q as much again; one stack of all 606
# series of the `scan` workload would hold about 40 MB more at once.
# Blocks of 32 and 48 tested those series about 20% faster than blocks of 64
# (2-vCPU Xeon, 2 MB L2 per core, one BLAS thread).
ADF_BLOCK = 32


def _adf_design(ys: np.ndarray, n_lags: int, trim: int):
    """Stacked (targets, X) of each row's ADF regression, `trim` rows cut from the front.

    Target is dy_t for t = trim+1..T-1 (level indexing); regressors are a
    constant, the lagged level y_{t-1}, and dy_{t-1}..dy_{t-n_lags}.
    """
    dy = np.diff(ys, axis=1)
    m = dy.shape[1]
    cols = [np.ones((len(ys), m - trim)), ys[:, trim:-1]]
    cols += [dy[:, trim - j : m - j] for j in range(1, n_lags + 1)]
    return dy[:, trim:], np.stack(cols, axis=-1)


def _aic(rss: float, n: int, k: int) -> float:
    return n * math.log(rss / n) + 2 * k


def _adf_block(ys: np.ndarray, max_lag: int,
               alpha: float) -> list[AdfResult | SingularDesignError]:
    """ADF tests of a stack of non-constant series of one length (at least 13).

    The lag search is one QR of each series' max_lag design X = QR, all
    stacked in one call.  Candidate p uses the first p+2 columns of X, so its
    RSS is the full RSS plus the squares of Q'target from entry p+2 on.  A
    rank-deficient candidate makes X rank deficient too, so one rank check
    on R gives the whole search its SingularDesignError.  The series that
    chose the same lag are refit together, in one stacked QR.
    """
    outcomes: list[AdfResult | SingularDesignError | None] = [None] * len(ys)
    target, X = _adf_design(ys, max_lag, trim=max_lag)
    full, coords, _, rss_full, _ = _fit_stack(target, X)
    n = target.shape[1]
    # dropped[:, k]: what leaving out columns k.. of X adds to the full RSS.
    dropped = np.cumsum(coords[:, ::-1] ** 2, axis=1)[:, ::-1]
    by_lag: dict[int, list[int]] = {}
    for row, rss, drop in zip(np.flatnonzero(full).tolist(), rss_full.tolist(), dropped.tolist()):
        drop.append(0.0)
        best_lag, best_aic = 0, math.inf
        for p in range(0, max_lag + 1):
            crit = _aic(rss + drop[p + 2], n, p + 2)
            if crit < best_aic:
                best_aic, best_lag = crit, p
        by_lag.setdefault(best_lag, []).append(row)

    for lag, rows in by_lag.items():
        target, X = _adf_design(ys[rows], lag, trim=lag)
        full, _, beta, rss, R = _fit_stack(target, X)
        n_obs = target.shape[1]
        se = _std_errors((rss / (n_obs - lag - 2))[:, None], R)
        for row, stat in zip(np.asarray(rows)[full].tolist(), (beta[:, 1] / se[:, 1]).tolist()):
            p_value = mackinnon_pvalue(stat)
            outcomes[row] = AdfResult(stat, p_value, lag, p_value < alpha, n_obs)
    return [SingularDesignError(_RANK_DEFICIENT) if o is None else o for o in outcomes]


def _adf_batch(ys, max_lag: int | None = None,
               alpha: float = DEFAULT_ALPHA) -> list[AdfResult | Exception]:
    """ADF-test each row of ys (series of one length) in stacked blocks of ADF_BLOCK rows.

    Returns each row's AdfResult, or the DegenerateSeriesError,
    InsufficientDataError or SingularDesignError that `adf_test` raises for
    that series alone; no row affects another.  See `adf_test` for the test.
    """
    ys = np.asarray(ys, dtype=float)
    n_series, T = ys.shape
    constant = (np.ptp(ys, axis=1) == 0.0 if T else np.zeros(n_series, dtype=bool)).tolist()
    outcomes: list[AdfResult | Exception | None] = [
        DegenerateSeriesError("series is constant") if c else None for c in constant]
    if T - 1 < 12:
        return [o or InsufficientDataError(f"need at least 13 observations, got {T}")
                for o in outcomes]
    if max_lag is None:
        max_lag = int(math.floor(12.0 * (T / 100.0) ** 0.25))
    if max_lag < 0 and not all(constant):
        raise ValueError("max_lag must be nonnegative")
    # Feasibility caps: the common AIC sample must keep >= 12 rows and the
    # largest candidate model must keep positive residual df.
    max_lag = min(max_lag, T - 13, (T - 4) // 2)

    live = np.flatnonzero(np.logical_not(constant))
    for start in range(0, len(live), ADF_BLOCK):
        rows = live[start : start + ADF_BLOCK]
        for row, outcome in zip(rows.tolist(), _adf_block(ys[rows], max_lag, alpha)):
            outcomes[row] = outcome
    return outcomes


def adf_test(y, max_lag: int | None = None, alpha: float = DEFAULT_ALPHA) -> AdfResult:
    """ADF unit-root test with constant term and AIC-selected lag order.

    The regression is dy_t = c + gamma*y_{t-1} + sum_i delta_i*dy_{t-i} + eps.
    The lag order is chosen over 0..max_lag by AIC on a common sample (all
    candidates trimmed to the max_lag length), then the statistic comes from
    a refit on the full usable sample at the chosen order.  max_lag defaults
    to floor(12 * (T/100)^0.25), capped so at least 12 observations remain.

    This is the one-series call of the scan's stacked test (`_adf_batch`,
    one QR for the lag search and one for the refit; see `_adf_block`).
    Raises DegenerateSeriesError for a constant series,
    InsufficientDataError below 13 observations, and SingularDesignError
    for a rank-deficient design.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be one-dimensional")
    (result,) = _adf_batch(y[None, :], max_lag, alpha)
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# Differencing
# ---------------------------------------------------------------------------

def difference(y) -> np.ndarray:
    """First difference: output[i] = y[i+1] - y[i]."""
    y = np.asarray(y, dtype=float)
    if len(y) < 2:
        raise InsufficientDataError("need at least 2 observations to difference")
    return np.diff(y)


def _diff_orders(levels: np.ndarray, pairs: list[tuple[int, int]], max_diff: int,
                 alpha: float) -> list[int | Exception]:
    """Each pair's joint differencing order, or the error that stops it.

    `levels` holds one series per row, all of one length, and pairs[i] is the
    (x row, y row) of pair i.  At each order 0..max_diff the rows that the
    undecided pairs need are differenced that many times and ADF-tested in
    one `_adf_batch` call, so each series is tested at most once per order.
    A pair is decided at the first order where both rows pass, or where a
    row's test raised: x's error wins over y's.  A pair that still fails at
    max_diff gets NonStationarizableError.
    """
    decided: list[int | Exception | None] = [None] * len(pairs)
    undecided = list(range(len(pairs)))
    for order in range(max_diff + 1):
        if not undecided:
            break
        rows = list(dict.fromkeys(row for i in undecided for row in pairs[i]))
        tested = dict(zip(rows, _adf_batch(np.diff(levels[rows], n=order, axis=1), alpha=alpha)))
        failing = []
        for i in undecided:
            x, y = (tested[row] for row in pairs[i])
            if isinstance(x, Exception) or isinstance(y, Exception):
                decided[i] = x if isinstance(x, Exception) else y
            elif x.is_stationary and y.is_stationary:
                decided[i] = order
            else:
                failing.append(i)
        undecided = failing
    for i in undecided:
        decided[i] = NonStationarizableError(
            f"pair still non-stationary after {max_diff} differencing passes")
    return decided


def make_stationary_pair(
    x,
    y,
    max_diff: int = DEFAULT_MAX_DIFF,
    alpha: float = DEFAULT_ALPHA,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Difference BOTH series until both pass the ADF test at `alpha`.

    Both series always receive the same differencing order.  Raises
    NonStationarizableError when either series still fails at max_diff, and
    propagates DegenerateSeriesError / InsufficientDataError /
    SingularDesignError from the ADF stage (constant, too-short or
    rank-deficient series, such as one lone spike).  This is the one-pair
    call of the scan's differencing pass (`_diff_orders`).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise ValueError("series must have equal length")
    levels = np.stack([x, y])
    (order,) = _diff_orders(levels, [(0, 1)], max_diff, alpha)
    if isinstance(order, Exception):
        raise order
    x, y = np.diff(levels, n=order, axis=1)
    return x, y, order


# ---------------------------------------------------------------------------
# Granger causality
# ---------------------------------------------------------------------------

@dataclass
class GrangerResult:
    """One F-test of x Granger-causing y at a single lag."""

    lag: int
    f_stat: float
    p_value: float
    n_obs_effective: int

    @property
    def perfect_fit(self) -> bool:
        """The unrestricted model fits exactly (RSS 0), so F is infinite and p is 0."""
        return self.f_stat == math.inf


def _lag_columns(v: np.ndarray, lag: int) -> list[np.ndarray]:
    """Lags 1..lag of v along its last axis, each trimmed to the last n - lag entries."""
    n = v.shape[-1]
    return [v[..., lag - j : n - j] for j in range(1, lag + 1)]


def _restricted_fit(y: np.ndarray, lag: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QR of the restricted design [1, y lags]: its Q, its |diag R| and the residual of y[lag:]."""
    n = len(y) - lag
    Q, R = np.linalg.qr(np.column_stack([np.ones(n)] + _lag_columns(y, lag)))
    target = y[lag:]
    return Q, np.abs(np.diag(R)), target - Q @ (Q.T @ target)


def _granger_batch(xs: np.ndarray, y: np.ndarray, lag: int) -> list[GrangerResult | None]:
    """Granger F-test at `lag` of each row of xs against the one series y.

    The restricted design is factored once, by `_restricted_fit`.  Each
    alter's x-lag block is residualised on it (one stacked product) and the
    residual blocks Z = Q_z R_z are factored in one stacked QR; every alter
    is computed on its own slices, so a batch gives each alter the same bits
    as a batch of one.  By Frisch-Waugh-Lovell, Z's fit of the restricted
    residual e_r is the unrestricted fit: RSS_u = |e_r - Q_z Q_z'e_r|^2 and
    RSS_r - RSS_u = |Q_z'e_r|^2.  The unrestricted R factor has the diagonal
    of R_r and R_z, so an alter whose union fails the rank rule of `ols` is
    rank deficient; its entry is None and the others are unaffected.  The
    batch's F tails are taken in one `fdtrc` call.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if xs.shape[-1] != len(y):
        raise ValueError("series must have equal length")
    if len(y) < 3 * lag + 10:
        raise InsufficientDataError(
            f"need at least {3 * lag + 10} observations for lag {lag}, got {len(y)}"
        )

    n = len(y) - lag
    df2 = n - 2 * lag - 1
    q_r, rdiag_r, resid_r = _restricted_fit(y, lag)
    x_lags = np.stack(_lag_columns(xs, lag), axis=-1)  # (alters, n, lag)
    q_z, r_z = np.linalg.qr(x_lags - q_r @ (q_r.T @ x_lags))
    coords = np.swapaxes(q_z, 1, 2) @ resid_r  # (alters, lag)
    resid_u = resid_r - (q_z @ coords[..., None])[..., 0]
    rdiag = np.concatenate(
        [np.broadcast_to(rdiag_r, (len(xs), lag + 1)), np.abs(np.diagonal(r_z, axis1=1, axis2=2))],
        axis=1,
    )

    deficient = _rank_deficient(rdiag)
    rss_u = np.sum(resid_u * resid_u, axis=1)
    # RSS_u 0 is a perfect fit (F inf, p 0); every other F is finite.
    finite = ~deficient & (rss_u != 0.0)
    f_stats = (np.sum(coords * coords, axis=1)[finite] / lag) / (rss_u[finite] / df2)
    if np.isnan(f_stats).any():
        raise ValueError("F statistic is NaN: the series hold NaN or inf")
    # Imported here, as in f_sf, to keep scipy.special out of `import egoflux`.
    from scipy.special import fdtrc

    tails = zip(f_stats.tolist(), fdtrc(lag, df2, f_stats).tolist())
    results: list[GrangerResult | None] = []
    for is_deficient, is_finite in zip(deficient.tolist(), finite.tolist()):
        if is_deficient:
            results.append(None)
        elif is_finite:
            f_stat, p_value = next(tails)
            results.append(GrangerResult(lag=lag, f_stat=f_stat, p_value=p_value,
                                         n_obs_effective=n))
        else:
            results.append(GrangerResult(lag=lag, f_stat=math.inf, p_value=0.0, n_obs_effective=n))
    return results


def granger_test(x, y, lag: int) -> GrangerResult:
    """Test whether lags 1..lag of x improve the autoregression of y.

    Restricted model: y_t ~ const + y_{t-1..t-lag}.  Unrestricted adds
    x_{t-1..t-lag}.  F = ((RSS_r - RSS_u)/lag) / (RSS_u/(n - 2*lag - 1))
    with n the effective observation count after lag trimming; the gain
    RSS_r - RSS_u is a sum of squares, so F is never negative.  This is the
    one-alter call of the scan's batched test (`_granger_batch`).  Raises
    SingularDesignError when the unrestricted design is rank deficient.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    (result,) = _granger_batch(x[None, :], y, lag)
    if result is None:
        raise SingularDesignError(_RANK_DEFICIENT)
    return result


def bh_adjust(p_values) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p-values (FDR)."""
    p = np.asarray(p_values, dtype=float)
    m = len(p)
    if m == 0:
        return p.copy()
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted = np.empty(m)
    adjusted[order] = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
    return adjusted


@dataclass
class PairOutcome:
    """All per-lag results for one (alter, topic) pair, or its skip reason."""

    alter: str
    topic: int
    results: list[GrangerResult] = field(default_factory=list)
    diff_order: int | None = None
    skip_reason: str | None = None

    @property
    def best(self) -> GrangerResult | None:
        """The result with the smallest p; `results` run in lag order and
        `min` keeps the first of equals, so ties go to the smaller lag."""
        return min(self.results, key=lambda r: r.p_value, default=None)


@dataclass
class CausalityMatrix:
    """Scan output: one PairOutcome per (alter, topic), ordered.

    `n_weeks` is the length of every scanned series.  The values that follow
    from the scan are derived here, not stored: a result's sample size
    `n_weeks - diff_order - lag` (restored by `from_dict`) and each tested
    pair's BH-adjusted p (`adjusted_p`).
    """

    ego: str
    alters: list[str]
    n_topics: int
    n_weeks: int
    max_lag: int
    alpha: float
    correction: str
    pairs: list[PairOutcome]

    def pair(self, alter: str, topic: int) -> PairOutcome:
        for p in self.pairs:
            if p.alter == alter and p.topic == topic:
                return p
        raise KeyError((alter, topic))

    @cached_property
    def adjusted_p(self) -> dict[tuple[str, int], float]:
        """Benjamini-Hochberg adjusted p of each tested pair, by (alter, topic).

        BH runs over the best p of the tested pairs in pair order, once per
        matrix: the pairs are not to change after this is first read.
        """
        tested = [p for p in self.pairs if p.best is not None]
        adjusted = bh_adjust([p.best.p_value for p in tested]).tolist()
        return {(p.alter, p.topic): adj for p, adj in zip(tested, adjusted)}

    def significant(self, outcome: PairOutcome) -> bool:
        """Whether a pair is significant: the one place a p is compared with alpha.

        Without correction, the best lag's p < alpha; under BH, the pair's
        adjusted p <= alpha.  Untested pairs are never significant.
        """
        if outcome.best is None:
            return False
        if self.correction == CORRECTION_BH:
            return self.adjusted_p[(outcome.alter, outcome.topic)] <= self.alpha
        return outcome.best.p_value < self.alpha

    def to_dict(self) -> dict:
        return {
            "schema_version": MATRIX_SCHEMA_VERSION,
            "ego": self.ego,
            "alters": list(self.alters),
            "n_topics": self.n_topics,
            "n_weeks": self.n_weeks,
            "max_lag": self.max_lag,
            "alpha": self.alpha,
            "correction": self.correction,
            "pairs": [
                {
                    "alter": p.alter,
                    "topic": p.topic,
                    "skip_reason": p.skip_reason,
                    "diff_order": p.diff_order,
                    "results": [
                        {
                            "lag": r.lag,
                            "f_stat": r.f_stat if math.isfinite(r.f_stat) else None,
                            "p_value": r.p_value,
                        }
                        for r in p.results
                    ],
                }
                for p in self.pairs
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CausalityMatrix":
        """Inverse of to_dict; refuses another schema version, and pairs off the grid."""
        if d.get("schema_version") != MATRIX_SCHEMA_VERSION:
            raise ValueError(
                f"matrix schema {d.get('schema_version')} != {MATRIX_SCHEMA_VERSION}")
        n_weeks = d["n_weeks"]
        pairs = [
            PairOutcome(
                alter=pd["alter"],
                topic=pd["topic"],
                results=[
                    GrangerResult(
                        lag=rd["lag"],
                        f_stat=math.inf if rd["f_stat"] is None else rd["f_stat"],
                        p_value=rd["p_value"],
                        n_obs_effective=n_weeks - pd["diff_order"] - rd["lag"],
                    )
                    for rd in pd["results"]
                ],
                diff_order=pd["diff_order"],
                skip_reason=pd["skip_reason"],
            )
            for pd in d["pairs"]
        ]
        _check_pair_grid(d["alters"], d["n_topics"], pairs)
        return cls(
            ego=d["ego"],
            alters=list(d["alters"]),
            n_topics=d["n_topics"],
            n_weeks=n_weeks,
            max_lag=d["max_lag"],
            alpha=d["alpha"],
            correction=d["correction"],
            pairs=pairs,
        )

    def to_json(self) -> str:
        """One line of JSON, sorted keys (no indent, so the C encoder writes it)."""
        return json.dumps(self.to_dict(), sort_keys=True)


def _check_pair_grid(alters: list[str], n_topics: int, pairs: list[PairOutcome]) -> None:
    """Refuse pairs that are not alters x 0..n_topics-1, each once, naming the first bad pair.

    The counts are compared first, so the cost never grows with the
    `n_topics` a file claims; with equal counts, pairs that are each on the
    grid and distinct fill it."""
    if type(n_topics) is not int:  # type(): a JSON 2.0 or true is no count
        raise TypeError(f"n_topics {n_topics!r} is not an integer")
    if len(set(alters)) < len(alters):
        raise ValueError(f"alters {alters} repeat a handle")
    if len(pairs) != len(alters) * n_topics:
        raise ValueError(f"{len(pairs)} pairs for {len(alters)} alters x {n_topics} topics, "
                         f"need {len(alters) * n_topics}")
    allowed, seen = set(alters), set()
    for pair in ((p.alter, p.topic) for p in pairs):
        alter, topic = pair
        # type(): a JSON 1.0 is no index
        if alter not in allowed or type(topic) is not int or not 0 <= topic < n_topics:
            raise ValueError(f"pair {pair} is not an alter of {alters} and a topic "
                             f"in 0..{n_topics - 1}")
        if pair in seen:
            raise ValueError(f"pair {pair} appears twice")
        seen.add(pair)


def _scan_group(outcomes: list[PairOutcome], xs: np.ndarray, y: np.ndarray, max_lag: int) -> None:
    """Granger-test every alter of one (topic, diff order) group at lags 1..max_lag.

    Per-lag results go into each outcome in lag order.  An alter left with
    no result is skipped as SINGULAR if some lag's design was rank deficient,
    else as SHORT.
    """
    singular = [False] * len(outcomes)
    for lag in range(1, max_lag + 1):
        try:
            tested = _granger_batch(xs, y, lag)
        except InsufficientDataError:
            break  # higher lags only get shorter
        for i, (outcome, result) in enumerate(zip(outcomes, tested)):
            if result is None:
                singular[i] = True
            else:
                outcome.results.append(result)
    for outcome, was_singular in zip(outcomes, singular):
        if not outcome.results:
            outcome.skip_reason = SKIP_SINGULAR if was_singular else SKIP_TOO_SHORT
            outcome.diff_order = None


def check_scan_settings(max_lag: int, alpha: float, correction: str, max_diff: int) -> None:
    """Refuse causality_scan settings out of range; PipelineConfig checks them here too."""
    if correction not in (CORRECTION_NONE, CORRECTION_BH):
        raise ValueError(f"unknown correction {correction!r}")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if max_diff < 0:
        raise ValueError(f"max_diff must be >= 0, got {max_diff}")


def causality_scan(
    series: list[TopicSeries],
    ego: str,
    alters: list[str],
    max_lag: int = DEFAULT_MAX_LAG,
    alpha: float = DEFAULT_ALPHA,
    correction: str = CORRECTION_NONE,
    max_diff: int = DEFAULT_MAX_DIFF,
) -> CausalityMatrix:
    """Granger-scan every (alter, topic) pair against the ego's series.

    Per pair: difference both series to joint stationarity, then run the
    per-lag F-test for lags 1..max_lag.  Pairs that cannot be tested are
    recorded with a skip reason instead of results: a constant series
    (DEGEN), no stationary order within max_diff (NONSTAT), too few weeks
    (SHORT), or a rank-deficient ADF or Granger design (SINGULAR).  Under
    the Benjamini-Hochberg correction the matrix derives each tested pair's
    adjusted p.  Repeated alters are refused, and so are the ego listed as an
    alter, the ego or an alter with no series at all (an alter missing only
    some topics is SHORT there), series whose topics are not 0..n-1, since
    the matrix names topics by index, and series of unequal length, since
    the matrix holds one `n_weeks`.
    """
    check_scan_settings(max_lag, alpha, correction, max_diff)
    repeated = sorted(a for a, n in Counter(alters).items() if n > 1)
    if repeated:
        raise ValueError(f"alters repeated: {repeated}")
    if ego in alters:
        raise ValueError(f"ego account {ego!r} listed as an alter")
    counts = {(s.account, s.topic): s.counts for s in series}
    topics = sorted({t for (_, t) in counts})
    if topics != list(range(len(topics))):
        raise ValueError(f"series topics {topics} are not 0..{len(topics) - 1}")
    accounts = {acc for (acc, _) in counts}
    if ego not in accounts:
        raise ValueError(f"ego account {ego!r} has no series")
    missing = [alter for alter in alters if alter not in accounts]
    if missing:
        raise ValueError(f"alters with no series: {missing}")
    lengths = sorted({len(s.counts) for s in series})
    if len(lengths) > 1:
        raise ValueError(f"series of unequal length: {lengths} weeks")
    n_weeks = lengths[0]

    # One row per series a pair needs: the ego's rows are shared by every alter.
    keys = [((alter, topic), (ego, topic)) for alter in alters for topic in topics
            if (alter, topic) in counts and (ego, topic) in counts]
    row = {key: i for i, key in enumerate(dict.fromkeys(key for pair in keys for key in pair))}
    levels = np.array([counts[key] for key in row], dtype=float)
    orders = dict(zip(keys, _diff_orders(levels, [(row[x], row[y]) for x, y in keys],
                                         max_diff, alpha)))

    pairs: list[PairOutcome] = []
    # Tested pairs by (topic, diff order): each group shares the ego's series.
    groups: dict[tuple[int, int], list[PairOutcome]] = {}
    for alter in alters:
        for topic in topics:
            outcome = PairOutcome(alter=alter, topic=topic)
            pairs.append(outcome)
            order = orders.get(((alter, topic), (ego, topic)))
            if order is None:
                outcome.skip_reason = SKIP_TOO_SHORT
            elif isinstance(order, Exception):
                outcome.skip_reason = _ADF_SKIPS[type(order)]
            else:
                outcome.diff_order = order
                groups.setdefault((topic, order), []).append(outcome)

    for (topic, order), members in groups.items():
        xs = levels[[row[(outcome.alter, topic)] for outcome in members]]
        _scan_group(members, np.diff(xs, n=order, axis=1),
                    np.diff(levels[row[(ego, topic)]], n=order), max_lag)

    skip_count = sum(1 for p in pairs if p.skip_reason)
    if skip_count:
        logger.info("causality_scan skipped %d of %d pairs", skip_count, len(pairs))
    return CausalityMatrix(
        ego=ego,
        alters=list(alters),
        n_topics=len(topics),
        n_weeks=n_weeks,
        max_lag=max_lag,
        alpha=alpha,
        correction=correction,
        pairs=pairs,
    )
