"""Stationarity testing, paired differencing, and pairwise Granger F-tests.

The numerical core of the package: OLS fitting via QR decomposition,
F-distribution tail probabilities from scipy.special.fdtrc, the augmented
Dickey-Fuller unit-root test with MacKinnon approximate p-values, and the
per-(alter, topic) causality scan over lags 1..max_lag, which tests each
series for stationarity at most once per differencing order.

Each statistic has one factorisation.  An ADF lag search is one QR of its
largest design: the candidate designs are nested, so every candidate's RSS
is read off that one factor.  A Granger test factors the ego's restricted
design [1, y lags] once and tests every alter sharing it (same topic and
differencing order) against that factor, by residualising their x-lag
blocks on it (Frisch-Waugh-Lovell) and factoring the residuals in one
stacked QR; `granger_test` is the one-alter call of the same function.

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
        r_inv = np.linalg.solve(self.r_factor, np.eye(self.n_params))
        return np.sqrt(self.rss / self.df_resid * np.diag(r_inv @ r_inv.T))


_RANK_DEFICIENT = "design matrix is rank deficient"


def _rank_deficient(rdiag: np.ndarray):
    """Whether the |R_ii| along the last axis are all zero or one is below 1e-10 of the largest."""
    top = rdiag.max(axis=-1)
    return (top == 0.0) | (rdiag.min(axis=-1) < 1e-10 * top)


def ols(y, X) -> OlsFit:
    """Fit y = X beta + eps by QR decomposition.

    The fit keeps the R factor; standard errors are computed from it only
    when read.  Rank deficiency is detected from the R diagonal at 1e-10
    relative tolerance and raises SingularDesignError.
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

    Q, R = np.linalg.qr(X)
    if _rank_deficient(np.abs(np.diag(R))):
        raise SingularDesignError(_RANK_DEFICIENT)

    beta = np.linalg.solve(R, Q.T @ y)
    residuals = y - X @ beta
    return OlsFit(beta, float(residuals @ residuals), n, p, R)


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


def _adf_design(y: np.ndarray, n_lags: int, trim: int):
    """Build (target, X) for the ADF regression with `trim` rows cut from the front.

    Target is dy_t for t = trim+1..T-1 (level indexing); regressors are a
    constant, the lagged level y_{t-1}, and dy_{t-1}..dy_{t-n_lags}.
    """
    dy = np.diff(y)
    n = len(dy) - trim
    target = dy[trim:]
    cols = [np.ones(n), y[trim : len(y) - 1]]
    for j in range(1, n_lags + 1):
        cols.append(dy[trim - j : len(dy) - j])
    return target, np.column_stack(cols)


def _aic(rss: float, n: int, k: int) -> float:
    return n * math.log(rss / n) + 2 * k


def adf_test(y, max_lag: int | None = None, alpha: float = DEFAULT_ALPHA) -> AdfResult:
    """ADF unit-root test with constant term and AIC-selected lag order.

    The regression is dy_t = c + gamma*y_{t-1} + sum_i delta_i*dy_{t-i} + eps.
    The lag order is chosen over 0..max_lag by AIC on a common sample (all
    candidates trimmed to the max_lag length), then the statistic comes from
    a refit on the full usable sample at the chosen order.  max_lag defaults
    to floor(12 * (T/100)^0.25), capped so at least 12 observations remain.

    The lag search is one QR of the max_lag design X = QR.  Candidate p uses
    the first p+2 columns of X, so its RSS is the full RSS plus the squares
    of Q'target from entry p+2 on.  A rank-deficient candidate makes X rank
    deficient too, so one rank check on R raises SingularDesignError for
    the whole search.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be one-dimensional")
    T = len(y)
    if T >= 1 and np.ptp(y) == 0.0:
        raise DegenerateSeriesError("series is constant")
    if T - 1 < 12:
        raise InsufficientDataError(f"need at least 13 observations, got {T}")

    # Feasibility caps: the common AIC sample must keep >= 12 rows and the
    # largest candidate model must keep positive residual df.
    hard_cap = min(T - 13, (T - 4) // 2)
    if max_lag is None:
        max_lag = int(math.floor(12.0 * (T / 100.0) ** 0.25))
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    max_lag = min(max_lag, hard_cap)
    if max_lag < 0:
        raise InsufficientDataError(f"series of length {T} too short for lag search")

    target, X = _adf_design(y, max_lag, trim=max_lag)
    Q, R = np.linalg.qr(X)
    if _rank_deficient(np.abs(np.diag(R))):
        raise SingularDesignError(_RANK_DEFICIENT)
    coords = Q.T @ target
    residuals = target - X @ np.linalg.solve(R, coords)
    rss_full = float(residuals @ residuals)
    # dropped[k]: what leaving out columns k.. of X adds to the full RSS.
    dropped = np.append(np.cumsum(coords[::-1] ** 2)[::-1], 0.0).tolist()
    best_lag, best_aic = 0, math.inf
    for p in range(0, max_lag + 1):
        crit = _aic(rss_full + dropped[p + 2], len(target), p + 2)
        if crit < best_aic:
            best_aic, best_lag = crit, p

    target, X = _adf_design(y, best_lag, trim=best_lag)
    fit = ols(target, X)
    stat = float(fit.coefficients[1] / fit.std_errors[1])
    p_value = mackinnon_pvalue(stat)
    return AdfResult(
        statistic=stat,
        p_value=p_value,
        lags_used=best_lag,
        is_stationary=p_value < alpha,
        n_obs=fit.n_obs,
    )


# ---------------------------------------------------------------------------
# Differencing
# ---------------------------------------------------------------------------

def difference(y) -> np.ndarray:
    """First difference: output[i] = y[i+1] - y[i]."""
    y = np.asarray(y, dtype=float)
    if len(y) < 2:
        raise InsufficientDataError("need at least 2 observations to difference")
    return np.diff(y)


class _Ladder:
    """One series, its differences and its ADF verdict at each order, each computed once.

    A verdict is True/False for stationary or not at `alpha`, or the
    DegenerateSeriesError / InsufficientDataError / SingularDesignError the
    ADF stage raised, which is raised again on every later request for that
    order.
    """

    def __init__(self, y, alpha: float):
        self._alpha = alpha
        self._levels = [np.asarray(y, dtype=float)]
        self._verdicts: dict[int, bool | Exception] = {}

    def at(self, order: int) -> np.ndarray:
        while len(self._levels) <= order:
            self._levels.append(difference(self._levels[-1]))
        return self._levels[order]

    def stationary(self, order: int) -> bool:
        if order not in self._verdicts:
            try:
                self._verdicts[order] = adf_test(self.at(order), alpha=self._alpha).is_stationary
            except (DegenerateSeriesError, InsufficientDataError, SingularDesignError) as exc:
                self._verdicts[order] = exc
        verdict = self._verdicts[order]
        if isinstance(verdict, Exception):
            raise verdict.with_traceback(None)
        return verdict


def _joint_diff_order(x: _Ladder, y: _Ladder, max_diff: int) -> int:
    """Smallest differencing order at which both series pass the ADF test."""
    order = 0
    while True:
        # x is tested first, so its ADF errors take precedence over y's.
        x_ok = x.stationary(order)
        if y.stationary(order) and x_ok:
            return order
        if order >= max_diff:
            raise NonStationarizableError(
                f"pair still non-stationary after {max_diff} differencing passes"
            )
        order += 1


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
    rank-deficient series, such as one lone spike).
    """
    xl, yl = _Ladder(x, alpha), _Ladder(y, alpha)
    if len(xl.at(0)) != len(yl.at(0)):
        raise ValueError("series must have equal length")
    order = _joint_diff_order(xl, yl, max_diff)
    return xl.at(order), yl.at(order), order


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
    rank deficient; its entry is None and the others are unaffected.
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

    results: list[GrangerResult | None] = []
    for deficient, rss_u, gain in zip(
        _rank_deficient(rdiag).tolist(),
        np.sum(resid_u * resid_u, axis=1).tolist(),
        np.sum(coords * coords, axis=1).tolist(),
    ):
        if deficient:
            results.append(None)
        elif rss_u == 0.0:
            results.append(GrangerResult(lag=lag, f_stat=math.inf, p_value=0.0, n_obs_effective=n))
        else:
            f_stat = (gain / lag) / (rss_u / df2)
            results.append(GrangerResult(
                lag=lag, f_stat=f_stat, p_value=f_sf(f_stat, lag, df2), n_obs_effective=n
            ))
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
        """Inverse of to_dict; a matrix of another schema is refused by its version."""
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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


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
    adjusted p.  Repeated alters are refused, and so are series whose topics
    are not 0..n-1, since the matrix names topics by index, and series of
    unequal length, since the matrix holds one `n_weeks`.
    """
    if correction not in (CORRECTION_NONE, CORRECTION_BH):
        raise ValueError(f"unknown correction {correction!r}")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    repeated = sorted(a for a, n in Counter(alters).items() if n > 1)
    if repeated:
        raise ValueError(f"alters repeated: {repeated}")
    # One ladder per series: the ego's ADF verdicts are shared by every alter.
    ladders = {(s.account, s.topic): _Ladder(s.counts, alpha) for s in series}
    topics = sorted({t for (_, t) in ladders})
    if topics != list(range(len(topics))):
        raise ValueError(f"series topics {topics} are not 0..{len(topics) - 1}")
    if not any(acc == ego for (acc, _) in ladders):
        raise ValueError(f"ego account {ego!r} has no series")
    lengths = sorted({len(s.counts) for s in series})
    if len(lengths) > 1:
        raise ValueError(f"series of unequal length: {lengths} weeks")
    n_weeks = lengths[0]

    pairs: list[PairOutcome] = []
    # Tested pairs by (topic, diff order): each group shares the ego's series.
    groups: dict[tuple[int, int], list[tuple[PairOutcome, np.ndarray]]] = {}
    for alter in alters:
        for topic in topics:
            outcome = PairOutcome(alter=alter, topic=topic)
            pairs.append(outcome)
            x = ladders.get((alter, topic))
            y = ladders.get((ego, topic))
            if x is None or y is None:
                outcome.skip_reason = SKIP_TOO_SHORT
                continue
            try:
                diff_order = _joint_diff_order(x, y, max_diff)
            except tuple(_ADF_SKIPS) as exc:
                outcome.skip_reason = _ADF_SKIPS[type(exc)]
                continue
            outcome.diff_order = diff_order
            groups.setdefault((topic, diff_order), []).append((outcome, x.at(diff_order)))

    for (topic, diff_order), members in groups.items():
        _scan_group(
            [outcome for outcome, _ in members],
            np.stack([xs for _, xs in members]),
            ladders[(ego, topic)].at(diff_order),
            max_lag,
        )

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
