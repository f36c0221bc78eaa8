"""Acceptance suite: one check per shipped guarantee, one printed line each.

Every test prints "[PASS]"/"[FAIL] criterion N" with the measured numbers so a
plain pytest run doubles as a checklist.  Oracles are independent of the
implementation under test: explicit normal-equations regression for the
unit-root statistic, trapezoidal integration for the F survival function,
exhaustive enumeration for the clustering optimum, and hand-computed values
for the TF-IDF fixture.
"""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from egoflux.classifier import train
from egoflux.corpus import load_corpus
from egoflux.features import EmbeddingSet, fit_tfidf, tfidf_matrix
from egoflux.pipeline import run_pipeline
from egoflux.report import emit_report_bundle
from egoflux.stats import (
    CORRECTION_BH,
    adf_test,
    causality_scan,
    f_sf,
    granger_test,
    mackinnon_pvalue,
    make_stationary_pair,
)
from egoflux.synth import AlterSpec, Coupling, SynthSpec, generate_series, score_detection
from egoflux.textpipe import TokenDoc
from egoflux.topics import cosine_distance_matrix, kmedoids

from conftest import FIXTURE_CONFIG, FIXTURE_CORPUS_CSV, FIXTURE_WINDOW


@pytest.fixture()
def announce(capsys):
    def _announce(criterion: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return _announce


@pytest.fixture(scope="module")
def fixture_run():
    result = load_corpus(FIXTURE_CORPUS_CSV, format="csv", window=FIXTURE_WINDOW)
    return result.corpus, run_pipeline(result.corpus, FIXTURE_CONFIG)


def test_01_synthetic_recovery(announce):
    """5 alters x 4 topics, T=300, 6 planted couplings recovered at alpha=0.01."""
    spec = SynthSpec(
        n_weeks=300, n_topics=4, seed=8,
        alters=[
            AlterSpec(handle="alpha",
                      couplings=[Coupling(topic=0, lag=2, strength=0.8)]),
            AlterSpec(handle="bravo",
                      couplings=[Coupling(topic=1, lag=1, strength=0.7),
                                 Coupling(topic=3, lag=5, strength=0.9)]),
            AlterSpec(handle="charlie",
                      couplings=[Coupling(topic=2, lag=3, strength=0.6)]),
            AlterSpec(handle="delta",
                      couplings=[Coupling(topic=0, lag=1, strength=1.0)]),
            AlterSpec(handle="echo",
                      couplings=[Coupling(topic=2, lag=5, strength=0.75)]),
        ],
    )
    result = generate_series(spec)
    start = time.perf_counter()
    matrix = causality_scan(result.series, "ego",
                            [a.handle for a in spec.alters],
                            max_lag=8, alpha=0.01, correction=CORRECTION_BH)
    elapsed = time.perf_counter() - start
    score = score_detection(matrix, result.truth, alpha=0.01)
    ok = (score.precision >= 0.8 and score.recall >= 0.8
          and score.lag_accuracy >= 0.8 and elapsed < 30.0)
    announce("criterion 1 (synthetic recovery)", ok,
             f"precision={score.precision:.3f} recall={score.recall:.3f} "
             f"lag_accuracy={score.lag_accuracy:.3f} "
             f"detections={score.n_detections}/{score.n_truth} "
             f"scan={elapsed:.2f}s")
    assert score.precision >= 0.8
    assert score.recall >= 0.8
    assert score.lag_accuracy >= 0.8
    assert elapsed < 30.0


def test_02_null_calibration(announce):
    """Independent pairs: lag-1 p < 0.05 rate stays near the nominal level."""
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(500):
        x = rng.standard_normal(200)
        y = rng.standard_normal(200)
        if granger_test(y, x, lag=1).p_value < 0.05:
            hits += 1
    rate = hits / 500
    ok = 0.03 <= rate <= 0.08
    announce("criterion 2 (null calibration)", ok,
             f"false-positive rate={rate:.4f} over 500 pairs, bounds [0.03, 0.08]")
    assert 0.03 <= rate <= 0.08


def _normal_equations_adf(y: np.ndarray) -> tuple[float, int]:
    """Unit-root tau statistic rebuilt from scratch with explicit (X'X)^-1 X'y.

    Same contract as adf_test (constant term, AIC lag order on a common
    trimmed sample, refit at the chosen order) but none of its code: design
    matrices are assembled by hand and solved by normal equations.
    """
    y = np.asarray(y, dtype=float)
    T = len(y)
    dy = np.diff(y)
    max_lag = min(int(math.floor(12.0 * (T / 100.0) ** 0.25)),
                  T - 13, (T - 4) // 2)

    def design(p: int, trim: int):
        target = dy[trim:]
        cols = [np.ones(len(dy) - trim), y[trim:len(y) - 1]]
        for j in range(1, p + 1):
            cols.append(dy[trim - j:len(dy) - j])
        return target, np.column_stack(cols)

    def fit(target, X):
        gram = X.T @ X
        beta = np.linalg.solve(gram, X.T @ target)
        resid = target - X @ beta
        rss = float(resid @ resid)
        n, k = X.shape
        se = np.sqrt(np.diag(rss / (n - k) * np.linalg.inv(gram)))
        return beta, se, rss, n, k

    best_lag, best_aic = 0, math.inf
    for p in range(max_lag + 1):
        target, X = design(p, max_lag)
        _, _, rss, n, k = fit(target, X)
        aic = n * math.log(rss / n) + 2 * k
        if aic < best_aic:
            best_aic, best_lag = aic, p
    target, X = design(best_lag, best_lag)
    beta, se, _, _, _ = fit(target, X)
    return float(beta[1] / se[1]), best_lag


def test_03_adf_correctness(announce):
    """Statistic matches a normal-equations rebuild; p-values hit the tables."""
    rng = np.random.default_rng(42)
    walk = np.cumsum(rng.standard_normal(250))
    ours = adf_test(walk)
    ref_stat, ref_lag = _normal_equations_adf(walk)
    stat_diff = abs(ours.statistic - ref_stat)

    # Published asymptotic critical values, constant-only regression.
    criticals = [(-3.43035, 0.01), (-2.86154, 0.05), (-2.56677, 0.10)]
    p_errs = [abs(mackinnon_pvalue(stat) - nominal) for stat, nominal in criticals]
    ok = stat_diff <= 1e-8 and ours.lags_used == ref_lag and max(p_errs) <= 0.005
    announce("criterion 3 (unit-root test correctness)", ok,
             f"stat diff={stat_diff:.2e} (lags {ours.lags_used} vs {ref_lag}), "
             f"critical-value p errors={[f'{e:.5f}' for e in p_errs]}")
    assert stat_diff <= 1e-8
    assert ours.lags_used == ref_lag
    assert max(p_errs) <= 0.005


def _f_sf_trapezoid(x: float, d1: int, d2: int) -> float:
    """F survival function by trapezoidal integration of the density.

    Substituting t = u^2 removes the t^(-1/2) endpoint singularity at d1=1;
    the grid doubles until two successive estimates agree to 1e-12.
    """
    a, b = d1 / 2.0, d2 / 2.0
    log_norm = a * math.log(d1 / d2) - (math.lgamma(a) + math.lgamma(b)
                                        - math.lgamma(a + b))

    def integrand(u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        pos = u > 0.0
        t = u[pos] ** 2
        log_f = (log_norm + (a - 1.0) * np.log(t)
                 - (a + b) * np.log1p(d1 * t / d2))
        out[pos] = 2.0 * u[pos] * np.exp(log_f)
        if d1 == 1:
            out[~pos] = 2.0 * math.exp(log_norm)
        return out

    hi = math.sqrt(x)
    n, prev = 64, None
    while True:
        grid = np.linspace(0.0, hi, n + 1)
        est = float(np.trapezoid(integrand(grid), grid))
        if prev is not None and abs(est - prev) < 1e-12:
            break
        if n >= 1 << 21:
            break
        prev = est
        n *= 2
    return 1.0 - est


def test_04_f_distribution(announce):
    """f_sf matches quadrature across the grid; the median identity is exact."""
    worst = 0.0
    for d1 in (1, 2, 5, 8):
        for d2 in (10, 30, 100):
            for x in (0.1, 1.0, 2.0, 5.0):
                worst = max(worst, abs(f_sf(x, d1, d2) - _f_sf_trapezoid(x, d1, d2)))
    median_err = max(abs(f_sf(1.0, d, d) - 0.5) for d in (1, 3, 10, 47, 200))
    ok = worst <= 1e-7 and median_err <= 1e-10
    announce("criterion 4 (F-distribution tail)", ok,
             f"max |f_sf - quadrature|={worst:.2e} (tol 1e-7), "
             f"max |f_sf(1,d,d) - 0.5|={median_err:.2e} (tol 1e-10)")
    assert worst <= 1e-7
    assert median_err <= 1e-10


def test_05_pam_optimality(announce):
    """PAM cost equals the exhaustive-enumeration minimum on 50 small instances."""
    def brute_force(D: np.ndarray, k: int) -> float:
        return min(D[:, c].min(axis=1).sum()
                   for c in itertools.combinations(range(D.shape[0]), k))

    rng = np.random.default_rng(2025)
    failures = 0
    for _ in range(50):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, min(3, n - 1) + 1))
        vecs = rng.standard_normal((n, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        emb = EmbeddingSet(vectors={f"p{j}": vecs[j] for j in range(n)},
                           dim=3)
        dm = cosine_distance_matrix(emb, [f"p{j}" for j in range(n)])
        clustering = kmedoids(dm, k, seed=int(rng.integers(1 << 30)))
        if abs(clustering.total_cost - brute_force(dm.d, k)) > 1e-9:
            failures += 1
    ok = failures == 0
    announce("criterion 5 (k-medoids small-scale optimality)", ok,
             f"{50 - failures}/50 instances at the enumerated minimum")
    assert failures == 0


def test_06_tfidf_fixture(announce):
    """Two-document fixture matches hand-computed weights; vectors unit-norm."""
    docs = [TokenDoc(post_id="d1", tokens=["a", "b"]),
            TokenDoc(post_id="d2", tokens=["a", "c"])]
    model = fit_tfidf(docs, min_df=1)
    dense = tfidf_matrix(model, [TokenDoc(post_id="q", tokens=["a", "a", "b"])]).toarray()[0]
    # idf(a)=ln(3/3)+1=1, idf(b)=ln(3/2)+1; weights (2, 1.405465) L2-normalized.
    expected_a, expected_b = 0.818, 0.575
    err_a = abs(dense[model.vocabulary["a"]] - expected_a)
    err_b = abs(dense[model.vocabulary["b"]] - expected_b)
    norms = [float(np.linalg.norm(row)) for row in tfidf_matrix(model, docs).toarray()]
    norm_err = max(abs(n - 1.0) for n in norms + [float(np.linalg.norm(dense))])
    ok = err_a <= 1e-3 and err_b <= 1e-3 and norm_err <= 1e-9
    announce("criterion 6 (TF-IDF fixture)", ok,
             f"|err_a|={err_a:.2e} |err_b|={err_b:.2e} (tol 1e-3), "
             f"max unit-norm error={norm_err:.2e} (tol 1e-9)")
    assert err_a <= 1e-3
    assert err_b <= 1e-3
    assert norm_err <= 1e-9


def _blobs(data_seed: int, centers, per_class: int = 50, spread: float = 0.15):
    rng = np.random.default_rng(data_seed)
    vectors, labels = {}, {}
    for cls, center in enumerate(centers):
        for i in range(per_class):
            pid = f"c{cls}_{i}"
            vectors[pid] = np.asarray(center) + spread * rng.standard_normal(
                len(center))
            labels[pid] = cls
    emb = EmbeddingSet(vectors=vectors, dim=len(centers[0]))
    return emb, labels


def test_07_classifier_sanity(announce):
    """Separable blobs near-perfect; shuffled labels collapse to chance."""
    emb, labels = _blobs(10, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    _, report = train(emb, labels, seed=42)

    rng = np.random.default_rng(2)
    values = list(labels.values())
    rng.shuffle(values)
    shuffled = dict(zip(labels.keys(), values))
    _, shuffled_report = train(emb, shuffled, seed=42)

    ok = (report.weighted_f1 >= 0.99
          and 0.4 <= shuffled_report.weighted_f1 <= 0.6)
    announce("criterion 7 (classifier sanity)", ok,
             f"separable F1={report.weighted_f1:.4f} (>= 0.99), "
             f"shuffled F1={shuffled_report.weighted_f1:.4f} (in [0.4, 0.6])")
    assert report.weighted_f1 >= 0.99
    assert 0.4 <= shuffled_report.weighted_f1 <= 0.6


def test_08_paired_differencing(announce):
    """One random walk in the pair forces a single shared differencing pass."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal(150)
    y = np.cumsum(rng.standard_normal(150))
    xs, ys, order = make_stationary_pair(x, y)
    ok = (order == 1 and len(xs) == 149 and len(ys) == 149
          and np.array_equal(xs, np.diff(x)))
    announce("criterion 8 (paired differencing)", ok,
             f"diff_order={order}, lengths {len(xs)}/{len(ys)}, "
             f"stationary side differenced in lockstep={np.array_equal(xs, np.diff(x))}")
    assert order == 1
    assert len(xs) == 149 and len(ys) == 149
    assert np.array_equal(xs, np.diff(x))


def _run_and_emit(out_dir):
    result = load_corpus(FIXTURE_CORPUS_CSV, format="csv", window=FIXTURE_WINDOW)
    run = run_pipeline(result.corpus, FIXTURE_CONFIG)
    emit_report_bundle(run.report, out_dir / "report")
    run.bundle.save(out_dir / "bundle")
    return out_dir


def _tree_digest(root) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_09_end_to_end_determinism(announce, tmp_path):
    """Two identically-seeded runs on the bundled corpus emit identical bytes."""
    first = _tree_digest(_run_and_emit(tmp_path / "run1"))
    second = _tree_digest(_run_and_emit(tmp_path / "run2"))
    same_names = set(first) == set(second)
    mismatched = [name for name in first if first[name] != second.get(name)]
    ok = same_names and not mismatched
    announce("criterion 9 (end-to-end determinism)", ok,
             f"{len(first)} artifacts compared, "
             f"{'all byte-identical' if ok else f'mismatched: {mismatched}'}")
    assert same_names
    assert mismatched == []


def test_10_count_conservation(announce, fixture_run):
    """Weekly series counts add back up to each account's labeled post count."""
    corpus, run = fixture_run
    author = {p.id: p.author for p in corpus.posts}
    labeled = {}
    for pid in run.labels:
        labeled[author[pid]] = labeled.get(author[pid], 0) + 1
    binned = {}
    for s in run.series:
        binned[s.account] = binned.get(s.account, 0) + int(np.sum(s.counts))
    ok = binned == labeled
    announce("criterion 10 (count conservation)", ok,
             f"per-account sums {binned} == labeled counts" if ok
             else f"binned {binned} != labeled {labeled}")
    assert binned == labeled
