"""Distance matrices, PAM clustering, silhouette, k selection, topic summaries."""

import dataclasses
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from egoflux import pipeline, topics
from egoflux.corpus import load_corpus
from egoflux.features import EmbeddingSet, fit_tfidf, tfidf_matrix
from egoflux.textpipe import TokenDoc
from egoflux.topics import (
    BLOCK,
    RESTARTS,
    SWAP_BLOCK,
    SWAP_TOL,
    Clustering,
    DistanceMatrix,
    cosine_distance_matrix,
    kmedoids,
    select_k,
    silhouette,
    summarize_topics,
    TopicSummary,
    _build_init,
    _serving,
    _swap_descent,
)

from conftest import FIXTURE_CONFIG, FIXTURE_CORPUS_CSV, FIXTURE_WINDOW, embedding_set


def dm_from_points(points):
    """Euclidean distances for hand-built instances."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return DistanceMatrix(ids=tuple(f"p{i}" for i in range(n)), d=d)


def brute_force_cost(d, k):
    n = d.shape[0]
    return min(d[:, list(m)].min(axis=1).sum() for m in combinations(range(n), k))


def two_cloud_dm(rng, per_cloud=10):
    a = rng.normal([0, 0], 0.02, size=(per_cloud, 2))
    b = rng.normal([1, 1], 0.02, size=(per_cloud, 2))
    return dm_from_points(np.vstack([a, b]))


class TestCosineDistanceMatrix:
    def test_reference_angles(self):
        emb = embedding_set({"same1": [1, 0], "same2": [2, 0], "orth": [0, 1], "anti": [-1, 0]})
        dm = cosine_distance_matrix(emb, range(4))
        i = {pid: j for j, pid in enumerate(dm.ids)}
        assert dm.d[i["same1"], i["same2"]] == pytest.approx(0.0, abs=1e-12)
        assert dm.d[i["same1"], i["orth"]] == pytest.approx(1.0, abs=1e-12)
        assert dm.d[i["same1"], i["anti"]] == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_zero_diagonal_bounded(self):
        rng = np.random.default_rng(0)
        emb = embedding_set({f"p{i}": rng.normal(size=5) for i in range(12)})
        dm = cosine_distance_matrix(emb, range(12))
        np.testing.assert_allclose(dm.d, dm.d.T)
        np.testing.assert_allclose(np.diag(dm.d), 0.0)
        assert dm.d.min() >= 0.0 and dm.d.max() <= 2.0

    def test_zero_norm_error_names_id(self):
        emb = embedding_set({"ok": [1, 0], "empty": [0, 0]})
        with pytest.raises(ValueError, match="empty"):
            cosine_distance_matrix(emb, range(2))
        # With several, the first in the order asked for is named.
        emb = embedding_set({"ok": [1, 0], "z1": [0, 0], "z2": [0, 0]})
        with pytest.raises(ValueError, match="'z2'"):
            cosine_distance_matrix(emb, [0, 2, 1])

    def test_norm_overflow_keeps_direction(self):
        emb = embedding_set({"huge": [1e200, 1e200], "one": [1, 1], "orth": [1, -1]})
        dm = cosine_distance_matrix(emb, range(3))
        assert dm.d[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert dm.d[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_norm_underflow_keeps_direction(self):
        emb = embedding_set({"tiny": [1e-200, 1e-200], "one": [1, 1], "anti": [-1, -1]})
        dm = cosine_distance_matrix(emb, range(3))
        assert dm.d[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert dm.d[0, 2] == pytest.approx(2.0, abs=1e-12)
        # A row that is really all zeros is still refused, after a rescaled one.
        emb = embedding_set({"tiny": [1e-200, 1e-200], "huge": [1e200, 0], "empty": [0, 0]})
        with pytest.raises(ValueError, match="'empty'"):
            cosine_distance_matrix(emb, range(3))

    def test_fixture_distances_bit_equal_to_averaged_formula(self, monkeypatch):
        """Without the (d + d.T)/2 step, not one bit of the fixture's distances moves."""
        captured = []

        def capture(emb, positions):
            captured.append((emb, positions))
            return cosine_distance_matrix(emb, positions)

        corpus = load_corpus(FIXTURE_CORPUS_CSV, format="csv", window=FIXTURE_WINDOW).corpus
        monkeypatch.setattr(pipeline, "cosine_distance_matrix", capture)
        pipeline.fit_topics(corpus, dataclasses.replace(FIXTURE_CONFIG, k=3))
        [(emb, positions)] = captured

        new = cosine_distance_matrix(emb, positions).d
        ids = [emb.ids[i] for i in positions]
        rows = np.stack([emb.vectors[i] for i in ids])
        unit = rows / np.linalg.norm(rows, axis=1)[:, None]
        d = 1.0 - unit @ unit.T
        old = np.clip((d + d.T) / 2.0, 0.0, 2.0)
        np.fill_diagonal(old, 0.0)

        assert new.shape == (len(ids), len(ids)) and len(ids) > 500
        assert new.tobytes() == old.tobytes()
        assert (new == new.T).all()


class TestKmedoids:
    def test_separable_clouds_split_exactly(self):
        dm = two_cloud_dm(np.random.default_rng(1))
        result = kmedoids(dm, k=2)
        first = {result.assignment[f"p{i}"] for i in range(10)}
        second = {result.assignment[f"p{i}"] for i in range(10, 20)}
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_collinear_three_points(self):
        dm = dm_from_points([[0.0], [1.0], [10.0]])
        result = kmedoids(dm, k=2)
        assert result.total_cost == pytest.approx(brute_force_cost(dm.d, 2))
        # the far point must be its own medoid; 0 and 1 share the other
        assert result.assignment["p2"] != result.assignment["p0"]
        assert result.assignment["p0"] == result.assignment["p1"]

    def test_matches_exhaustive_minimum_small(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, min(3, n - 1) + 1))
            pts = rng.normal(size=(n, 3))
            dm = dm_from_points(pts)
            result = kmedoids(dm, k=k, seed=int(rng.integers(1 << 30)))
            assert result.total_cost == pytest.approx(brute_force_cost(dm.d, k), abs=1e-9)

    def test_invariants(self):
        rng = np.random.default_rng(2)
        dm = dm_from_points(rng.normal(size=(25, 4)))
        result = kmedoids(dm, k=4)
        # medoids assigned to their own cluster
        for c, pid in enumerate(result.medoid_ids):
            assert result.assignment[pid] == c
        # every point at its nearest medoid, ties to lowest cluster index
        M = np.array(result.medoid_indices)
        for i in range(dm.n):
            c = result.labels[i]
            if i in M:
                continue
            assert dm.d[i, M[c]] == pytest.approx(dm.d[i, M].min())
            assert c == int(np.argmin(dm.d[i, M]))
        # total cost is the sum of assigned distances
        recomputed = sum(dm.d[i, M[result.labels[i]]] for i in range(dm.n))
        assert result.total_cost == pytest.approx(recomputed)
        assert set(result.assignment.values()) == set(range(4))

    def test_swap_optimal_on_larger_instance(self):
        rng = np.random.default_rng(3)
        dm = dm_from_points(rng.normal(size=(50, 3)))
        result = kmedoids(dm, k=5)
        medoids = list(result.medoid_indices)
        base = dm.d[:, medoids].min(axis=1).sum()
        for slot in range(5):
            for cand in range(50):
                if cand in medoids:
                    continue
                trial = medoids.copy()
                trial[slot] = cand
                assert dm.d[:, trial].min(axis=1).sum() >= base - 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        dm = dm_from_points(rng.normal(size=(30, 3)))
        a = kmedoids(dm, k=3, seed=9)
        b = kmedoids(dm, k=3, seed=9)
        assert a.medoid_ids == b.medoid_ids
        assert a.assignment == b.assignment
        assert a.total_cost == b.total_cost

    def test_k_out_of_range(self):
        dm = dm_from_points([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError):
            kmedoids(dm, k=1)
        with pytest.raises(ValueError):
            kmedoids(dm, k=3)

    def test_duplicate_points_allowed(self):
        dm = dm_from_points([[0.0], [0.0], [5.0], [5.0]])
        result = kmedoids(dm, k=2)
        assert result.total_cost == pytest.approx(0.0)


def swap_costs(d, medoids):
    """Total cost after each single swap: row = medoid slot, column = candidate."""
    costs = np.empty((len(medoids), len(d)))
    for slot in range(len(medoids)):
        rest = d[:, [m for j, m in enumerate(medoids) if j != slot]].min(axis=1)
        costs[slot] = np.minimum(rest[:, None], d).sum(axis=0)
    costs[:, medoids] = np.inf
    return costs


def assert_swap_optimal(d, medoids):
    cost = d[:, medoids].min(axis=1).sum()
    assert swap_costs(d, list(medoids)).min() >= cost - 1e-9


def best_improvement_descent(d, medoids):
    """The former descent: apply the best of all k x (n - k) swaps until none improves."""
    medoids = sorted(medoids)
    while True:
        cost = d[:, medoids].min(axis=1).sum()
        costs = swap_costs(d, medoids)
        slot, cand = np.unravel_index(np.argmin(costs), costs.shape)
        if costs[slot, cand] >= cost - SWAP_TOL:
            return medoids
        medoids[slot] = int(cand)
        medoids = sorted(medoids)


def blob_dm(seed, n):
    """n points in 4 dims around 8 seeded centres: many near-tied swaps."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(8, 4))
    return dm_from_points(centres[rng.integers(8, size=n)] + rng.normal(0, 0.6, size=(n, 4)))


def tie_lattice_dm():
    """Four exact copies of each of ten lattice points: every swap between
    copies is an exact tie."""
    pts = np.repeat(np.array([[x, y] for x in range(5) for y in range(2)], dtype=float),
                    4, axis=0)
    return dm_from_points(pts)


# n > 3 blocks and not a multiple of the block, so descents wrap around and
# cross block edges; one instance per k.
LARGE = [(k, blob_dm(100 + k, 3 * SWAP_BLOCK + 17 + 5 * k)) for k in range(2, 11)]


class TestSwapDescent:
    @pytest.mark.parametrize("k, dm", LARGE, ids=[f"k{k}" for k, _ in LARGE])
    def test_eager_and_best_improvement_both_swap_optimal(self, k, dm):
        rng = np.random.default_rng(k)
        for init in ([int(i) for i in rng.choice(dm.n, size=k, replace=False)],
                     _build_init(dm.d, k, rng.permutation(dm.n))):
            medoids, cost, _ = _swap_descent(dm.d, init)
            assert medoids == sorted(set(medoids)) and len(medoids) == k
            assert cost == pytest.approx(dm.d[:, medoids].min(axis=1).sum(), abs=1e-9)
            assert_swap_optimal(dm.d, medoids)
            assert_swap_optimal(dm.d, best_improvement_descent(dm.d, init))

    @pytest.mark.parametrize("k, dm", LARGE[::4], ids=[f"k{k}" for k, _ in LARGE[::4]])
    def test_kmedoids_result_swap_optimal(self, k, dm):
        result = kmedoids(dm, k, seed=k)
        assert_swap_optimal(dm.d, list(result.medoid_indices))

    def test_restart_from_optimum_makes_no_swap(self):
        k, dm = LARGE[3]
        result = kmedoids(dm, k, seed=1)
        medoids, cost, n_swaps = _swap_descent(dm.d, list(result.medoid_indices)[::-1])
        assert n_swaps == 0
        assert tuple(medoids) == result.medoid_indices
        assert cost == result.total_cost

    def test_ties_deterministic(self):
        dm = tie_lattice_dm()
        init = [0, 1, 2]
        first = _swap_descent(dm.d, init)
        assert _swap_descent(dm.d, init) == first
        assert_swap_optimal(dm.d, first[0])
        a, b = kmedoids(dm, 4, seed=5), kmedoids(dm, 4, seed=5)
        assert a.medoid_indices == b.medoid_indices and a.assignment == b.assignment
        assert_swap_optimal(dm.d, list(a.medoid_indices))

    def test_k_one_below_n(self):
        rng = np.random.default_rng(12)
        dm = dm_from_points(rng.normal(size=(9, 2)))
        result = kmedoids(dm, k=8)
        # Only one point is not a medoid; it costs its distance to the nearest other.
        assert result.total_cost == pytest.approx(brute_force_cost(dm.d, 8), abs=1e-12)
        assert_swap_optimal(dm.d, list(result.medoid_indices))

    def test_n_below_block(self):
        rng = np.random.default_rng(13)
        n = SWAP_BLOCK // 2 + 3
        dm = dm_from_points(rng.normal(size=(n, 3)))
        for k in (2, 5):
            medoids, _, _ = _swap_descent(dm.d, list(range(k)))
            assert_swap_optimal(dm.d, medoids)
            assert_swap_optimal(dm.d, list(kmedoids(dm, k).medoid_indices))


def reference_swap_descent(D, medoids):
    """The descent before outcome sharing: the serving state after every swap
    and every block computed, for each start on its own."""
    n = len(D)
    medoids = sorted(medoids)
    serves, dnear, dsecond = _serving(D, medoids)
    is_medoid = np.zeros(n, dtype=bool)
    is_medoid[medoids] = True
    n_swaps = 0
    start = 0
    unchanged = 0
    while unchanged < n:
        stop = min(start + SWAP_BLOCK, n)
        rows = D[start:stop]
        to_near = np.minimum(rows, dnear)
        delta = (np.minimum(rows, dsecond) - to_near) @ serves
        delta += (to_near.sum(axis=1) - dnear.sum())[:, None]
        delta[is_medoid[start:stop]] = np.inf
        c, i = np.unravel_index(np.argmin(delta), delta.shape)
        if delta[c, i] < -SWAP_TOL:
            is_medoid[medoids[i]] = False
            medoids[i] = start + int(c)
            is_medoid[medoids[i]] = True
            medoids.sort()
            serves, dnear, dsecond = _serving(D, medoids)
            n_swaps += 1
            unchanged = 0
        else:
            unchanged += stop - start
        start = 0 if stop == n else stop
    return medoids, float(dnear.sum()), n_swaps


def reference_build_init(D, k, priority):
    """BUILD over the whole matrix: each step's gains from one n x n temporary."""
    medoids = [topics._pick(D.sum(axis=1), priority)]
    dnear = D[:, medoids[0]].copy()
    while len(medoids) < k:
        costs = dnear.sum() - np.maximum(dnear[:, None] - D, 0.0).sum(axis=0)
        costs[medoids] = np.inf
        h = topics._pick(costs, priority)
        medoids.append(h)
        dnear = np.minimum(dnear, D[:, h])
    return medoids


def reference_silhouette(dm, clustering):
    """silhouette over the whole matrix: each cluster's n x |c| columns copied at once."""
    labels, k, n = clustering.labels, clustering.k, dm.n
    counts = np.bincount(labels, minlength=k)
    sums = np.zeros((n, k))
    for c in range(k):
        sums[:, c] = dm.d[:, labels == c].sum(axis=1)
    own = counts[labels]
    a = np.where(own > 1, sums[np.arange(n), labels] / np.maximum(own - 1, 1), 0.0)
    means = sums / counts[None, :]
    means[np.arange(n), labels] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    s = np.where(own == 1, 0.0, s)
    return float(s.mean())


def reference_kmedoids(dm, k, seed):
    """kmedoids before the shared work: BUILD for this k, a fresh descent per start."""
    n, D = dm.n, dm.d
    rng = np.random.default_rng(seed)
    priority = rng.permutation(n)
    medoids, total, n_swaps = reference_swap_descent(D, reference_build_init(D, k, priority))
    for _ in range(RESTARTS - 1):
        init = [int(i) for i in rng.choice(n, size=k, replace=False)]
        cand, cost, swaps = reference_swap_descent(D, init)
        if cost < total - SWAP_TOL:
            medoids, total, n_swaps = cand, cost, swaps
    return reference_clustering(dm, medoids, n_swaps)


def reference_clustering(dm, medoids, n_swaps):
    n, D, k = dm.n, dm.d, len(medoids)
    M = np.array(medoids)
    labels = np.argmin(D[:, M], axis=1)
    labels[M] = np.arange(k)
    return Clustering(
        k=k,
        medoid_ids=tuple(dm.ids[m] for m in medoids),
        medoid_indices=tuple(int(m) for m in medoids),
        assignment={dm.ids[i]: int(labels[i]) for i in range(n)},
        labels=labels,
        total_cost=float(D[np.arange(n), M[labels]].sum()),
        n_swaps=n_swaps,
    )


def assert_same_clustering(got, want):
    assert got.medoid_indices == want.medoid_indices
    assert got.medoid_ids == want.medoid_ids
    assert got.labels.tolist() == want.labels.tolist()
    assert got.assignment == want.assignment
    assert got.total_cost == want.total_cost
    assert got.n_swaps == want.n_swaps


def reference_scores(dm, k_min, k_max, seed):
    """Each k's silhouette: of one descent from BUILD over a range, of the
    restarted clustering over a single k."""
    if k_min == k_max:
        return {k_min: reference_silhouette(dm, reference_kmedoids(dm, k_min, seed))}
    priority = np.random.default_rng(seed).permutation(dm.n)
    scores = {}
    for k in range(k_min, k_max + 1):
        medoids, _, n_swaps = reference_swap_descent(
            dm.d, reference_build_init(dm.d, k, priority))
        scores[k] = reference_silhouette(dm, reference_clustering(dm, medoids, n_swaps))
    return scores


def assert_select_k_matches_reference(dm, k_min, k_max, seed):
    sel = select_k(dm, k_min, k_max, seed=seed)
    scores = reference_scores(dm, k_min, k_max, seed)
    assert sel.scores == scores
    chosen = max(sorted(scores), key=lambda k: (scores[k], -k))
    assert_same_clustering(sel.best, reference_kmedoids(dm, chosen, seed))


@pytest.fixture(scope="module")
def fixture_ego_dm():
    """The ego distance matrix fit_topics clusters on the fixture corpus."""
    captured = []

    def capture(emb, positions):
        captured.append(cosine_distance_matrix(emb, positions))
        return captured[-1]

    corpus = load_corpus(FIXTURE_CORPUS_CSV, format="csv", window=FIXTURE_WINDOW).corpus
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "cosine_distance_matrix", capture)
        pipeline.fit_topics(corpus, dataclasses.replace(FIXTURE_CONFIG, k=2))
    [dm] = captured
    return dm


class TestSharedWork:
    """BUILD once per k search and each swap-block outcome once per kmedoids
    call, with every result equal to the reference that shares nothing."""

    @pytest.mark.parametrize("k, dm", LARGE, ids=[f"k{k}" for k, _ in LARGE])
    def test_kmedoids_and_select_k_equal_reference_large(self, k, dm):
        assert_same_clustering(kmedoids(dm, k, seed=k), reference_kmedoids(dm, k, k))
        assert_select_k_matches_reference(dm, 2, min(k, 6), seed=k)

    def test_equal_reference_on_tie_lattice(self):
        dm = tie_lattice_dm()
        for seed in (5, 6):
            for k in range(2, 7):
                assert_same_clustering(kmedoids(dm, k, seed=seed),
                                       reference_kmedoids(dm, k, seed))
            assert_select_k_matches_reference(dm, 2, 6, seed=seed)

    def test_equal_reference_on_fixture_ego_matrix(self, fixture_ego_dm):
        assert fixture_ego_dm.n > 500
        assert_select_k_matches_reference(fixture_ego_dm, 2, 6, seed=FIXTURE_CONFIG.seed)

    @pytest.mark.parametrize("dm", [dm for _, dm in LARGE[::2]] + [tie_lattice_dm()],
                             ids=[f"k{k}" for k, _ in LARGE[::2]] + ["ties"])
    def test_build_is_a_prefix_of_build_for_larger_k(self, dm):
        priority = np.random.default_rng(dm.n).permutation(dm.n)
        full = _build_init(dm.d, 10, priority)
        for k in range(1, 11):
            assert full[:k] == _build_init(dm.d, k, priority)

    @pytest.mark.parametrize("k, dm", LARGE[::3], ids=[f"k{k}" for k, _ in LARGE[::3]])
    def test_shared_table_replays_a_descent(self, k, dm):
        init = [int(i) for i in np.random.default_rng(k).choice(dm.n, size=k, replace=False)]
        table = {}
        first = _swap_descent(dm.d, init, table)
        seen = dict(table)
        assert _swap_descent(dm.d, init, table) == first
        assert table == seen
        assert _swap_descent(dm.d, init) == first == reference_swap_descent(dm.d, init)

    def test_select_k_builds_once(self, monkeypatch):
        calls = []

        def counting(D, k, priority):
            calls.append(k)
            return _build_init(D, k, priority)

        monkeypatch.setattr(topics, "_build_init", counting)
        select_k(dm_from_points(np.random.default_rng(10).normal(size=(20, 2))), 2, 6)
        assert calls == [6]

    def test_select_k_descends_each_start_once(self, monkeypatch):
        k, dm = LARGE[4]
        build = _build_init(dm.d, 6, np.random.default_rng(k).permutation(dm.n))
        runs = []

        def recording(D, medoids, table=None):
            runs.append((list(medoids), table))
            return _swap_descent(D, medoids, table)

        monkeypatch.setattr(topics, "_swap_descent", recording)
        sel = select_k(dm, 2, 6, seed=k)
        starts = [init for init, _ in runs]
        # One descent per k from its BUILD start, then the chosen k's restarts
        # only, which share the table of the descent that scored that k.
        assert starts[:5] == [build[:j] for j in range(2, 7)]
        assert len(runs) == 5 + RESTARTS - 1
        assert build[:sel.best.k] not in starts[5:]
        scored = runs[sel.best.k - 2][1]
        assert all(table is scored for _, table in runs[5:])
        assert_same_clustering(sel.best, reference_kmedoids(dm, sel.best.k, k))

    def test_starts_share_block_outcomes(self, monkeypatch):
        k, dm = LARGE[4]
        runs = []

        def recording(D, medoids, table=None):
            runs.append((list(medoids), table))
            return _swap_descent(D, medoids, table)

        monkeypatch.setattr(topics, "_swap_descent", recording)
        kmedoids(dm, k, seed=3)
        assert len(runs) == RESTARTS and len({id(table) for _, table in runs}) == 1
        shared = len(runs[0][1])
        alone = 0
        for init, _ in runs:
            table = {}
            _swap_descent(dm.d, init, table)
            alone += len(table)
        assert shared < alone


def cosine_dm(seed, n, dim=8):
    rng = np.random.default_rng(seed)
    return cosine_distance_matrix(
        EmbeddingSet(ids=[f"p{i}" for i in range(n)], rows=rng.normal(size=(n, dim))),
        range(n))


# Tiny n, n inside one block, and n whose last block would be one wide.
BLOCKED_N = [3, 37, BLOCK + 1, 2 * BLOCK + 1, 5 * BLOCK + 1, 3 * BLOCK + 17]


class TestBlockedScans:
    """BUILD's gains and silhouette's per-cluster sums are taken a block of the
    distance matrix at a time, and give the bits the whole-matrix forms give."""

    @pytest.mark.parametrize("n", BLOCKED_N)
    def test_blocks_cover_n_and_none_is_one_wide(self, n):
        bounds = topics._blocks(n)
        assert [a for a, _ in bounds] == [0] + [b for _, b in bounds[:-1]]
        assert bounds[-1][1] == n
        assert all(2 <= b - a <= BLOCK for a, b in bounds)

    @pytest.mark.parametrize("n", BLOCKED_N)
    @pytest.mark.parametrize("make", [cosine_dm, blob_dm], ids=["cosine", "blobs"])
    def test_build_costs_equal_whole_matrix_bits(self, monkeypatch, make, n):
        dm = make(n, n)
        k = min(12, n - 1)
        priority = np.random.default_rng(n).permutation(n)
        seen = []
        real_pick = topics._pick

        def recording(costs, priority):
            seen.append(costs.tobytes())
            return real_pick(costs, priority)

        monkeypatch.setattr(topics, "_pick", recording)
        got = _build_init(dm.d, k, priority)
        got_costs = list(seen)
        seen.clear()
        assert got == reference_build_init(dm.d, k, priority)
        assert got_costs == seen and len(seen) == k

    @pytest.mark.parametrize("n", BLOCKED_N)
    @pytest.mark.parametrize("make", [cosine_dm, blob_dm], ids=["cosine", "blobs"])
    def test_silhouette_equals_whole_matrix_bits(self, make, n):
        dm = make(n, n)
        rng = np.random.default_rng(n)
        for k in range(2, min(7, n)):
            labels = rng.integers(k, size=n)
            labels[rng.choice(n, size=k, replace=False)] = np.arange(k)
            clustering = manual_clustering(dm, labels, [int(np.flatnonzero(labels == c)[0])
                                                         for c in range(k)])
            want = reference_silhouette(dm, clustering)
            assert np.float64(silhouette(dm, clustering)).tobytes() == np.float64(want).tobytes()

    def test_select_k_holds_one_matrix(self):
        """select_k allocates well under one more n x n matrix beyond the one it reads
        (the whole-matrix BUILD allocated two)."""
        n = 1000
        dm = cosine_dm(0, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            select_k(dm, 2, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 0.5 * n * n * 8


def manual_clustering(dm, labels, medoid_indices):
    labels = np.asarray(labels)
    M = np.asarray(medoid_indices)
    cost = float(sum(dm.d[i, M[labels[i]]] for i in range(dm.n)))
    return Clustering(
        k=len(medoid_indices),
        medoid_ids=tuple(dm.ids[m] for m in medoid_indices),
        medoid_indices=tuple(int(m) for m in medoid_indices),
        assignment={dm.ids[i]: int(labels[i]) for i in range(dm.n)},
        labels=labels,
        total_cost=cost,
        n_swaps=0,
    )


class TestSilhouette:
    def test_four_point_hand_value(self):
        # within-pair 0.1, across 1.0: s(i) = (1.0 - 0.1) / 1.0 = 0.9
        d = np.full((4, 4), 1.0)
        d[0, 1] = d[1, 0] = 0.1
        d[2, 3] = d[3, 2] = 0.1
        np.fill_diagonal(d, 0.0)
        dm = DistanceMatrix(ids=("a", "b", "c", "d"), d=d)
        clustering = manual_clustering(dm, [0, 0, 1, 1], [0, 2])
        assert silhouette(dm, clustering) == pytest.approx(0.9, abs=1e-12)

    def test_identical_points_zero(self):
        d = np.zeros((4, 4))
        dm = DistanceMatrix(ids=("a", "b", "c", "d"), d=d)
        clustering = manual_clustering(dm, [0, 0, 1, 1], [0, 2])
        assert silhouette(dm, clustering) == 0.0

    def test_separated_clouds_high(self):
        dm = two_cloud_dm(np.random.default_rng(5))
        assert silhouette(dm, kmedoids(dm, k=2)) > 0.8

    def test_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            dm = dm_from_points(rng.normal(size=(15, 2)))
            for k in (2, 3, 4):
                s = silhouette(dm, kmedoids(dm, k=k))
                assert -1.0 <= s <= 1.0

    def test_relabeling_invariant(self):
        rng = np.random.default_rng(7)
        dm = dm_from_points(rng.normal(size=(12, 2)))
        base = kmedoids(dm, k=3)
        perm = [2, 0, 1]
        relabeled = manual_clustering(
            dm,
            [perm[c] for c in base.labels],
            [base.medoid_indices[perm.index(c)] for c in range(3)],
        )
        assert silhouette(dm, relabeled) == pytest.approx(silhouette(dm, base), abs=1e-12)

    def test_singleton_cluster_scores_zero(self):
        dm = dm_from_points([[0.0], [0.1], [9.0]])
        clustering = manual_clustering(dm, [0, 0, 1], [0, 2])
        # singleton contributes 0; the pair contributes ~ (8.95 - 0.1) / 8.95
        expected = (((9.0 - 0.1) / 9.0) + ((8.9 - 0.1) / 8.9) + 0.0) / 3
        assert silhouette(dm, clustering) == pytest.approx(expected, abs=1e-12)

    def test_needs_k_at_least_two(self):
        dm = dm_from_points([[0.0], [1.0]])
        clustering = manual_clustering(dm, [0, 0], [0])
        with pytest.raises(ValueError):
            silhouette(dm, clustering)


class TestSelectK:
    def test_three_clouds_pick_three(self):
        rng = np.random.default_rng(8)
        pts = np.vstack([
            rng.normal([0, 0], 0.05, size=(8, 2)),
            rng.normal([3, 0], 0.05, size=(8, 2)),
            rng.normal([0, 3], 0.05, size=(8, 2)),
        ])
        sel = select_k(dm_from_points(pts), 2, 6)
        assert sel.best.k == 3
        assert set(sel.scores) == {2, 3, 4, 5, 6}

    def test_degenerate_range(self):
        dm = two_cloud_dm(np.random.default_rng(9))
        sel = select_k(dm, 2, 2)
        assert sel.best.k == 2

    def test_selection_rule_matches_scores(self):
        rng = np.random.default_rng(10)
        dm = dm_from_points(rng.normal(size=(20, 2)))
        sel = select_k(dm, 2, 6)
        expected = max(sorted(sel.scores), key=lambda k: (sel.scores[k], -k))
        assert sel.best.k == expected

    def test_empty_range_rejected(self):
        dm = two_cloud_dm(np.random.default_rng(11))
        with pytest.raises(ValueError):
            select_k(dm, 5, 4)

    @pytest.fixture
    def kmedoids_calls(self, monkeypatch):
        """The k of each call select_k makes through topics.kmedoids."""
        calls = []

        def counting(dm, k, *args, **kwargs):
            calls.append(k)
            return kmedoids(dm, k, *args, **kwargs)

        monkeypatch.setattr(topics, "kmedoids", counting)
        return calls

    @pytest.mark.parametrize("seed", [3, 4])
    def test_range_restarts_only_the_chosen_k(self, kmedoids_calls, seed):
        dm = blob_dm(seed, 90)
        sel = select_k(dm, 2, 6, seed=seed)
        assert kmedoids_calls == [sel.best.k]
        assert set(sel.scores) == {2, 3, 4, 5, 6}
        assert_same_clustering(sel.best, kmedoids(dm, sel.best.k, seed=seed))

    def test_single_k_scores_its_clustering(self, kmedoids_calls):
        dm = blob_dm(5, 90)
        sel = select_k(dm, 4, 4, seed=5)
        assert kmedoids_calls == [4]
        assert sel.scores == {4: silhouette(dm, sel.best)}
        assert_same_clustering(sel.best, kmedoids(dm, 4, seed=5))


class TestSummarizeTopics:
    def test_mean_of_member_vectors(self):
        docs = [
            TokenDoc("d0", ["apple", "apple", "pear"]),
            TokenDoc("d1", ["apple", "plum"]),
            TokenDoc("d2", ["stone", "stone"]),
        ]
        model = fit_tfidf(docs, min_df=1)
        emb = embedding_set({"d0": [1, 0], "d1": [1, 0.1], "d2": [0, 1]})
        dm = cosine_distance_matrix(emb, range(3))
        clustering = manual_clustering(dm, [0, 0, 1], [0, 2])
        summaries = summarize_topics(clustering, model, tfidf_matrix(model, docs), top_n=10)

        assert [s.topic for s in summaries] == [0, 1]
        assert summaries[0].size == 2 and summaries[1].size == 1
        # independent recomputation with dense numpy means
        dense = tfidf_matrix(model, docs).toarray()
        mean0 = dense[[0, 1]].mean(axis=0)
        by_index = sorted(model.vocabulary, key=model.vocabulary.get)
        expected = sorted(
            ((by_index[j], mean0[j]) for j in np.flatnonzero(mean0 > 0)),
            key=lambda ts: (-ts[1], ts[0]),
        )
        got = summaries[0].top_words
        assert [w for w, _ in got] == [w for w, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-12)

    def test_scores_descending_and_top_n(self):
        docs = [TokenDoc(f"d{i}", ["a", "b", "c", "d", "e"][: i + 2]) for i in range(3)]
        model = fit_tfidf(docs, min_df=1)
        emb = embedding_set({f"d{i}": [1, i * 0.1] for i in range(3)})
        dm = cosine_distance_matrix(emb, range(3))
        clustering = manual_clustering(dm, [0, 0, 1], [0, 2])
        summaries = summarize_topics(clustering, model, tfidf_matrix(model, docs), top_n=2)
        for s in summaries:
            assert len(s.top_words) <= 2
            scores = [v for _, v in s.top_words]
            assert scores == sorted(scores, reverse=True)

    def test_labels_default_pattern(self):
        docs = [TokenDoc("d0", ["x"]), TokenDoc("d1", ["y"])]
        model = fit_tfidf(docs, min_df=1)
        dm = dm_from_points([[0.0], [1.0]])
        dm = DistanceMatrix(ids=("d0", "d1"), d=dm.d)
        clustering = manual_clustering(dm, [0, 1], [0, 1])
        summaries = summarize_topics(clustering, model, tfidf_matrix(model, docs))
        assert [s.label for s in summaries] == ["topic_0", "topic_1"]

    @pytest.mark.parametrize("top_n", [0, -9])
    def test_top_n_below_one_rejected(self, top_n):
        docs = [TokenDoc("d0", ["x"]), TokenDoc("d1", ["y"])]
        model = fit_tfidf(docs, min_df=1)
        dm = DistanceMatrix(ids=("d0", "d1"), d=dm_from_points([[0.0], [1.0]]).d)
        clustering = manual_clustering(dm, [0, 1], [0, 1])
        with pytest.raises(ValueError, match=f"top_n must be >= 1, got {top_n}"):
            summarize_topics(clustering, model, tfidf_matrix(model, docs), top_n=top_n)

    def test_roundtrip_dict(self):
        summary = TopicSummary(topic=1, label="topic_1", size=3,
                               top_words=[("apple", 0.5), ("pear", 0.25)])
        again = TopicSummary.from_dict(summary.to_dict())
        assert again.topic == summary.topic
        assert again.label == summary.label
        assert again.size == summary.size
        assert again.top_words == summary.top_words
