"""Topic discovery: k-medoids over cosine distances, silhouette-guided k.

k-medoids is PAM's BUILD followed by the eager swap descent of FasterPAM
(Schubert & Rousseeuw, "Fast and eager k-medoids clustering", 2021), run
from several seeded starts.  A k search ranks each k by the silhouette of
one descent from its BUILD start and runs the restarts for the chosen k
only.  No piece of that work is done twice: BUILD is greedy, so a k search
builds once for its largest k and each k starts from a prefix of that
order; the chosen k's restarts begin from the descent that scored it; and
the starts of one k share each swap block's outcome through a table that
lives for that one k.

The n x n distance matrix is the only quadratic object the stage holds.
BUILD's gains, the swap descent and the silhouette scan it a block of
columns or rows at a time, so their working memory grows as n times a
block, and BUILD and the silhouette sum in the order a whole-matrix
reduction would, so their results are the same bits.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .features import EmbeddingSet, TfidfModel

logger = logging.getLogger(__name__)

# Swap improvements smaller than this are treated as zero (float-noise guard).
SWAP_TOL = 1e-12


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative distances with zero diagonal, keyed by post ids."""

    ids: tuple[str, ...]
    d: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ids)


def cosine_distance_matrix(emb: EmbeddingSet, positions: Sequence[int]) -> DistanceMatrix:
    """Pairwise 1 - cos(v_i, v_j) over the rows of `emb` at `positions`, in that order.

    A row whose norm underflows to 0 or overflows to inf is first divided by
    its largest |component|, which leaves its direction; every other row is
    normalised as it is.  An all-zero row has no direction and is refused.
    """
    ids = tuple(emb.ids[i] for i in positions)
    rows = emb.rows[np.asarray(positions, dtype=np.intp)]  # a copy, which the rescaling writes
    with np.errstate(over="ignore"):  # an inf norm is rescaled below
        norms = np.linalg.norm(rows, axis=1)
    bad = np.flatnonzero((norms == 0.0) | np.isinf(norms))
    if bad.size:
        scale = np.abs(rows[bad]).max(axis=1)
        zero = bad[scale == 0.0]
        if zero.size:
            raise ValueError(f"zero-norm vector for id {ids[zero[0]]!r}")
        rows[bad] /= scale[:, None]
        norms[bad] = np.linalg.norm(rows[bad], axis=1)
    unit = rows / norms[:, None]
    # numpy computes a matrix times its own transpose as one symmetric product
    # (BLAS syrk: one triangle, mirrored), so d is symmetric bit for bit and
    # needs no averaging with its transpose.
    d = unit @ unit.T
    np.subtract(1.0, d, out=d)
    np.clip(d, 0.0, 2.0, out=d)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(ids=ids, d=d)


@dataclass(frozen=True)
class Clustering:
    """PAM output: medoid posts, per-post cluster index, and the summed cost."""

    k: int
    medoid_ids: tuple[str, ...]
    medoid_indices: tuple[int, ...]
    assignment: dict[str, int]
    labels: np.ndarray
    total_cost: float
    n_swaps: int


def _pick(costs: np.ndarray, priority: np.ndarray) -> int:
    """Index of the minimal cost; exact ties go to the lowest rng priority."""
    m = costs.min()
    cand = np.flatnonzero(costs == m)
    return int(cand[np.argmin(priority[cand])])


# Columns of D per step of BUILD's gain scan, and rows per step of silhouette.
BLOCK = 64


def _blocks(n: int) -> list[tuple[int, int]]:
    """Bounds [lo, hi) of the BLOCK-wide steps over n columns (or rows).

    numpy sums each column (BUILD) or row (silhouette) of a block at least
    two wide one element after another, as it does over the whole matrix,
    so the blocked sums are the same bits.  A block one wide is summed
    pairwise instead, so a 1-wide tail takes one from the block before it.
    """
    starts = list(range(0, n, BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts[-1] -= 1
    return list(zip(starts, starts[1:] + [n]))


def _build_init(D: np.ndarray, k: int, priority: np.ndarray) -> list[int]:
    """Greedy BUILD: most-central point first, then max-cost-reduction adds.

    A candidate's gain is the sum down its column of max(dnear - D, 0),
    computed a block of columns at a time through one reused n x BLOCK buffer.
    """
    n = len(D)
    medoids = [_pick(D.sum(axis=1), priority)]
    dnear = D[:, medoids[0]].copy()
    buf = np.empty((n, min(n, BLOCK)))
    gains = np.empty(n)
    while len(medoids) < k:
        for lo, hi in _blocks(n):
            block = buf[:, :hi - lo]
            np.subtract(dnear[:, None], D[:, lo:hi], out=block)
            np.maximum(block, 0.0, out=block)
            block.sum(axis=0, out=gains[lo:hi])
        costs = dnear.sum() - gains
        costs[medoids] = np.inf
        h = _pick(costs, priority)
        medoids.append(h)
        dnear = np.minimum(dnear, D[:, h])
    return medoids


def _serving(D: np.ndarray, medoids: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point: its nearest medoid slot one-hot (n x k), that distance and the
    second-nearest distance.  Rows of symmetric D serve as its columns."""
    dist = D[medoids]
    cols = np.arange(len(D))
    near = np.argmin(dist, axis=0)
    serves = np.zeros((len(D), len(medoids)))
    serves[cols, near] = 1.0
    dnear = dist[near, cols]
    dist[near, cols] = np.inf
    return serves, dnear, dist.min(axis=0)


# Candidate rows evaluated per eager swap step.
SWAP_BLOCK = 64


def _swap_descent(D: np.ndarray, medoids: list[int],
                  table: dict | None = None) -> tuple[list[int], float, int]:
    """Eager SWAP (FasterPAM) until no single swap lowers the total cost.

    Candidates are taken SWAP_BLOCK rows at a time, cycling through all n,
    and each block's best improving swap is applied at once.  The descent
    stops once n candidates in a row found no improving swap against an
    unchanged set of medoids, so the result is swap-optimal.

    A block's outcome depends only on the sorted medoids and the block's
    first row, so `table` maps `(tuple(medoids), start)` to `(candidate,
    slot, improving)`.  Descents that share a table compute each outcome
    once; a descent that reaches a known (medoids, block) pair takes the
    stored outcome and still applies and counts its swap.  The serving
    state is built only when a block has to be computed.
    """
    n = len(D)
    medoids = sorted(medoids)
    if table is None:
        table = {}
    state = None  # _serving(D, medoids), built on first need
    is_medoid = np.zeros(n, dtype=bool)
    is_medoid[medoids] = True
    n_swaps = 0
    start = 0
    unchanged = 0
    while unchanged < n:
        stop = min(start + SWAP_BLOCK, n)
        key = (tuple(medoids), start)
        outcome = table.get(key)
        if outcome is None:
            if state is None:
                state = _serving(D, medoids)
            serves, dnear, dsecond = state
            rows = D[start:stop]
            # FastPAM1: the change in cost of swapping slot i for candidate c is
            # a term shared by every slot plus a term over the points i serves.
            to_near = np.minimum(rows, dnear)
            delta = (np.minimum(rows, dsecond) - to_near) @ serves
            delta += (to_near.sum(axis=1) - dnear.sum())[:, None]
            delta[is_medoid[start:stop]] = np.inf
            c, i = np.unravel_index(np.argmin(delta), delta.shape)
            outcome = table[key] = (start + int(c), int(i), bool(delta[c, i] < -SWAP_TOL))
        cand, i, improving = outcome
        if improving:
            is_medoid[medoids[i]] = False
            medoids[i] = cand
            is_medoid[cand] = True
            medoids.sort()
            state = None
            n_swaps += 1
            unchanged = 0
        else:
            unchanged += stop - start
        start = 0 if stop == n else stop
    if state is None:
        state = _serving(D, medoids)
    return medoids, float(state[1].sum()), n_swaps


# Starts per kmedoids call: BUILD plus RESTARTS - 1 seeded random sets.
RESTARTS = 8


def kmedoids(dm: DistanceMatrix, k: int, seed: int = 42, *,
             _searched: tuple | None = None) -> Clustering:
    """k-medoids with deterministic restarts: BUILD plus seeded random starts,
    each refined by the eager swap descent; the cheapest result wins.

    Every result is swap-optimal, but a single start can end in a local
    optimum.  With the restarts, 19,995 of 20,000 seeded instances small
    enough to enumerate (n <= 8 unit vectors in 3 dims, k <= 3) reach the
    exhaustive minimum.  The seed drives the restart starting sets and
    BUILD's exact cost tie-breaks, nothing else.  `n_swaps` counts the
    swaps of the winning start.

    The starts share one table of swap-block outcomes (see
    `_swap_descent`), which lives for this call only.  `_searched` is
    `select_k`'s own hand-over: the `_swap_descent` result from BUILD's
    first k medoids for this `dm` and `seed`, and the table that descent
    filled, so BUILD is neither run nor descended again.
    """
    n = dm.n
    if not 2 <= k < n:
        raise ValueError(f"k={k} out of range [2, {n - 1}]")
    D = dm.d
    rng = np.random.default_rng(seed)
    # Drawn even when `_searched` is given: the restart sets come after it.
    priority = rng.permutation(n)
    if _searched is None:
        table: dict = {}
        first = _swap_descent(D, _build_init(D, k, priority), table)
    else:
        first, table = _searched
    medoids, total, n_swaps = first
    for _ in range(RESTARTS - 1):
        init = [int(i) for i in rng.choice(n, size=k, replace=False)]
        cand, cost, swaps = _swap_descent(D, init, table)
        if cost < total - SWAP_TOL:
            medoids, total, n_swaps = cand, cost, swaps

    return _clustering(dm, medoids, n_swaps)


def _clustering(dm: DistanceMatrix, medoids: list[int], n_swaps: int) -> Clustering:
    """The clustering `medoids` induce: each point labelled by its nearest
    medoid (exact ties to the lower slot), each medoid by its own slot."""
    D, n, k = dm.d, dm.n, len(medoids)
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


def silhouette(dm: DistanceMatrix, clustering: Clustering) -> float:
    """Mean of (b_i - a_i)/max(a_i, b_i); singletons and 0/0 score 0."""
    if clustering.k < 2:
        raise ValueError("silhouette needs k >= 2")
    labels = clustering.labels
    k = clustering.k
    n = dm.n
    counts = np.bincount(labels, minlength=k)
    if (counts == 0).any():
        raise ValueError("silhouette needs every cluster nonempty")
    # Per point, its summed distance to each cluster, a block of rows at a time.
    masks = [labels == c for c in range(k)]
    sums = np.zeros((n, k))
    for lo, hi in _blocks(n):
        rows = dm.d[lo:hi]
        for c in range(k):
            sums[lo:hi, c] = rows[:, masks[c]].sum(axis=1)
    own = counts[labels]
    a = np.where(own > 1, sums[np.arange(n), labels] / np.maximum(own - 1, 1), 0.0)
    means = sums / counts[None, :]
    means[np.arange(n), labels] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    s = np.where(own == 1, 0.0, s)
    return float(s.mean())


@dataclass
class KSelection:
    """The chosen k's clustering plus the score that ranked each k tried.

    Over a range of k, `scores[k]` is the silhouette of k's single descent
    from BUILD (see `select_k`), not of `best`; over one k it is the
    silhouette of `best`."""

    best: Clustering
    scores: dict[int, float]


def select_k(dm: DistanceMatrix, k_min: int, k_max: int, seed: int = 42) -> KSelection:
    """Score each k, choose the highest (ties go small), then cluster it.

    Each k is scored by the silhouette of one eager swap descent from its
    BUILD start, and only the chosen k runs `kmedoids` with its restarts,
    whose result is `best`.  The restarts decide how close `best` comes to
    the minimum cost; ranking the k values needs only one descent each.  A
    range of one k has nothing to rank: it scores `best` itself.

    BUILD runs once, for k_max: every kmedoids call draws the same priority
    first, so each k's BUILD start is a prefix of that order.  The chosen
    k's descent and its table are handed to `kmedoids`, whose restarts go
    on from them.
    """
    if k_min > k_max:
        raise ValueError(f"empty k range [{k_min}, {k_max}]")
    if k_min < 2 or k_max > dm.n - 1:
        raise ValueError(f"k range [{k_min}, {k_max}] outside [2, {dm.n - 1}]")
    if k_min == k_max:
        best = kmedoids(dm, k_min, seed=seed)
        return KSelection(best=best, scores={k_min: silhouette(dm, best)})
    build = _build_init(dm.d, k_max, np.random.default_rng(seed).permutation(dm.n))
    scores: dict[int, float] = {}
    chosen = k_min
    for k in range(k_min, k_max + 1):
        table: dict = {}
        descent = _swap_descent(dm.d, build[:k], table)
        medoids, cost, n_swaps = descent
        scores[k] = silhouette(dm, _clustering(dm, medoids, n_swaps))
        logger.info("k=%d silhouette=%.4f cost=%.4f", k, scores[k], cost)
        # Strictly greater: ties keep the smaller k.
        if k == k_min or scores[k] > scores[chosen]:
            chosen, searched = k, (descent, table)
    return KSelection(best=kmedoids(dm, chosen, seed=seed, _searched=searched),
                      scores=scores)


@dataclass
class TopicSummary:
    """One cluster characterized by its highest mean TF-IDF tokens."""

    topic: int
    label: str
    size: int
    top_words: list[tuple[str, float]]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TopicSummary":
        return cls(topic=int(d["topic"]), label=d["label"], size=int(d["size"]),
                   top_words=[(t, float(s)) for t, s in d["top_words"]])


def check_top_n(top_n: int) -> None:
    """Refuse a summary length below 1; PipelineConfig checks top_words here too."""
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")


def summarize_topics(
    clustering: Clustering,
    model: TfidfModel,
    A: sparse.csr_matrix,
    top_n: int = 50,
) -> list[TopicSummary]:
    """Per cluster, the mean of its members' TF-IDF rows; top_n tokens descending.

    Row i of `A` belongs to the post that `clustering.labels[i]` labels."""
    check_top_n(top_n)
    clusters = clustering.labels
    by_index = sorted(model.vocabulary, key=model.vocabulary.get)
    sizes = np.bincount(clusters, minlength=clustering.k)
    means = np.zeros((clustering.k, model.dim))
    # Unbuffered adds in row order: each sum accumulates as a per-row loop would.
    np.add.at(means, (np.repeat(clusters, np.diff(A.indptr)), A.indices), A.data)
    summaries = []
    for c in range(clustering.k):
        if sizes[c] > 0:
            means[c] /= sizes[c]
        ranked = sorted(
            ((by_index[j], means[c, j]) for j in np.flatnonzero(means[c] > 0)),
            key=lambda ts: (-ts[1], ts[0]),
        )
        summaries.append(TopicSummary(topic=c, label=f"topic_{c}", size=int(sizes[c]),
                                      top_words=ranked[:top_n]))
    return summaries
