"""Linear one-vs-rest hinge-loss classifier over post embeddings, read by row position.

Training is full-batch Pegasos (Shalev-Shwartz, Singer, Srebro & Cotter 2011,
Math. Programming 127:3-30) with its projection onto the ball that holds the
optimum, and the mean of the last half of the iterates as the result
(Rakhlin, Shamir & Sridharan 2012, ICML).
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .features import EmbeddingSet

logger = logging.getLogger(__name__)

C = 1.0
ITERATIONS = 400
VAL_FRACTION = 0.2
DEFAULT_SEED = 42
PREDICT_BLOCK = 2048


@dataclass
class LinearClassifier:
    """Per-class weight rows and biases; score = w_c . v + b_c."""

    weights: np.ndarray
    biases: np.ndarray
    classes: list[int]

    def __post_init__(self) -> None:
        k = len(self.classes)
        if k < 2:
            raise ValueError("classifier needs k >= 2 classes")
        if len(set(self.classes)) != k:
            raise ValueError(f"classifier classes repeat: {self.classes}")
        if self.weights.ndim != 2 or self.weights.shape[0] != k:
            raise ValueError(f"classifier weights have shape {self.weights.shape}, "
                             f"need one row per class ({k})")
        if self.biases.shape != (k,):
            raise ValueError(f"classifier biases have shape {self.biases.shape}, "
                             f"need one per class ({k})")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("classifier weights contain NaN/Inf")

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "weights": self.weights.tolist(),
            "biases": self.biases.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearClassifier":
        return cls(
            weights=np.asarray(d["weights"], dtype=float),
            biases=np.asarray(d["biases"], dtype=float),
            classes=[int(c) for c in d["classes"]],
        )


@dataclass
class EvalReport:
    """Per-class precision/recall/F1/support, weighted F1, confusion matrix.

    Confusion rows index the true class, columns the predicted class, so row
    sums equal class supports.
    """

    classes: list[int]
    precision: list[float]
    recall: list[float]
    f1: list[float]
    support: list[int]
    weighted_f1: float
    confusion: np.ndarray

    def to_dict(self) -> dict:
        return {**asdict(self), "confusion": self.confusion.tolist()}


def evaluate(pred: Mapping[str, int], truth: Mapping[str, int]) -> EvalReport:
    """Standard precision/recall/F1 with 0/0 conventions mapped to 0."""
    if set(pred) != set(truth):
        raise ValueError("prediction and truth key sets differ")
    classes = sorted(set(truth.values()) | set(pred.values()))
    index = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    confusion = np.zeros((k, k), dtype=int)
    for pid, t in truth.items():
        confusion[index[t], index[pred[pid]]] += 1
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    tp = np.diag(confusion)
    precision = np.where(predicted > 0, tp / np.maximum(predicted, 1), 0.0)
    recall = np.where(support > 0, tp / np.maximum(support, 1), 0.0)
    pr = precision + recall
    f1 = np.where(pr > 0, 2 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    total = support.sum()
    weighted_f1 = float((support / total) @ f1) if total > 0 else 0.0
    return EvalReport(
        classes=classes,
        precision=[float(v) for v in precision],
        recall=[float(v) for v in recall],
        f1=[float(v) for v in f1],
        support=[int(v) for v in support],
        weighted_f1=weighted_f1,
        confusion=confusion,
    )


def _stratified_split(ids_by_class: dict[int, list[str]], val_fraction: float,
                      rng: np.random.Generator) -> tuple[list[str], list[str]]:
    train_ids: list[str] = []
    val_ids: list[str] = []
    for c in sorted(ids_by_class):
        ids = sorted(ids_by_class[c])
        perm = rng.permutation(len(ids))
        # train refuses a one-member class, so at least one id stays to train on.
        n_val = max(1, int(round(len(ids) * val_fraction)))
        held = set(perm[:n_val])
        for i, pid in enumerate(ids):
            (val_ids if i in held else train_ids).append(pid)
    return train_ids, val_ids


def train(emb: EmbeddingSet, labels: Mapping[str, int],
          seed: int = DEFAULT_SEED) -> tuple[LinearClassifier, EvalReport]:
    """Projected, averaged full-batch Pegasos, one binary problem per class.

    Each of ITERATIONS steps (step size 1/(lam*t), lam = 1/(C*n_train),
    unregularised bias) takes the mean hinge subgradient over the whole
    training set, then scales each class's w back onto the ball
    |w_c| <= 1/sqrt(lam), which holds the optimum.  The returned weights and
    biases are the means of the iterates after steps t > ITERATIONS/2.  A
    stratified seeded split holds out VAL_FRACTION of each class; the
    returned EvalReport is computed on that split.
    """
    index = emb.index
    ids_by_class: dict[int, list[str]] = {}
    for pid in sorted(labels):
        if pid not in index:
            raise ValueError(f"labeled id {pid!r} has no embedding")
        ids_by_class.setdefault(labels[pid], []).append(pid)
    if len(ids_by_class) < 2:
        raise ValueError("training needs at least 2 classes")
    for c, ids in sorted(ids_by_class.items()):
        if len(ids) == 1:
            raise ValueError(f"class {c} has a single member; cannot stratify")
        if len(ids) < 5:
            logger.warning("class %d has only %d members", c, len(ids))

    rng = np.random.default_rng(seed)
    train_ids, val_ids = _stratified_split(ids_by_class, VAL_FRACTION, rng)
    classes = sorted(ids_by_class)
    X = emb.rows[[index[pid] for pid in train_ids]]
    n_train, dim = X.shape
    y = np.array([labels[pid] for pid in train_ids])
    # {-1,+1} target per class column
    Y = np.where(y[:, None] == np.array(classes)[None, :], 1.0, -1.0)

    lam = 1.0 / (C * n_train)
    radius = 1.0 / np.sqrt(lam)
    XT = np.ascontiguousarray(X.T)
    ones = np.ones(n_train)
    # Weights as (dim, k) columns, so X @ Wt and XT @ hit_y read contiguous rows.
    Wt = np.zeros((dim, len(classes)))
    b = np.zeros(len(classes))
    Wt_sum = np.zeros_like(Wt)
    b_sum = np.zeros_like(b)
    for t in range(1, ITERATIONS + 1):
        eta = 1.0 / (lam * t)
        hit_y = Y * (Y * (X @ Wt + b) < 1.0)
        Wt *= 1.0 - eta * lam
        Wt += (eta / n_train) * (XT @ hit_y)
        b += (eta / n_train) * (ones @ hit_y)
        norms = np.sqrt((Wt * Wt).sum(axis=0))
        Wt *= radius / np.maximum(norms, radius)
        if t > ITERATIONS // 2:
            Wt_sum += Wt
            b_sum += b
    n_avg = ITERATIONS - ITERATIONS // 2
    # Row-major (k, dim), the layout from_dict reads back, so a loaded bundle
    # predicts through the same products.
    W = np.ascontiguousarray(Wt_sum.T) / n_avg
    b = b_sum / n_avg

    clf = LinearClassifier(weights=W, biases=b, classes=classes)
    report = evaluate(predict(clf, emb, [index[pid] for pid in val_ids]),
                      {pid: labels[pid] for pid in val_ids})
    logger.info("validation weighted F1 = %.4f on %d held-out posts",
                report.weighted_f1, len(val_ids))
    return clf, report


def predict(clf: LinearClassifier, emb: EmbeddingSet,
            positions: Sequence[int] | np.ndarray) -> dict[str, int]:
    """Argmax class of the posts at rows `positions` of `emb`, keyed by post id
    in that order; exact ties go to the lowest class index.

    Scores are one matrix product per block of at most PREDICT_BLOCK rows,
    so no more than one block of embedding rows is copied at a time.
    """
    if emb.dim != clf.dim:
        raise ValueError(f"embedding dim {emb.dim} != classifier dim {clf.dim}")
    positions = np.asarray(positions, dtype=np.intp)
    ids, classes = emb.ids, np.asarray(clf.classes)
    out: dict[str, int] = {}
    for start in range(0, len(positions), PREDICT_BLOCK):
        block = positions[start:start + PREDICT_BLOCK]
        best = np.argmax(emb.rows[block] @ clf.weights.T + clf.biases, axis=1)
        out.update(zip([ids[i] for i in block.tolist()], classes[best].tolist()))
    return out
