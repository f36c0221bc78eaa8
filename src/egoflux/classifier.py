"""Linear one-vs-rest hinge-loss classifier over post embeddings."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .features import EmbeddingSet

logger = logging.getLogger(__name__)

C = 1.0
ITERATIONS = 1000
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
        if len(self.classes) < 2:
            raise ValueError("classifier needs k >= 2 classes")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("classifier weights contain NaN/Inf")

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "weights": [[float(x) for x in row] for row in self.weights],
            "biases": [float(x) for x in self.biases],
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
        return {
            "classes": list(self.classes),
            "precision": [float(v) for v in self.precision],
            "recall": [float(v) for v in self.recall],
            "f1": [float(v) for v in self.f1],
            "support": [int(v) for v in self.support],
            "weighted_f1": float(self.weighted_f1),
            "confusion": [[int(v) for v in row] for row in self.confusion],
        }


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
        n_val = max(1, int(round(len(ids) * val_fraction)))
        if n_val >= len(ids):
            n_val = len(ids) - 1
        held = set(perm[:n_val])
        for i, pid in enumerate(ids):
            (val_ids if i in held else train_ids).append(pid)
    return train_ids, val_ids


def train(emb: EmbeddingSet, labels: Mapping[str, int],
          seed: int = DEFAULT_SEED) -> tuple[LinearClassifier, EvalReport]:
    """Full-batch Pegasos subgradient descent, one binary problem per class.

    Each of ITERATIONS steps (step size 1/(lam*t), lam = 1/(C*n_train),
    unregularised bias) takes the mean hinge subgradient over the whole
    training set.  A stratified seeded split holds out VAL_FRACTION of each
    class; the returned EvalReport is computed on that split.
    """
    ids_by_class: dict[int, list[str]] = {}
    for pid in sorted(labels):
        if pid not in emb.vectors:
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
    X = emb.matrix(train_ids)
    n_train, dim = X.shape
    y = np.array([labels[pid] for pid in train_ids])
    # {-1,+1} target per class column
    Y = np.where(y[:, None] == np.array(classes)[None, :], 1.0, -1.0)

    lam = 1.0 / (C * n_train)
    W = np.zeros((len(classes), dim))
    b = np.zeros(len(classes))
    for t in range(1, ITERATIONS + 1):
        eta = 1.0 / (lam * t)
        hit_y = Y * (Y * (X @ W.T + b) < 1.0)
        W *= 1.0 - eta * lam
        W += (eta / n_train) * (hit_y.T @ X)
        b += (eta / n_train) * hit_y.sum(axis=0)

    clf = LinearClassifier(weights=W, biases=b, classes=classes)
    report = evaluate(predict(clf, emb, ids=val_ids),
                      {pid: labels[pid] for pid in val_ids})
    logger.info("validation weighted F1 = %.4f on %d held-out posts",
                report.weighted_f1, len(val_ids))
    return clf, report


def predict(clf: LinearClassifier, emb: EmbeddingSet,
            ids: list[str] | None = None) -> dict[str, int]:
    """Argmax class score per post; exact ties go to the lowest class index.

    Scores are one matrix product per block of at most PREDICT_BLOCK posts,
    so no more than one block of embedding rows is copied at a time.
    """
    if emb.dim != clf.dim:
        raise ValueError(f"embedding dim {emb.dim} != classifier dim {clf.dim}")
    if ids is None:
        ids = sorted(emb.vectors)
    classes = np.asarray(clf.classes)
    out: dict[str, int] = {}
    for start in range(0, len(ids), PREDICT_BLOCK):
        block = ids[start:start + PREDICT_BLOCK]
        best = np.argmax(emb.matrix(block) @ clf.weights.T + clf.biases, axis=1)
        out.update(zip(block, classes[best].tolist()))
    return out
