"""TF-IDF featurization and dense embeddings (external file or TF-IDF fallback).

TF-IDF rows have one builder, tfidf_matrix, which turns a list of docs into
one CSR matrix; the fallback projector and the topic summaries both read it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .corpus import record_id
from .errors import EmbeddingFormatError
from .textpipe import TokenDoc

DEFAULT_MIN_DF = 2
DEFAULT_SVD_SEED = 42
# Randomized SVD: extra sketch columns and subspace (power) iterations.
SVD_OVERSAMPLE = 10
SVD_POWER_ITERS = 4
# Rows normalised at a time by FallbackProjector.transform.
NORM_BLOCK = 2048


@dataclass
class TfidfModel:
    """Vocabulary plus smoothed idf weights: idf = ln((1+n)/(1+df)) + 1."""

    vocabulary: dict[str, int]
    idf: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    def to_dict(self) -> dict:
        ordered = sorted(self.vocabulary.items(), key=lambda kv: kv[1])
        return {
            "vocabulary": [t for t, _ in ordered],
            "idf": [float(v) for v in self.idf],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TfidfModel":
        return cls(
            vocabulary={t: i for i, t in enumerate(d["vocabulary"])},
            idf=np.asarray(d["idf"], dtype=float),
        )


def fit_tfidf(docs: Sequence[TokenDoc], min_df: int = DEFAULT_MIN_DF) -> TfidfModel:
    """Build the vocabulary (document frequency >= min_df) and idf weights."""
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    n_docs = len(docs)
    if n_docs == 0 or all(not d.tokens for d in docs):
        raise ValueError("need at least one nonempty doc")
    df: dict[str, int] = {}
    for doc in docs:
        for token in set(doc.tokens):
            df[token] = df.get(token, 0) + 1
    vocab_tokens = sorted(t for t, c in df.items() if c >= min_df)
    if not vocab_tokens:
        raise ValueError(f"vocabulary is empty after min_df={min_df} filtering")
    vocabulary = {t: i for i, t in enumerate(vocab_tokens)}
    idf = np.array(
        [math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in vocab_tokens], dtype=float
    )
    return TfidfModel(vocabulary=vocabulary, idf=idf)


def tfidf_matrix(model: TfidfModel, docs: Sequence[TokenDoc]) -> sparse.csr_matrix:
    """TF-IDF rows of `docs` as a CSR matrix, one row per doc in doc order.

    Each row is raw term counts times idf, L2-normalized, with column indices
    sorted; OOV tokens are ignored.  A doc with no in-vocabulary tokens yields
    an all-zero row (exempt from the unit-norm invariant).
    """
    vocabulary = model.vocabulary
    term_ids: list[int] = []
    indptr = [0]
    for doc in docs:
        term_ids.extend(j for j in map(vocabulary.get, doc.tokens) if j is not None)
        indptr.append(len(term_ids))
    A = sparse.csr_matrix(
        (np.ones(len(term_ids)), np.asarray(term_ids, dtype=int), np.asarray(indptr, dtype=int)),
        shape=(len(docs), model.dim),
    )
    A.sum_duplicates()
    A.data *= model.idf[A.indices]
    # Row by row with sqrt(row . row), which is what np.linalg.norm computes
    # for a 1-D float row: its BLAS dot rounds differently from a vectorized
    # sum of squares, and the last bit moves alter labels.
    data = A.data
    for start, stop in zip(A.indptr[:-1].tolist(), A.indptr[1:].tolist()):
        if stop > start:
            row = data[start:stop]
            row /= math.sqrt(row.dot(row))
    return A


@dataclass
class EmbeddingSet:
    """Dense vectors keyed by post id, all sharing one dimension."""

    dim: int
    vectors: dict[str, np.ndarray]

    def matrix(self, ids: Sequence[str]) -> np.ndarray:
        return np.stack([self.vectors[i] for i in ids])


def load_embeddings(path, ids: Iterable[str] | None = None) -> EmbeddingSet:
    """Read id -> vector rows from JSONL ({"id":..., "v":[...]}) or CSV (id,v0..).

    Ids follow `corpus.record_id` and may appear once; all rows must share
    one dimension and hold finite numbers.  A bad row's error names the file
    and line.  Every id in `ids`, when given, must be in the file.
    """
    path = Path(path)
    if not path.exists():
        raise EmbeddingFormatError(f"{path}: no such file")
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None

    def add(lineno: int, raw_id, values: Sequence[float]) -> None:
        # record_id's TypeError or ValueError is named by the caller's handler.
        nonlocal dim
        where = f"{path}:{lineno}"
        post_id = record_id(raw_id)
        if post_id in vectors:
            raise EmbeddingFormatError(f"{where}: duplicate id {post_id!r}")
        vec = np.asarray(values, dtype=float)
        if len(vec) == 0:
            raise EmbeddingFormatError(f"{where}: id {post_id!r} has no vector")
        if not np.all(np.isfinite(vec)):
            raise EmbeddingFormatError(f"{where}: id {post_id!r} has NaN/Inf components")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise EmbeddingFormatError(
                f"{where}: id {post_id!r} has dim {len(vec)}, expected {dim}"
            )
        vectors[post_id] = vec

    if path.suffix.lower() == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "id":
                raise EmbeddingFormatError(f"{path}: CSV header must start with 'id'")
            for row in reader:
                if not row:
                    continue
                try:
                    add(reader.line_num, row[0], [float(v) for v in row[1:]])
                except ValueError as exc:
                    raise EmbeddingFormatError(f"{path}:{reader.line_num}: {exc}") from None
    else:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    raw_id, values = record["id"], record["v"]
                    # Types compared exactly: a bool is an int to isinstance.
                    if type(values) is not list or not {float, int}.issuperset(map(type, values)):
                        raise TypeError(f"v is not a list of numbers: {values!r:.80}")
                    add(lineno, raw_id, values)
                except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
                    raise EmbeddingFormatError(f"{path}:{lineno}: {exc}") from exc

    if dim is None:
        raise EmbeddingFormatError(f"{path}: file contains no vectors")
    if ids is not None:
        missing = [i for i in ids if i not in vectors]
        if missing:
            raise EmbeddingFormatError(
                f"{path}: {len(missing)} ids missing from embedding file: {missing[:10]}")
    return EmbeddingSet(dim=dim, vectors=vectors)


def save_embeddings(emb: EmbeddingSet, path) -> None:
    """Write JSONL rows sorted by id; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for post_id in sorted(emb.vectors):
            fh.write(json.dumps({"id": post_id, "v": [float(v) for v in emb.vectors[post_id]]}))
            fh.write("\n")


def _randomized_svd(A: sparse.csr_matrix, n_components: int, seed: int) -> np.ndarray:
    """Right singular vectors (V x n_components) by randomized subspace iteration."""
    n, V = A.shape
    width = min(n_components + SVD_OVERSAMPLE, min(n, V))
    rng = np.random.default_rng(seed)
    Y = A @ rng.standard_normal((V, width))
    Q, _ = np.linalg.qr(Y)
    for _ in range(SVD_POWER_ITERS):
        Z, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Z)
    B = (A.T @ Q).T
    _, _, Vt = np.linalg.svd(B, full_matrices=False)
    k = min(n_components, Vt.shape[0])
    components = np.zeros((V, n_components))
    components[:, :k] = Vt[:k].T
    return components


@dataclass
class FallbackProjector:
    """Truncated-SVD projection of TF-IDF rows into a dense space.

    Fitted on the ego corpus once; alter docs reuse the same components so
    both sides live in one embedding space.
    """

    components: np.ndarray

    @property
    def dim(self) -> int:
        return self.components.shape[1]

    @classmethod
    def fit(cls, model: TfidfModel, docs: Sequence[TokenDoc], dim: int,
            seed: int = DEFAULT_SVD_SEED) -> "FallbackProjector":
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if dim > model.dim:
            raise ValueError(f"dim {dim} exceeds vocabulary size {model.dim}")
        A = tfidf_matrix(model, docs)
        return cls(components=_randomized_svd(A, dim, seed))

    def transform(self, model: TfidfModel, docs: Sequence[TokenDoc]) -> EmbeddingSet:
        """Unit-length projections of the docs' TF-IDF rows (zero rows stay zero)."""
        A = tfidf_matrix(model, docs)
        rows = np.asarray(A @ self.components)
        # In blocks, so the norm's squares and the rows it divides are
        # temporaries of one block, not copies of every row.
        for start in range(0, len(rows), NORM_BLOCK):
            block = rows[start:start + NORM_BLOCK]
            norms = np.linalg.norm(block, axis=1)
            nonzero = norms > 0
            block[nonzero] /= norms[nonzero, None]
        vectors = {doc.post_id: rows[i] for i, doc in enumerate(docs)}
        return EmbeddingSet(dim=self.dim, vectors=vectors)

    def to_dict(self) -> dict:
        return {"components": [[float(v) for v in row] for row in self.components]}

    @classmethod
    def from_dict(cls, d: dict) -> "FallbackProjector":
        return cls(components=np.asarray(d["components"], dtype=float))

