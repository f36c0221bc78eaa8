"""TF-IDF featurization and dense embeddings (external file or TF-IDF fallback).

TF-IDF rows have one builder, tfidf_matrix.  Each doc set's CSR matrix is built
once and read by the fallback projector (a linear map on rows) and the summaries.
Embeddings are one matrix as well (EmbeddingSet: ids plus rows, read by position).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .corpus import record_id
from .errors import EmbeddingFormatError, open_text
from .textpipe import TokenDoc, as_token_docs, kept_offsets

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

    def __post_init__(self) -> None:
        if self.idf.shape != (self.dim,):
            raise ValueError(f"tfidf idf has shape {self.idf.shape}, "
                             f"need one value per vocabulary term ({self.dim})")

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    def to_dict(self) -> dict:
        ordered = sorted(self.vocabulary.items(), key=lambda kv: kv[1])
        return {
            "vocabulary": [t for t, _ in ordered],
            "idf": self.idf.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TfidfModel":
        return cls(
            vocabulary={t: i for i, t in enumerate(d["vocabulary"])},
            idf=np.asarray(d["idf"], dtype=float),
        )


def check_min_df(min_df: int) -> None:
    """Refuse a document-frequency floor below 1; PipelineConfig checks it here too."""
    if min_df < 1:
        raise ValueError("min_df must be >= 1")


def check_dim(dim: int) -> None:
    """Refuse an embedding dimension below 1; PipelineConfig checks embed_dim here too."""
    if dim < 1:
        raise ValueError("dim must be >= 1")


def fit_tfidf(docs: Sequence[TokenDoc], min_df: int = DEFAULT_MIN_DF) -> TfidfModel:
    """Build the vocabulary (document frequency >= min_df) and idf weights."""
    check_min_df(min_df)
    docs = as_token_docs(docs)
    n_docs, n_names = len(docs), len(docs.names)
    if n_docs == 0 or len(docs.ids) == 0:
        raise ValueError("need at least one nonempty doc")
    # Each distinct (doc, token) pair counts once towards the token's df.
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(docs.offsets))
    in_docs = np.unique(doc_of * n_names + docs.ids) % n_names
    df = dict(zip(docs.names, np.bincount(in_docs, minlength=n_names).tolist()))
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
    an all-zero row (exempt from the unit-norm invariant).  Columns are read
    off the doc set's id array through one lookup per distinct token.
    """
    docs = as_token_docs(docs)
    vocabulary = model.vocabulary
    column_of = np.array([vocabulary.get(name, -1) for name in docs.names], dtype=np.int32)
    columns = column_of[docs.ids]
    in_vocab = columns >= 0
    A = sparse.csr_matrix(
        (np.ones(int(in_vocab.sum())), columns[in_vocab], kept_offsets(in_vocab, docs.offsets)),
        shape=(len(docs), model.dim),
    )
    A.sum_duplicates()
    A.data *= model.idf[A.indices]
    # Each row's sum of squares is one BLAS dot, as np.linalg.norm takes it
    # for a 1-D float row: a vectorized sum of squares rounds differently, and
    # the last bit moves alter labels.  Rows of one length are stacked, and
    # matmul takes each (1, L) @ (L, 1) slice as one dot.  One sort finds
    # every length's rows.
    lengths = np.diff(A.indptr)
    order = np.argsort(lengths, kind="stable")
    sizes, firsts = np.unique(lengths[order], return_index=True)
    sumsq = np.zeros(len(lengths))
    for length, rows in zip(sizes.tolist(), np.split(order, firsts[1:])):
        if length:
            X = A.data[A.indptr[rows, None] + np.arange(length)]
            sumsq[rows] = (X[:, None, :] @ X[:, :, None])[:, 0, 0]
    A.data /= np.repeat(np.sqrt(sumsq), lengths)
    return A


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """Post embeddings as one matrix: row i of `rows` is the vector of post `ids[i]`.

    Readers take rows by position; the lookups by id, `index` (id -> row) and
    the read-only `vectors` (id -> row view), are built on first use only.
    """

    ids: Sequence[str]
    rows: np.ndarray

    def __post_init__(self) -> None:
        if self.rows.ndim != 2 or len(self.ids) != len(self.rows):
            raise ValueError(f"{len(self.ids)} ids for rows of shape {self.rows.shape}")

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def index(self) -> dict[str, int]:
        index = {post_id: i for i, post_id in enumerate(self.ids)}
        if len(index) != len(self.ids):
            raise ValueError("embedding ids are not distinct")
        return index

    @cached_property
    def vectors(self) -> Mapping[str, np.ndarray]:
        return MappingProxyType({post_id: self.rows[i] for post_id, i in self.index.items()})


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

    def add(lineno: int, raw_id, values: Sequence[float]) -> None:
        # record_id's TypeError or ValueError is named by the caller's handler.
        where = f"{path}:{lineno}"
        post_id = record_id(raw_id)
        if post_id in vectors:
            raise EmbeddingFormatError(f"{where}: duplicate id {post_id!r}")
        vec = np.asarray(values, dtype=float)
        if len(vec) == 0:
            raise EmbeddingFormatError(f"{where}: id {post_id!r} has no vector")
        if not np.all(np.isfinite(vec)):
            raise EmbeddingFormatError(f"{where}: id {post_id!r} has NaN/Inf components")
        dim = len(next(iter(vectors.values()), vec))
        if len(vec) != dim:
            raise EmbeddingFormatError(
                f"{where}: id {post_id!r} has dim {len(vec)}, expected {dim}")
        vectors[post_id] = vec

    if path.suffix.lower() == ".csv":
        with open_text(path, EmbeddingFormatError, newline="") as fh:
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
        with open_text(path, EmbeddingFormatError) as fh:
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

    if not vectors:
        raise EmbeddingFormatError(f"{path}: file contains no vectors")
    if ids is not None:
        missing = [i for i in ids if i not in vectors]
        if missing:
            raise EmbeddingFormatError(
                f"{path}: {len(missing)} ids missing from embedding file: {missing[:10]}")
    return EmbeddingSet(ids=list(vectors), rows=np.stack(list(vectors.values())))


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

    Fitted on the ego's TF-IDF matrix once; the alters' rows go through the
    same components, so both sides live in one embedding space.
    """

    components: np.ndarray

    @property
    def dim(self) -> int:
        return self.components.shape[1]

    @classmethod
    def fit(cls, A: sparse.csr_matrix, dim: int,
            seed: int = DEFAULT_SVD_SEED) -> "FallbackProjector":
        check_dim(dim)
        if dim > A.shape[1]:
            raise ValueError(f"dim {dim} exceeds vocabulary size {A.shape[1]}")
        return cls(components=_randomized_svd(A, dim, seed))

    def transform(self, A: sparse.csr_matrix, ids: Sequence[str]) -> EmbeddingSet:
        """Unit-length projections of A's rows, as the rows of `ids` (zero rows stay zero)."""
        if len(ids) != A.shape[0]:
            raise ValueError(f"{len(ids)} ids for {A.shape[0]} TF-IDF rows")
        rows = np.asarray(A @ self.components)
        # In blocks, so the norm's squares and the rows it divides are
        # temporaries of one block, not copies of every row.
        for start in range(0, len(rows), NORM_BLOCK):
            block = rows[start:start + NORM_BLOCK]
            norms = np.linalg.norm(block, axis=1)
            nonzero = norms > 0
            block[nonzero] /= norms[nonzero, None]
        return EmbeddingSet(ids=ids, rows=rows)

    def to_dict(self) -> dict:
        return {"components": self.components.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "FallbackProjector":
        return cls(components=np.asarray(d["components"], dtype=float))

