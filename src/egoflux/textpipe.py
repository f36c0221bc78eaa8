"""Text cleaning, tokenization, and bigram/trigram phrase merging.

A doc set (`TokenDocs`) is one flat array of integer token ids plus doc
offsets, so phrase merging, stopword removal and TF-IDF rows are array steps
over the whole set.  A phrase stage is the set of adjacent token pairs it
merges; the unigram and pair counts behind it are used while fitting and then
dropped.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import count
from typing import Iterable

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_MIN_COUNT = 5
DEFAULT_THRESHOLD = 10.0
PHRASE_JOIN = "_"
PHRASE_PASSES = 2

# Runs of str.isalnum() characters: \w is isalnum() plus "_".
_ALNUM_RUN = re.compile(r"[^\W_]+")


@dataclass
class TokenDoc:
    """Cleaned, tokenized, n-gram-merged form of one post."""

    post_id: str
    tokens: list[str]


def _is_url(token: str) -> bool:
    low = token.lower()
    return low.startswith(("http://", "https://", "www."))


def clean(text: str) -> str:
    """Strip URLs, @mentions, RT markers, and punctuation; lowercase.

    Hashtag words are kept without the '#'; apostrophes are dropped with the
    word rejoined ("don't" -> "dont"); any other character that is not
    `str.isalnum()` (underscore included) splits the token.  Idempotent:
    cleaning cleaned text is a no-op.
    """
    pieces: list[str] = []
    for token in unicodedata.normalize("NFC", text).split():
        if _is_url(token) or token.startswith("@"):
            continue
        if token.startswith("#"):
            token = token[1:]
        token = token.replace("'", "").replace("’", "")
        # Runs are found before lowering: "İ".lower() appends U+0307, which
        # is not alphanumeric and would split the run.
        for run in _ALNUM_RUN.findall(token):
            piece = run.lower()
            if piece != "rt":
                pieces.append(piece)
    return " ".join(pieces)


def tokenize(cleaned: str) -> list[str]:
    """Split cleaned text on whitespace; drop 1-char tokens and pure digits."""
    return [t for t in cleaned.split() if len(t) >= 2 and not t.isdigit()]


@lru_cache(maxsize=1)
def english_stopwords() -> frozenset[str]:
    data = resources.files("egoflux").joinpath("data/stopwords_en.txt").read_text("utf-8")
    return frozenset(w for w in data.split() if w)


def remove_stopwords(tokens: Sequence[str]) -> list[str]:
    """Drop exact stopword tokens (merged n-grams always survive)."""
    return as_token_docs([tokens]).without_stopwords()[0].tokens


def _first_seen() -> defaultdict:
    """Key -> its number in first-seen order; reading an unseen key numbers it.

    The numbers come from a C iterator, so a new key costs no Python call."""
    return defaultdict(count().__next__)


def kept_offsets(keep: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Doc offsets into `values[keep]`, given the offsets into `values`."""
    kept_before = np.zeros(len(keep) + 1, dtype=np.int32)
    np.cumsum(keep, out=kept_before[1:])
    return kept_before[offsets].astype(np.int64)


@dataclass(frozen=True, eq=False)
class TokenDocs(Sequence):
    """A doc set as one flat int32 array of token ids plus doc offsets.

    Doc i holds `ids[offsets[i]:offsets[i + 1]]` and id j is the token
    `names[j]`; names are distinct, so equal tokens share an id.  Reading
    doc i builds its TokenDoc, so each read gets a fresh token list.
    """

    post_ids: list[str]
    names: list[str]
    ids: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.post_ids)

    def __getitem__(self, i: int) -> TokenDoc:
        i = range(len(self.post_ids))[i]
        names = self.names
        span = self.ids[self.offsets[i]:self.offsets[i + 1]]
        return TokenDoc(self.post_ids[i], [names[j] for j in span.tolist()])

    def __iter__(self):
        names = self.names
        tokens = [names[j] for j in self.ids.tolist()]
        bounds = self.offsets.tolist()
        for post_id, start, stop in zip(self.post_ids, bounds, bounds[1:]):
            yield TokenDoc(post_id, tokens[start:stop])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    # Concatenation gives a list of TokenDocs, as a list of them would.
    def __add__(self, other: Sequence[TokenDoc]) -> list[TokenDoc]:
        return list(self) + list(other)

    def _select(self, ids: np.ndarray, names: list[str], keep: np.ndarray) -> "TokenDocs":
        return TokenDocs(self.post_ids, names, ids[keep], kept_offsets(keep, self.offsets))

    def _pairs_within_docs(self) -> np.ndarray:
        """Mask over positions i < n - 1: tokens i and i + 1 are in one doc."""
        n = len(self.ids)
        within = np.ones(max(n - 1, 0), dtype=bool)
        starts = self.offsets[(self.offsets > 0) & (self.offsets < n)]
        within[starts - 1] = False
        return within

    def merge(self, merges: frozenset[tuple[str, str]]) -> "TokenDocs":
        """One greedy left-to-right merging pass over every doc at once.

        Position i is marked when tokens i and i + 1 are in one doc and form
        a pair in `merges`.  A walk reaches each run of consecutive marked
        positions at its first one, and each merge consumes the next
        position, so the run's 1st, 3rd, 5th, ... positions merge.  The pair
        (a, b) becomes the token "a_b" with its own id, so a later stage sees
        it as one token.
        """
        ids, names = self.ids, self.names
        if not merges or len(ids) < 2:
            return self
        n_names = len(names)
        id_of = {name: j for j, name in enumerate(names)}
        pairs = [(id_of[a], id_of[b]) for a, b in merges if a in id_of and b in id_of]
        if not pairs:
            return self
        left, right = np.array(pairs, dtype=np.int64).T
        # Only positions whose tokens can start and end some pair are looked up.
        can_start = np.zeros(n_names, dtype=bool)
        can_end = np.zeros(n_names, dtype=bool)
        can_start[left] = True
        can_end[right] = True
        candidates = np.flatnonzero(
            can_start[ids[:-1]] & can_end[ids[1:]] & self._pairs_within_docs())
        key = ids[candidates].astype(np.int64) * n_names + ids[candidates + 1]
        marked = candidates[np.isin(key, left * n_names + right)]
        if not len(marked):
            return self
        run_starts = np.ones(len(marked), dtype=bool)
        run_starts[1:] = np.diff(marked) != 1
        run_first = marked[run_starts][np.cumsum(run_starts) - 1]
        at = marked[(marked - run_first) % 2 == 0]

        pair_keys, which = np.unique(ids[at].astype(np.int64) * n_names + ids[at + 1],
                                     return_inverse=True)
        new_names = list(names)
        merged_ids = np.empty(len(pair_keys), dtype=np.int32)
        for k, pair_key in enumerate(pair_keys.tolist()):
            a, b = divmod(pair_key, n_names)
            name = names[a] + PHRASE_JOIN + names[b]
            j = id_of.get(name)
            if j is None:
                j = id_of[name] = len(new_names)
                new_names.append(name)
            merged_ids[k] = j
        out = ids.copy()
        out[at] = merged_ids[which]
        keep = np.ones(len(ids), dtype=bool)
        keep[at + 1] = False
        return self._select(out, new_names, keep)

    def without_stopwords(self) -> "TokenDocs":
        """Drop exact stopword tokens (merged n-grams always survive)."""
        stop = english_stopwords()
        is_stop = np.fromiter((name in stop for name in self.names), dtype=bool,
                              count=len(self.names))
        return self._select(self.ids, self.names, ~is_stop[self.ids])


def as_token_docs(docs: TokenDocs | Iterable[TokenDoc] | Iterable[Sequence[str]]) -> TokenDocs:
    """`docs` as a TokenDocs; a bare token list becomes a doc with post id ""."""
    if isinstance(docs, TokenDocs):
        return docs
    post_ids: list[str] = []
    id_of = _first_seen()
    ids = array("i")
    offsets = [0]
    for doc in docs:
        post_id, tokens = (doc.post_id, doc.tokens) if isinstance(doc, TokenDoc) else ("", doc)
        post_ids.append(post_id)
        ids.extend(map(id_of.__getitem__, tokens))
        offsets.append(len(ids))
    return TokenDocs(post_ids, list(id_of), np.array(ids, dtype=np.int32),
                     np.array(offsets, dtype=np.int64))


def check_phrase_settings(min_count: int, threshold: float) -> None:
    """Refuse phrase-fitting settings out of range; PipelineConfig checks them here too."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if threshold <= 0:
        raise ValueError("threshold must be positive")


def fit_phrases(
    docs: TokenDocs | Iterable[Sequence[str]],
    min_count: int = DEFAULT_MIN_COUNT,
    threshold: float = DEFAULT_THRESHOLD,
) -> frozenset[tuple[str, str]]:
    """The adjacent pairs one merging pass joins into a single token.

    A pair (a, b) qualifies when its collocation score (Mikolov et al. 2013),
    (count(a b) - min_count) * total_tokens / (count(a) * count(b)), exceeds
    `threshold`; the counts are taken over `docs` and then dropped.
    """
    check_phrase_settings(min_count, threshold)
    docs = as_token_docs(docs)
    ids, names = docs.ids, docs.names
    total = len(ids)
    if total == 0:
        raise ValueError("cannot fit phrases on all-empty docs")
    token_counts = np.bincount(ids, minlength=len(names))
    key = ids[:-1].astype(np.int64) * len(names) + ids[1:]
    pair_keys, n_ab = np.unique(key[docs._pairs_within_docs()], return_counts=True)
    a, b = np.divmod(pair_keys, len(names))
    # Every count is below 2**53, so each product converts to float exactly
    # and the quotient rounds as Python's int / int does.
    score = (n_ab - min_count) * total / (token_counts[a] * token_counts[b])
    passed = score > threshold
    return frozenset((names[i], names[j])
                     for i, j in zip(a[passed].tolist(), b[passed].tolist()))


@dataclass
class PhrasePipeline:
    """Stacked merge sets; two passes turn qualifying trigrams into one token."""

    stages: list[frozenset[tuple[str, str]]] = field(default_factory=list)

    def merge(self, docs: TokenDocs) -> TokenDocs:
        for stage in self.stages:
            docs = docs.merge(stage)
        return docs

    def apply(self, tokens: Sequence[str]) -> list[str]:
        """One token list through every stage."""
        return self.merge(as_token_docs([tokens]))[0].tokens

    def to_dict(self) -> dict:
        return {"stages": [[list(pair) for pair in sorted(stage)] for stage in self.stages]}

    @classmethod
    def from_dict(cls, d: dict) -> "PhrasePipeline":
        return cls(stages=[frozenset((a, b) for a, b in stage) for stage in d["stages"]])


def apply_phrases(merges: frozenset[tuple[str, str]], tokens: Sequence[str]) -> list[str]:
    """Greedy left-to-right single merging pass over one token list."""
    return PhrasePipeline(stages=[merges]).apply(tokens)


def fit_phrase_pipeline(
    docs: TokenDocs | Sequence[TokenDoc] | Sequence[Sequence[str]],
    min_count: int = DEFAULT_MIN_COUNT,
    threshold: float = DEFAULT_THRESHOLD,
) -> PhrasePipeline:
    """Fit PHRASE_PASSES merging passes, refitting counts on the merged output.

    The second pass sees first-pass merges as single tokens, so a merged
    bigram can pair with a following token to form a trigram.
    """
    current = as_token_docs(docs)
    stages = []
    for _ in range(PHRASE_PASSES):
        merges = fit_phrases(current, min_count=min_count, threshold=threshold)
        stages.append(merges)
        current = current.merge(merges)
    return PhrasePipeline(stages=stages)


def merge_then_drop_stopwords(pipeline: PhrasePipeline, docs: TokenDocs) -> TokenDocs:
    """Merge phrases, then drop stopwords: phrase statistics need them, TF-IDF does not."""
    return pipeline.merge(docs).without_stopwords()


def _tokenize_posts(posts) -> TokenDocs:
    """The posts' tokens, each distinct whitespace token cleaned and tokenized once.

    Each raw token gets a code and each code a run of token ids; a post's
    ids are its raw tokens' runs in order.  The int32 temporaries are
    dropped as soon as they are used: a million raw tokens make each 4 MB.
    """
    raw_codes = _first_seen()  # distinct whitespace token -> code
    raw = array("i")  # every post's whitespace tokens as codes
    raw_offsets = [0]
    post_ids = []
    for post in posts:
        raw.extend(map(raw_codes.__getitem__, unicodedata.normalize("NFC", post.text).split()))
        raw_offsets.append(len(raw))
        post_ids.append(post.id)
    n_pieces = array("i")
    found_all: list[str] = []  # code 0's pieces, then code 1's, ...
    for word in raw_codes:
        found = tokenize(clean(word))
        n_pieces.append(len(found))
        found_all += found
    token_ids = _first_seen()
    pieces = array("i", map(token_ids.__getitem__, found_all))

    codes = np.frombuffer(raw, dtype=np.intc)
    run_length = np.frombuffer(n_pieces, dtype=np.intc)
    run_start = np.zeros(len(run_length) + 1, dtype=np.int32)
    np.cumsum(run_length, out=run_start[1:])
    lengths = run_length[codes]
    tokens_before = np.zeros(len(codes) + 1, dtype=np.int32)
    np.cumsum(lengths, out=tokens_before[1:])
    offsets = tokens_before[raw_offsets].astype(np.int64)
    # Token t of raw token r is entry t - tokens_before[r] of r's run.
    at = run_start[codes]
    at -= tokens_before[:-1]
    del tokens_before
    at = np.repeat(at, lengths)
    del lengths
    at += np.arange(len(at), dtype=np.int32)
    return TokenDocs(post_ids, list(token_ids), np.frombuffer(pieces, dtype=np.intc)[at],
                     offsets)


def build_token_docs(posts, pipeline: PhrasePipeline | None = None) -> TokenDocs:
    """clean + tokenize each post; given a pipeline, merge and drop stopwords.

    Each distinct whitespace token of the NFC-normalised texts is cleaned
    and tokenized once per call, into a run of token ids; a post's ids are
    its raw tokens' runs in order.  That equals `tokenize(clean(post.text))`:
    `clean` handles each whitespace token on its own, and its pieces hold no
    whitespace.

    Without a pipeline the tokens keep their stopwords, as phrase fitting
    needs them; with one they pass through `merge_then_drop_stopwords`.
    Fully-stripped posts come back as empty TokenDocs (kept, but logged).
    """
    docs = _tokenize_posts(posts)
    if pipeline is not None:
        docs = merge_then_drop_stopwords(pipeline, docs)
    n_empty = int(np.count_nonzero(np.diff(docs.offsets) == 0))
    if n_empty:
        logger.info("%d of %d posts tokenized to empty docs", n_empty, len(docs))
    return docs
