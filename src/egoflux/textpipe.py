"""Text cleaning, tokenization, and bigram/trigram phrase merging.

A phrase stage is the set of adjacent token pairs it merges; the unigram and
pair counts behind it are used while fitting and then dropped.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

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
    stop = english_stopwords()
    return [t for t in tokens if t not in stop]


def fit_phrases(
    docs: Iterable[Sequence[str]],
    min_count: int = DEFAULT_MIN_COUNT,
    threshold: float = DEFAULT_THRESHOLD,
) -> frozenset[tuple[str, str]]:
    """The adjacent pairs one merging pass joins into a single token.

    A pair (a, b) qualifies when its collocation score (Mikolov et al. 2013),
    (count(a b) - min_count) * total_tokens / (count(a) * count(b)), exceeds
    `threshold`; the counts are taken over `docs` and then dropped.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    token_counts: dict[str, int] = {}
    pair_counts: dict[tuple[str, str], int] = {}
    total = 0
    for doc in docs:
        for token in doc:
            token_counts[token] = token_counts.get(token, 0) + 1
            total += 1
        for a, b in zip(doc, doc[1:]):
            pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1
    if total == 0:
        raise ValueError("cannot fit phrases on all-empty docs")
    return frozenset(
        (a, b) for (a, b), n_ab in pair_counts.items()
        if (n_ab - min_count) * total / (token_counts[a] * token_counts[b]) > threshold
    )


def apply_phrases(merges: frozenset[tuple[str, str]], tokens: Sequence[str]) -> list[str]:
    """Greedy left-to-right single merging pass over one token list."""
    if not merges:
        return list(tokens)
    out: list[str] = []
    i = 0
    while i < len(tokens):
        if i + 1 < len(tokens) and (tokens[i], tokens[i + 1]) in merges:
            out.append(tokens[i] + PHRASE_JOIN + tokens[i + 1])
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    return out


@dataclass
class PhrasePipeline:
    """Stacked merge sets; two passes turn qualifying trigrams into one token."""

    stages: list[frozenset[tuple[str, str]]] = field(default_factory=list)

    def apply(self, tokens: Sequence[str]) -> list[str]:
        merged = list(tokens)
        for stage in self.stages:
            merged = apply_phrases(stage, merged)
        return merged

    def to_dict(self) -> dict:
        return {"schema_version": 2,
                "stages": [[list(pair) for pair in sorted(stage)] for stage in self.stages]}

    @classmethod
    def from_dict(cls, d: dict) -> "PhrasePipeline":
        return cls(stages=[frozenset((a, b) for a, b in stage) for stage in d["stages"]])


def fit_phrase_pipeline(
    docs: Sequence[TokenDoc] | Sequence[Sequence[str]],
    min_count: int = DEFAULT_MIN_COUNT,
    threshold: float = DEFAULT_THRESHOLD,
) -> PhrasePipeline:
    """Fit PHRASE_PASSES merging passes, refitting counts on the merged output.

    The second pass sees first-pass merges as single tokens, so a merged
    bigram can pair with a following token to form a trigram.
    """
    current = [list(d.tokens) if isinstance(d, TokenDoc) else list(d) for d in docs]
    stages = []
    for _ in range(PHRASE_PASSES):
        merges = fit_phrases(current, min_count=min_count, threshold=threshold)
        stages.append(merges)
        current = [apply_phrases(merges, doc) for doc in current]
    return PhrasePipeline(stages=stages)


def merge_then_drop_stopwords(pipeline: PhrasePipeline, tokens: Sequence[str]) -> list[str]:
    """Merge phrases, then drop stopwords: phrase statistics need them, TF-IDF does not."""
    return remove_stopwords(pipeline.apply(tokens))


def build_token_docs(posts, pipeline: PhrasePipeline | None = None) -> list[TokenDoc]:
    """clean + tokenize each post; given a pipeline, merge and drop stopwords.

    Each distinct whitespace token of the NFC-normalised texts is cleaned
    and tokenized once per call; a post's tokens are its raw tokens' pieces
    in order.  That equals `tokenize(clean(post.text))`: `clean` handles each
    whitespace token on its own, and its pieces hold no whitespace.

    Without a pipeline the tokens keep their stopwords, as phrase fitting
    needs them; with one they pass through `merge_then_drop_stopwords`.
    Fully-stripped posts come back as empty TokenDocs (kept, but logged).
    """
    # Tuples of strings, unlike lists, drop out of the cyclic GC's tracking.
    pieces_of: dict[str, tuple[str, ...]] = {}
    docs = []
    n_empty = 0
    for post in posts:
        tokens: list[str] = []
        for raw in unicodedata.normalize("NFC", post.text).split():
            pieces = pieces_of.get(raw)
            if pieces is None:
                pieces = pieces_of[raw] = tuple(tokenize(clean(raw)))
            tokens += pieces
        if pipeline is not None:
            tokens = merge_then_drop_stopwords(pipeline, tokens)
        if not tokens:
            n_empty += 1
        docs.append(TokenDoc(post_id=post.id, tokens=tokens))
    if n_empty:
        logger.info("%d of %d posts tokenized to empty docs", n_empty, len(docs))
    return docs
