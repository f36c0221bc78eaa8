"""Post ingestion from local CSV/JSONL dumps, window filtering, alter ranking."""

from __future__ import annotations

import csv
import functools
import json
import logging
import operator
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from .errors import CorpusFormatError, open_text

logger = logging.getLogger(__name__)

CSV_COLUMNS = ["id", "author", "created_at", "text", "retweeted_author"]


def canonical_handle(handle: str | None) -> str | None:
    """Lowercase, strip a leading '@'; whitespace-only collapses to None."""
    if handle is None:
        return None
    handle = handle.strip()
    if handle.startswith("@"):
        handle = handle[1:]
    handle = handle.strip().lower()
    return handle or None


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    raw = raw.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


@dataclass(frozen=True, slots=True)
class Post:
    """One timestamped authored item; retweeted_author set when it retweets someone."""

    id: str
    author: str
    created_at: datetime
    text: str
    retweeted_author: str | None = None


@dataclass(frozen=True)
class Corpus:
    """Window-filtered posts, sorted ascending by (created_at, id)."""

    posts: tuple[Post, ...]
    window_start: datetime
    window_end: datetime

    def __len__(self) -> int:
        return len(self.posts)

    def __iter__(self):
        return iter(self.posts)

    def to_jsonl(self) -> str:
        """Canonical serialization; identical corpora produce identical bytes."""
        lines = [json.dumps({"id": p.id, "author": p.author,
                             "created_at": p.created_at.isoformat(), "text": p.text,
                             "retweeted_author": p.retweeted_author},
                            sort_keys=True, ensure_ascii=False, separators=(",", ":"))
                 for p in self.posts]
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class IngestResult:
    """Corpus plus bookkeeping on what the loader had to drop."""

    corpus: Corpus
    dropped_out_of_window: int = 0
    dropped_malformed: int = 0
    dropped_duplicate: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_out_of_window + self.dropped_malformed + self.dropped_duplicate


def record_id(value) -> str:
    """The id a corpus or embeddings row holds: a string (stripped, not empty) or
    a JSON integer that is not a bool, so `1` and `"1"` are one id and `1.0` none."""
    if type(value) is int:
        return str(value)
    if not isinstance(value, str):
        raise TypeError(f"id {value!r} is not a string or an integer")
    post_id = value.strip()
    if not post_id:
        raise ValueError("empty id")
    return post_id


def _post_from_cells(raw_id, raw_author, raw_created, raw_text, raw_retweeted,
                     handle) -> Post:
    """The post a row's cells hold, its id by `record_id`, its handles by
    `handle` and its other fields strings; a bad row raises TypeError or
    ValueError."""
    # A JSON null, or a cell a short CSV row lacks, is missing, not the text "None".
    if raw_id is None or raw_author is None or raw_created is None:
        raise ValueError("missing " + ", ".join(
            name for name, cell in (("id", raw_id), ("author", raw_author),
                                    ("created_at", raw_created)) if cell is None))
    if not (isinstance(raw_author, str) and isinstance(raw_created, str)
            and isinstance(raw_text, (str, type(None)))
            and isinstance(raw_retweeted, (str, type(None)))):
        name, cell = next((name, cell) for name, cell in (
            ("author", raw_author), ("created_at", raw_created), ("text", raw_text),
            ("retweeted_author", raw_retweeted)) if not isinstance(cell, (str, type(None))))
        raise TypeError(f"{name} {cell!r} is not a string")
    post_id = record_id(raw_id)
    author = handle(raw_author)
    created_at = parse_timestamp(raw_created)
    text = raw_text or ""
    if author is None:
        raise ValueError("empty author")
    return Post(post_id, author, created_at, text, handle(raw_retweeted or None))


def _record_cells(record: dict | None) -> tuple:
    """A JSONL record's cells in CSV_COLUMNS order; a missing required key raises KeyError."""
    if record is None:
        raise ValueError("not a JSON object")
    return (record["id"], record["author"], record["created_at"], record.get("text", ""),
            record.get("retweeted_author"))


def _iter_csv(path: Path):
    # Read as csv.DictReader would: blank lines are skipped, a short row's
    # missing fields are None, extra fields are ignored, and of a repeated
    # header name the last column wins.  Each row yields its CSV_COLUMNS cells.
    with open_text(path, CorpusFormatError, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not set(CSV_COLUMNS).issubset(header):
            raise CorpusFormatError(f"{path}: CSV header must contain {CSV_COLUMNS}")
        column = {name: i for i, name in enumerate(header)}
        picks = [column[name] for name in CSV_COLUMNS]
        width = max(picks) + 1
        pick = operator.itemgetter(*picks)
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                row += [None] * (width - len(row))
            # line_num: the file line a row ends on, blank lines counted
            yield reader.line_num, pick(row)


def _iter_jsonl(path: Path):
    # Unparseable lines yield a None record so the caller can apply the same
    # lenient/strict policy it uses for bad field values.
    with open_text(path, CorpusFormatError) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                yield lineno, None
                continue
            yield lineno, record if isinstance(record, dict) else None


def load_corpus(
    path,
    format: str,
    window: tuple[datetime, datetime],
    strict: bool = False,
) -> IngestResult:
    """Load posts from a CSV or JSONL dump, keeping only in-window rows.

    Lenient mode (default) skips malformed rows and duplicate ids
    (keep-first), counting each drop; strict mode fails on the first one.
    A byte that is not UTF-8 is a fault of the file, refused in both modes.
    Window bounds are inclusive.  An empty result is allowed but flagged.
    """
    path = Path(path)
    if format not in ("csv", "jsonl"):
        raise ValueError(f"format must be 'csv' or 'jsonl', got {format!r}")
    start, end = window
    if start.tzinfo is None:
        start = start.replace(tzinfo=timezone.utc)
    if end.tzinfo is None:
        end = end.replace(tzinfo=timezone.utc)
    if start > end:
        raise ValueError("window start must not be after end")
    if not path.exists():
        raise CorpusFormatError(f"{path}: no such file")

    from_csv = format == "csv"
    rows = _iter_csv(path) if from_csv else _iter_jsonl(path)
    result = IngestResult(corpus=Corpus(posts=(), window_start=start, window_end=end))
    # Each distinct author or retweeted_author cell is canonicalised once.
    handle = functools.cache(canonical_handle)
    seen_ids: set[str] = set()
    kept: list[Post] = []
    for lineno, row in rows:
        try:
            post = _post_from_cells(*(row if from_csv else _record_cells(row)), handle)
        except (KeyError, TypeError, ValueError) as exc:
            error = CorpusFormatError(f"{path}:{lineno}: {exc}")
            if strict:
                raise error from exc
            result.dropped_malformed += 1
            logger.debug("skipping malformed row: %s", error)
            continue
        if post.id in seen_ids:
            if strict:
                raise CorpusFormatError(f"{path}:{lineno}: duplicate id {post.id!r}")
            result.dropped_duplicate += 1
            continue
        seen_ids.add(post.id)
        if not start <= post.created_at <= end:
            result.dropped_out_of_window += 1
            continue
        kept.append(post)

    posts = tuple(sorted(kept, key=operator.attrgetter("created_at", "id")))
    result.corpus = Corpus(posts=posts, window_start=start, window_end=end)
    if not posts:
        logger.warning("%s: no posts inside window %s..%s",
                       path, start.isoformat(), end.isoformat())
    return result


@dataclass(frozen=True)
class AlterRanking:
    """Handles ranked by how often the ego retweeted them."""

    entries: tuple[tuple[str, int], ...]
    excluded: frozenset[str]


def check_rank_n(n: int) -> None:
    """Refuse a ranking length below 1; PipelineConfig checks n_alters here too."""
    if n < 1:
        raise ValueError("n must be >= 1")


def rank_alters(
    corpus: Corpus,
    ego_handle: str,
    exclude: Iterable[str] = (),
    n: int = 12,
) -> AlterRanking:
    """Top-n authors the ego retweeted, excluding the ego itself and `exclude`.

    Only the ego's own posts count; retweets by other accounts in the corpus
    are ignored.  Counts descend; exact ties break lexicographically by
    handle.  Returns fewer than n entries when the corpus has fewer distinct
    retweeted authors.
    """
    check_rank_n(n)
    ego_canon = canonical_handle(ego_handle)
    excluded = frozenset(h for h in (canonical_handle(e) for e in exclude) if h)

    skip = excluded | {None, ego_canon}
    counts = Counter(post.retweeted_author for post in corpus.posts
                     if post.author == ego_canon and post.retweeted_author not in skip)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:n]
    if not ranked:
        logger.warning("rank_alters: corpus has no qualifying retweets")
    return AlterRanking(entries=tuple(ranked), excluded=excluded)
