"""Weekly per-(account, topic) count series on a shared Monday-aligned grid."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .corpus import Post, canonical_handle

_COUNT_MAX = np.iinfo(int).max  # the largest count a TopicSeries can hold (int64)


def _utc_date(ts: datetime) -> date:
    if ts.tzinfo is None:
        return ts.date()
    return ts.astimezone(timezone.utc).date()


@dataclass(frozen=True)
class WeekIndex:
    """Consecutive 7-day bins starting on the first Monday <= window_start (UTC)."""

    epoch_week_start: date
    n_weeks: int

    def bin_of(self, ts: datetime) -> int:
        days = (_utc_date(ts) - self.epoch_week_start).days
        week = days // 7
        if days < 0 or week >= self.n_weeks:
            raise ValueError(f"timestamp {ts.isoformat()} outside week index span")
        return week

    def week_start(self, week: int) -> date:
        if not 0 <= week < self.n_weeks:
            raise IndexError(week)
        return self.epoch_week_start + timedelta(days=7 * week)


def build_week_index(window: tuple[datetime, datetime]) -> WeekIndex:
    """Monday-aligned weekly bins covering [window_start, window_end]."""
    start, end = window
    if start > end:
        raise ValueError("window start must not be after end")
    start_date = _utc_date(start)
    end_date = _utc_date(end)
    epoch = start_date - timedelta(days=start_date.weekday())
    n_weeks = (end_date - epoch).days // 7 + 1
    return WeekIndex(epoch_week_start=epoch, n_weeks=n_weeks)


@dataclass
class TopicSeries:
    """Weekly counts of one account's posts on one topic."""

    account: str
    topic: int
    counts: np.ndarray
    week_index: WeekIndex

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=int)
        if len(self.counts) != self.week_index.n_weeks:
            raise ValueError("counts length must equal the week index length")


def _refuse_post(post: Post, labels: Mapping[str, int], week_index: WeekIndex,
                 n_topics: int) -> None:
    """Raise bin_posts' error for a post it cannot count."""
    try:
        topic = labels[post.id]
    except KeyError:
        raise ValueError(f"post {post.id!r} has no topic label") from None
    if not 0 <= topic < n_topics:
        raise ValueError(f"label {topic} for post {post.id!r} outside 0..{n_topics - 1}")
    week_index.bin_of(post.created_at)


def bin_posts(
    posts: Iterable[Post],
    labels: Mapping[str, int],
    week_index: WeekIndex,
    n_topics: int,
    accounts: Sequence[str] | None = None,
) -> list[TopicSeries]:
    """Count labeled posts per (account, topic, week).

    Every post must fall inside the index span and carry a label in
    0..n_topics-1; the first post that does not is named.  Accounts (or
    topics) with zero posts still yield all-zero series; pass `accounts` to
    force series for accounts absent from `posts`.
    """
    posts = list(posts)
    n, n_weeks = len(posts), week_index.n_weeks
    names = sorted({*(accounts or ()), *(p.author for p in posts)})
    slot = {name: i for i, name in enumerate(names)}
    # A missing label reads as -1, which is out of range like any bad label.
    topics = np.fromiter((labels.get(p.id, -1) for p in posts), dtype=np.int64, count=n)
    # Days since the first Monday, as WeekIndex.bin_of counts them.
    origin = datetime.combine(week_index.epoch_week_start, time(), tzinfo=timezone.utc)
    naive_origin = origin.replace(tzinfo=None)
    days = np.fromiter(
        ((ts - (naive_origin if ts.tzinfo is None else origin)).days
         for ts in (p.created_at for p in posts)), dtype=np.int64, count=n)
    weeks = days // 7
    bad = np.flatnonzero((topics < 0) | (topics >= n_topics) | (days < 0) | (weeks >= n_weeks))
    if len(bad):
        _refuse_post(posts[bad[0]], labels, week_index, n_topics)
    slots = np.fromiter((slot[p.author] for p in posts), dtype=np.int64, count=n)
    grids = np.bincount((slots * n_topics + topics) * n_weeks + weeks,
                        minlength=len(names) * n_topics * n_weeks)
    grids = grids.reshape(len(names), n_topics, n_weeks)
    return [
        TopicSeries(account=account, topic=topic, counts=grids[i, topic], week_index=week_index)
        for i, account in enumerate(names)
        for topic in range(n_topics)
    ]


def write_series_rows(series: Sequence[TopicSeries], fh: TextIO) -> None:
    """Interchange CSV: week_start, account, topic, count (all cells, zeros included)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["week_start", "account", "topic", "count"])
    for s in sorted(series, key=lambda s: (s.account, s.topic)):
        for week in range(s.week_index.n_weeks):
            writer.writerow(
                [s.week_index.week_start(week).isoformat(), s.account, s.topic, int(s.counts[week])]
            )


def write_series_csv(series: Sequence[TopicSeries], path) -> None:
    """The interchange CSV of `series` (see write_series_rows) at `path`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_series_rows(series, fh)


def read_series_csv(path) -> list[TopicSeries]:
    """Inverse of write_series_csv; reconstructs the shared WeekIndex.

    Accounts pass through `canonical_handle`, as every other handle does.
    Raises ValueError naming the CSV line of a short row, a cell that does not
    parse (week_start as an ISO date, topic and count as integers), an empty
    account, a repeated (account, topic, week_start) row (after
    canonicalising the account), a negative count, a count above the int64
    range, or a week_start that is not a whole number of weeks after the
    earliest one.
    """
    cells: dict[tuple[str, int], dict[date, int]] = {}
    weeks: dict[str, date] = {}  # each distinct week_start cell, parsed once
    accounts: dict[str, str | None] = {}  # each distinct account cell, canonicalised once
    week_lines: dict[date, int] = {}  # first CSV line of each week_start
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        column = {name: i for i, name in enumerate(header)}
        required = ("week_start", "account", "topic", "count")
        if not set(required).issubset(column):
            raise ValueError(f"{path}: series CSV must have columns {sorted(required)}")
        i_week, i_account, i_topic, i_count = (column[name] for name in required)
        width = max(i_week, i_account, i_topic, i_count) + 1
        for row in reader:
            if not row:
                continue  # a blank line is skipped
            lineno = reader.line_num
            if len(row) < width:
                raise ValueError(f"{path}:{lineno}: row has too few cells")
            cell_week, cell_account = row[i_week], row[i_account]
            try:
                if cell_week not in weeks:
                    weeks[cell_week] = date.fromisoformat(cell_week)
                topic = int(row[i_topic])
                count = int(row[i_count])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            week = weeks[cell_week]
            if cell_account not in accounts:
                accounts[cell_account] = canonical_handle(cell_account)
            account = accounts[cell_account]
            if account is None:
                raise ValueError(f"{path}:{lineno}: empty account")
            if count < 0:
                raise ValueError(f"{path}:{lineno}: negative count {count}")
            if count > _COUNT_MAX:
                raise ValueError(f"{path}:{lineno}: count {count} out of range")
            key = (account, topic)
            by_week = cells.setdefault(key, {})
            if week in by_week:
                raise ValueError(f"{path}:{lineno}: repeated row for {key} in week {week}")
            by_week[week] = count
            week_lines.setdefault(week, lineno)
    if not week_lines:
        raise ValueError(f"{path}: series CSV is empty")

    epoch = min(week_lines)
    for week, lineno in week_lines.items():
        if (week - epoch).days % 7:
            raise ValueError(
                f"{path}:{lineno}: week_start {week} is not a whole number of weeks after {epoch}"
            )
    n_weeks = (max(week_lines) - epoch).days // 7 + 1
    index = WeekIndex(epoch_week_start=epoch, n_weeks=n_weeks)
    slot = {week: (week - epoch).days // 7 for week in week_lines}
    out = []
    for (account, topic), by_week in sorted(cells.items()):
        counts = np.zeros(n_weeks, dtype=int)
        counts[[slot[week] for week in by_week]] = list(by_week.values())
        out.append(TopicSeries(account=account, topic=topic, counts=counts, week_index=index))
    return out
