"""Weekly per-(account, topic) count series on a shared Monday-aligned grid."""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from itertools import repeat
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import Post, canonical_handle
from .errors import open_text

_COUNT_MAX = np.iinfo(int).max  # the largest count a TopicSeries can hold (int64)
_COLUMNS = ("week_start", "account", "topic", "count")  # a series CSV's required columns
_CHUNK_BYTES = 256 * 1024  # bytes per read of the chunked reader, cut at the last newline
_CELL_BYTES = 64  # a longer cell sends the file to the row loop
_INT_DIGITS = 18  # the most topic or count digits the chunked reader parses: 18 fit int64
_COMMA, _NEWLINE = ord(","), ord("\n")
_ROW_LOOP_BYTES = b'"\r\0'  # quotes and CR follow csv.reader's rules; NUL pads cell keys
_INT_CELL = re.compile(r"-?[0-9]+")  # a topic or count cell: ASCII digits, no '+' or space


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
    writer.writerow(_COLUMNS)
    week_starts: dict[WeekIndex, list[str]] = {}  # each index's ISO dates, formatted once
    for s in sorted(series, key=lambda s: (s.account, s.topic)):
        index = s.week_index
        if index not in week_starts:
            week_starts[index] = [index.week_start(w).isoformat() for w in range(index.n_weeks)]
        writer.writerows(zip(week_starts[index], repeat(s.account), repeat(s.topic),
                             s.counts.tolist()))


def write_series_csv(series: Sequence[TopicSeries], path) -> None:
    """The interchange CSV of `series` (see write_series_rows) at `path`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_series_rows(series, fh)


def read_series_csv(path) -> list[TopicSeries]:
    """Inverse of write_series_csv; reconstructs the shared WeekIndex.

    Accounts pass through `canonical_handle`, as every other handle does.
    Raises ValueError naming the CSV line of a short row, a cell that does not
    parse (week_start as an ISO date, topic and count as ASCII `-?[0-9]+`), an
    empty account or one holding a NUL byte, a repeated (account, topic,
    week_start) row (after canonicalising the account), a negative count, a
    count above the int64 range, or a week_start that is not a whole number
    of weeks after the earliest one.

    A file that `write_series_csv` could have written is parsed in byte
    chunks with NumPy: UTF-8 without quotes, carriage returns or NUL bytes,
    a final newline, every row as many cells as the header, no cell longer
    than `_CELL_BYTES`, topic and count of 1-18 ASCII digits, and every row
    valid.  Any other file (quoted or CRLF ones, blank lines, ragged rows, a
    bad cell, a header-only file) is read by the `csv.reader` row loop,
    which gives the same series and is the only source of error messages.
    """
    series = _read_series_chunks(path)
    return series if series is not None else _read_series_rows(path)


def _read_series_rows(path) -> list[TopicSeries]:
    """read_series_csv as a `csv.reader` loop: the general path and the error reporter."""
    cells: dict[tuple[str, int], dict[date, int]] = {}
    weeks: dict[str, date] = {}  # each distinct week_start cell, parsed once
    accounts: dict[str, str | None] = {}  # each distinct account cell, canonicalised once
    week_lines: dict[date, int] = {}  # first CSV line of each week_start
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        column = {name: i for i, name in enumerate(header)}
        if not set(_COLUMNS).issubset(column):
            raise ValueError(f"{path}: series CSV must have columns {sorted(_COLUMNS)}")
        i_week, i_account, i_topic, i_count = (column[name] for name in _COLUMNS)
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
                topic = int_cell(row[i_topic])
                count = int_cell(row[i_count])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            week = weeks[cell_week]
            if cell_account not in accounts:
                if "\0" in cell_account:
                    raise ValueError(f"{path}:{lineno}: NUL byte in account {cell_account!r}")
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


def int_cell(cell: str) -> int:
    """A series or labels CSV topic or count cell as an int; it must match `_INT_CELL`."""
    if not _INT_CELL.fullmatch(cell):
        raise ValueError(f"invalid integer {cell!r}")
    return int(cell)


def _read_series_chunks(path) -> list[TopicSeries] | None:
    """read_series_csv over byte chunks, or None for a file only the row loop takes."""
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n") or _needs_row_loop(header):
            return None
        cells = header[:-1].split(b",")
        if max(map(len, cells)) > _CELL_BYTES:
            return None
        column = {cell.decode("utf-8"): i for i, cell in enumerate(cells)}
        if not set(_COLUMNS).issubset(column):
            return None
        reader = _ChunkRows(len(cells), [column[name] for name in _COLUMNS])
        rest = b""
        while block := fh.read(_CHUNK_BYTES):
            data = rest + block
            cut = data.rfind(b"\n") + 1
            if cut and not reader.add(data[:cut]):
                return None
            rest = data[cut:]
            if len(rest) > len(cells) * (_CELL_BYTES + 1):
                return None  # a line longer than any this reader takes
    if rest:
        return None  # no final newline
    return reader.series()


def _needs_row_loop(data: bytes) -> bool:
    """True if `data` holds a byte only csv.reader reads right, or is not UTF-8."""
    if any(b in data for b in _ROW_LOOP_BYTES):
        return True
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


class _ChunkRows:
    """The rows of a series CSV, added one chunk of whole lines at a time.

    Each distinct week cell is parsed with `date.fromisoformat` and each
    distinct account cell canonicalised once, keyed by its bytes; each
    distinct (account, topic) pair gets the next row of the count grid.
    `add` returns False for a chunk the row loop must read.
    """

    def __init__(self, n_cells: int, columns: list[int]):
        self.n_cells = n_cells
        self.columns = columns  # cell positions of week_start, account, topic, count
        self.days: dict[bytes, int] = {}  # week cell -> date ordinal
        self.slots: dict[bytes, int] = {}  # account cell -> slot of its canonical account
        self.accounts: dict[str, int] = {}  # canonical account -> slot, in order of first sight
        self.pairs: dict[tuple[int, int], int] = {}  # (slot, topic) -> grid row
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # grid row, day, count

    def add(self, lines: bytes) -> bool:
        if _needs_row_loop(lines):
            return False
        # The lines with _CELL_BYTES zero bytes on each side, so that a window
        # of up to that many bytes from any cell's start or end stays inside.
        buf = np.zeros(len(lines) + 2 * _CELL_BYTES, dtype=np.uint8)
        buf[_CELL_BYTES:-_CELL_BYTES] = np.frombuffer(lines, dtype=np.uint8)
        sep = np.flatnonzero((buf == _COMMA) | (buf == _NEWLINE))
        if len(sep) % self.n_cells:
            return False
        ends = sep.reshape(-1, self.n_cells)
        kinds = buf[ends]
        if (kinds[:, :-1] != _COMMA).any() or (kinds[:, -1] != _NEWLINE).any():
            return False  # a blank line, or a row whose cell count is not the header's
        starts = np.empty_like(ends)
        starts.flat[0] = _CELL_BYTES
        starts.flat[1:] = sep[:-1] + 1
        if (ends - starts).max() > _CELL_BYTES:
            return False
        i_week, i_account, i_topic, i_count = self.columns
        topic = _digit_cells(buf, starts[:, i_topic], ends[:, i_topic])
        count = _digit_cells(buf, starts[:, i_count], ends[:, i_count])
        day = _keyed_cells(buf, starts[:, i_week], ends[:, i_week], self.days, _day_ordinal)
        slot = _keyed_cells(buf, starts[:, i_account], ends[:, i_account], self.slots,
                            self._slot)
        if topic is None or count is None or day is None or slot is None:
            return False
        self.chunks.append((self._grid_rows(slot, topic), day, count))
        return True

    def _slot(self, cell: str) -> int | None:
        account = canonical_handle(cell)
        if account is None:
            return None
        return self.accounts.setdefault(account, len(self.accounts))

    def _grid_rows(self, slot: np.ndarray, topic: np.ndarray) -> np.ndarray:
        """Each row's grid row: one per distinct (account, topic), in order of first sight."""
        topics, topic_code = np.unique(topic, return_inverse=True)
        keys, inverse = np.unique(slot * len(topics) + topic_code, return_inverse=True)
        rows = [
            self.pairs.setdefault(pair, len(self.pairs))
            for pair in zip((keys // len(topics)).tolist(), topics[keys % len(topics)].tolist())
        ]
        return np.array(rows, dtype=np.int64)[inverse]

    def series(self) -> list[TopicSeries] | None:
        """The series of every row added, or None if the rows are not a valid file."""
        if not self.chunks:
            return None  # header only
        row, day, count = (np.concatenate(column) for column in zip(*self.chunks))
        self.chunks.clear()
        epoch = int(day.min())
        offset = day - epoch
        if (offset % 7).any():
            return None  # a week off the 7-day grid
        n_weeks = int(offset.max()) // 7 + 1
        cell = row * n_weeks + offset // 7
        if np.bincount(cell).max() > 1:
            return None  # a repeated (account, topic, week) row
        grid = np.zeros((len(self.pairs), n_weeks), dtype=int)
        grid.reshape(-1)[cell] = count
        index = WeekIndex(epoch_week_start=date.fromordinal(epoch), n_weeks=n_weeks)
        names = list(self.accounts)
        keyed = sorted((names[slot], topic, i) for (slot, topic), i in self.pairs.items())
        return [
            TopicSeries(account=account, topic=topic, counts=grid[i], week_index=index)
            for account, topic, i in keyed
        ]


def _day_ordinal(cell: str) -> int | None:
    try:
        return date.fromisoformat(cell).toordinal()
    except ValueError:
        return None


def _keyed_cells(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 known: dict[bytes, int], parse) -> np.ndarray | None:
    """Each cell's value, parsing each distinct cell once through `known`.

    `parse` maps a new cell's text to its value, or to None when the row
    loop must read the file.
    """
    lengths = ends - starts
    width = 8 * max(-(-int(lengths.max()) // 8), 1)
    inside = np.arange(width) < lengths[:, None]
    cells = sliding_window_view(buf, width)[starts] * inside
    # Distinct cells as distinct rows of 8-byte words: integers sort faster than bytes.
    words = cells.view(np.uint64)
    code = np.unique(words[:, 0], return_inverse=True)[1]
    for word in words.T[1:]:
        distinct, inverse = np.unique(word, return_inverse=True)
        code = np.unique(code * len(distinct) + inverse, return_inverse=True)[1]
    first = np.empty(int(code.max()) + 1, dtype=np.intp)
    first[code] = np.arange(len(code))  # a row of each distinct cell
    values = []
    for key in cells.view(f"S{width}")[first, 0].tolist():
        if key not in known:
            value = parse(key.decode("utf-8"))
            if value is None:
                return None
            known[key] = value
        values.append(known[key])
    return np.array(values, dtype=np.int64)[code]


def _digit_cells(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """Cells of 1.._INT_DIGITS ASCII digits as int64, or None if any cell is not one."""
    lengths = ends - starts
    if lengths.min() < 1 or lengths.max() > _INT_DIGITS:
        return None
    width = int(lengths.max())
    place = np.arange(width - 1, -1, -1)  # the power of ten of each column
    inside = place < lengths[:, None]
    digits = (sliding_window_view(buf, width)[ends - width] - np.uint8(ord("0"))) * inside
    if (digits > 9).any():
        return None
    return digits.astype(np.int64) @ 10 ** place
