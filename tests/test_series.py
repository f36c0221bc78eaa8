"""Weekly binning: Monday alignment, conservation, CSV interchange."""

from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from egoflux import series as series_module
from egoflux.cli import main
from egoflux.corpus import Post
from egoflux.series import (
    TopicSeries,
    WeekIndex,
    bin_posts,
    build_week_index,
    read_series_csv,
    write_series_csv,
)
from tests.conftest import make_post


def window(start_iso, end_iso):
    return (
        datetime.fromisoformat(start_iso).replace(tzinfo=timezone.utc),
        datetime.fromisoformat(end_iso).replace(tzinfo=timezone.utc),
    )


class TestWeekIndex:
    def test_epoch_is_monday_on_or_before_start(self):
        # 2020-01-08 was a Wednesday; the preceding Monday is 2020-01-06
        idx = build_week_index(window("2020-01-08T12:00:00", "2020-02-08T00:00:00"))
        assert idx.epoch_week_start == date(2020, 1, 6)
        assert idx.epoch_week_start.weekday() == 0

    def test_monday_start_unchanged(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-01-19T23:59:59"))
        assert idx.epoch_week_start == date(2020, 1, 6)
        assert idx.n_weeks == 2

    def test_span_covers_end(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-01-20T00:00:00"))
        assert idx.n_weeks == 3
        assert idx.week_start(2) == date(2020, 1, 20)
        for week in (-1, 3):
            with pytest.raises(IndexError):
                idx.week_start(week)

    def test_sunday_and_monday_straddle(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-01-31T00:00:00"))
        sunday = datetime(2020, 1, 12, 23, 59, 59, tzinfo=timezone.utc)
        monday = datetime(2020, 1, 13, 0, 0, 0, tzinfo=timezone.utc)
        assert idx.bin_of(sunday) == 0
        assert idx.bin_of(monday) == 1

    def test_utc_normalization(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-01-31T00:00:00"))
        # 01:00+02:00 on Monday the 13th is Sunday 23:00 UTC -> week 0
        late = datetime(2020, 1, 13, 1, 0, tzinfo=timezone(timedelta(hours=2)))
        assert idx.bin_of(late) == 0

    def test_out_of_span_rejected(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-01-12T23:59:59"))
        with pytest.raises(ValueError):
            idx.bin_of(datetime(2020, 1, 13, tzinfo=timezone.utc))
        with pytest.raises(ValueError):
            idx.bin_of(datetime(2020, 1, 5, tzinfo=timezone.utc))

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            build_week_index(window("2020-02-01T00:00:00", "2020-01-01T00:00:00"))

    def test_shift_by_seven_days_shifts_bins(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-03-31T00:00:00"))
        rng = np.random.default_rng(0)
        for _ in range(25):
            ts = datetime(2020, 1, 6, tzinfo=timezone.utc) + timedelta(
                days=int(rng.integers(0, 70)), seconds=int(rng.integers(0, 86400))
            )
            assert idx.bin_of(ts + timedelta(days=7)) == idx.bin_of(ts) + 1


class TestBinPosts:
    def _posts(self):
        return [
            make_post("a", "ego", "2020-01-06T10:00:00", "x"),
            make_post("b", "ego", "2020-01-07T10:00:00", "x"),
            make_post("c", "ego", "2020-01-14T10:00:00", "x"),
            make_post("d", "alt", "2020-01-06T10:00:00", "x"),
        ]

    def test_counts_by_account_topic_week(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-01-19T23:59:59"))
        labels = {"a": 0, "b": 1, "c": 0, "d": 0}
        series = bin_posts(self._posts(), labels, idx, n_topics=2)
        by_key = {(s.account, s.topic): s.counts for s in series}
        np.testing.assert_array_equal(by_key[("ego", 0)], [1, 1])
        np.testing.assert_array_equal(by_key[("ego", 1)], [1, 0])
        np.testing.assert_array_equal(by_key[("alt", 0)], [1, 0])
        np.testing.assert_array_equal(by_key[("alt", 1)], [0, 0])

    def test_conservation(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-01-19T23:59:59"))
        posts = self._posts()
        labels = {"a": 0, "b": 1, "c": 0, "d": 0}
        series = bin_posts(posts, labels, idx, n_topics=2)
        for account in ("ego", "alt"):
            total = sum(int(s.counts.sum()) for s in series if s.account == account)
            assert total == sum(1 for p in posts if p.author == account)

    def test_missing_label_rejected(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-01-19T23:59:59"))
        with pytest.raises(ValueError, match="c"):
            bin_posts(self._posts(), {"a": 0, "b": 0, "d": 0}, idx, n_topics=1)

    def test_label_out_of_range_rejected(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-01-19T23:59:59"))
        labels = {"a": 0, "b": 2, "c": 0, "d": 0}
        with pytest.raises(ValueError, match="b"):
            bin_posts(self._posts(), labels, idx, n_topics=2)

    def test_post_outside_span_rejected(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-01-12T23:59:59"))
        labels = {"a": 0, "b": 0, "c": 0, "d": 0}
        with pytest.raises(ValueError, match=r"^post 'c': timestamp 2020-01-14T10:00:00\+00:00 "
                                             r"outside week index span$"):
            bin_posts(self._posts(), labels, idx, n_topics=1)

    def test_forced_accounts_all_zero(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-01-19T23:59:59"))
        series = bin_posts([], {}, idx, n_topics=2, accounts=["ghost"])
        assert {(s.account, s.topic) for s in series} == {("ghost", 0), ("ghost", 1)}
        for s in series:
            assert s.counts.sum() == 0

    def test_output_sorted_by_account_then_topic(self):
        idx = build_week_index(window("2020-01-06T00:00:00", "2020-01-19T23:59:59"))
        labels = {"a": 0, "b": 1, "c": 0, "d": 0}
        series = bin_posts(self._posts(), labels, idx, n_topics=2)
        keys = [(s.account, s.topic) for s in series]
        assert keys == sorted(keys)


class TestSeriesCsv:
    def _series(self):
        idx = WeekIndex(epoch_week_start=date(2020, 1, 6), n_weeks=3)
        return [
            TopicSeries("ego", 0, np.array([3, 0, 1]), idx),
            TopicSeries("ego", 1, np.array([0, 2, 0]), idx),
            TopicSeries("alt", 0, np.array([1, 1, 1]), idx),
        ]

    def test_not_utf8_named(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes("week_start,account,topic,count\n2020-01-06,caf\u00e9,0,3\n"
                         .encode("latin-1"))
        with pytest.raises(ValueError) as raised:
            read_series_csv(path)
        assert str(raised.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xe9")

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "series.csv"
        original = self._series()
        write_series_csv(original, path)
        loaded = read_series_csv(path)
        assert {(s.account, s.topic) for s in loaded} == {
            ("ego", 0), ("ego", 1), ("alt", 0)
        }
        by_key = {(s.account, s.topic): s for s in loaded}
        for s in original:
            np.testing.assert_array_equal(by_key[(s.account, s.topic)].counts, s.counts)
            assert by_key[(s.account, s.topic)].week_index.epoch_week_start == date(2020, 1, 6)

    def test_write_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series_csv(self._series(), p1)
        write_series_csv(list(reversed(self._series())), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_zero_rows_present(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(self._series(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "week_start,account,topic,count"
        assert len(lines) == 1 + 3 * 3
        assert "2020-01-13,ego,0,0" in lines

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("week_start,account\n2020-01-06,ego\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.csv: CSV header must contain "
                                             r"\['week_start', 'account', 'topic', 'count'\]$"):
            read_series_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("week_start,account,topic,count\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"empty\.csv: series CSV is empty$"):
            read_series_csv(path)

    def _write_rows(self, tmp_path, rows):
        path = tmp_path / "rows.csv"
        path.write_text("week_start,account,topic,count\n" + "".join(r + "\n" for r in rows),
                        encoding="utf-8")
        return path

    def test_repeated_row_rejected(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,3", "2020-01-13,ego,0,1",
                                           "2020-01-06,ego,0,5"])
        with pytest.raises(ValueError, match=r"rows\.csv:4: repeated row"):
            read_series_csv(path)

    def test_off_grid_week_rejected(self, tmp_path):
        # Wednesday 2020-01-08 is two days after the first week's Monday.
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,3", "2020-01-08,ego,0,7",
                                           "2020-01-13,ego,0,1"])
        with pytest.raises(ValueError, match=r"rows\.csv:3: week_start 2020-01-08"):
            read_series_csv(path)

    def test_negative_count_rejected(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,3", "2020-01-13,ego,0,-2"])
        with pytest.raises(ValueError, match=r"rows\.csv:3: negative count"):
            read_series_csv(path)

    def test_count_above_int64_rejected(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,9223372036854775807",
                                           "2020-01-13,ego,0,9223372036854775808"])
        with pytest.raises(ValueError,
                           match=r"rows\.csv:3: count 9223372036854775808 out of range"):
            read_series_csv(path)

    def test_count_at_int64_max_kept(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,9223372036854775807"])
        (s,) = read_series_csv(path)
        assert s.counts.tolist() == [9223372036854775807]

    def test_short_row_rejected(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,3", "2020-01-13,ego"])
        with pytest.raises(ValueError, match=r"rows\.csv:3: row has too few cells"):
            read_series_csv(path)

    def test_short_row_without_account_rejected(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("week_start,topic,count,account\n2020-01-06,0,3,ego\n2020-01-13,0,1\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"rows\.csv:3: row has too few cells"):
            read_series_csv(path)

    def test_non_integer_topic_rejected(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,3", "2020-01-13,ego,zero,1"])
        with pytest.raises(ValueError, match=r"rows\.csv:3: .*'zero'"):
            read_series_csv(path)

    def test_non_integer_count_rejected(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,3", "2020-01-13,ego,0,1.5"])
        with pytest.raises(ValueError, match=r"rows\.csv:3: .*'1\.5'"):
            read_series_csv(path)

    def test_bad_week_start_rejected(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,3", "13/01/2020,ego,0,1"])
        with pytest.raises(ValueError, match=r"rows\.csv:3: .*'13/01/2020'"):
            read_series_csv(path)

    def test_accounts_canonicalised(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,@Alt_A,0,3", "2020-01-13, alt_a ,0,1",
                                           "2020-01-06,EGO,0,2"])
        loaded = read_series_csv(path)
        assert [(s.account, s.topic, s.counts.tolist()) for s in loaded] == [
            ("alt_a", 0, [3, 1]), ("ego", 0, [2, 0])]

    def test_accounts_that_canonicalise_alike_repeat(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,Alt_A,0,3", "2020-01-13,alt_a,0,1",
                                           "2020-01-06,@alt_a,0,5"])
        with pytest.raises(ValueError,
                           match=r"rows\.csv:4: repeated row for \('alt_a', 0\) in week 2020-01-06"):
            read_series_csv(path)

    def test_empty_account_rejected(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,3", "2020-01-13, @ ,0,1"])
        with pytest.raises(ValueError, match=r"rows\.csv:3: empty account"):
            read_series_csv(path)

    @pytest.mark.parametrize("row", [
        "2020-01-13,ego,0,+5", "2020-01-13,ego,0, 5", "2020-01-13,ego,0,٥",
        "2020-01-13,ego,0,1_000", "2020-01-13,ego,+1,3", "2020-01-13,ego, 1,3",
        "2020-01-13,ego,١,3", "2020-01-13,ego,1_0,3", "2020-01-13,e\0go,0,3",
    ], ids=["count_plus", "count_space", "count_arabic_indic", "count_underscore",
            "topic_plus", "topic_space", "topic_arabic_indic", "topic_underscore",
            "account_nul"])
    def test_cell_outside_the_chunk_language_rejected(self, tmp_path, row):
        # The row loop reads these files (the chunk path does not take them),
        # and refuses what the chunk path would refuse.
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,3", row])
        assert series_module._read_series_chunks(path) is None
        with pytest.raises(ValueError, match=r"rows\.csv:3: "):
            read_series_csv(path)

    def test_columns_found_by_header_name(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("count,note,topic,account,week_start\n"
                        "3,x,0,ego,2020-01-06\n1,,0,ego,2020-01-20\n", encoding="utf-8")
        (loaded,) = read_series_csv(path)
        assert (loaded.account, loaded.topic, loaded.counts.tolist()) == ("ego", 0, [3, 0, 1])

    def test_error_names_file_line_after_blank_line(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,3", "", "2020-01-06,ego,0,5"])
        with pytest.raises(ValueError, match=r"rows\.csv:4: repeated row"):
            read_series_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = self._write_rows(tmp_path, ["2020-01-06,ego,0,3", "", "2020-01-13,ego,0,1"])
        (loaded,) = read_series_csv(path)
        assert loaded.counts.tolist() == [3, 1]

    def test_counts_length_must_match_index(self):
        idx = WeekIndex(epoch_week_start=date(2020, 1, 6), n_weeks=3)
        with pytest.raises(ValueError):
            TopicSeries("ego", 0, np.array([1, 2]), idx)


def _reference_bin_posts(posts, labels, week_index, n_topics, accounts=None):
    """The per-post counting loop the array count replaces, kept as a reference."""
    grids = {a: np.zeros((n_topics, week_index.n_weeks), dtype=int) for a in accounts or ()}
    for post in posts:
        try:
            topic = labels[post.id]
        except KeyError:
            raise ValueError(f"post {post.id!r} has no topic label") from None
        if not 0 <= topic < n_topics:
            raise ValueError(f"label {topic} for post {post.id!r} outside 0..{n_topics - 1}")
        try:
            week = week_index.bin_of(post.created_at)
        except ValueError as exc:
            raise ValueError(f"post {post.id!r}: {exc}") from None
        grid = grids.setdefault(post.author, np.zeros((n_topics, week_index.n_weeks), dtype=int))
        grid[topic, week] += 1
    return [(a, t, grids[a][t].tolist()) for a in sorted(grids) for t in range(n_topics)]


class TestBinPostsMatchesPerPost:
    ZONES = [timezone.utc, timezone(timedelta(hours=-11)), timezone(timedelta(hours=13)), None]

    def _random_posts(self, rng, n, idx):
        origin = datetime.combine(idx.epoch_week_start, datetime.min.time())
        posts = []
        for i in range(n):
            zone = self.ZONES[int(rng.integers(0, len(self.ZONES)))]
            local = origin + timedelta(seconds=int(rng.integers(-3 * 86400, 7 * 86400 * 11)))
            posts.append(Post(id=f"p{i}", author=f"acc{int(rng.integers(0, 4))}",
                              created_at=local.replace(tzinfo=zone), text=""))
        return posts

    @staticmethod
    def _outcome(fn, *args, **kwargs):
        try:
            return [(s.account, s.topic, s.counts.tolist()) if hasattr(s, "account") else s
                    for s in fn(*args, **kwargs)]
        except ValueError as exc:
            return str(exc)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random_posts(self, seed):
        rng = np.random.default_rng(seed)
        idx = build_week_index(window("2020-01-08T00:00:00", "2020-03-20T00:00:00"))
        posts = self._random_posts(rng, 300, idx)
        in_span = []
        for p in posts:
            try:
                idx.bin_of(p.created_at)
                in_span.append(p)
            except ValueError:
                pass
        labels = {p.id: int(rng.integers(0, 3)) for p in posts}
        accounts = ["acc1", "zed"]
        # Every post counted, then posts with a missing label, a bad label and
        # a time outside the span mixed in: the first bad post is named.
        cases = [(in_span, labels)]
        for _ in range(6):
            bad = dict(labels)
            for i in rng.choice(len(posts), size=3, replace=False).tolist():
                kind = int(rng.integers(0, 3))
                if kind == 0:
                    del bad[posts[i].id]
                elif kind == 1:
                    bad[posts[i].id] = int(rng.choice([-1, 3, 7]))
            cases.append((posts, bad))
        for case_posts, case_labels in cases:
            got = self._outcome(bin_posts, case_posts, case_labels, idx, 3, accounts=accounts)
            want = self._outcome(_reference_bin_posts, case_posts, case_labels, idx, 3,
                                 accounts=accounts)
            assert got == want
        assert isinstance(self._outcome(bin_posts, posts, labels, idx, 3), str)


HEADER = b"week_start,account,topic,count\n"


def _fields(series):
    return [(s.account, s.topic, s.counts.tolist(), s.counts.dtype, s.week_index)
            for s in series]


def _read_outcome(read, path):
    """Every field of the series `read` returns, or its exception type and text."""
    try:
        return _fields(read(path))
    except ValueError as exc:  # UnicodeDecodeError included
        return type(exc), str(exc)


class TestSeriesCsvRowLoopFallback:
    """Files the chunked reader leaves to the csv row loop, and get its exact outcome."""

    CASES = {
        "quote": HEADER + b'2020-01-06,"ego",0,3\n2020-01-13,ego,0,1\n',
        "carriage_return": HEADER.replace(b"\n", b"\r\n") + b"2020-01-06,ego,0,3\r\n",
        "nul_byte": HEADER + b"2020-01-06,e\0go,0,3\n",
        "blank_line": HEADER + b"2020-01-06,ego,0,3\n\n2020-01-13,ego,0,1\n",
        "extra_cell": HEADER + b"2020-01-06,ego,0,3\n2020-01-13,ego,0,1,x\n",
        "short_row": HEADER + b"2020-01-06,ego,0,3\n2020-01-13,ego\n",
        "long_cell": HEADER + b"2020-01-06," + b"a" * (series_module._CELL_BYTES + 1)
                     + b",0,3\n",
        "long_extra_cell": b"week_start,account,topic,count,note\n2020-01-06,ego,0,3,"
                           + b"n" * 200 + b"\n",
        "plus_sign": HEADER + b"2020-01-06,ego,0,+5\n",
        "minus_sign": HEADER + b"2020-01-06,ego,0,-1\n",
        "space_before_int": HEADER + b"2020-01-06,ego, 5,3\n",
        "arabic_indic_digit": HEADER + "2020-01-06,ego,0,\u0665\n".encode("utf-8"),
        "empty_int": HEADER + b"2020-01-06,ego,0,\n",
        "nineteen_digits": HEADER + b"2020-01-06,ego,0,0000000000000000017\n",
        "nineteen_digit_topic": HEADER + b"2020-01-06,ego,1000000000000000000,1\n",
        "count_above_int64": HEADER + b"2020-01-06,ego,0,9223372036854775808\n",
        "not_utf8_account": HEADER + b"2020-01-06,\xffego,0,3\n",
        "not_utf8_extra_cell": b"week_start,account,topic,count,note\n"
                               b"2020-01-06,ego,0,3,\xe9\n",
        "bad_date": HEADER + b"2020-01-06,ego,0,3\n13/01/2020,ego,0,1\n",
        "empty_account": HEADER + b"2020-01-06,ego,0,3\n2020-01-13, @ ,0,1\n",
        "repeated_row": HEADER + b"2020-01-06,ego,0,3\n2020-01-13,ego,0,1\n"
                        b"2020-01-06,@EGO,0,5\n",
        "off_grid_week": HEADER + b"2020-01-06,ego,0,3\n2020-01-08,ego,0,7\n",
        "header_only": HEADER,
        "empty_file": b"",
        "no_final_newline": HEADER + b"2020-01-06,ego,0,3\n2020-01-13,ego,0,1",
        "missing_column": b"week_start,account,count\n2020-01-06,ego,3\n",
        "byte_order_mark": b"\xef\xbb\xbf" + HEADER + b"2020-01-06,ego,0,3\n",
    }

    @pytest.mark.parametrize("chunk_bytes", [7, 1 << 18])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_row_loop_outcome(self, tmp_path, monkeypatch, case, chunk_bytes):
        path = tmp_path / "rows.csv"
        path.write_bytes(self.CASES[case])
        monkeypatch.setattr(series_module, "_CHUNK_BYTES", chunk_bytes)
        assert series_module._read_series_chunks(path) is None
        got = _read_outcome(read_series_csv, path)
        assert got == _read_outcome(series_module._read_series_rows, path)


class TestChunkReaderDeclinesValidFile:
    """Valid files that fail one of the chunk reader's size or shape checks:
    it returns None and the row loop reads the series."""

    CASES = {
        # a header cell longer than _CELL_BYTES
        "long_header_cell": b"week_start,account,topic,count," + b"n" * 65 + b"\n"
                            b"2020-01-06,ego,0,3,x\n2020-01-13,ego,0,1,y\n",
        # a final line with no newline, longer than 4 cells of _CELL_BYTES + 1
        "long_unterminated_line": HEADER + b"2020-01-06,ego,0,3\n2020-01-13,ego,0,"
                                  + b"0" * 300 + b"1",
        # 5 and 7 cells under a 4-column header: 12 separators, three rows' worth
        "ragged_rows_that_add_up": HEADER + b"2020-01-06,ego,0,3,x\n"
                                   b"2020-01-13,ego,0,1,x,y,z\n",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_row_loop_reads_it(self, tmp_path, case):
        path = tmp_path / "rows.csv"
        path.write_bytes(self.CASES[case])
        assert series_module._read_series_chunks(path) is None
        got = read_series_csv(path)
        assert [s.counts.tolist() for s in got] == [[3, 1]]
        assert _fields(got) == _read_outcome(series_module._read_series_rows, path)


class TestSeriesCsvChunksMatchRowLoop:
    """Random files the chunked reader takes, read with chunks far smaller than a row."""

    SPELLINGS = {"alt": ["alt", "@Alt", " ALT ", "@alt"], "ego": ["ego", "EGO"],
                 "zed_9": ["zed_9", "@Zed_9"], "b": ["b"]}

    def _random_file(self, rng, path):
        epoch = date(2019, 12, 30) + timedelta(days=int(rng.integers(0, 3)))
        n_weeks = int(rng.integers(1, 12))
        rows = []
        for account in rng.permutation(sorted(self.SPELLINGS))[:int(rng.integers(1, 5))]:
            for topic in rng.choice([0, 1, 2, 7, 31], size=int(rng.integers(1, 4)),
                                    replace=False).tolist():
                weeks = np.flatnonzero(rng.random(n_weeks) < 0.7).tolist() or [0]
                for week in weeks:
                    spelling = rng.choice(self.SPELLINGS[account])
                    count = str(int(rng.integers(0, 40))).zfill(int(rng.integers(1, 4)))
                    rows.append({"week_start": (epoch + timedelta(weeks=week)).isoformat(),
                                 "account": spelling, "topic": str(topic), "count": count,
                                 "note": "x" * int(rng.integers(0, 3))})
        columns = list(rng.permutation(["week_start", "account", "topic", "count", "note"]))
        if rng.random() < 0.5:
            columns.remove("note")
        lines = [",".join(columns)]
        lines += [",".join(rows[i][c] for c in columns) for i in rng.permutation(len(rows))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("chunk_bytes", [1, 7, 64, 1 << 20])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_valid_file(self, tmp_path, monkeypatch, seed, chunk_bytes):
        path = tmp_path / "rows.csv"
        self._random_file(np.random.default_rng(seed), path)
        monkeypatch.setattr(series_module, "_CHUNK_BYTES", chunk_bytes)
        got = series_module._read_series_chunks(path)
        assert got is not None
        assert _fields(got) == _read_outcome(series_module._read_series_rows, path)

    def test_written_files_never_enter_row_loop(self, tmp_path, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"n_weeks": 40, "n_topics": 3, "seed": 5, "rho": 0.3, "noise_sd": 1.0, '
            '"offset": 10.0, "ego": "ego", "start": "2017-01-02", '
            '"alters": [{"handle": "a1", "couplings": []}]}', encoding="utf-8")
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "sim")]) == 0
        paths = [Path(__file__).parent / "data" / "indented_json" / "series.csv",
                 tmp_path / "sim" / "series.csv"]
        want = [_read_outcome(series_module._read_series_rows, p) for p in paths]

        def row_loop(path):
            raise AssertionError(f"{path} read by the row loop")

        monkeypatch.setattr(series_module, "_read_series_rows", row_loop)
        assert [_fields(read_series_csv(p)) for p in paths] == want
