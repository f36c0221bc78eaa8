"""Ingestion: parsing, window filtering, dedup, canonical output, alter ranking."""

import dataclasses
import json
import pickle
from datetime import datetime, timezone

import pytest

from egoflux import corpus as corpus_mod
from egoflux.corpus import (
    CSV_COLUMNS,
    Corpus,
    Post,
    canonical_handle,
    load_corpus,
    parse_timestamp,
    rank_alters,
    record_id,
)
from egoflux.errors import CorpusFormatError
from tests.conftest import make_post

WINDOW = (
    datetime(2020, 1, 1, tzinfo=timezone.utc),
    datetime(2020, 12, 31, 23, 59, 59, tzinfo=timezone.utc),
)


def write_csv(path, rows):
    header = "id,author,created_at,text,retweeted_author\n"
    path.write_text(header + "".join(rows), encoding="utf-8")


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


class TestHandlesAndTimestamps:
    def test_canonical_handle_lowercases_and_strips_at(self):
        assert canonical_handle("@RealName") == "realname"
        assert canonical_handle("Name") == "name"
        assert canonical_handle("  @Mixed_Case9  ") == "mixed_case9"

    def test_canonical_handle_empty_is_none(self):
        assert canonical_handle(None) is None
        assert canonical_handle("") is None
        assert canonical_handle("@") is None

    def test_parse_timestamp_aware_utc(self):
        ts = parse_timestamp("2020-05-04T12:30:00+00:00")
        assert ts.tzinfo is not None
        assert ts.hour == 12

    def test_parse_timestamp_z_suffix(self):
        ts = parse_timestamp("2020-05-04T12:30:00Z")
        assert ts == datetime(2020, 5, 4, 12, 30, tzinfo=timezone.utc)

    def test_parse_timestamp_naive_assumed_utc(self):
        ts = parse_timestamp("2020-05-04T12:30:00")
        assert ts.utcoffset().total_seconds() == 0

    def test_parse_timestamp_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_timestamp("not-a-date")


class TestLoadCsv:
    def test_basic_load_sorted(self, tmp_path):
        path = tmp_path / "posts.csv"
        write_csv(path, [
            "b,Alice,2020-03-02T10:00:00Z,second post,\n",
            "a,Bob,2020-03-01T10:00:00Z,first post,\n",
        ])
        result = load_corpus(path, format="csv", window=WINDOW)
        assert [p.id for p in result.corpus.posts] == ["a", "b"]
        assert result.corpus.posts[0].author == "bob"
        assert result.dropped == 0

    def test_window_is_inclusive(self, tmp_path):
        path = tmp_path / "posts.csv"
        write_csv(path, [
            "a,x,2020-01-01T00:00:00Z,at start,\n",
            "b,x,2020-12-31T23:59:59Z,at end,\n",
            "c,x,2019-12-31T23:59:59Z,before,\n",
            "d,x,2021-01-01T00:00:00Z,after,\n",
        ])
        result = load_corpus(path, format="csv", window=WINDOW)
        assert [p.id for p in result.corpus.posts] == ["a", "b"]
        assert result.dropped_out_of_window == 2
        # Naive bounds are read as UTC.
        naive = tuple(bound.replace(tzinfo=None) for bound in WINDOW)
        assert load_corpus(path, format="csv", window=naive) == result
        with pytest.raises(ValueError, match="window start must not be after end"):
            load_corpus(path, format="csv", window=WINDOW[::-1])

    def test_duplicate_ids_keep_first(self, tmp_path):
        path = tmp_path / "posts.csv"
        write_csv(path, [
            "a,x,2020-03-01T10:00:00Z,original,\n",
            "a,x,2020-03-02T10:00:00Z,duplicate,\n",
        ])
        result = load_corpus(path, format="csv", window=WINDOW)
        assert len(result.corpus) == 1
        assert result.corpus.posts[0].text == "original"
        assert result.dropped_duplicate == 1

    def test_malformed_rows_counted_lenient(self, tmp_path):
        path = tmp_path / "posts.csv"
        write_csv(path, [
            "a,x,2020-03-01T10:00:00Z,fine,\n",
            "b,x,BADDATE,broken,\n",
            ",x,2020-03-01T10:00:00Z,missing id,\n",
        ])
        result = load_corpus(path, format="csv", window=WINDOW)
        assert len(result.corpus) == 1
        assert result.dropped_malformed == 2

    def test_strict_mode_raises_on_malformed(self, tmp_path):
        path = tmp_path / "posts.csv"
        write_csv(path, ["b,x,BADDATE,broken,\n"])
        with pytest.raises(CorpusFormatError):
            load_corpus(path, format="csv", window=WINDOW, strict=True)

    def test_error_names_file_line_of_row(self, tmp_path):
        # A quoted text spanning lines 2-3 and a blank line 4 put the bad row on line 5.
        path = tmp_path / "posts.csv"
        write_csv(path, [
            'a,x,2020-03-01T10:00:00Z,"two\nlines",\n',
            "\n",
            "b,,2020-03-01T11:00:00Z,no author,\n",
        ])
        with pytest.raises(CorpusFormatError, match=r"posts\.csv:5: empty author"):
            load_corpus(path, format="csv", window=WINDOW, strict=True)

    def test_retweeted_author_canonicalized(self, tmp_path):
        path = tmp_path / "posts.csv"
        write_csv(path, ["a,Ego,2020-03-01T10:00:00Z,RT @Friend: hi,@Friend\n"])
        result = load_corpus(path, format="csv", window=WINDOW)
        assert result.corpus.posts[0].retweeted_author == "friend"

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "posts.csv"
        write_csv(path, [])
        with pytest.raises(ValueError):
            load_corpus(path, format="xml", window=WINDOW)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises((CorpusFormatError, OSError)):
            load_corpus(tmp_path / "nope.csv", format="csv", window=WINDOW)


class TestHandleCells:
    """Each distinct author or retweeted_author cell is canonicalised once per load."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(handle):
            calls.append(handle)
            return canonical_handle(handle)

        monkeypatch.setattr(corpus_mod, "canonical_handle", counting)
        return calls

    def test_csv_cells_canonicalised_once_per_load(self, tmp_path, calls):
        path = tmp_path / "posts.csv"
        write_csv(path, [
            "a, @Alter,2020-03-01T10:00:00Z,one,\n",
            "b,alter,2020-03-01T11:00:00Z,two,@Ego\n",
            "c,Ego,2020-03-01T12:00:00Z,RT,alter\n",
            "d,Ego,2020-03-01T13:00:00Z,RT, @Alter\n",
            "e,alter,2020-03-01T14:00:00Z,three,\n",
            "f, @Alter,2020-03-01T15:00:00Z,four,@Ego\n",
        ])
        posts = load_corpus(path, format="csv", window=WINDOW).corpus.posts
        cells = [" @Alter", "alter", "@Ego", "Ego", None]
        assert sorted(calls, key=repr) == sorted(cells, key=repr)
        assert [(p.author, p.retweeted_author) for p in posts] == [
            ("alter", None), ("alter", "ego"), ("ego", "alter"), ("ego", "alter"),
            ("alter", None), ("alter", "ego")]
        calls.clear()
        load_corpus(path, format="csv", window=WINDOW)
        assert sorted(calls, key=repr) == sorted(cells, key=repr)

    def test_jsonl_cells_canonicalised_once(self, tmp_path, calls):
        path = tmp_path / "posts.jsonl"
        base = {"created_at": "2020-03-01T10:00:00Z", "text": "x"}
        write_jsonl(path, [{**base, "id": "a", "author": " @Alter"},
                           {**base, "id": "b", "author": "alter", "retweeted_author": " @Alter"},
                           {**base, "id": "c", "author": "alter", "retweeted_author": None}])
        posts = load_corpus(path, format="jsonl", window=WINDOW).corpus.posts
        assert sorted(calls, key=repr) == sorted([" @Alter", "alter", None], key=repr)
        assert {p.author for p in posts} == {"alter"}


class TestCsvRowRules:
    """Rows are read as csv.DictReader reads them."""

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "posts.csv"
        write_csv(path, [
            "\n",
            "a,x,2020-03-01T10:00:00Z,first,\n",
            "\n\n",
            "b,x,2020-03-02T10:00:00Z,second,\n",
        ])
        result = load_corpus(path, format="csv", window=WINDOW, strict=True)
        assert [p.text for p in result.corpus.posts] == ["first", "second"]
        assert result.dropped == 0

    def test_short_row_missing_fields_are_none(self, tmp_path):
        path = tmp_path / "posts.csv"
        write_csv(path, ["a,x,2020-03-01T10:00:00Z\n", "b,x\n"])
        result = load_corpus(path, format="csv", window=WINDOW)
        [post] = result.corpus.posts
        assert (post.id, post.text, post.retweeted_author) == ("a", "", None)
        assert result.dropped_malformed == 1
        # A missing created_at reads as None, which is a missing field.
        with pytest.raises(CorpusFormatError, match=r"posts\.csv:3: missing created_at$"):
            load_corpus(path, format="csv", window=WINDOW, strict=True)

    @pytest.mark.parametrize("header, short_row, missing", [
        ("id,created_at,text,retweeted_author,author", "b,2020-03-02T10:00:00Z,two,", "author"),
        ("author,created_at,text,retweeted_author,id", "x,2020-03-02T10:00:00Z,two,", "id"),
    ], ids=["author_last", "id_last"])
    def test_short_row_missing_id_or_author_is_malformed(self, tmp_path, header, short_row,
                                                         missing):
        # A cell the row lacks is None, never the text "None" or handle "none".
        path = tmp_path / "posts.csv"
        full_row = ("a,2020-03-01T10:00:00Z,one,,x" if missing == "author"
                    else "x,2020-03-01T10:00:00Z,one,,a")
        path.write_text(f"{header}\n{full_row}\n{short_row}\n", encoding="utf-8")
        result = load_corpus(path, format="csv", window=WINDOW)
        assert [(p.id, p.author) for p in result.corpus.posts] == [("a", "x")]
        assert result.dropped_malformed == 1
        with pytest.raises(CorpusFormatError, match=rf"posts\.csv:3: missing {missing}$"):
            load_corpus(path, format="csv", window=WINDOW, strict=True)

    def test_extra_fields_ignored(self, tmp_path):
        path = tmp_path / "posts.csv"
        write_csv(path, ["a,x,2020-03-01T10:00:00Z,hello,Friend,extra,more\n"])
        [post] = load_corpus(path, format="csv", window=WINDOW, strict=True).corpus.posts
        assert (post.text, post.retweeted_author) == ("hello", "friend")

    def test_repeated_header_name_last_column_wins(self, tmp_path):
        path = tmp_path / "posts.csv"
        path.write_text(
            "text,id,author,created_at,text,retweeted_author\n"
            "zero,a,x,2020-03-01T10:00:00Z,last,\n"
            "zero,b,x,2020-03-02T10:00:00Z\n",
            encoding="utf-8",
        )
        posts = load_corpus(path, format="csv", window=WINDOW, strict=True).corpus.posts
        # Row b ends before the last text column, so its text is None.
        assert [(p.id, p.text) for p in posts] == [("a", "last"), ("b", "")]

    def test_error_texts(self, tmp_path):
        path = tmp_path / "posts.csv"
        write_csv(path, ["a,x,2020-03-01T10:00:00Z,one,\n", "a,x,2020-03-01T11:00:00Z,two,\n"])
        with pytest.raises(CorpusFormatError, match=r"posts\.csv:3: duplicate id 'a'$"):
            load_corpus(path, format="csv", window=WINDOW, strict=True)
        write_csv(path, [" ,x,2020-03-01T10:00:00Z,one,\n"])
        with pytest.raises(CorpusFormatError, match=r"posts\.csv:2: empty id$"):
            load_corpus(path, format="csv", window=WINDOW, strict=True)
        path.write_text("id,author,text\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"posts\.csv: CSV header must contain"):
            load_corpus(path, format="csv", window=WINDOW)
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"posts\.csv: CSV header must contain"):
            load_corpus(path, format="csv", window=WINDOW)

    def test_jsonl_error_texts(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('\n[1, 2]\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"posts\.jsonl:2: not a JSON object$"):
            load_corpus(path, format="jsonl", window=WINDOW, strict=True)
        write_jsonl(path, [{"author": "x", "created_at": "2020-03-01T10:00:00Z"}])
        with pytest.raises(CorpusFormatError, match=r"posts\.jsonl:1: 'id'$"):
            load_corpus(path, format="jsonl", window=WINDOW, strict=True)

    @pytest.mark.parametrize("field", ["id", "author", "created_at"])
    def test_jsonl_null_field_is_malformed(self, tmp_path, field):
        path = tmp_path / "posts.jsonl"
        good = {"id": "a", "author": "x", "created_at": "2020-03-01T10:00:00Z", "text": "one"}
        write_jsonl(path, [good, {**good, "id": "b", field: None}])
        result = load_corpus(path, format="jsonl", window=WINDOW)
        assert [(p.id, p.author) for p in result.corpus.posts] == [("a", "x")]
        assert result.dropped_malformed == 1
        with pytest.raises(CorpusFormatError, match=rf"posts\.jsonl:2: missing {field}$"):
            load_corpus(path, format="jsonl", window=WINDOW, strict=True)


class TestFieldTypes:
    """An id is a string or a JSON integer; author and created_at are strings;
    text and retweeted_author are strings or null."""

    GOOD = {"id": "a", "author": "x", "created_at": "2020-03-01T10:00:00Z", "text": "one"}

    @pytest.mark.parametrize("value, text", [
        ("p1", "p1"), ("  p1 ", "p1"), (7, "7"), (-3, "-3"), (10**20, str(10**20)),
    ])
    def test_record_id_accepts(self, value, text):
        assert record_id(value) == text

    @pytest.mark.parametrize("value, error", [
        (True, TypeError), (False, TypeError), (1.0, TypeError), (None, TypeError),
        ([1, 2], TypeError), ({"a": 1}, TypeError), ("", ValueError), ("  ", ValueError),
    ])
    def test_record_id_refuses(self, value, error):
        with pytest.raises(error):
            record_id(value)

    @pytest.mark.parametrize("field, value, message", [
        ("id", True, "id True is not a string or an integer"),
        ("id", 1.0, "id 1.0 is not a string or an integer"),
        ("id", [1, 2], r"id \[1, 2\] is not a string or an integer"),
        ("author", {"a": 1}, r"author \{'a': 1\} is not a string"),
        ("author", 5, "author 5 is not a string"),
        ("created_at", 1583056800, "created_at 1583056800 is not a string"),
        ("text", ["storm", "flood"], r"text \['storm', 'flood'\] is not a string"),
        ("text", {"x": 1}, r"text \{'x': 1\} is not a string"),
        ("text", 0, "text 0 is not a string"),
        ("text", False, "text False is not a string"),
        ("retweeted_author", ["y"], r"retweeted_author \['y'\] is not a string"),
        ("retweeted_author", 5, "retweeted_author 5 is not a string"),
    ], ids=["id_bool", "id_float", "id_list", "author_object", "author_number",
            "created_at_number", "text_list", "text_object", "text_zero", "text_false",
            "retweeted_author_list", "retweeted_author_number"])
    def test_wrong_json_type(self, tmp_path, field, value, message):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [self.GOOD, {**self.GOOD, "id": "b", field: value}])
        result = load_corpus(path, format="jsonl", window=WINDOW)
        assert [(p.id, p.author) for p in result.corpus.posts] == [("a", "x")]
        assert result.dropped_malformed == 1
        with pytest.raises(CorpusFormatError, match=rf"posts\.jsonl:2: {message}$"):
            load_corpus(path, format="jsonl", window=WINDOW, strict=True)

    def test_missing_or_null_text_is_empty(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        no_text = {k: v for k, v in self.GOOD.items() if k != "text"}
        write_jsonl(path, [no_text, {**self.GOOD, "id": "b", "text": None},
                           {**self.GOOD, "id": "c", "text": ""}])
        result = load_corpus(path, format="jsonl", window=WINDOW, strict=True)
        assert [(p.id, p.text) for p in result.corpus.posts] == [("a", ""), ("b", ""), ("c", "")]
        assert result.dropped_malformed == 0

    def test_integer_id_is_its_decimal_text(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [{**self.GOOD, "id": 1}, {**self.GOOD, "id": "1"},
                           {**self.GOOD, "id": 2}])
        result = load_corpus(path, format="jsonl", window=WINDOW)
        assert [p.id for p in result.corpus.posts] == ["1", "2"]
        assert result.dropped_duplicate == 1
        with pytest.raises(CorpusFormatError, match=r"posts\.jsonl:2: duplicate id '1'$"):
            load_corpus(path, format="jsonl", window=WINDOW, strict=True)


class TestNotUtf8:
    """A byte that is not UTF-8 is a fault of the file, so even lenient mode
    refuses it, naming the file."""

    ROWS = {
        "csv": "id,author,created_at,text,retweeted_author\n"
               "a,x,2020-03-01T10:00:00Z,caf\u00e9,\n",
        "jsonl": '{"id": "a", "author": "x", "created_at": "2020-03-01T10:00:00Z", '
                 '"text": "caf\u00e9"}\n',
    }

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_latin1_byte_named(self, tmp_path, fmt, strict):
        path = tmp_path / f"posts.{fmt}"
        path.write_bytes(self.ROWS[fmt].encode("latin-1"))
        with pytest.raises(CorpusFormatError) as raised:
            load_corpus(path, format=fmt, window=WINDOW, strict=strict)
        assert str(raised.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xe9")


class TestLoadJsonl:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [
            {"id": "a", "author": "X", "created_at": "2020-03-01T10:00:00Z", "text": "hi"},
            {"id": "b", "author": "Y", "created_at": "2020-03-02T10:00:00Z",
             "text": "RT @X: hi", "retweeted_author": "X"},
        ])
        result = load_corpus(path, format="jsonl", window=WINDOW)
        assert len(result.corpus) == 2
        assert result.corpus.posts[1].retweeted_author == "x"

    def test_bad_json_line_lenient(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text(
            '{"id": "a", "author": "x", "created_at": "2020-03-01T10:00:00Z", "text": "ok"}\n'
            "{not json}\n",
            encoding="utf-8",
        )
        result = load_corpus(path, format="jsonl", window=WINDOW)
        assert len(result.corpus) == 1
        assert result.dropped_malformed == 1

    def test_roundtrip_through_canonical_jsonl(self, tmp_path):
        src = tmp_path / "posts.jsonl"
        write_jsonl(src, [
            {"id": "a", "author": "x", "created_at": "2020-03-01T10:00:00+00:00", "text": "hi"},
        ])
        first = load_corpus(src, format="jsonl", window=WINDOW).corpus
        out = tmp_path / "canonical.jsonl"
        out.write_text(first.to_jsonl(), encoding="utf-8")
        second = load_corpus(out, format="jsonl", window=WINDOW).corpus
        assert first.posts == second.posts
        third = tmp_path / "again.jsonl"
        third.write_text(second.to_jsonl(), encoding="utf-8")
        assert out.read_bytes() == third.read_bytes()

    def test_to_jsonl_text(self):
        corpus = Corpus(posts=(make_post("p1", "ego", "2020-03-01T10:00:00", "café “quoted” ☕",
                                         "alt_a"),
                               make_post("p2", "alt_a", "2020-03-02T11:30:05", "")),
                        window_start=WINDOW[0], window_end=WINDOW[1])
        assert corpus.to_jsonl() == (
            '{"author":"ego","created_at":"2020-03-01T10:00:00+00:00","id":"p1",'
            '"retweeted_author":"alt_a","text":"café “quoted” ☕"}\n'
            '{"author":"alt_a","created_at":"2020-03-02T11:30:05+00:00","id":"p2",'
            '"retweeted_author":null,"text":""}\n')


    def test_to_jsonl_writes_every_field(self):
        post = make_post("p1", "ego", "2020-03-01T10:00:00", "hi", "alt_a")
        corpus = Corpus(posts=(post,), window_start=WINDOW[0], window_end=WINDOW[1])
        assert set(json.loads(corpus.to_jsonl())) == {f.name for f in dataclasses.fields(Post)}


class TestPost:
    """A Post is a frozen, slotted value: no per-instance dict, no assignment."""

    POST = make_post("p1", "ego", "2020-03-01T10:00:00", "hi", "alt_a")

    def test_assigning_a_field_raises(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.POST.text = "changed"
        assert self.POST.text == "hi"

    def test_has_no_instance_dict(self):
        assert not hasattr(self.POST, "__dict__")
        assert Post.__slots__ == tuple(f.name for f in dataclasses.fields(Post))

    def test_pickle_round_trip(self):
        again = pickle.loads(pickle.dumps(self.POST))
        assert again == self.POST and again is not self.POST
        assert again.created_at.tzinfo is timezone.utc

    def test_replace_round_trip(self):
        moved = dataclasses.replace(self.POST, retweeted_author=None)
        assert moved.retweeted_author is None and moved.id == "p1"
        assert dataclasses.replace(moved, retweeted_author="alt_a") == self.POST

    def test_positional_fields_in_csv_column_order(self):
        assert [f.name for f in dataclasses.fields(Post)] == CSV_COLUMNS
        assert Post("p1", "ego", self.POST.created_at, "hi", "alt_a") == self.POST


class TestRankAlters:
    def _corpus(self, posts):
        return Corpus(posts=tuple(posts), window_start=WINDOW[0], window_end=WINDOW[1])

    def test_counts_descend_ties_lexicographic(self):
        posts = [
            make_post("1", "ego", "2020-03-01T10:00:00", "RT", "zed"),
            make_post("2", "ego", "2020-03-01T11:00:00", "RT", "ann"),
            make_post("3", "ego", "2020-03-01T12:00:00", "RT", "ann"),
            make_post("4", "ego", "2020-03-01T13:00:00", "RT", "bob"),
        ]
        ranking = rank_alters(self._corpus(posts), "ego")
        assert ranking.entries == (("ann", 2), ("bob", 1), ("zed", 1))

    def test_only_ego_posts_count(self):
        posts = [
            make_post("1", "ego", "2020-03-01T10:00:00", "RT", "ann"),
            make_post("2", "other", "2020-03-01T11:00:00", "RT", "bob"),
            make_post("3", "other", "2020-03-01T12:00:00", "RT", "bob"),
        ]
        ranking = rank_alters(self._corpus(posts), "ego")
        assert ranking.entries == (("ann", 1),)

    def test_self_retweets_and_excluded_skipped(self):
        posts = [
            make_post("1", "ego", "2020-03-01T10:00:00", "RT", "ego"),
            make_post("2", "ego", "2020-03-01T11:00:00", "RT", "spam"),
            make_post("3", "ego", "2020-03-01T12:00:00", "RT", "ann"),
        ]
        ranking = rank_alters(self._corpus(posts), "@Ego", exclude=["@Spam"])
        assert ranking.entries == (("ann", 1),)
        assert "spam" in ranking.excluded

    def test_top_n_cutoff(self):
        posts = [
            make_post(str(i), "ego", "2020-03-01T10:00:00", "RT", h)
            for i, h in enumerate(["a", "a", "b", "b", "c"])
        ]
        ranking = rank_alters(self._corpus(posts), "ego", n=2)
        assert ranking.entries == (("a", 2), ("b", 2))

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError):
            rank_alters(self._corpus([]), "ego", n=0)

    def test_fixture_corpus_ranking(self, two_topic_corpus):
        ranking = rank_alters(two_topic_corpus, "ego")
        assert [h for h, _ in ranking.entries] == ["alt_a", "alt_b"]
        counts = dict(ranking.entries)
        assert counts["alt_a"] > counts["alt_b"]
