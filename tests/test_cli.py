"""Command-line tests: each subcommand driven through main(argv)."""

import csv
import dataclasses
import json
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from egoflux import cli
from egoflux.bundle import ModelBundle
from egoflux.cli import main
from egoflux.errors import EgofluxError
from egoflux.pipeline import PipelineConfig
from egoflux.report import ReportBundle, emit_report_bundle
from egoflux.series import read_series_csv
from egoflux.stats import CausalityMatrix, causality_scan
from egoflux.synth import AlterSpec, Coupling, SynthSpec

WINDOW_ARGS = ["--start", "2020-01-06T00:00:00+00:00",
               "--end", "2020-08-02T23:59:59+00:00"]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def corpus_csv(ws, two_topic_corpus):
    path = ws / "corpus.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "author", "created_at", "text", "retweeted_author"])
        for p in two_topic_corpus.posts:
            writer.writerow([p.id, p.author, p.created_at.isoformat(), p.text,
                             p.retweeted_author or ""])
    return path


@pytest.fixture(scope="module")
def corpus_jsonl(ws, two_topic_corpus):
    path = ws / "corpus.jsonl"
    path.write_text(two_topic_corpus.to_jsonl(), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def bundle_dir(ws, corpus_jsonl):
    out = ws / "bundle"
    code = main(["topics", str(corpus_jsonl), "--ego", "ego", "--dim", "16",
                 "--k-max", "4", "--seed", "42", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def labels_csv(ws, corpus_jsonl, bundle_dir):
    out = ws / "labels.csv"
    code = main(["classify", str(corpus_jsonl), "--model", str(bundle_dir),
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def series_csv(ws, labels_csv):
    out = ws / "series.csv"
    code = main(["series", str(labels_csv), *WINDOW_ARGS, "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def matrix_json(ws, series_csv):
    out = ws / "matrix.json"
    code = main(["causality", str(series_csv), "--ego", "ego",
                 "--max-lag", "4", "--out", str(out)])
    assert code == 0
    return out


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "ingest" in capsys.readouterr().out


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


class TestIngest:
    def test_csv_to_canonical_jsonl(self, ws, corpus_csv, two_topic_corpus):
        out = ws / "ingested.jsonl"
        code = main(["ingest", str(corpus_csv), "--format", "csv",
                     *WINDOW_ARGS, "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8") == two_topic_corpus.to_jsonl()

    def test_lenient_skips_malformed_rows(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "id,author,created_at,text,retweeted_author\n"
            "p1,ego,2020-01-06T10:00:00+00:00,hello,\n"
            "p2,ego,not-a-timestamp,oops,\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.jsonl"
        code = main(["ingest", str(bad), "--format", "csv", *WINDOW_ARGS,
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["id"] == "p1"

    def test_strict_mode_fails_on_malformed_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "id,author,created_at,text,retweeted_author\n"
            "p2,ego,not-a-timestamp,oops,\n",
            encoding="utf-8",
        )
        code = main(["ingest", str(bad), "--format", "csv", "--strict",
                     *WINDOW_ARGS, "--out", str(tmp_path / "out.jsonl")])
        assert code == 1

    def test_missing_file_exits_one(self, tmp_path):
        code = main(["ingest", str(tmp_path / "nope.csv"), "--format", "csv",
                     *WINDOW_ARGS])
        assert code == 1

    def test_empty_window_warns_once(self, corpus_csv, tmp_path, caplog):
        out = tmp_path / "out.jsonl"
        code = main(["ingest", str(corpus_csv), "--format", "csv",
                     "--start", "1999-01-04T00:00:00+00:00",
                     "--end", "1999-02-01T00:00:00+00:00", "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8") == ""
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"{corpus_csv}: no posts inside window "
                            "1999-01-04T00:00:00+00:00..1999-02-01T00:00:00+00:00"]


class TestTopics:
    def test_bundle_directory_loads(self, bundle_dir):
        bundle = ModelBundle.load(bundle_dir)
        assert bundle.k == 2
        assert bundle.classifier is not None
        assert bundle.projector is not None

    def test_prints_silhouette_table_and_summaries(self, ws, corpus_jsonl, capsys):
        out = ws / "bundle2"
        code = main(["topics", str(corpus_jsonl), "--ego", "ego", "--dim", "16",
                     "--k-max", "4", "--seed", "42", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "ranked alters: alt_a (37 retweets), alt_b (19 retweets)" in printed
        assert "k\tsilhouette" in printed
        assert "<- selected" in printed
        assert "validation weighted F1" in printed
        assert "topic_0" in printed

    def test_unknown_ego_exits_one(self, corpus_jsonl, tmp_path):
        code = main(["topics", str(corpus_jsonl), "--ego", "ghost",
                     "--out", str(tmp_path / "b")])
        assert code == 1

    def test_k_min_above_post_count_names_the_count(self, two_topic_corpus, tmp_path,
                                                    caplog):
        ego = [p for p in two_topic_corpus.posts if p.author == "ego"][:6]
        posts = [p for p in two_topic_corpus.posts if p.author != "ego" or p in ego]
        path = tmp_path / "six.jsonl"
        path.write_text(dataclasses.replace(two_topic_corpus, posts=tuple(posts)).to_jsonl(),
                        encoding="utf-8")
        code = main(["topics", str(path), "--ego", "ego", "--k-min", "10",
                     "--out", str(tmp_path / "b")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["k_min 10 needs at least 11 featurizable ego posts, have 6"]

    @pytest.mark.parametrize("top_words", ["0", "-9"])
    def test_top_words_below_one_exits_one(self, corpus_jsonl, tmp_path, caplog, top_words):
        out = tmp_path / "b"
        code = main(["topics", str(corpus_jsonl), "--ego", "ego", "--k", "2",
                     "--top-words", top_words, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"top_n must be >= 1, got {top_words}"]

    def test_top_words_refused_before_the_corpus_is_read(self, monkeypatch, corpus_jsonl,
                                                        tmp_path, caplog):
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "_load_windowed", must_not_run)
        monkeypatch.setattr(cli, "fit_topics", must_not_run)
        code = main(["topics", str(corpus_jsonl), "--ego", "ego", "--top-words", "0",
                     "--out", str(tmp_path / "b")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["top_n must be >= 1, got 0"]

    def _config(self, monkeypatch, corpus_jsonl, *flags):
        """The PipelineConfig `topics` hands to fit_topics for these flags."""
        seen = []

        def capture(corpus, config):
            seen.append(config)
            raise EgofluxError("captured")

        monkeypatch.setattr(cli, "fit_topics", capture)
        assert main(["topics", str(corpus_jsonl), "--ego", "ego", "--out", "unused",
                     *flags]) == 1
        return seen[0]

    def test_defaults_are_pipeline_config_defaults(self, monkeypatch, corpus_jsonl):
        assert self._config(monkeypatch, corpus_jsonl) == PipelineConfig(ego="ego")

    def test_each_flag_sets_its_config_field(self, monkeypatch, corpus_jsonl):
        config = self._config(
            monkeypatch, corpus_jsonl, "--k", "3", "--k-min", "3", "--k-max", "5",
            "--top-words", "7", "--seed", "1", "--embeddings", "emb.jsonl", "--dim", "8",
            "--min-df", "1", "--min-count", "4", "--threshold", "2.5", "--n-alters", "2",
            "--exclude", "a,b")
        assert config == PipelineConfig(
            ego="ego", k=3, k_min=3, k_max=5, top_words=7, seed=1,
            embeddings_path="emb.jsonl", embed_dim=8, min_df=1, phrase_min_count=4,
            phrase_threshold=2.5, n_alters=2, exclude=("a", "b"))

    def test_exclude_names_canonicalised_and_empty_value_means_none(self, monkeypatch,
                                                                     corpus_jsonl):
        assert self._config(monkeypatch, corpus_jsonl, "--exclude", " @A,b").exclude == ("a", "b")
        assert self._config(monkeypatch, corpus_jsonl, "--exclude", "").exclude == ()


class TestClassify:
    def test_labels_every_post(self, labels_csv, two_topic_corpus):
        with open(labels_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(two_topic_corpus.posts)
        assert set(rows[0]) == {"post_id", "author", "created_at", "topic"}
        assert {r["topic"] for r in rows} == {"0", "1"}

    def test_missing_bundle_exits_one(self, corpus_jsonl, tmp_path):
        code = main(["classify", str(corpus_jsonl),
                     "--model", str(tmp_path / "missing")])
        assert code == 1

    def test_embeddings_csv_with_blank_first_line_exits_one(self, corpus_jsonl, bundle_dir,
                                                            tmp_path, caplog):
        emb = tmp_path / "emb.csv"
        emb.write_text("\nid,v0\np0000,1.0\n", encoding="utf-8")
        code = main(["classify", str(corpus_jsonl), "--model", str(bundle_dir),
                     "--embeddings", str(emb), "--out", str(tmp_path / "labels.csv")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{emb}: CSV header must start with 'id'"]


class TestSeries:
    def test_full_grid_with_explicit_window(self, series_csv):
        series = read_series_csv(series_csv)
        assert {(s.account, s.topic) for s in series} == {
            (a, t) for a in ("ego", "alt_a", "alt_b") for t in (0, 1)}
        assert all(len(s.counts) == 30 for s in series)

    def test_counts_match_labels(self, series_csv, labels_csv):
        with open(labels_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        series = read_series_csv(series_csv)
        total = sum(int(c) for s in series for c in s.counts)
        assert total == len(rows)

    def test_stdout_is_the_out_file_from_the_same_writer(self, labels_csv, series_csv,
                                                          tmp_path, monkeypatch, capsys):
        writes = []
        real_write = cli.write_series_rows

        def counting_write(series, fh):
            writes.append(fh)
            real_write(series, fh)

        monkeypatch.setattr(cli, "write_series_rows", counting_write)
        out = tmp_path / "series.csv"
        assert main(["series", str(labels_csv), *WINDOW_ARGS, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["series", str(labels_csv), *WINDOW_ARGS]) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
        assert out.read_bytes() == series_csv.read_bytes()
        assert len(writes) == 2

    def test_labels_not_utf8_named(self, tmp_path, caplog):
        labels = tmp_path / "labels.csv"
        labels.write_bytes("post_id,author,created_at,topic\n"
                           "p1,caf\u00e9,2020-01-06T00:00:00+00:00,0\n".encode("latin-1"))
        assert main(["series", str(labels)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith(f"{labels}: 'utf-8' codec can't decode byte 0xe9")

    def test_bad_columns_exit_one(self, tmp_path):
        bad = tmp_path / "labels.csv"
        bad.write_text("post_id,author\np1,ego\n", encoding="utf-8")
        code = main(["series", str(bad)])
        assert code == 1

    LABELS_HEADER = "post_id,author,created_at,topic\n"
    GOOD_ROW = "p1,ego,2020-01-06T10:00:00+00:00,0\n"

    def _series_error(self, caplog, paths, *options):
        """Run `series` on the files; return its one logged error (no traceback)."""
        assert main(["series", *map(str, paths), *options]) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        return errors[0].getMessage()

    def _labels(self, tmp_path, *rows, name="labels.csv"):
        path = tmp_path / name
        path.write_text(self.LABELS_HEADER + "".join(rows), encoding="utf-8")
        return path

    def test_header_only_labels_exit_one(self, tmp_path, caplog):
        assert self._series_error(caplog, [self._labels(tmp_path)]) == "no labeled posts given"

    def test_short_row_exits_one_naming_line(self, tmp_path, caplog):
        bad = self._labels(tmp_path, self.GOOD_ROW, "p2,ego\n")
        assert self._series_error(caplog, [bad]) == f"{bad}:3: row has too few cells"

    # A topic cell is ASCII -?[0-9]+, as in the series CSV: no sign, space or other digits.
    @pytest.mark.parametrize("cell", ["x", " +1", "+1", "\u0661"])
    def test_non_integer_topic_names_line(self, tmp_path, caplog, cell):
        bad = self._labels(tmp_path, self.GOOD_ROW, f"p2,ego,2020-01-07T10:00:00+00:00,{cell}\n")
        assert self._series_error(caplog, [bad]) == f"{bad}:3: invalid integer {cell!r}"

    def test_bad_created_at_names_line(self, tmp_path, caplog):
        bad = self._labels(tmp_path, "p2,ego,yesterday,0\n", self.GOOD_ROW)
        assert self._series_error(caplog, [bad]).startswith(f"{bad}:2: ")

    def test_repeated_post_id_in_one_file_names_both_lines(self, tmp_path, caplog):
        bad = self._labels(tmp_path, self.GOOD_ROW, "p1,ego,2020-01-08T10:00:00+00:00,1\n")
        assert self._series_error(caplog, [bad]) == f"{bad}:3: post_id 'p1' repeats {bad}:2"

    @pytest.mark.parametrize("post_id", ['""', '" "'], ids=["empty", "blank"])
    def test_empty_post_id_names_line(self, tmp_path, caplog, post_id):
        bad = self._labels(tmp_path, self.GOOD_ROW, f"{post_id},ego,2020-01-07T10:00:00+00:00,0\n")
        assert self._series_error(caplog, [bad]) == f"{bad}:3: empty id"

    def test_post_id_read_stripped(self, tmp_path, caplog):
        bad = self._labels(tmp_path, self.GOOD_ROW, '" p1",ego,2020-01-08T10:00:00+00:00,0\n')
        assert self._series_error(caplog, [bad]) == f"{bad}:3: post_id 'p1' repeats {bad}:2"

    def test_same_file_twice_is_not_counted_twice(self, tmp_path, caplog):
        ok = self._labels(tmp_path, self.GOOD_ROW)
        assert self._series_error(caplog, [ok, ok]) == f"{ok}:2: post_id 'p1' repeats {ok}:2"

    @pytest.mark.parametrize("topic, options, span", [
        ("-1", [], "0..0"), ("2", ["--n-topics", "2"], "0..1")])
    def test_topic_out_of_range_names_line(self, tmp_path, caplog, topic, options, span):
        bad = self._labels(tmp_path, self.GOOD_ROW, f"p2,ego,2020-01-07T10:00:00+00:00,{topic}\n")
        assert self._series_error(caplog, [bad], *options) == f"{bad}:3: topic {topic} outside {span}"

    def test_topic_past_an_unlabeled_topic_names_line(self, tmp_path, caplog):
        bad = self._labels(tmp_path, self.GOOD_ROW, "p2,alt,2020-01-07T10:00:00+00:00,200000\n",
                           "p3,ego,2020-01-08T10:00:00+00:00,1\n")
        assert self._series_error(caplog, [bad]) == (
            f"{bad}:3: topic 200000 leaves topic 2 with no labeled post; "
            "give --n-topics to allow empty topics")

    def test_n_topics_allows_unlabeled_topics(self, tmp_path):
        labels = self._labels(tmp_path, self.GOOD_ROW, "p2,ego,2020-01-07T10:00:00+00:00,2\n")
        out = tmp_path / "series.csv"
        assert main(["series", str(labels), "--n-topics", "3", "--out", str(out)]) == 0
        assert [s.topic for s in read_series_csv(out)] == [0, 1, 2]

    def test_created_at_outside_window_names_line(self, tmp_path, caplog):
        bad = self._labels(tmp_path, self.GOOD_ROW, "p2,ego,2020-01-13T10:00:00+00:00,0\n")
        message = self._series_error(caplog, [bad], "--start", "2020-01-13T00:00:00+00:00",
                                     "--end", "2020-02-01T00:00:00+00:00")
        assert message.startswith(f"{bad}:2: ")

    @pytest.mark.parametrize("author", ['""', '" "', '"@"'], ids=["empty", "blank", "bare-at"])
    def test_empty_author_names_line(self, tmp_path, caplog, author):
        bad = self._labels(tmp_path, self.GOOD_ROW, f"p2,{author},2020-01-07T10:00:00+00:00,0\n")
        assert self._series_error(caplog, [bad]) == f"{bad}:3: empty author"

    def test_authors_canonicalised_and_read_by_causality(self, tmp_path):
        labels = self._labels(tmp_path, *(
            f"p{i}{j},{author},{day.isoformat()}T10:00:00+00:00,{(i + j) % 2}\n"
            for i, day in enumerate(date(2020, 1, 6) + timedelta(weeks=w) for w in range(20))
            for j, author in enumerate(("ego", "@Alt_A", "alt_a", " ALT_A"))))
        series = tmp_path / "series.csv"
        assert main(["series", str(labels), "--out", str(series)]) == 0
        assert {s.account for s in read_series_csv(series)} == {"ego", "alt_a"}
        assert sum(int(c) for s in read_series_csv(series) if s.account == "alt_a"
                   for c in s.counts) == 60
        out = tmp_path / "matrix.json"
        assert main(["causality", str(series), "--ego", "ego", "--max-lag", "2",
                     "--out", str(out)]) == 0
        matrix = CausalityMatrix.from_dict(json.loads(out.read_text(encoding="utf-8")))
        assert matrix.alters == ["alt_a"]

    def test_accounts_canonicalised(self, tmp_path):
        labels = self._labels(tmp_path, self.GOOD_ROW)
        out = tmp_path / "series.csv"
        assert main(["series", str(labels), "--accounts", "@Zed", "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert sorted({row.split(",")[1] for row in rows[1:]}) == ["ego", "zed"]

    @pytest.mark.parametrize("n_topics", ["0", "-1"])
    def test_n_topics_below_one_exits_one(self, tmp_path, caplog, n_topics):
        labels = self._labels(tmp_path, self.GOOD_ROW)
        message = self._series_error(caplog, [labels], "--n-topics", n_topics)
        assert message == f"--n-topics must be >= 1, got {n_topics}"

    def test_empty_accounts_name_exits_one(self, tmp_path, caplog):
        labels = self._labels(tmp_path, self.GOOD_ROW)
        message = self._series_error(caplog, [labels], "--accounts", "a,,b")
        assert message == "--accounts 'a,,b' has an empty name"


class TestCausality:
    def test_matrix_json_parses(self, matrix_json):
        matrix = CausalityMatrix.from_dict(
            json.loads(matrix_json.read_text(encoding="utf-8")))
        assert matrix.ego == "ego"
        assert matrix.alters == ["alt_a", "alt_b"]
        assert len(matrix.pairs) == 4

    def test_unknown_ego_exits_one(self, series_csv, caplog):
        code = main(["causality", str(series_csv), "--ego", "nobody"])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["ego account 'nobody' has no series"]

    def test_unknown_alters_exit_one_naming_them(self, series_csv, tmp_path, caplog):
        out = tmp_path / "matrix.json"
        code = main(["causality", str(series_csv), "--ego", "ego",
                     "--alters", "alt_a,ghost,zed", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["alters with no series: ['ghost', 'zed']"]

    # `topics --exclude` parses its list as `causality --alters` does.
    @pytest.mark.parametrize("flag, value, missing",
                             [("--alters", "alt_a,,alt_b", False), ("--alters", " @ ", False),
                              ("--ego", " @ ", False), ("--ego", " @ ", True),
                              ("--exclude", "a,,b", True)],
                             ids=["alt_a,,alt_b", " @ ", "--ego  @ ", "--ego  @  no file",
                                  "--exclude a,,b no file"])
    def test_empty_alters_name_exits_one(self, series_csv, tmp_path, caplog, flag, value,
                                         missing):
        out = tmp_path / "matrix.json"
        path = tmp_path / "absent.csv" if missing else series_csv
        names = {"--ego": "ego", "--alters": "alt_a", flag: value}
        if flag == "--exclude":
            argv = ["topics", str(path), "--ego", "ego", "--exclude", value]
        else:
            argv = ["causality", str(path), "--ego", names["--ego"], "--alters", names["--alters"]]
        code = main([*argv, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{flag} {value!r} has an empty name"]

    def test_repeated_alters_exit_one_naming_them(self, series_csv, tmp_path, caplog):
        out = tmp_path / "matrix.json"
        code = main(["causality", str(series_csv), "--ego", "ego",
                     "--alters", "alt_a,ALT_A,@alt_a", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["alters repeated: ['alt_a']"]

    def test_ego_among_alters_exits_one(self, series_csv, tmp_path, caplog):
        out = tmp_path / "matrix.json"
        code = main(["causality", str(series_csv), "--ego", "ego",
                     "--alters", "alt_a,EGO", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["ego account 'ego' listed as an alter"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "0", "alpha must be in (0, 1), got 0.0"),
        ("--alpha", "-0.1", "alpha must be in (0, 1), got -0.1"),
        ("--alpha", "1.5", "alpha must be in (0, 1), got 1.5"),
        ("--max-diff", "-3", "max_diff must be >= 0, got -3"),
    ])
    def test_bad_alpha_or_max_diff_exits_one(self, series_csv, tmp_path, caplog,
                                             flag, value, message):
        out = tmp_path / "matrix.json"
        code = main(["causality", str(series_csv), "--ego", "ego", flag, value,
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [message]

    def test_alters_and_ego_handles_canonicalized(self, matrix_json, series_csv, tmp_path):
        out = tmp_path / "matrix.json"
        code = main(["causality", str(series_csv), "--ego", " @Ego",
                     "--alters", "@ALT_A, alt_b", "--max-lag", "4", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == matrix_json.read_bytes()

    def test_alters_find_series_accounts_as_canonicalised(self, tmp_path):
        path = tmp_path / "series.csv"
        rng = np.random.default_rng(3)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["week_start", "account", "topic", "count"])
            for account in ("Ego", "Alt_A"):
                for week in range(60):
                    day = date(2020, 1, 6) + timedelta(weeks=week)
                    writer.writerow([day.isoformat(), account, 0, int(rng.poisson(5.0))])
        out = tmp_path / "matrix.json"
        code = main(["causality", str(path), "--ego", "Ego", "--alters", "Alt_A",
                     "--max-lag", "2", "--out", str(out)])
        assert code == 0
        matrix = CausalityMatrix.from_dict(json.loads(out.read_text(encoding="utf-8")))
        assert (matrix.ego, matrix.alters) == ("ego", ["alt_a"])
        assert len(matrix.pair("alt_a", 0).results) == 2

    @pytest.mark.parametrize("topics", [(0, 2), (-1, 0)], ids=["gap", "negative"])
    def test_topics_not_zero_to_n_exit_one_naming_them(self, tmp_path, caplog, topics):
        path = tmp_path / "series.csv"
        rng = np.random.default_rng(3)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["week_start", "account", "topic", "count"])
            for account in ("ego", "alt_a"):
                for topic in topics:
                    for week in range(60):
                        day = date(2020, 1, 6) + timedelta(weeks=week)
                        writer.writerow([day.isoformat(), account, topic,
                                         int(rng.poisson(5.0))])
        out = tmp_path / "matrix.json"
        code = main(["causality", str(path), "--ego", "ego", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"series topics {list(topics)} are not 0..1"]

    def test_count_out_of_range_exits_one_naming_line(self, tmp_path, caplog):
        bad = tmp_path / "series.csv"
        bad.write_text("week_start,account,topic,count\n2020-01-06,ego,0,3\n"
                       "2020-01-13,ego,0,100000000000000000000\n", encoding="utf-8")
        out = tmp_path / "matrix.json"
        code = main(["causality", str(bad), "--ego", "ego", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert [r.getMessage() for r in errors] == [
            f"{bad}:3: count 100000000000000000000 out of range"]
        assert errors[0].exc_info is None

    def test_short_series_row_exits_one_naming_line(self, tmp_path, caplog):
        bad = tmp_path / "series.csv"
        bad.write_text("week_start,account,topic,count\n2020-01-06,ego,0,3\n2020-01-13,ego\n",
                       encoding="utf-8")
        code = main(["causality", str(bad), "--ego", "ego"])
        assert code == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert [r.getMessage() for r in errors] == [f"{bad}:3: row has too few cells"]
        assert errors[0].exc_info is None


@pytest.fixture(scope="module")
def sim_dir(ws):
    spec = SynthSpec(
        n_weeks=30, n_topics=2, seed=9,
        alters=[AlterSpec(handle="a1",
                          couplings=[Coupling(topic=0, lag=1, strength=0.8)])],
    )
    spec_path = ws / "spec.json"
    spec.save_json(spec_path)
    out = ws / "sim"
    code = main(["simulate", "--spec", str(spec_path), "--out", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_three_artifacts(self, sim_dir):
        assert (sim_dir / "series.csv").exists()
        assert (sim_dir / "truth.json").exists()
        assert (sim_dir / "spec.json").exists()

    def test_truth_lists_planted_couplings(self, sim_dir):
        truth = json.loads((sim_dir / "truth.json").read_text(encoding="utf-8"))
        assert truth["ego"] == "ego"
        assert truth["couplings"] == [
            {"alter": "a1", "topic": 0, "lag": 1, "strength": 0.8}]

    def test_series_parse_and_cover_accounts(self, sim_dir):
        series = read_series_csv(sim_dir / "series.csv")
        assert {s.account for s in series} == {"ego", "a1"}
        assert all(len(s.counts) == 30 for s in series)

    def test_spec_roundtrips(self, sim_dir):
        spec = SynthSpec.load_json(sim_dir / "spec.json")
        assert spec.seed == 9
        assert spec.alters[0].handle == "a1"

    def test_spec_json_holds_only_keys_from_dict_reads(self, sim_dir):
        nodes = []

        class ReadKeys(dict):
            """A JSON object that records which of its keys are read."""

            def __init__(self, pairs):
                super().__init__(pairs)
                self.read = set()
                nodes.append(self)

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

            def __contains__(self, key):
                self.read.add(key)
                return super().__contains__(key)

        text = (sim_dir / "spec.json").read_text(encoding="utf-8")
        SynthSpec.from_dict(json.loads(text, object_pairs_hook=ReadKeys))
        assert len(nodes) == 3  # the spec, its one alter and that alter's coupling
        assert [sorted(set(node) - node.read) for node in nodes] == [[], [], []]

    def test_non_canonical_handle_exits_one(self, tmp_path, caplog):
        spec = SynthSpec(n_weeks=30, n_topics=2, seed=9,
                         alters=[AlterSpec(handle="Alt_A",
                                           couplings=[Coupling(topic=0, lag=1, strength=0.8)])])
        spec.save_json(tmp_path / "spec.json")
        code = main(["simulate", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "sim")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "'Alt_A' is not canonical" in errors[0]
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("spec, message", [
        ([1], "not a JSON object"),
        ({"n_topics": 2, "seed": 9}, "missing field 'n_weeks'"),
        ({"n_weeks": 30, "n_topics": 2, "seed": 9, "alters": [{"couplings": []}]},
         "missing field 'handle'"),
        ({"n_weeks": 30, "n_topics": 2, "seed": 9, "alters": ["a1"]},
         "malformed entry: string indices must be integers, not 'str'"),
    ], ids=["not_an_object", "no_n_weeks", "alter_without_handle", "alter_not_an_object"])
    def test_unreadable_spec_named_and_exits_one(self, tmp_path, caplog, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["simulate", "--spec", str(path), "--out", str(tmp_path / "sim")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{path}: {message}"]
        assert not (tmp_path / "sim").exists()

    def test_missing_spec_exits_one(self, tmp_path):
        code = main(["simulate", "--spec", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "sim")])
        assert code == 1


INDENTED = Path(__file__).resolve().parent / "data" / "indented_json"


class TestIndentedJsonStillReads:
    """tests/data/indented_json holds a series CSV (`egoflux simulate`, 60 weeks,
    2 topics, alter a1 planted on topic 0 at lag 1) and the matrix.json
    (`egoflux causality --ego ego --max-lag 3`) and report (`egoflux report
    --matrix`) written from it when both JSON files were pretty-printed
    with indent=2.  Keys, values and schema numbers are unchanged since."""

    def test_matrix_reads_and_to_json_parses_equal(self):
        text = (INDENTED / "matrix.json").read_text(encoding="utf-8")
        assert text.startswith('{\n  "alpha"')
        old = json.loads(text)
        matrix = CausalityMatrix.from_dict(old)
        again = causality_scan(read_series_csv(INDENTED / "series.csv"), "ego", ["a1", "a2"],
                               max_lag=3)
        assert again == matrix
        assert json.loads(again.to_json()) == old
        assert "\n" not in again.to_json()

    def test_causality_writes_one_line(self, tmp_path):
        out = tmp_path / "matrix.json"
        code = main(["causality", str(INDENTED / "series.csv"), "--ego", "ego",
                     "--max-lag", "3", "--out", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert json.loads(text) == json.loads((INDENTED / "matrix.json").read_text("utf-8"))

    @pytest.mark.parametrize("name", ["matrix.json", "run_report.json"])
    def test_report_renders_it(self, tmp_path, name):
        code = main(["report", "--matrix", str(INDENTED / name), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "matrix.csv").read_bytes() == (INDENTED / "matrix.csv").read_bytes()
        text = (tmp_path / "run_report.json").read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert json.loads(text) == json.loads((INDENTED / "run_report.json").read_text("utf-8"))


class TestReport:
    def test_renders_matrix_json(self, ws, matrix_json):
        out = ws / "report"
        code = main(["report", "--matrix", str(matrix_json), "--out", str(out)])
        assert code == 0
        assert (out / "matrix.csv").exists()
        assert (out / "heatmap.csv").exists()
        assert (out / "run_report.json").exists()
        with open(out / "matrix.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["group", "alter", "topic_0", "topic_1"]
        assert [r[1] for r in rows[1:]] == ["alt_a", "alt_b"]

    def test_groups_file_changes_grouping(self, ws, matrix_json):
        groups = ws / "groups.csv"
        groups.write_text("handle,group\nalt_b,close\n", encoding="utf-8")
        out = ws / "report_grouped"
        code = main(["report", "--matrix", str(matrix_json),
                     "--groups", str(groups), "--out", str(out)])
        assert code == 0
        with open(out / "matrix.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("all", "alt_a"), ("close", "alt_b")]

    def test_groups_file_handles_canonicalized(self, ws, matrix_json, tmp_path):
        groups = tmp_path / "groups.csv"
        groups.write_text("handle,group\n @Alt_B,close\n", encoding="utf-8")
        out = tmp_path / "report"
        code = main(["report", "--matrix", str(matrix_json),
                     "--groups", str(groups), "--out", str(out)])
        assert code == 0
        assert (out / "matrix.csv").read_bytes() == \
            (ws / "report_grouped" / "matrix.csv").read_bytes()

    def test_groups_not_utf8_named(self, matrix_json, tmp_path, caplog):
        groups = tmp_path / "groups.csv"
        groups.write_bytes("handle,group\nalt_b,caf\u00e9\n".encode("latin-1"))
        code = main(["report", "--matrix", str(matrix_json),
                     "--groups", str(groups), "--out", str(tmp_path / "r")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith(f"{groups}: 'utf-8' codec can't decode byte 0xe9")
        with pytest.raises(EgofluxError):
            cli._read_groups(str(groups))

    def test_run_report_with_a_list_matrix_exits_one(self, tmp_path, caplog, capsys):
        path = tmp_path / "run_report.json"
        path.write_text('{"schema_version": 4, "config": {}, "matrix": []}', encoding="utf-8")
        code = main(["report", "--matrix", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{path}: malformed entry: 'list' object has no attribute 'get'"]
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_empty_groups_handle_exits_one(self, matrix_json, tmp_path, caplog):
        groups = tmp_path / "groups.csv"
        groups.write_text("handle,group\nalt_b,close\n@,far\n", encoding="utf-8")
        code = main(["report", "--matrix", str(matrix_json),
                     "--groups", str(groups), "--out", str(tmp_path / "r")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{groups}:3: empty handle"]

    @pytest.mark.parametrize("row", ["alt_a", "alt_a,"])
    def test_groups_row_without_group_exits_one(self, matrix_json, tmp_path, caplog, row):
        groups = tmp_path / "groups.csv"
        groups.write_text(f"handle,group\n{row}\nalt_b,work\n", encoding="utf-8")
        code = main(["report", "--matrix", str(matrix_json),
                     "--groups", str(groups), "--out", str(tmp_path / "r")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{groups}:2: no group for 'alt_a'"]

    def test_rerendered_run_report_holds_one_grouping(self, pipeline_result, tmp_path):
        first = tmp_path / "first"
        report = pipeline_result.report
        emit_report_bundle(ReportBundle(matrix=report.matrix, config=report.config,
                                        metrics=report.metrics,
                                        grouping={"alt_a": "close"}), first)
        groups = tmp_path / "groups.csv"
        groups.write_text("handle,group\nalt_a,far\n", encoding="utf-8")
        code = main(["report", "--matrix", str(first / "run_report.json"),
                     "--groups", str(groups), "--out", str(tmp_path / "second")])
        assert code == 0

        def groupings(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    if key == "grouping":
                        yield value
                    yield from groupings(value)
            elif isinstance(node, list):
                for value in node:
                    yield from groupings(value)

        for name, expected in (("first", {"alt_a": "close"}), ("second", {"alt_a": "far"})):
            written = json.loads((tmp_path / name / "run_report.json").read_text("utf-8"))
            assert list(groupings(written)) == [expected]

    def test_accepts_full_run_report_as_input(self, ws, matrix_json):
        first = ws / "report"
        second = ws / "report_again"
        code = main(["report", "--matrix", str(first / "run_report.json"),
                     "--out", str(second)])
        assert code == 0
        assert (second / "matrix.csv").read_bytes() == \
            (first / "matrix.csv").read_bytes()
        loaded = ReportBundle.from_dict(
            json.loads((second / "run_report.json").read_text(encoding="utf-8")))
        assert loaded.matrix.alters == ["alt_a", "alt_b"]

    @pytest.mark.parametrize("text, message", [
        ("{}", "neither a causality matrix nor a run report"),
        ("[1, 2]", "not a JSON object"),
        ('{"schema_version": 1, "config": {}, "matrix": {}}', "run report schema 1 != 4"),
        ('{"schema_version": 2, "config": {}, "matrix": {}}', "run report schema 2 != 4"),
        ('{"schema_version": 3, "config": {}, "matrix": {}}', "run report schema 3 != 4"),
        ('{"pairs": []}', "matrix schema None != 3"),
        ('{"schema_version": 1, "pairs": []}', "matrix schema 1 != 3"),
        ('{"schema_version": 2, "pairs": []}', "matrix schema 2 != 3"),
        ('{"schema_version": 3, "pairs": []}', "missing field 'n_weeks'"),
        ('{"schema_version": 3, "n_weeks": 60, "pairs": [1]}',
         "malformed entry: 'int' object is not subscriptable"),
    ], ids=["empty_object", "list", "schema_1_run_report", "schema_2_run_report",
            "schema_3_run_report", "matrix_without_schema", "schema_1_matrix",
            "schema_2_matrix", "matrix_missing_field", "matrix_pair_not_object"])
    def test_unreadable_input_named_and_exits_one(self, tmp_path, caplog, text, message):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        code = main(["report", "--matrix", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{path}: {message}"]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda pairs: pairs.pop(), "3 pairs for 2 alters x 2 topics, need 4"),
        (lambda pairs: pairs[0].update(alter="zz"),
         "pair ('zz', 0) is not an alter of ['a1', 'a2'] and a topic in 0..1"),
        (lambda pairs: pairs[1].update(topic=2),
         "pair ('a1', 2) is not an alter of ['a1', 'a2'] and a topic in 0..1"),
        (lambda pairs: pairs[1].update(topic=1.0),
         "pair ('a1', 1.0) is not an alter of ['a1', 'a2'] and a topic in 0..1"),
        (lambda pairs: pairs.append(dict(pairs[0])), "5 pairs for 2 alters x 2 topics, need 4"),
        (lambda pairs: pairs[1].update(topic=0), "pair ('a1', 0) appears twice"),
    ], ids=["missing_pair", "unknown_alter", "topic_out_of_range", "float_topic",
            "repeated_pair", "pair_in_place_of_another"])
    @pytest.mark.parametrize("name", ["matrix.json", "run_report.json"])
    def test_pairs_off_the_alter_topic_grid_exit_one(self, tmp_path, caplog, edit, message,
                                                     name):
        data = json.loads((INDENTED / name).read_text(encoding="utf-8"))
        edit((data["matrix"] if name == "run_report.json" else data)["pairs"])
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        code = main(["report", "--matrix", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{path}: {message}"]
        assert not (tmp_path / "r").exists()

    def test_claimed_grid_past_the_pairs_exits_one(self, tmp_path, caplog):
        data = json.loads((INDENTED / "matrix.json").read_text(encoding="utf-8"))
        data["n_topics"] = 1_000_000
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code = main(["report", "--matrix", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{path}: 4 pairs for 2 alters x 1000000 topics, need 2000000"]

    def test_bad_groups_columns_exit_one(self, ws, matrix_json, tmp_path):
        groups = tmp_path / "groups.csv"
        groups.write_text("handle,team\nalt_b,close\n", encoding="utf-8")
        code = main(["report", "--matrix", str(matrix_json),
                     "--groups", str(groups), "--out", str(tmp_path / "r")])
        assert code == 1
