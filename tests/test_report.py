"""Tests for report emission: matrix CSV, heatmap data, run-report JSON."""

import csv
import json
import math

import pytest

from egoflux.report import (
    DEFAULT_GROUP,
    HEATMAP_CSV,
    MATRIX_CSV,
    P_CLAMP,
    RUN_REPORT_JSON,
    SCHEMA_VERSION,
    ReportBundle,
    emit_heatmap_data,
    emit_matrix_csv,
    emit_report_bundle,
    emit_run_report,
)
from egoflux.stats import (
    CORRECTION_BH,
    CORRECTION_NONE,
    CausalityMatrix,
    GrangerResult,
    PairOutcome,
    SKIP_DEGENERATE,
    SKIP_TOO_SHORT,
)


def pair_at(alter, topic, p, lag, adjusted=None):
    result = GrangerResult(lag=lag, f_stat=12.0, p_value=p, n_obs_effective=100)
    return PairOutcome(alter=alter, topic=topic, results=[result],
                       diff_order=0, adjusted_p=adjusted)


def pair_skipped(alter, topic, reason):
    return PairOutcome(alter=alter, topic=topic, skip_reason=reason)


def make_matrix(pairs, alters, n_topics=2, alpha=0.05, correction=CORRECTION_NONE):
    return CausalityMatrix(ego="ego", alters=alters, n_topics=n_topics,
                           max_lag=4, alpha=alpha, correction=correction,
                           pairs=pairs)


@pytest.fixture()
def matrix():
    pairs = [
        pair_at("amy", 0, p=0.004, lag=2),
        pair_at("amy", 1, p=0.485, lag=1),
        pair_skipped("bea", 0, SKIP_DEGENERATE),
        pair_at("bea", 1, p=0.0, lag=3),
        pair_skipped("cal", 0, SKIP_TOO_SHORT),
        pair_at("cal", 1, p=0.05, lag=4),
    ]
    return make_matrix(pairs, alters=["bea", "amy", "cal"])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestMatrixCsv:
    def test_header_and_sorted_rows_default_group(self, matrix, tmp_path):
        out = tmp_path / "m.csv"
        emit_matrix_csv(matrix, None, out)
        rows = read_csv(out)
        assert rows[0] == ["group", "alter", "topic_0", "topic_1"]
        assert [r[1] for r in rows[1:]] == ["amy", "bea", "cal"]
        assert all(r[0] == DEFAULT_GROUP for r in rows[1:])

    def test_significant_cell_format(self, matrix, tmp_path):
        out = tmp_path / "m.csv"
        emit_matrix_csv(matrix, None, out)
        rows = {r[1]: r for r in read_csv(out)[1:]}
        assert rows["amy"][2] == "0.004 (2)*"
        assert rows["bea"][3] == "0.000 (3)*"

    def test_nonsignificant_cell_has_no_marker(self, matrix, tmp_path):
        out = tmp_path / "m.csv"
        emit_matrix_csv(matrix, None, out)
        rows = {r[1]: r for r in read_csv(out)[1:]}
        assert rows["amy"][3] == "0.485 (1)"
        # p exactly alpha: raw-p rule is strict, so no marker.
        assert rows["cal"][3] == "0.050 (4)"

    def test_skipped_cells_render_reason_codes(self, matrix, tmp_path):
        out = tmp_path / "m.csv"
        emit_matrix_csv(matrix, None, out)
        rows = {r[1]: r for r in read_csv(out)[1:]}
        assert rows["bea"][2] == "—(DEGEN)"
        assert rows["cal"][2] == "—(SHORT)"

    def test_grouping_sorts_by_group_then_handle(self, matrix, tmp_path):
        out = tmp_path / "m.csv"
        emit_matrix_csv(matrix, {"cal": "family", "amy": "work"}, out)
        rows = read_csv(out)[1:]
        assert [(r[0], r[1]) for r in rows] == [
            ("all", "bea"), ("family", "cal"), ("work", "amy")]

    def test_bh_marker_follows_adjusted_p(self, tmp_path):
        # Raw p below alpha but adjusted p above it: no marker under BH.
        pairs = [
            pair_at("amy", 0, p=0.04, lag=1, adjusted=0.12),
            pair_at("amy", 1, p=0.02, lag=2, adjusted=0.05),
        ]
        m = make_matrix(pairs, alters=["amy"], correction=CORRECTION_BH)
        out = tmp_path / "m.csv"
        emit_matrix_csv(m, None, out)
        row = read_csv(out)[1]
        assert row[2] == "0.040 (1)"
        # Adjusted p equal to alpha counts as significant under BH.
        assert row[3] == "0.020 (2)*"

    def test_empty_matrix_raises(self, tmp_path):
        m = make_matrix([], alters=[])
        with pytest.raises(ValueError):
            emit_matrix_csv(m, None, tmp_path / "m.csv")

    def test_stored_best_lag_other_than_argmin_renders_argmin(self, tmp_path):
        results = [GrangerResult(lag=1, f_stat=1.5, p_value=0.2, n_obs_effective=100),
                   GrangerResult(lag=2, f_stat=9.0, p_value=0.001, n_obs_effective=99),
                   GrangerResult(lag=3, f_stat=9.0, p_value=0.001, n_obs_effective=98)]
        pair = PairOutcome(alter="amy", topic=0, results=results, diff_order=0)
        d = make_matrix([pair], alters=["amy"], n_topics=1).to_dict()
        assert d["pairs"][0]["best_lag"] == 2  # argmin p, ties to the smaller lag
        d["pairs"][0]["best_lag"] = 1
        loaded = CausalityMatrix.from_dict(json.loads(json.dumps(d)))
        emit_matrix_csv(loaded, None, tmp_path / "m.csv")
        emit_heatmap_data(loaded, tmp_path / "h.csv")
        assert read_csv(tmp_path / "m.csv")[1][2] == "0.001 (2)*"
        assert read_csv(tmp_path / "h.csv")[1][3] == "2"

    def test_byte_identical_across_emissions(self, matrix, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_matrix_csv(matrix, {"cal": "family"}, a)
        emit_matrix_csv(matrix, {"cal": "family"}, b)
        assert a.read_bytes() == b.read_bytes()

    def test_cells_looked_up_once_per_matrix(self, matrix, tmp_path, monkeypatch):
        expected = tmp_path / "expected.csv"
        emit_matrix_csv(matrix, None, expected)

        def no_linear_search(self, alter, topic):
            raise AssertionError("emit_matrix_csv searched the pairs per cell")

        monkeypatch.setattr(CausalityMatrix, "pair", no_linear_search)
        out = tmp_path / "m.csv"
        emit_matrix_csv(matrix, None, out)
        assert out.read_bytes() == expected.read_bytes()


class TestHeatmapData:
    def test_header_and_tested_pairs_only(self, matrix, tmp_path):
        out = tmp_path / "h.csv"
        emit_heatmap_data(matrix, out)
        rows = read_csv(out)
        assert rows[0] == ["alter", "topic", "minus_log10_p", "best_lag"]
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("amy", "0"), ("amy", "1"), ("bea", "1"), ("cal", "1")]

    def test_minus_log10_values(self, matrix, tmp_path):
        out = tmp_path / "h.csv"
        emit_heatmap_data(matrix, out)
        rows = {(r[0], r[1]): r for r in read_csv(out)[1:]}
        assert float(rows[("cal", "1")][2]) == -math.log10(0.05)
        assert float(rows[("amy", "0")][2]) == -math.log10(0.004)

    def test_zero_p_clamped(self, matrix, tmp_path):
        out = tmp_path / "h.csv"
        emit_heatmap_data(matrix, out)
        rows = {(r[0], r[1]): r for r in read_csv(out)[1:]}
        assert float(rows[("bea", "1")][2]) == -math.log10(P_CLAMP)
        assert float(rows[("bea", "1")][2]) == 16.0

    def test_lag_column(self, matrix, tmp_path):
        out = tmp_path / "h.csv"
        emit_heatmap_data(matrix, out)
        rows = {(r[0], r[1]): r for r in read_csv(out)[1:]}
        assert rows[("amy", "0")][3] == "2"
        assert rows[("bea", "1")][3] == "3"

    def test_full_matrix_row_count_matches_dimensions(self, tmp_path):
        pairs = [pair_at(a, t, p=0.3, lag=1)
                 for a in ("x", "y", "z") for t in range(3)]
        m = make_matrix(pairs, alters=["x", "y", "z"], n_topics=3)
        out = tmp_path / "h.csv"
        emit_heatmap_data(m, out)
        assert len(read_csv(out)) - 1 == len(m.alters) * m.n_topics

    def test_empty_matrix_raises(self, tmp_path):
        m = make_matrix([], alters=[])
        with pytest.raises(ValueError):
            emit_heatmap_data(m, tmp_path / "h.csv")


class TestRunReport:
    def bundle(self, matrix):
        return ReportBundle(
            matrix=matrix,
            config={"ego": "ego", "seed": 42, "alpha": 0.05},
            metrics={"eval": {"weighted_f1": 0.97}, "silhouette_by_k": {"2": 0.4}},
            topics=[{"label": "topic_0", "top_words": ["a", "b"]}],
            grouping={"amy": "work"},
        )

    def test_roundtrip(self, matrix, tmp_path):
        bundle = self.bundle(matrix)
        out = tmp_path / "r.json"
        emit_run_report(bundle, out)
        loaded = ReportBundle.from_dict(json.loads(out.read_text(encoding="utf-8")))
        assert loaded.to_dict() == bundle.to_dict()

    def test_schema_version_and_trailing_newline(self, matrix, tmp_path):
        out = tmp_path / "r.json"
        emit_run_report(self.bundle(matrix), out)
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["schema_version"] == SCHEMA_VERSION

    def test_keys_sorted_for_diffable_output(self, matrix, tmp_path):
        out = tmp_path / "r.json"
        emit_run_report(self.bundle(matrix), out)
        top = json.loads(out.read_text(encoding="utf-8"))
        assert list(top) == sorted(top)

    def test_byte_identical_across_emissions(self, matrix, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_run_report(self.bundle(matrix), a)
        emit_run_report(self.bundle(matrix), b)
        assert a.read_bytes() == b.read_bytes()

    def test_skip_reasons_survive_roundtrip(self, matrix, tmp_path):
        out = tmp_path / "r.json"
        emit_run_report(self.bundle(matrix), out)
        loaded = ReportBundle.from_dict(json.loads(out.read_text(encoding="utf-8")))
        assert loaded.matrix.pair("bea", 0).skip_reason == SKIP_DEGENERATE
        assert loaded.matrix.pair("cal", 0).skip_reason == SKIP_TOO_SHORT

    def test_from_dict_defaults(self, matrix):
        bundle = ReportBundle.from_dict({"schema_version": SCHEMA_VERSION,
                                         "matrix": matrix.to_dict()})
        assert bundle.config == {}
        assert bundle.metrics == {}
        assert bundle.topics == []
        assert bundle.grouping is None

    @pytest.mark.parametrize("version", [1, None])
    def test_other_schema_rejected(self, matrix, version):
        d = self.bundle(matrix).to_dict()
        d["schema_version"] = version
        with pytest.raises(ValueError, match=f"run report schema {version} != 2"):
            ReportBundle.from_dict(d)


class TestEmitReportBundle:
    def test_writes_three_artifacts(self, matrix, tmp_path):
        bundle = ReportBundle(matrix=matrix, grouping={"amy": "work"})
        paths = emit_report_bundle(bundle, tmp_path / "out")
        assert set(paths) == {"matrix", "heatmap", "run_report"}
        assert paths["matrix"].name == MATRIX_CSV
        assert paths["heatmap"].name == HEATMAP_CSV
        assert paths["run_report"].name == RUN_REPORT_JSON
        for p in paths.values():
            assert p.exists() and p.stat().st_size > 0

    def test_creates_nested_directories(self, matrix, tmp_path):
        bundle = ReportBundle(matrix=matrix)
        paths = emit_report_bundle(bundle, tmp_path / "a" / "b" / "c")
        assert paths["run_report"].exists()

    def test_matrix_csv_honors_bundle_grouping(self, matrix, tmp_path):
        bundle = ReportBundle(matrix=matrix, grouping={"cal": "family"})
        paths = emit_report_bundle(bundle, tmp_path / "out")
        rows = read_csv(paths["matrix"])[1:]
        assert [(r[0], r[1]) for r in rows] == [
            ("all", "amy"), ("all", "bea"), ("family", "cal")]
