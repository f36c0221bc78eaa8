"""Synthetic ecosystem generation and detection scoring."""

from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from egoflux.stats import (
    CORRECTION_BH,
    CORRECTION_NONE,
    CausalityMatrix,
    GrangerResult,
    PairOutcome,
    causality_scan,
)
from egoflux.synth import (
    AlterSpec,
    Coupling,
    SynthSpec,
    generate_series,
    score_detection,
)


def spec_of(n_weeks=100, couplings=None, seed=1, **kw):
    return SynthSpec(
        n_weeks=n_weeks,
        n_topics=2,
        alters=[AlterSpec("alt_a", couplings or [])],
        seed=seed,
        **kw,
    )


class TestSpecValidation:
    def test_valid_passes(self):
        spec_of(couplings=[Coupling(0, 2, 0.8)]).validate()

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            spec_of(n_weeks=4).validate()
        with pytest.raises(ValueError):
            SynthSpec(n_weeks=100, n_topics=0, alters=[], seed=1).validate()

    def test_lag_bounds(self):
        with pytest.raises(ValueError):
            spec_of(couplings=[Coupling(0, 0, 0.5)]).validate()
        with pytest.raises(ValueError):
            spec_of(n_weeks=100, couplings=[Coupling(0, 26, 0.5)]).validate()
        spec_of(n_weeks=100, couplings=[Coupling(0, 25, 0.5)]).validate()

    def test_topic_out_of_range(self):
        with pytest.raises(ValueError):
            spec_of(couplings=[Coupling(2, 1, 0.5)]).validate()

    def test_duplicate_handles(self):
        spec = SynthSpec(
            n_weeks=100, n_topics=2, seed=1,
            alters=[AlterSpec("alt_a", []), AlterSpec("alt_a", [])],
        )
        with pytest.raises(ValueError):
            spec.validate()

    def test_handle_colliding_with_ego(self):
        spec = SynthSpec(n_weeks=100, n_topics=2, seed=1,
                         alters=[AlterSpec("ego", [])])
        with pytest.raises(ValueError):
            spec.validate()

    @pytest.mark.parametrize("ego, alters, named", [
        ("ego", ["Alt_A"], "Alt_A"),
        ("ego", ["alt_a", "@alt_b"], "@alt_b"),
        ("ego", [" alt_a"], " alt_a"),
        ("Ego", ["alt_a"], "Ego"),
    ])
    def test_non_canonical_handle_named(self, ego, alters, named):
        spec = SynthSpec(n_weeks=100, n_topics=2, seed=1, ego=ego,
                         alters=[AlterSpec(h, []) for h in alters])
        with pytest.raises(ValueError, match=f"handle {named!r} is not canonical"):
            spec.validate()

    def test_handles_that_canonicalise_alike_rejected(self):
        spec = SynthSpec(n_weeks=100, n_topics=2, seed=1,
                         alters=[AlterSpec("alt_a", []), AlterSpec("Alt_A", [])])
        with pytest.raises(ValueError, match="'Alt_A' is not canonical"):
            spec.validate()

    def test_nonfinite_strength(self):
        with pytest.raises(ValueError):
            spec_of(couplings=[Coupling(0, 1, float("nan"))]).validate()

    def test_roundtrip_json(self, tmp_path):
        spec = spec_of(couplings=[Coupling(1, 3, 0.7)], n_weeks=80)
        path = tmp_path / "spec.json"
        spec.save_json(path)
        again = SynthSpec.load_json(path)
        assert again == spec

    def test_save_json_text(self, tmp_path):
        spec = SynthSpec(n_weeks=60, n_topics=3, seed=7, rho=0.5, noise_sd=2.0, offset=4.5,
                         ego="me", start=date(2019, 12, 30),
                         alters=[AlterSpec("alt_a", [Coupling(0, 2, 0.5), Coupling(2, 1, -0.25)]),
                                 AlterSpec("alt_b")])
        path = tmp_path / "spec.json"
        spec.save_json(path)
        assert path.read_text(encoding="utf-8") == (
            '{\n  "alters": [\n    {\n      "couplings": [\n'
            '        {\n          "lag": 2,\n          "strength": 0.5,\n          "topic": 0\n'
            '        },\n'
            '        {\n          "lag": 1,\n          "strength": -0.25,\n          "topic": 2\n'
            '        }\n      ],\n      "handle": "alt_a"\n    },\n'
            '    {\n      "couplings": [],\n      "handle": "alt_b"\n    }\n  ],\n'
            '  "ego": "me",\n  "n_topics": 3,\n  "n_weeks": 60,\n  "noise_sd": 2.0,\n'
            '  "offset": 4.5,\n  "rho": 0.5,\n  "seed": 7,\n  "start": "2019-12-30"\n}\n')


class TestGenerateSeries:
    def test_shapes_and_dtypes(self):
        spec = spec_of(couplings=[Coupling(0, 2, 0.8)])
        result = generate_series(spec)
        keys = {(s.account, s.topic) for s in result.series}
        assert keys == {("ego", 0), ("ego", 1), ("alt_a", 0), ("alt_a", 1)}
        for s in result.series:
            assert len(s.counts) == 100
            assert s.counts.dtype.kind == "i"
            assert (s.counts >= 0).all()
        assert result.week_index.n_weeks == 100
        assert result.week_index.epoch_week_start.weekday() == 0

    def test_deterministic(self):
        spec = spec_of(couplings=[Coupling(0, 2, 0.8)], seed=9)
        a, b = generate_series(spec), generate_series(spec)
        for sa, sb in zip(a.series, b.series):
            assert (sa.account, sa.topic) == (sb.account, sb.topic)
            np.testing.assert_array_equal(sa.counts, sb.counts)
        assert a.truth == b.truth

    def test_series_sorted(self):
        result = generate_series(spec_of())
        keys = [(s.account, s.topic) for s in result.series]
        assert keys == sorted(keys)

    def test_truth_lists_planted_couplings(self):
        spec = spec_of(couplings=[Coupling(0, 2, 0.8), Coupling(1, 4, 0.6)])
        result = generate_series(spec)
        assert set(result.truth) == {("alt_a", 0, 2, 0.8), ("alt_a", 1, 4, 0.6)}

    def test_mean_near_offset(self):
        result = generate_series(spec_of(n_weeks=400, offset=10.0))
        for s in result.series:
            assert 7.0 < s.counts.mean() < 13.0

    def test_zero_strength_is_null_ecosystem(self):
        spec = spec_of(n_weeks=300, couplings=[])
        result = generate_series(spec)
        matrix = causality_scan(result.series, "ego", ["alt_a"], max_lag=4)
        score = score_detection(matrix, result.truth, alpha=0.001)
        assert score.n_truth == 0
        assert score.recall == 1.0

    def test_planted_coupling_recovered_end_to_end(self):
        spec = spec_of(n_weeks=300, couplings=[Coupling(0, 2, 0.8)], seed=4)
        result = generate_series(spec)
        matrix = causality_scan(result.series, "ego", ["alt_a"], max_lag=6)
        hit = matrix.pair("alt_a", 0)
        assert hit.best.lag == 2
        assert hit.best.p_value < 0.001

    def test_invalid_spec_rejected_at_generation(self):
        with pytest.raises(ValueError):
            generate_series(spec_of(n_weeks=4))


def hand_matrix(cells, correction=CORRECTION_NONE):
    """cells: {(alter, topic): (p, lag)} -> minimal CausalityMatrix."""
    alters = sorted({a for a, _ in cells})
    topics = sorted({t for _, t in cells})
    pairs = []
    for alter in alters:
        for topic in topics:
            outcome = PairOutcome(alter=alter, topic=topic)
            if (alter, topic) in cells:
                p, lag = cells[(alter, topic)]
                outcome.results = [GrangerResult(lag=lag, f_stat=5.0, p_value=p,
                                                 n_obs_effective=100 - lag)]
                outcome.diff_order = 0
            else:
                outcome.skip_reason = "SHORT"
            pairs.append(outcome)
    return CausalityMatrix(ego="ego", alters=alters, n_topics=len(topics), n_weeks=100,
                           max_lag=8, alpha=0.05, correction=correction, pairs=pairs)


class TestScoreDetection:
    def test_perfect_recovery(self):
        matrix = hand_matrix({("a", 0): (1e-6, 2), ("a", 1): (0.9, 1)})
        truth = [("a", 0, 2, 0.8)]
        score = score_detection(matrix, truth, alpha=0.01)
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.lag_accuracy == 1.0
        assert not score.precision_by_convention

    def test_mixed_fixture(self):
        # 3 planted; 2 found (one at the wrong lag), 1 false alarm
        matrix = hand_matrix({
            ("a", 0): (1e-6, 2),   # true, correct lag
            ("a", 1): (1e-4, 5),   # true, wrong lag (planted 3)
            ("b", 0): (1e-3, 1),   # false alarm
            ("b", 1): (0.7, 1),    # correctly quiet
        })
        truth = [("a", 0, 2, 0.8), ("a", 1, 3, 0.7), ("c", 0, 1, 0.9)]
        score = score_detection(matrix, truth, alpha=0.01)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)
        assert score.lag_accuracy == pytest.approx(1 / 2)
        assert score.n_detections == 3
        assert score.n_truth == 3

    def test_no_detections_convention(self):
        matrix = hand_matrix({("a", 0): (0.5, 1)})
        truth = [("a", 0, 2, 0.8)]
        score = score_detection(matrix, truth, alpha=0.01)
        assert score.recall == 0.0
        assert score.precision == 1.0
        assert score.precision_by_convention

    def test_adjusted_p_used_when_present(self):
        # Raw p 0.008 < 0.01, but BH over (0.008, 0.9) adjusts it to 0.016.
        matrix = hand_matrix({("a", 0): (0.008, 2), ("a", 1): (0.9, 1)},
                             correction=CORRECTION_BH)
        assert matrix.adjusted_p[("a", 0)] == pytest.approx(0.016)
        score = score_detection(matrix, [("a", 0, 2, 0.8)], alpha=0.01)
        assert score.n_detections == 0
        raw = score_detection(replace(matrix, correction=CORRECTION_NONE),
                              [("a", 0, 2, 0.8)], alpha=0.01)
        assert raw.n_detections == 1

    def test_bh_adjusted_p_equal_to_alpha_is_detected(self):
        # Under BH the rule is adjusted p <= alpha, as CausalityMatrix.significant
        # has it; a lone tested pair's adjusted p is its p.
        matrix = hand_matrix({("a", 0): (0.01, 2)}, correction=CORRECTION_BH)
        assert matrix.adjusted_p[("a", 0)] == 0.01
        score = score_detection(matrix, [("a", 0, 2, 0.8)], alpha=0.01)
        assert score.n_detections == 1
        assert score.recall == 1.0

    def test_detections_are_the_pairs_the_matrix_marks(self):
        cells = {("a", 0): (1e-6, 2), ("a", 1): (0.05, 1), ("b", 0): (0.049, 3),
                 ("b", 1): (0.2, 1)}
        for correction in (CORRECTION_NONE, CORRECTION_BH):
            matrix = hand_matrix(cells, correction=correction)
            marked = [(p.alter, p.topic) for p in matrix.pairs if matrix.significant(p)]
            assert marked
            truth = [(a, t, 1, 1.0) for a, t in marked]
            score = score_detection(matrix, truth, matrix.alpha)
            assert score.n_detections == len(marked) and score.precision == 1.0

    def test_to_dict_serializable(self):
        import json

        matrix = hand_matrix({("a", 0): (1e-6, 2)})
        score = score_detection(matrix, [("a", 0, 2, 0.8)], alpha=0.01)
        json.dumps(score.to_dict())

    def test_to_dict_json_text(self):
        import json

        matrix = hand_matrix({("a", 0): (1e-6, 2), ("a", 1): (1e-4, 5), ("b", 0): (1e-3, 1),
                              ("b", 1): (0.7, 1)})
        truth = [("a", 0, 2, 0.8), ("a", 1, 3, 0.7), ("c", 0, 1, 0.9)]
        score = score_detection(matrix, truth, alpha=0.01)
        assert json.dumps(score.to_dict()) == (
            '{"precision": 0.6666666666666666, "recall": 0.6666666666666666, '
            '"lag_accuracy": 0.5, "n_detections": 3, "n_truth": 3, '
            '"precision_by_convention": false}')
