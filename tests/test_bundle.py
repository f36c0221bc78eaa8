"""Tests for the on-disk model bundle: save/load roundtrip and validation."""

import json
import re

import numpy as np
import pytest

from egoflux.bundle import (
    CLASSIFIER_JSON,
    MANIFEST_JSON,
    PHRASES_JSON,
    PROJECTOR_JSON,
    SCHEMA_VERSION,
    TFIDF_JSON,
    TOPICS_JSON,
    ModelBundle,
)
from egoflux.classifier import LinearClassifier
from egoflux.features import fit_tfidf
from egoflux.textpipe import TokenDoc, fit_phrase_pipeline
from egoflux.topics import TopicSummary

from conftest import without_key, written_keys


def minimal_bundle():
    """Hand-assembled bundle without the optional projector part."""
    docs = [TokenDoc(post_id=f"d{i}", tokens=["alpha", "beta", "gamma"])
            for i in range(4)]
    phrases = fit_phrase_pipeline(docs, min_count=5, threshold=10.0)
    tfidf = fit_tfidf(docs, min_df=1)
    return ModelBundle(
        phrases=phrases,
        tfidf=tfidf,
        medoid_ids=["d0", "d2"],
        summaries=[TopicSummary(topic=0, label="alpha", size=2, top_words=[("alpha", 0.9)]),
                   TopicSummary(topic=1, label="beta", size=2, top_words=[("beta", 0.8)])],
        classifier=LinearClassifier(weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
                                    biases=np.array([0.0, 0.5]), classes=[0, 1]),
        seed=7,
        silhouette_by_k={2: 0.5, 3: 0.4},
    )


class TestRoundtrip:
    def test_fitted_bundle_roundtrips(self, pipeline_result, tmp_path):
        bundle = pipeline_result.bundle
        out = bundle.save(tmp_path / "bundle")
        loaded = ModelBundle.load(out)
        assert loaded.k == bundle.k == len(loaded.summaries)
        assert [s.topic for s in loaded.summaries] == list(range(loaded.k))
        assert loaded.medoid_ids == bundle.medoid_ids
        assert loaded.seed == bundle.seed
        assert loaded.silhouette_by_k == bundle.silhouette_by_k
        assert loaded.phrases.to_dict() == bundle.phrases.to_dict()
        assert loaded.tfidf.to_dict() == bundle.tfidf.to_dict()
        assert [s.to_dict() for s in loaded.summaries] == \
            [s.to_dict() for s in bundle.summaries]

    def test_fitted_bundle_keeps_optional_parts(self, pipeline_result, tmp_path):
        bundle = pipeline_result.bundle
        out = bundle.save(tmp_path / "bundle")
        loaded = ModelBundle.load(out)
        assert bundle.projector is not None
        assert bundle.classifier is not None
        assert loaded.projector.to_dict() == bundle.projector.to_dict()
        assert loaded.classifier.to_dict() == bundle.classifier.to_dict()
        # The embedding dimension is the width of each part's matrix.
        assert loaded.classifier.dim == loaded.projector.dim == \
            bundle.projector.components.shape[1]

    def test_minimal_bundle_roundtrips_with_nones(self, tmp_path):
        bundle = minimal_bundle()
        out = bundle.save(tmp_path / "bundle")
        loaded = ModelBundle.load(out)
        assert loaded.projector is None
        assert loaded.classifier.to_dict() == bundle.classifier.to_dict()
        assert loaded.k == 2
        assert [s.label for s in loaded.summaries] == ["alpha", "beta"]
        assert loaded.silhouette_by_k == {2: 0.5, 3: 0.4}
        assert not (out / PROJECTOR_JSON).exists()

    def test_k_is_derived_from_summaries(self):
        bundle = minimal_bundle()
        assert bundle.k == len(bundle.summaries) == 2
        with pytest.raises(AttributeError):
            bundle.k = 3

    def test_save_creates_nested_directories(self, tmp_path):
        out = minimal_bundle().save(tmp_path / "a" / "b" / "bundle")
        assert (out / MANIFEST_JSON).exists()


class TestManifest:
    def test_lists_written_parts(self, pipeline_result, tmp_path):
        out = pipeline_result.bundle.save(tmp_path / "bundle")
        manifest = json.loads((out / MANIFEST_JSON).read_text(encoding="utf-8"))
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["parts"] == sorted(
            [PHRASES_JSON, TFIDF_JSON, TOPICS_JSON, PROJECTOR_JSON, CLASSIFIER_JSON])

    def test_minimal_manifest_omits_optional_parts(self, tmp_path):
        out = minimal_bundle().save(tmp_path / "bundle")
        manifest = json.loads((out / MANIFEST_JSON).read_text(encoding="utf-8"))
        assert manifest["parts"] == sorted([PHRASES_JSON, TFIDF_JSON, TOPICS_JSON,
                                            CLASSIFIER_JSON])

    def test_manifest_holds_parts_version_and_seed_only(self, pipeline_result, tmp_path):
        out = pipeline_result.bundle.save(tmp_path / "bundle")
        manifest = json.loads((out / MANIFEST_JSON).read_text(encoding="utf-8"))
        assert sorted(manifest) == ["parts", "schema_version", "seed"]
        assert manifest["seed"] == pipeline_result.bundle.seed

    @staticmethod
    def _saved_with_version(tmp_path, version):
        out = minimal_bundle().save(tmp_path / "bundle")
        manifest_path = out / MANIFEST_JSON
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["schema_version"] = version
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        return out

    def test_unknown_schema_version_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="schema"):
            ModelBundle.load(self._saved_with_version(tmp_path, 99))

    def test_schema_1_bundle_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="schema 1 != 4"):
            ModelBundle.load(self._saved_with_version(tmp_path, 1))

    def test_schema_2_bundle_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="schema 2 != 4"):
            ModelBundle.load(self._saved_with_version(tmp_path, 2))

    def test_schema_3_bundle_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="schema 3 != 4"):
            ModelBundle.load(self._saved_with_version(tmp_path, 3))

    def test_topics_part_holds_no_vectors(self, pipeline_result, tmp_path):
        out = pipeline_result.bundle.save(tmp_path / "bundle")
        topics = json.loads((out / TOPICS_JSON).read_text(encoding="utf-8"))
        assert sorted(topics) == ["medoid_ids", "silhouette_by_k", "summaries"]

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(OSError):
            ModelBundle.load(tmp_path / "nowhere")

    def test_listed_part_missing_names_its_path(self, pipeline_result, tmp_path):
        out = pipeline_result.bundle.save(tmp_path / "bundle")
        (out / PROJECTOR_JSON).unlink()
        with pytest.raises(OSError, match=re.escape(str(out / PROJECTOR_JSON))):
            ModelBundle.load(out)

    def test_unlisted_part_is_not_read(self, pipeline_result, tmp_path):
        out = pipeline_result.bundle.save(tmp_path / "bundle")
        manifest = json.loads((out / MANIFEST_JSON).read_text(encoding="utf-8"))
        manifest["parts"].remove(PROJECTOR_JSON)
        (out / MANIFEST_JSON).write_text(json.dumps(manifest), encoding="utf-8")
        assert (out / PROJECTOR_JSON).exists()
        assert ModelBundle.load(out).projector is None


class TestMalformedParts:
    @pytest.mark.parametrize("name, key, value", [
        (TOPICS_JSON, "summaries", 5),
        (TFIDF_JSON, "vocabulary", None),
        (MANIFEST_JSON, "seed", [7]),
    ])
    def test_wrong_json_type_named(self, tmp_path, name, key, value):
        out = minimal_bundle().save(tmp_path / "bundle")
        written = json.loads((out / name).read_text(encoding="utf-8"))
        (out / name).write_text(json.dumps({**written, key: value}), encoding="utf-8")
        with pytest.raises(ValueError, match=r"bundle: malformed entry: "):
            ModelBundle.load(out)


class TestEveryWrittenKeyIsRead:
    """Deleting any one key a saved bundle holds makes loading fail, naming it."""

    PARTS = [MANIFEST_JSON, PHRASES_JSON, TFIDF_JSON, TOPICS_JSON, PROJECTOR_JSON,
             CLASSIFIER_JSON]

    @pytest.mark.parametrize("name", PARTS)
    def test_deleted_key_named(self, pipeline_result, tmp_path, name):
        out = pipeline_result.bundle.save(tmp_path / "bundle")
        written = json.loads((out / name).read_text(encoding="utf-8"))
        paths = list(written_keys(written))
        assert paths
        for path in paths:
            (out / name).write_text(json.dumps(without_key(written, path)), encoding="utf-8")
            named = "schema None" if path == ("schema_version",) else f"'{path[-1]}'"
            with pytest.raises(ValueError, match=named):
                ModelBundle.load(out)
        (out / name).write_text(json.dumps(written), encoding="utf-8")
        ModelBundle.load(out)

    def test_parts_hold_no_schema_version_or_dim(self, pipeline_result, tmp_path):
        out = pipeline_result.bundle.save(tmp_path / "bundle")
        for name in self.PARTS[1:]:
            keys = {path[-1] for path in
                    written_keys(json.loads((out / name).read_text(encoding="utf-8")))}
            assert not keys & {"schema_version", "dim", "seed", "doc_count", "min_df"}, name


class TestDeterminism:
    def test_saves_are_byte_identical(self, tmp_path):
        bundle = minimal_bundle()
        a = bundle.save(tmp_path / "a")
        b = bundle.save(tmp_path / "b")
        for name in (MANIFEST_JSON, PHRASES_JSON, TFIDF_JSON, TOPICS_JSON, CLASSIFIER_JSON):
            assert (a / name).read_bytes() == (b / name).read_bytes()
