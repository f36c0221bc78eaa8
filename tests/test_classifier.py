"""Linear one-vs-rest hinge classifier: training, prediction, evaluation."""

import logging

import numpy as np
import pytest

from egoflux.classifier import (
    LinearClassifier,
    evaluate,
    predict,
    train,
)
from egoflux.features import SOURCE_EXTERNAL, EmbeddingSet


def blob_data(rng, centers, per_class=30, spread=0.15):
    vectors, labels = {}, {}
    dim = len(centers[0])
    for c, center in enumerate(centers):
        for i in range(per_class):
            pid = f"c{c}_{i}"
            vectors[pid] = rng.normal(center, spread, size=dim)
            labels[pid] = c
    emb = EmbeddingSet(dim=dim, vectors=vectors, source=SOURCE_EXTERNAL)
    return emb, labels


class TestEvaluate:
    def test_perfect_predictions(self):
        truth = {"a": 0, "b": 1, "c": 0}
        report = evaluate(truth, truth)
        assert report.weighted_f1 == 1.0
        assert report.precision == [1.0, 1.0]
        assert report.recall == [1.0, 1.0]
        assert report.support == [2, 1]

    def test_hand_computed_scores(self):
        truth = {"a": 0, "b": 0, "c": 1, "d": 1}
        pred = {"a": 0, "b": 1, "c": 1, "d": 1}
        report = evaluate(pred, truth)
        # class 0: tp=1 fp=0 fn=1 -> p=1, r=0.5, f1=2/3
        # class 1: tp=2 fp=1 fn=0 -> p=2/3, r=1, f1=0.8
        assert report.precision[0] == pytest.approx(1.0)
        assert report.recall[0] == pytest.approx(0.5)
        assert report.f1[0] == pytest.approx(2 / 3)
        assert report.precision[1] == pytest.approx(2 / 3)
        assert report.f1[1] == pytest.approx(0.8)
        assert report.weighted_f1 == pytest.approx(0.5 * (2 / 3) + 0.5 * 0.8)

    def test_confusion_rows_truth_columns_pred(self):
        truth = {"a": 0, "b": 0, "c": 1}
        pred = {"a": 0, "b": 1, "c": 1}
        report = evaluate(pred, truth)
        np.testing.assert_array_equal(report.confusion, [[1, 1], [0, 1]])

    def test_never_predicted_class_zero_precision(self):
        truth = {"a": 0, "b": 1}
        pred = {"a": 0, "b": 0}
        report = evaluate(pred, truth)
        assert report.precision[1] == 0.0
        assert report.recall[1] == 0.0
        assert report.f1[1] == 0.0

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate({"a": 0}, {"a": 0, "b": 1})

    def test_to_dict_serializable(self):
        import json

        report = evaluate({"a": 0, "b": 1}, {"a": 0, "b": 1})
        json.dumps(report.to_dict())


class TestTrain:
    def test_separable_blobs_high_f1(self):
        rng = np.random.default_rng(10)
        emb, labels = blob_data(rng, [[0, 0, 3], [3, 0, 0], [0, 3, 0]])
        clf, report = train(emb, labels)
        assert report.weighted_f1 >= 0.99
        pred = predict(clf, emb, ids=sorted(labels))
        full = evaluate(pred, labels)
        assert full.weighted_f1 >= 0.99

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        emb, labels = blob_data(rng, [[0, 2], [2, 0]], per_class=12)
        clf1, _ = train(emb, labels)
        clf2, _ = train(emb, labels)
        np.testing.assert_array_equal(clf1.weights, clf2.weights)
        np.testing.assert_array_equal(clf1.biases, clf2.biases)

    def test_seed_changes_split(self):
        rng = np.random.default_rng(14)
        emb, labels = blob_data(rng, [[0, 2], [2, 0]], per_class=12, spread=1.5)
        clf1, _ = train(emb, labels, seed=1)
        clf2, _ = train(emb, labels, seed=2)
        assert not np.array_equal(clf1.weights, clf2.weights)

    def test_single_member_class_rejected(self):
        rng = np.random.default_rng(15)
        emb, labels = blob_data(rng, [[0, 2], [2, 0]], per_class=6)
        labels["solo"] = 2
        emb.vectors["solo"] = np.array([5.0, 5.0])
        with pytest.raises(ValueError, match="single member"):
            train(emb, labels)

    def test_tiny_class_warns(self, caplog):
        rng = np.random.default_rng(16)
        emb, labels = blob_data(rng, [[0, 2], [2, 0]], per_class=3)
        with caplog.at_level(logging.WARNING, logger="egoflux.classifier"):
            train(emb, labels)
        assert any("only 3 members" in m for m in caplog.messages)

    def test_one_class_rejected(self):
        rng = np.random.default_rng(17)
        emb, labels = blob_data(rng, [[0, 2]], per_class=6)
        with pytest.raises(ValueError, match="2 classes"):
            train(emb, labels)

    def test_missing_embedding_rejected(self):
        rng = np.random.default_rng(18)
        emb, labels = blob_data(rng, [[0, 2], [2, 0]], per_class=6)
        labels["ghost"] = 0
        with pytest.raises(ValueError, match="ghost"):
            train(emb, labels)


class TestPredict:
    def _fixed_clf(self, weights, biases):
        W = np.asarray(weights, dtype=float)
        return LinearClassifier(
            weights=W,
            biases=np.asarray(biases, dtype=float),
            classes=list(range(W.shape[0])),
            dim=W.shape[1],
        )

    def test_argmax(self):
        clf = self._fixed_clf([[1, 0], [0, 1]], [0, 0])
        emb = EmbeddingSet(dim=2, vectors={"p": np.array([0.2, 0.9])},
                           source=SOURCE_EXTERNAL)
        assert predict(clf, emb)["p"] == 1

    def test_exact_tie_lowest_class(self):
        clf = self._fixed_clf([[1, 0], [1, 0], [0, 1]], [0, 0, 0])
        emb = EmbeddingSet(dim=2, vectors={"p": np.array([1.0, 0.0])},
                           source=SOURCE_EXTERNAL)
        assert predict(clf, emb)["p"] == 0

    def test_dim_mismatch_rejected(self):
        clf = self._fixed_clf([[1, 0], [0, 1]], [0, 0])
        emb = EmbeddingSet(dim=3, vectors={"p": np.zeros(3)}, source=SOURCE_EXTERNAL)
        with pytest.raises(ValueError):
            predict(clf, emb)

    def test_default_ids_sorted(self):
        clf = self._fixed_clf([[1, 0], [0, 1]], [0, 0])
        emb = EmbeddingSet(
            dim=2,
            vectors={"z": np.array([1.0, 0.0]), "a": np.array([0.0, 1.0])},
            source=SOURCE_EXTERNAL,
        )
        assert list(predict(clf, emb)) == ["a", "z"]


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(19)
        emb, labels = blob_data(rng, [[0, 2], [2, 0]], per_class=8)
        clf, _ = train(emb, labels)
        again = LinearClassifier.from_dict(clf.to_dict())
        np.testing.assert_allclose(again.weights, clf.weights)
        np.testing.assert_allclose(again.biases, clf.biases)
        assert again.classes == clf.classes
        assert predict(again, emb) == predict(clf, emb)

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LinearClassifier(
                weights=np.zeros((1, 2)),
                biases=np.zeros(1),
                classes=[0],
                dim=2,
                )
