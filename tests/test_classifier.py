"""Linear one-vs-rest hinge classifier: training, prediction, evaluation."""

import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest

from egoflux import classifier as clf_mod
from egoflux.classifier import (
    C,
    PREDICT_BLOCK,
    VAL_FRACTION,
    LinearClassifier,
    _stratified_split,
    evaluate,
    predict,
    train,
)
from egoflux.corpus import load_corpus
from egoflux.features import EmbeddingSet
from egoflux.pipeline import run_pipeline

from conftest import FIXTURE_CONFIG, FIXTURE_CORPUS_CSV, FIXTURE_WINDOW, embedding_set


def blob_data(rng, centers, per_class=30, spread=0.15):
    vectors, labels = {}, {}
    dim = len(centers[0])
    for c, center in enumerate(centers):
        for i in range(per_class):
            pid = f"c{c}_{i}"
            vectors[pid] = rng.normal(center, spread, size=dim)
            labels[pid] = c
    return embedding_set(vectors), labels


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
        pred = predict(clf, emb, [emb.index[i] for i in sorted(labels)])
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
        emb = embedding_set({**emb.vectors, "solo": [5.0, 5.0]})
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
        )

    def test_argmax(self):
        clf = self._fixed_clf([[1, 0], [0, 1]], [0, 0])
        emb = embedding_set({"p": [0.2, 0.9]})
        assert predict(clf, emb, [0])["p"] == 1

    def test_exact_tie_lowest_class(self):
        clf = self._fixed_clf([[1, 0], [1, 0], [0, 1]], [0, 0, 0])
        emb = embedding_set({"p": [1.0, 0.0]})
        assert predict(clf, emb, [0])["p"] == 0

    def test_dim_mismatch_rejected(self):
        clf = self._fixed_clf([[1, 0], [0, 1]], [0, 0])
        emb = embedding_set({"p": np.zeros(3)})
        with pytest.raises(ValueError):
            predict(clf, emb, [0])

    def test_labels_follow_positions(self):
        clf = self._fixed_clf([[1, 0], [0, 1]], [0, 0])
        emb = embedding_set({"z": [1.0, 0.0], "a": [0.0, 1.0]})
        assert list(predict(clf, emb, [1, 0])) == ["a", "z"]
        assert predict(clf, emb, [0, 1]) == {"z": 0, "a": 1}


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(19)
        emb, labels = blob_data(rng, [[0, 2], [2, 0]], per_class=8)
        clf, _ = train(emb, labels)
        again = LinearClassifier.from_dict(clf.to_dict())
        np.testing.assert_allclose(again.weights, clf.weights)
        np.testing.assert_allclose(again.biases, clf.biases)
        assert again.classes == clf.classes
        every = range(len(emb.ids))
        assert predict(again, emb, every) == predict(clf, emb, every)

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LinearClassifier(
                weights=np.zeros((1, 2)),
                biases=np.zeros(1),
                classes=[0],
                )

    @pytest.mark.parametrize("weights, biases, classes, message", [
        (np.zeros(3), np.zeros(3), [0, 1, 2], r"weights have shape \(3,\)"),
        (np.zeros((3, 2)), np.zeros(3), [0, 1, 2, 3], r"weights have shape \(3, 2\)"),
        (np.zeros((3, 2)), np.zeros(4), [0, 1, 2], r"biases have shape \(4,\)"),
        (np.zeros((3, 2)), np.zeros((3, 1)), [0, 1, 2], r"biases have shape \(3, 1\)"),
        (np.zeros((3, 2)), np.zeros(3), [0, 1, 1], "classes repeat"),
        (np.full((3, 2), np.nan), np.zeros(3), [0, 1, 2], "weights contain NaN/Inf"),
    ], ids=["1-d weights", "fewer rows than classes", "more biases than classes",
            "2-d biases", "repeated class", "NaN weights"])
    def test_from_dict_rejects_inconsistent_parts(self, weights, biases, classes, message):
        d = {"classes": classes, "weights": weights.tolist(), "biases": biases.tolist()}
        with pytest.raises(ValueError, match=message):
            LinearClassifier.from_dict(d)


def reference_train(emb, labels, seed):
    """The per-sample Pegasos loop (200 epochs, shuffled order) that full-batch
    training replaced, kept as the reference with its per-id stacked rows.
    Returns (clf, train_ids, val_ids)."""
    ids_by_class = {}
    for pid in sorted(labels):
        ids_by_class.setdefault(labels[pid], []).append(pid)
    rng = np.random.default_rng(seed)
    train_ids, val_ids = _stratified_split(ids_by_class, VAL_FRACTION, rng)
    classes = sorted(ids_by_class)
    X = np.stack([emb.vectors[pid] for pid in train_ids])
    n_train, dim = X.shape
    y = np.array([labels[pid] for pid in train_ids])
    Y = np.where(y[:, None] == np.array(classes)[None, :], 1.0, -1.0)
    lam = 1.0 / (C * n_train)
    W = np.zeros((len(classes), dim))
    b = np.zeros(len(classes))
    order = rng.permutation(n_train)
    t = 0
    for _ in range(200):
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            margins = Y[i] * (W @ X[i] + b)
            W *= 1.0 - eta * lam
            hit = margins < 1.0
            if hit.any():
                W[hit] += (eta * Y[i][hit])[:, None] * X[i][None, :]
                b[hit] += eta * Y[i][hit]
    clf = LinearClassifier(weights=W, biases=b, classes=classes)
    return clf, train_ids, val_ids


def reference_predict(clf, emb, ids):
    """Per-post argmax of w_c . v + b_c, the form block-wise predict replaced."""
    return {pid: clf.classes[int(np.argmax(clf.weights @ emb.vectors[pid] + clf.biases))]
            for pid in ids}


def pegasos_objective(clf, emb, labels, train_ids):
    """Per-class lam/2 |w_c|^2 + mean hinge loss on the training set."""
    X = np.stack([emb.vectors[pid] for pid in train_ids])
    y = np.array([labels[pid] for pid in train_ids])
    Y = np.where(y[:, None] == np.array(clf.classes)[None, :], 1.0, -1.0)
    lam = 1.0 / (C * len(train_ids))
    hinge = np.maximum(0.0, 1.0 - Y * (X @ clf.weights.T + clf.biases))
    return lam / 2 * (clf.weights ** 2).sum(axis=1) + hinge.mean(axis=0)


@pytest.fixture(scope="module")
def fixture_case():
    """run_pipeline on the fixture corpus, with the ego embeddings/labels and the
    alter embeddings/ids it hands to the classifier (recorded at the call
    sites), and the reference classifier trained on the same inputs."""
    corpus = load_corpus(FIXTURE_CORPUS_CSV, format="csv", window=FIXTURE_WINDOW).corpus
    train_calls, predict_calls = [], []
    real_train, real_predict = clf_mod.train, clf_mod.predict

    def recording_train(emb, labels, seed=clf_mod.DEFAULT_SEED):
        train_calls.append((emb, dict(labels), seed))
        return real_train(emb, labels, seed=seed)

    def recording_predict(clf, emb, positions):
        predict_calls.append((emb, [emb.ids[i] for i in np.asarray(positions).tolist()]))
        return real_predict(clf, emb, positions)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clf_mod, "train", recording_train)
        mp.setattr(clf_mod, "predict", recording_predict)
        result = run_pipeline(corpus, FIXTURE_CONFIG)
    (emb, labels, seed), = train_calls
    alter_emb, alter_ids = predict_calls[-1]
    ref, train_ids, val_ids = reference_train(emb, labels, seed)
    alter_labels = {pid: t for pid, t in result.labels.items()
                    if pid not in result.fit.clustering.assignment}
    return SimpleNamespace(fit=result.fit, alter_labels=alter_labels, emb=emb, labels=labels,
                           alter_emb=alter_emb, alter_ids=alter_ids, ref=ref,
                           train_ids=train_ids, val_ids=val_ids)


class TestFullBatchAgainstPerSample:
    def test_objective_within_five_percent_per_class(self, fixture_case):
        case = fixture_case
        new_obj = pegasos_objective(case.fit.bundle.classifier, case.emb, case.labels,
                                    case.train_ids)
        ref_obj = pegasos_objective(case.ref, case.emb, case.labels, case.train_ids)
        assert len(new_obj) >= 2
        assert np.all(new_obj <= 1.05 * ref_obj), (new_obj, ref_obj)

    def test_equal_validation_f1(self, fixture_case):
        case = fixture_case
        ref_report = evaluate(reference_predict(case.ref, case.emb, case.val_ids),
                              {pid: case.labels[pid] for pid in case.val_ids})
        assert case.fit.eval_report.weighted_f1 == ref_report.weighted_f1

    def test_equal_alter_labels(self, fixture_case):
        case = fixture_case
        assert len(case.alter_ids) > 0
        assert case.alter_labels == reference_predict(case.ref, case.alter_emb,
                                                      case.alter_ids)


class TestBlockPredict:
    N = 2 * PREDICT_BLOCK + 5

    def _random_case(self):
        rng = np.random.default_rng(21)
        clf = LinearClassifier(weights=rng.normal(size=(3, 8)), biases=rng.normal(size=3),
                               classes=[2, 5, 7])
        emb = embedding_set({f"p{i:05d}": rng.normal(size=8) for i in range(self.N)})
        return clf, emb

    def test_matrix_called_per_block(self):
        clf, emb = self._random_case()
        sizes = []

        class RecordingRows(np.ndarray):
            """Rows that record the length of every block read from them."""

            def __getitem__(self, key):
                sizes.append(len(key))
                return np.asarray(super().__getitem__(key))

        predict(clf, EmbeddingSet(ids=emb.ids, rows=emb.rows.view(RecordingRows)),
                range(self.N))
        assert len(sizes) == math.ceil(self.N / PREDICT_BLOCK)
        assert max(sizes) <= PREDICT_BLOCK
        assert sum(sizes) == self.N

    def test_matches_per_post_argmax_across_blocks(self):
        clf, emb = self._random_case()
        ids = sorted(emb.vectors, reverse=True)
        pred = predict(clf, emb, [emb.index[i] for i in ids])
        assert list(pred) == ids
        assert pred == reference_predict(clf, emb, ids)
        assert set(pred.values()) == {2, 5, 7}

    def test_empty_ids(self):
        clf, emb = self._random_case()
        assert predict(clf, emb, []) == {}


OBJECTIVE_TOLERANCE = 1.05  # fixed before the comparison below was first run


def plain_train(emb, labels, train_ids):
    """The loop the projected, averaged one replaced: 1,000 plain full-batch
    Pegasos steps, last iterate, on the given training ids."""
    classes = sorted(set(labels.values()))
    X = np.stack([emb.vectors[pid] for pid in train_ids])
    y = np.array([labels[pid] for pid in train_ids])
    Y = np.where(y[:, None] == np.array(classes)[None, :], 1.0, -1.0)
    n_train = len(train_ids)
    lam = 1.0 / (C * n_train)
    W = np.zeros((len(classes), X.shape[1]))
    b = np.zeros(len(classes))
    for t in range(1, 1001):
        eta = 1.0 / (lam * t)
        hit_y = Y * (Y * (X @ W.T + b) < 1.0)
        W *= 1.0 - eta * lam
        W += (eta / n_train) * (hit_y.T @ X)
        b += (eta / n_train) * hit_y.sum(axis=0)
    return LinearClassifier(weights=W, biases=b, classes=classes)


def train_ids_of(labels, seed):
    ids_by_class = {}
    for pid in sorted(labels):
        ids_by_class.setdefault(labels[pid], []).append(pid)
    return _stratified_split(ids_by_class, VAL_FRACTION, np.random.default_rng(seed))[0]


def overlapping_blobs(seed):
    """Three classes in 8 dims whose blobs overlap, so the hinge loss stays > 0."""
    rng = np.random.default_rng(seed)
    return blob_data(rng, rng.normal(0.0, 1.0, size=(3, 8)).tolist(), per_class=60,
                     spread=0.8)


@pytest.fixture(params=["fixture", "blobs-51", "blobs-52"])
def trained_case(request, fixture_case):
    """(train's classifier, embeddings, labels, training ids) on each problem."""
    if request.param == "fixture":
        case = fixture_case
        return case.fit.bundle.classifier, case.emb, case.labels, case.train_ids
    emb, labels = overlapping_blobs(int(request.param.split("-")[1]))
    clf, _ = train(emb, labels)
    return clf, emb, labels, train_ids_of(labels, clf_mod.DEFAULT_SEED)


class TestProjectedAveragedAgainstPlain:
    def test_objective_no_worse_than_plain_loop_per_class(self, trained_case):
        clf, emb, labels, train_ids = trained_case
        new_obj = pegasos_objective(clf, emb, labels, train_ids)
        plain_obj = pegasos_objective(plain_train(emb, labels, train_ids), emb, labels,
                                      train_ids)
        assert len(new_obj) >= 2
        assert np.all(new_obj <= OBJECTIVE_TOLERANCE * plain_obj), (new_obj, plain_obj)

    def test_weights_inside_pegasos_ball(self, trained_case):
        clf, _, _, train_ids = trained_case
        radius = 1.0 / math.sqrt(1.0 / (C * len(train_ids)))
        assert np.all(np.linalg.norm(clf.weights, axis=1) <= radius)

    def test_projection_holds_after_two_steps(self, monkeypatch):
        # The plain second iterate lies far outside the ball (|w| ~ n_train/2).
        monkeypatch.setattr(clf_mod, "ITERATIONS", 2)
        emb, labels = overlapping_blobs(53)
        clf, _ = train(emb, labels)
        radius = math.sqrt(C * len(train_ids_of(labels, clf_mod.DEFAULT_SEED)))
        norms = np.linalg.norm(clf.weights, axis=1)
        assert np.all(norms <= radius * (1 + 1e-12)) and norms.max() > 0.5 * radius
