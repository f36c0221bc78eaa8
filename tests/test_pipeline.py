"""End-to-end pipeline tests: fitting, labeling, scanning, reporting."""

import dataclasses
import json
import unicodedata
from collections import Counter
from datetime import datetime, timezone

import numpy as np
import pytest

from egoflux import pipeline, textpipe
from egoflux.bundle import TOPICS_JSON
from egoflux.corpus import Corpus, Post, load_corpus
from egoflux.errors import EmbeddingFormatError
from egoflux.features import load_embeddings, save_embeddings
from egoflux.pipeline import (
    PipelineConfig,
    classify_corpus,
    fit_topics,
    run_pipeline,
)
from egoflux.report import emit_report_bundle
from egoflux.stats import CORRECTION_BH
from egoflux.textpipe import build_token_docs, english_stopwords
from egoflux.topics import kmedoids, silhouette

from conftest import FIXTURE_CORPUS_CSV, make_post, written_keys


@pytest.fixture(scope="module")
def topic_fit(two_topic_corpus, pipeline_config):
    return fit_topics(two_topic_corpus, pipeline_config)


class TestFitTopics:
    def test_ranking_counts_ego_retweets(self, topic_fit):
        assert tuple(topic_fit.ranking.entries) == (("alt_a", 37), ("alt_b", 19))

    def test_selects_two_topics(self, topic_fit):
        assert topic_fit.clustering.k == 2
        assert set(topic_fit.bundle.silhouette_by_k) == {2, 3, 4}
        best = max(topic_fit.bundle.silhouette_by_k.items(), key=lambda kv: (kv[1], -kv[0]))
        assert best[0] == 2

    def test_classifier_recovers_clusters(self, topic_fit):
        assert topic_fit.eval_report.weighted_f1 >= 0.99

    def test_label_maps_partition_the_accounts(self, topic_fit, pipeline_result,
                                               two_topic_corpus):
        author = {p.id: p.author for p in two_topic_corpus.posts}
        ego_labels = topic_fit.clustering.assignment
        alter_labels = {i: t for i, t in pipeline_result.labels.items()
                        if i not in ego_labels}
        assert all(author[i] == "ego" for i in ego_labels)
        # The ego's posts keep their cluster labels; the classifier labels only alters'.
        assert {i: pipeline_result.labels[i] for i in ego_labels} == ego_labels
        assert all(author[i] in ("alt_a", "alt_b") for i in alter_labels)
        k = topic_fit.clustering.k
        assert all(0 <= t < k for t in alter_labels.values())

    def test_every_post_featurized_in_fixture(self, topic_fit, pipeline_result,
                                              two_topic_corpus):
        assert topic_fit.n_unfeaturized == 0
        assert len(pipeline_result.labels) == len(two_topic_corpus.posts)

    def test_ego_handle_normalized(self, two_topic_corpus, pipeline_config):
        config = dataclasses.replace(pipeline_config, ego="@EGO", k=2)
        fit = fit_topics(two_topic_corpus, config)
        assert len(fit.clustering.assignment) > 0

    @pytest.mark.parametrize("ego", ["Ego ", " @ego"])
    def test_ego_spelled_loosely_fits_like_ego(self, two_topic_corpus, pipeline_config,
                                               topic_fit, pipeline_result, ego):
        result = run_pipeline(two_topic_corpus, dataclasses.replace(pipeline_config, ego=ego))
        fit = result.fit
        assert fit.ego == "ego"
        assert fit.ranking == topic_fit.ranking
        assert fit.clustering.assignment == topic_fit.clustering.assignment
        assert result.labels == pipeline_result.labels

    def test_unknown_ego_raises(self, two_topic_corpus, pipeline_config):
        config = dataclasses.replace(pipeline_config, ego="ghost")
        with pytest.raises(ValueError, match="no posts by ego"):
            fit_topics(two_topic_corpus, config)

    def test_too_few_featurizable_posts_raise(self):
        window = (datetime(2020, 1, 6, tzinfo=timezone.utc),
                  datetime(2020, 3, 1, tzinfo=timezone.utc))
        posts = [
            make_post("e1", "ego", "2020-01-06T10:00:00+00:00", "garden soil"),
            make_post("e2", "ego", "2020-01-13T10:00:00+00:00", "garden soil"),
            make_post("e3", "ego", "2020-01-20T10:00:00+00:00", "the of and"),
            make_post("e4", "ego", "2020-01-27T10:00:00+00:00", "and the"),
        ]
        corpus = Corpus(posts=posts, window_start=window[0], window_end=window[1])
        config = PipelineConfig(ego="ego", min_df=1, embed_dim=2, k=2)
        with pytest.raises(ValueError, match="too few featurizable"):
            fit_topics(corpus, config)


    def test_fixed_k_is_a_search_over_that_k(self, two_topic_corpus, pipeline_config,
                                             monkeypatch):
        captured = []
        real_distances = pipeline.cosine_distance_matrix

        def capture(emb, ids):
            captured.append(real_distances(emb, ids))
            return captured[-1]

        monkeypatch.setattr(pipeline, "cosine_distance_matrix", capture)
        fit = fit_topics(two_topic_corpus, dataclasses.replace(pipeline_config, k=3))
        [dm] = captured
        direct = kmedoids(dm, 3, seed=pipeline_config.seed)
        assert fit.clustering.assignment == direct.assignment
        assert fit.clustering.total_cost == direct.total_cost
        assert fit.bundle.silhouette_by_k == {3: silhouette(dm, direct)}

    @pytest.mark.parametrize("k", [1, 10_000])
    def test_fixed_k_out_of_range_refused_by_select_k(self, two_topic_corpus,
                                                      pipeline_config, k):
        with pytest.raises(ValueError, match=rf"k range \[{k}, {k}\] outside \[2, \d+\]"):
            fit_topics(two_topic_corpus, dataclasses.replace(pipeline_config, k=k))

    def test_ego_posts_cleaned_once(self, two_topic_corpus, pipeline_config, monkeypatch):
        real_clean, real_fit_tfidf = textpipe.clean, pipeline.fit_tfidf
        real_build = pipeline.build_token_docs
        cleaned, builds, tfidf_docs = [], [], []

        def counting_clean(text):
            cleaned.append(text)
            return real_clean(text)

        def recording_build(posts, *args, **kwargs):
            first = len(cleaned)
            docs = real_build(posts, *args, **kwargs)
            builds.append((list(posts), cleaned[first:]))
            return docs

        def capturing_fit_tfidf(docs, **kwargs):
            tfidf_docs.append(docs)
            return real_fit_tfidf(docs, **kwargs)

        monkeypatch.setattr(textpipe, "clean", counting_clean)
        monkeypatch.setattr(pipeline, "build_token_docs", recording_build)
        monkeypatch.setattr(pipeline, "fit_tfidf", capturing_fit_tfidf)
        fit = fit_topics(two_topic_corpus, dataclasses.replace(pipeline_config, k=2))
        monkeypatch.undo()

        ego_posts = [p for p in two_topic_corpus.posts if p.author == "ego"]
        # Every ego post passes through one build_token_docs call, and every
        # clean call is made by one.
        ego_ids = Counter(p.id for posts, _ in builds for p in posts if p.author == "ego")
        assert ego_ids == Counter(p.id for p in ego_posts)
        assert sum(len(texts) for _, texts in builds) == len(cleaned)
        # Within a call, clean runs at most once per distinct whitespace token.
        for posts, texts in builds:
            raw_tokens = {t for p in posts for t in unicodedata.normalize("NFC", p.text).split()}
            assert len(texts) == len(set(texts))
            assert set(texts) <= raw_tokens
        assert tfidf_docs == [build_token_docs(ego_posts, pipeline=fit.bundle.phrases)]


class TestRunPipeline:
    def test_ego_spelled_loosely_runs_like_ego(self, two_topic_corpus, pipeline_config,
                                               pipeline_result):
        result = run_pipeline(two_topic_corpus,
                              dataclasses.replace(pipeline_config, ego=" @Ego"))
        assert result.matrix.to_json() == pipeline_result.matrix.to_json()
        assert result.report.metrics == pipeline_result.report.metrics

    def test_matrix_covers_all_pairs(self, pipeline_result):
        matrix = pipeline_result.matrix
        assert matrix.alters == ["alt_a", "alt_b"]
        assert matrix.n_topics == 2
        assert len(matrix.pairs) == 4
        assert {(p.alter, p.topic) for p in matrix.pairs} == {
            ("alt_a", 0), ("alt_a", 1), ("alt_b", 0), ("alt_b", 1)}

    def test_labels_cover_whole_corpus(self, pipeline_result, two_topic_corpus):
        assert set(pipeline_result.labels) == {p.id for p in two_topic_corpus.posts}
        assert len(pipeline_result.labels) == 540

    def test_series_grid_is_complete_and_sorted(self, pipeline_result):
        series = pipeline_result.series
        keys = [(s.account, s.topic) for s in series]
        assert keys == sorted(keys)
        assert {s.account for s in series} == {"ego", "alt_a", "alt_b"}
        assert {s.topic for s in series} == {0, 1}
        assert all(len(s.counts) == 30 for s in series)

    def test_series_counts_conserve_labeled_posts(self, pipeline_result,
                                                  two_topic_corpus):
        author = {p.id: p.author for p in two_topic_corpus.posts}
        labeled_by_account = {}
        for pid in pipeline_result.labels:
            labeled_by_account[author[pid]] = labeled_by_account.get(author[pid], 0) + 1
        for account in ("ego", "alt_a", "alt_b"):
            total = sum(int(np.sum(s.counts)) for s in pipeline_result.series
                        if s.account == account)
            assert total == labeled_by_account[account]

    def test_metrics_contents(self, pipeline_result):
        m = pipeline_result.report.metrics
        assert set(m) == {"n_ego_posts", "n_labeled_posts", "n_unfeaturized_ego_posts",
                          "alter_retweet_counts", "total_cost", "eval", "skip_counts"}
        # The weighted F1 is reported once, inside the classifier's eval.
        assert "weighted_f1" not in m
        assert m["eval"]["weighted_f1"] == pipeline_result.fit.eval_report.weighted_f1
        # The week count is the matrix's, not a metric.
        assert pipeline_result.matrix.n_weeks == 30
        assert m["n_ego_posts"] == 180
        assert m["alter_retweet_counts"] == {"alt_a": 37, "alt_b": 19}

    def test_config_embedded_verbatim(self, pipeline_result, pipeline_config):
        assert pipeline_result.report.config == pipeline_config.to_dict()

    def test_config_holds_no_grouping(self, pipeline_config):
        config = pipeline_config.to_dict()
        assert "grouping" not in config
        assert list(config) == [f.name for f in dataclasses.fields(PipelineConfig)]

    def test_report_carries_matrix_not_topics(self, pipeline_result):
        report = pipeline_result.report
        assert report.matrix is pipeline_result.matrix
        assert report.matrix.n_topics == pipeline_result.bundle.k
        assert not hasattr(report, "topics")
        assert report.grouping is None


class TestClassifyCorpus:
    def test_matches_fit_alter_labels(self, pipeline_result, two_topic_corpus):
        alter_posts = [p for p in two_topic_corpus.posts
                       if p.author in ("alt_a", "alt_b")]
        labels = classify_corpus(pipeline_result.bundle, alter_posts)
        expected = {p.id: pipeline_result.labels[p.id] for p in alter_posts}
        assert labels == expected

    def test_saved_bundle_classifies_identically(self, pipeline_result,
                                                 two_topic_corpus, tmp_path):
        from egoflux.bundle import ModelBundle
        out = pipeline_result.bundle.save(tmp_path / "bundle")
        loaded = ModelBundle.load(out)
        posts = two_topic_corpus.posts[:50]
        assert classify_corpus(loaded, posts) == \
            classify_corpus(pipeline_result.bundle, posts)

    def test_explicit_embeddings_respected(self, pipeline_result, two_topic_corpus):
        bundle = pipeline_result.bundle
        posts = two_topic_corpus.posts[:20]
        docs = build_token_docs(posts, pipeline=bundle.phrases)
        emb = bundle.projector.transform(bundle.tfidf, docs)
        assert classify_corpus(bundle, posts, emb=emb) == \
            classify_corpus(bundle, posts)

    def test_bundle_without_projector_needs_embeddings(self, pipeline_result,
                                                       two_topic_corpus):
        bundle = dataclasses.replace(pipeline_result.bundle, projector=None)
        with pytest.raises(ValueError, match="projector"):
            classify_corpus(bundle, two_topic_corpus.posts[:5])


class TestExternalEmbeddings:
    """run_pipeline on an embeddings file that holds the fixture's own fallback vectors."""

    @pytest.fixture(scope="class")
    def emb_path(self, pipeline_result, two_topic_corpus, tmp_path_factory):
        bundle = pipeline_result.bundle
        docs = build_token_docs(two_topic_corpus.posts, pipeline=bundle.phrases)
        path = tmp_path_factory.mktemp("emb") / "vectors.jsonl"
        save_embeddings(bundle.projector.transform(bundle.tfidf, docs), path)
        return path

    @pytest.fixture(scope="class")
    def external_result(self, two_topic_corpus, pipeline_config, emb_path):
        config = dataclasses.replace(pipeline_config, embeddings_path=str(emb_path))
        return run_pipeline(two_topic_corpus, config)

    def test_alter_labels_are_classify_corpus_labels(self, external_result,
                                                     two_topic_corpus, emb_path):
        alter_posts = [p for p in two_topic_corpus.posts if p.author in ("alt_a", "alt_b")]
        expected = classify_corpus(external_result.bundle, alter_posts,
                                   load_embeddings(emb_path))
        alter_labels = {i: t for i, t in external_result.labels.items()
                        if i not in external_result.fit.clustering.assignment}
        assert alter_labels == expected
        assert len(expected) == len(alter_posts)

    def test_same_labels_and_matrix_as_the_fallback_run(self, external_result,
                                                        pipeline_result):
        assert external_result.fit.embeddings is not None
        assert pipeline_result.fit.embeddings is None
        assert external_result.labels == pipeline_result.labels
        assert external_result.matrix.to_json() == pipeline_result.matrix.to_json()

    def test_saved_bundle_has_no_projector(self, external_result, tmp_path):
        out = external_result.bundle.save(tmp_path / "bundle")
        assert (out / "classifier.json").is_file()
        assert not (out / "projector.json").exists()

    def test_file_missing_an_alter_id_names_it(self, emb_path, two_topic_corpus,
                                               pipeline_config, tmp_path):
        alter_id = next(p.id for p in two_topic_corpus.posts if p.author == "alt_b")
        path = tmp_path / "vectors.jsonl"
        path.write_text("".join(line for line in emb_path.read_text().splitlines(True)
                                if json.loads(line)["id"] != alter_id))
        config = dataclasses.replace(pipeline_config, embeddings_path=str(path))
        with pytest.raises(EmbeddingFormatError, match=rf"1 ids missing .*\['{alter_id}'\]"):
            run_pipeline(two_topic_corpus, config)


FIXTURE_WINDOW = (datetime(2021, 1, 4, tzinfo=timezone.utc),
                  datetime(2021, 10, 11, tzinfo=timezone.utc))


@pytest.fixture(scope="module")
def fixture_result():
    result = load_corpus(FIXTURE_CORPUS_CSV, format="csv", window=FIXTURE_WINDOW)
    config = PipelineConfig(ego="ego", k_min=2, k_max=4, embed_dim=16,
                            seed=42, max_lag=4, alpha=0.01,
                            correction=CORRECTION_BH)
    return run_pipeline(result.corpus, config)


class TestBundledFixtureCorpus:
    """Full run on the checked-in synthetic corpus with planted couplings."""

    def test_recovers_three_topics(self, fixture_result):
        assert fixture_result.fit.clustering.k == 3
        assert fixture_result.fit.eval_report.weighted_f1 >= 0.99

    def test_ranks_retweeted_alters_only(self, fixture_result):
        assert fixture_result.matrix.alters == ["alt_a", "alt_b", "alt_c"]

    def test_detects_exactly_the_planted_couplings(self, fixture_result):
        matrix = fixture_result.matrix
        found = {(p.alter, p.topic): p.best.lag for p in matrix.pairs
                 if matrix.significant(p)}
        assert found == {("alt_a", 2): 2, ("alt_b", 1): 1}

    def test_run_report_holds_no_topic_model(self, fixture_result, tmp_path):
        paths = emit_report_bundle(fixture_result.report, tmp_path / "report")
        bundle = fixture_result.bundle.save(tmp_path / "bundle")
        topics = json.loads((bundle / TOPICS_JSON).read_text(encoding="utf-8"))
        run_report = json.loads(paths["run_report"].read_text(encoding="utf-8"))
        keys = {path[-1] for path in written_keys(run_report, maps=())}
        assert set(topics) and not keys & set(topics)
        assert "selected_k" not in keys

    def test_vocabulary_is_stopword_free(self, fixture_result):
        vocab = set(fixture_result.bundle.tfidf.vocabulary)
        assert vocab.isdisjoint(english_stopwords())
        assert len(vocab) > 0
