"""End-to-end run: corpus -> topics -> classifier -> series -> causality -> report."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import classifier as clf_mod
from .bundle import ModelBundle
from .corpus import AlterRanking, Corpus, Post, canonical_handle, check_rank_n, rank_alters
from .features import (
    EmbeddingSet,
    FallbackProjector,
    check_dim,
    check_min_df,
    fit_tfidf,
    load_embeddings,
    tfidf_matrix,
)
from .report import ReportBundle
from .series import TopicSeries, bin_posts, build_week_index
from .stats import (
    CORRECTION_NONE,
    DEFAULT_ALPHA,
    DEFAULT_MAX_DIFF,
    DEFAULT_MAX_LAG,
    CausalityMatrix,
    causality_scan,
    check_scan_settings,
)
from .textpipe import (
    DEFAULT_MIN_COUNT,
    DEFAULT_THRESHOLD,
    build_token_docs,
    check_phrase_settings,
    fit_phrase_pipeline,
    merge_then_drop_stopwords,
)
from .topics import (
    Clustering,
    check_top_n,
    cosine_distance_matrix,
    select_k,
    summarize_topics,
)
# Not called here (select_k calls them); perfbench/tracing.py looks both up
# on this module by name, so they stay importable from it.
from .topics import kmedoids, silhouette  # noqa: F401

logger = logging.getLogger(__name__)

DEFAULT_EMBED_DIM = 64


@dataclass
class PipelineConfig:
    """Every knob of a full run, embedded verbatim in the run report.

    The alter grouping changes no computation, so it is not a knob: it is set
    on the report (`ReportBundle.grouping`).
    """

    ego: str
    n_alters: int = 12
    exclude: tuple[str, ...] = ()
    phrase_min_count: int = DEFAULT_MIN_COUNT
    phrase_threshold: float = DEFAULT_THRESHOLD
    min_df: int = 2
    k: int | None = None
    k_min: int = 2
    k_max: int = 12
    top_words: int = 50
    embed_dim: int = DEFAULT_EMBED_DIM
    embeddings_path: str | None = None
    seed: int = 42
    max_lag: int = DEFAULT_MAX_LAG
    alpha: float = DEFAULT_ALPHA
    correction: str = CORRECTION_NONE
    max_diff: int = DEFAULT_MAX_DIFF

    def __post_init__(self) -> None:
        # Each range rule is checked by its one owner, which the stage that
        # uses the value calls as well; rules that depend on the data (the k
        # range, a dimension above the vocabulary) are left to those stages.
        check_rank_n(self.n_alters)
        check_phrase_settings(self.phrase_min_count, self.phrase_threshold)
        check_min_df(self.min_df)
        check_dim(self.embed_dim)
        check_top_n(self.top_words)
        check_scan_settings(self.max_lag, self.alpha, self.correction, self.max_diff)

    def to_dict(self) -> dict:
        # A list, as JSON reads it back, so a reloaded report's config is equal.
        return {**asdict(self), "exclude": list(self.exclude)}


@dataclass
class TopicFit:
    """The models fitted on the ego's posts, and the ranked alters.

    The ego's labels are `clustering.assignment`; the score that ranked each
    k tried (`KSelection.scores`) is `bundle.silhouette_by_k`.  `embeddings` is the external set read
    for the ego's and the alters' posts, or None when the projector embeds.
    """

    ego: str  # config.ego as canonical_handle spells it, as in Post.author
    bundle: ModelBundle
    clustering: Clustering
    eval_report: clf_mod.EvalReport
    embeddings: EmbeddingSet | None
    ranking: AlterRanking
    n_unfeaturized: int


def _alter_posts(corpus: Corpus, ranking: AlterRanking) -> list[Post]:
    """The ranked alters' posts, in corpus order."""
    alters = {handle for handle, _ in ranking.entries}
    return [p for p in corpus.posts if p.author in alters]


def fit_topics(corpus: Corpus, config: PipelineConfig) -> TopicFit:
    """Fit phrase/TF-IDF/embedding models on the ego's posts, cluster, train."""
    ego = canonical_handle(config.ego)
    ego_posts = [p for p in corpus.posts if p.author == ego]
    if not ego_posts:
        raise ValueError(f"corpus has no posts by ego {config.ego!r}")

    ranking = rank_alters(corpus, ego, exclude=config.exclude, n=config.n_alters)
    alter_posts = _alter_posts(corpus, ranking)
    logger.info("ego %s: %d posts; %d alters with %d posts",
                ego, len(ego_posts), len(ranking.entries), len(alter_posts))

    # Models fit on the ego corpus only; alters pass through them unchanged.
    raw_ego_docs = build_token_docs(ego_posts)
    phrases = fit_phrase_pipeline(
        raw_ego_docs, min_count=config.phrase_min_count,
        threshold=config.phrase_threshold,
    )
    # Each ego post is cleaned and tokenized once; its tokens then take the
    # step build_token_docs gives a pipeline's docs.
    ego_docs = merge_then_drop_stopwords(phrases, raw_ego_docs)
    tfidf = fit_tfidf(ego_docs, min_df=config.min_df)
    ego_ids = ego_docs.post_ids
    A = tfidf_matrix(tfidf, ego_docs)  # built once: the projector and the summaries read it

    projector: FallbackProjector | None = None
    external: EmbeddingSet | None = None
    if config.embeddings_path:
        # Read once for the fit and the alters' labels, so both sides' ids are checked.
        external = load_embeddings(
            config.embeddings_path, ids=[p.id for p in ego_posts + alter_posts])
        ego_emb = EmbeddingSet(ego_ids, external.rows[[external.index[i] for i in ego_ids]])
    else:
        dim = min(config.embed_dim, tfidf.dim)
        projector = FallbackProjector.fit(A, dim, seed=config.seed)
        ego_emb = projector.transform(A, ego_ids)

    # Row i of ego_emb is ego doc i, as row i of A is; a zero row cannot be clustered.
    cluster_rows = np.flatnonzero(ego_emb.rows.any(axis=1))
    n_unfeaturized = len(ego_ids) - len(cluster_rows)
    if n_unfeaturized:
        logger.info("%d ego posts have empty feature vectors; excluded from topics",
                    n_unfeaturized)
    if len(cluster_rows) < 3:
        raise ValueError("too few featurizable ego posts to cluster")

    dm = cosine_distance_matrix(ego_emb, cluster_rows)
    # A fixed k is a search over the one k.
    if config.k is not None:
        k_min = k_max = config.k
    else:
        k_min, k_max = config.k_min, min(config.k_max, dm.n - 1)
        # Name the post count, not the clamped k_max the user never gave.
        if k_min <= config.k_max and k_min > k_max:
            raise ValueError(f"k_min {k_min} needs at least {k_min + 1} featurizable "
                             f"ego posts, have {dm.n}")
    selection = select_k(dm, k_min, k_max, seed=config.seed)
    clustering, silhouette_by_k = selection.best, selection.scores
    summaries = summarize_topics(clustering, tfidf, A[cluster_rows], top_n=config.top_words)

    classifier, eval_report = clf_mod.train(ego_emb, clustering.assignment, seed=config.seed)

    bundle = ModelBundle(
        phrases=phrases,
        tfidf=tfidf,
        medoid_ids=list(clustering.medoid_ids),
        summaries=summaries,
        projector=projector,
        classifier=classifier,
        seed=config.seed,
        silhouette_by_k=silhouette_by_k,
    )
    return TopicFit(
        ego=ego,
        bundle=bundle,
        clustering=clustering,
        eval_report=eval_report,
        embeddings=external,
        ranking=ranking,
        n_unfeaturized=n_unfeaturized,
    )


@dataclass
class PipelineResult:
    """A full run: the fitted models, the report (matrix and metrics), the
    weekly series and every post's label."""

    fit: TopicFit
    report: ReportBundle
    series: list[TopicSeries]
    labels: dict[str, int]

    @property
    def bundle(self) -> ModelBundle:
        return self.fit.bundle

    @property
    def matrix(self) -> CausalityMatrix:
        return self.report.matrix


def run_pipeline(corpus: Corpus, config: PipelineConfig) -> PipelineResult:
    """Fit everything on the ego's posts, label the alters' posts, scan for causality."""
    fit = fit_topics(corpus, config)
    ego = fit.ego
    alters = [handle for handle, _ in fit.ranking.entries]
    alter_labels = classify_corpus(fit.bundle, _alter_posts(corpus, fit.ranking),
                                   fit.embeddings)
    labels = {**fit.clustering.assignment, **alter_labels}

    week_index = build_week_index((corpus.window_start, corpus.window_end))
    labeled_posts = [p for p in corpus.posts if p.id in labels]
    series = bin_posts(labeled_posts, labels, week_index, fit.clustering.k,
                       accounts=[ego, *alters])

    matrix = causality_scan(series, ego, alters, max_lag=config.max_lag,
                            alpha=config.alpha, correction=config.correction,
                            max_diff=config.max_diff)

    skip_counts = Counter(p.skip_reason for p in matrix.pairs if p.skip_reason)
    metrics = {
        "n_ego_posts": sum(1 for p in corpus.posts if p.author == ego),
        "n_labeled_posts": len(labeled_posts),
        "n_unfeaturized_ego_posts": fit.n_unfeaturized,
        "alter_retweet_counts": dict(fit.ranking.entries),
        "total_cost": fit.clustering.total_cost,
        "eval": fit.eval_report.to_dict(),
        "skip_counts": dict(sorted(skip_counts.items())),
    }
    report = ReportBundle(matrix=matrix, config=config.to_dict(), metrics=metrics)
    return PipelineResult(fit=fit, report=report, series=series, labels=labels)


def classify_corpus(bundle: ModelBundle, posts, emb: EmbeddingSet | None = None
                    ) -> dict[str, int]:
    """Label posts with a saved bundle, rebuilding features the same way.

    When `emb` is None the bundle must carry the fallback projector, whose rows
    are labeled by position; a post with no row in `emb`, or a zero one, is left unlabeled.
    """
    docs = build_token_docs(posts, pipeline=bundle.phrases)
    ids = docs.post_ids
    if emb is None:
        if bundle.projector is None:
            raise ValueError(
                "bundle has no fallback projector; supply an embedding file"
            )
        emb = bundle.projector.transform(tfidf_matrix(bundle.tfidf, docs), ids)
        at = np.arange(len(ids))
    else:
        at = np.array([emb.index[i] for i in ids if i in emb.index], dtype=np.intp)
    return clf_mod.predict(bundle.classifier, emb, at[emb.rows.any(axis=1)[at]])
