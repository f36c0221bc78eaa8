"""Spans around egoflux's public functions, installed from outside the package.

``instrument`` replaces module attributes and class methods with wrappers
that record a span (name, parent, start, end, counts) per call.  Nothing in
``src/`` changes: the wrappers sit on the names the callers look up, namely
the names ``pipeline.py`` imports, ``topics.kmedoids``/``silhouette`` as
``select_k`` calls them, ``stats.make_stationary_pair``/``adf_test``/
``granger_test`` as ``causality_scan`` calls them, ``FallbackProjector.fit``/
``transform``, ``ModelBundle.save`` and ``CausalityMatrix.to_json``.

Spans stay in memory; the job writes them out after its clock stops.  A
span's layer is the first part of its name.  Work the tracer does to read
counts off a result is its own ``trace.counts`` span, so it is charged to
the ``trace`` layer and to no layer of the program.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

NAME, PARENT, START, END, COUNTS = range(5)

LAYERS = ("corpus", "textpipe", "features", "topics", "classifier", "series", "stats",
          "report", "bundle", "pipeline")


class Tracer:
    """Records nested spans of one single-threaded job."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end, counts]
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter(), None, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, counts=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counts is not None:
                with self.span("trace.counts"):
                    self.spans[idx][COUNTS] = counts(result, args)
            return result

        traced.__wrapped__ = fn
        return traced


def _zero_vectors(emb, _args) -> dict:
    if not emb.vectors:
        return {"embedded": 0, "zero_vectors": 0}
    rows = np.stack(list(emb.vectors.values()))
    return {"embedded": len(rows), "zero_vectors": int((~rows.any(axis=1)).sum())}


def _train_counts(result, args) -> dict:
    _clf, report = result
    return {"n_train": len(args[1]) - sum(report.support),
            "weighted_f1": report.weighted_f1}


def _scan_counts(matrix, _args) -> dict:
    tested = sum(1 for p in matrix.pairs if p.best is not None)
    return {"pairs": len(matrix.pairs), "pairs_tested": tested,
            "pairs_skipped": len(matrix.pairs) - tested}


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions each layer is entered through."""
    from egoflux import bundle, classifier, corpus, features, pipeline, report, series
    from egoflux import stats, textpipe, topics

    def on(owner, attr: str, name: str, counts=None, static: bool = False) -> None:
        wrapped = tracer.wrap(getattr(owner, attr), name, counts)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def docs(result, _args) -> dict:
        return {"docs": len(result), "empty_docs": sum(1 for d in result if not d.tokens)}

    # Entry points the job calls.
    on(corpus, "load_corpus", "corpus.load_corpus",
       lambda r, a: {"posts_in": len(r.corpus), "dropped": r.dropped})
    on(pipeline, "run_pipeline", "pipeline.run_pipeline")
    on(series, "write_series_csv", "series.write_series_csv")
    on(series, "read_series_csv", "series.read_series_csv")
    on(report, "emit_report_bundle", "report.emit_report_bundle")
    on(bundle.ModelBundle, "save", "bundle.save")
    on(stats.CausalityMatrix, "to_json", "report.matrix_json")
    # Names pipeline.py imports and calls.
    on(pipeline, "fit_topics", "pipeline.fit_topics")
    on(pipeline, "rank_alters", "corpus.rank_alters")
    on(pipeline, "build_token_docs", "textpipe.build_token_docs", docs)
    on(pipeline, "fit_phrase_pipeline", "textpipe.fit_phrase_pipeline")
    on(pipeline, "fit_tfidf", "features.fit_tfidf", lambda r, a: {"vocab_size": r.dim})
    on(pipeline, "load_embeddings", "features.load_embeddings")
    on(features.FallbackProjector, "fit", "features.projector_fit", static=True)
    on(features.FallbackProjector, "transform", "features.projector_transform",
       _zero_vectors)
    on(pipeline, "cosine_distance_matrix", "topics.cosine_distance_matrix",
       lambda r, a: {"n_points": r.n, "distance_bytes": r.n * r.n * 8})
    on(pipeline, "select_k", "topics.select_k")
    on(pipeline, "summarize_topics", "topics.summarize_topics")
    on(classifier, "train", "classifier.train", _train_counts)
    on(classifier, "predict", "classifier.predict", lambda r, a: {"n_predicted": len(r)})
    on(pipeline, "build_week_index", "series.build_week_index")
    on(pipeline, "bin_posts", "series.bin_posts",
       lambda r, a: {"posts_binned": int(sum(int(s.counts.sum()) for s in r)),
                     "n_series": len(r)})
    on(pipeline, "causality_scan", "stats.causality_scan", _scan_counts)
    on(stats, "causality_scan", "stats.causality_scan", _scan_counts)
    # kmedoids/silhouette: the fixed-k path in pipeline.py and the k search in select_k.
    for owner in (pipeline, topics):
        on(owner, "kmedoids", "topics.kmedoids", lambda r, a: {"swaps": r.n_swaps})
        on(owner, "silhouette", "topics.silhouette")
    # What causality_scan calls, and what make_stationary_pair calls.
    on(stats, "make_stationary_pair", "stats.make_stationary_pair")
    on(stats, "adf_test", "stats.adf_test")
    on(stats, "granger_test", "stats.granger_test")


def _durations(spans: list[list]) -> tuple[list[float], list[float]]:
    """Wall time and self time (wall minus direct children) of each span."""
    wall = [s[END] - s[START] for s in spans]
    self_time = list(wall)
    for s, w in zip(spans, wall):
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= w
    return wall, self_time


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times, call counts and work counts of one traced job."""
    wall, self_time = _durations(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[tuple[str, str], float] = {}
    layer_self = {layer: 0.0 for layer in (*LAYERS, "trace", "job")}
    predict_s, n_predicted = 0.0, 0
    for s, w, own in zip(spans, wall, self_time):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + w
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split(".")[0]] += own
        for key, value in (s[COUNTS] or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value
        # Validation predictions inside train are training cost, not applying.
        if name == "classifier.predict" and not (
                s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "classifier.train"):
            predict_s += w
            n_predicted += (s[COUNTS] or {}).get("n_predicted", 0)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def c(name: str, key: str) -> float:
        return counts.get((name, key), 0)

    embedded = c("features.projector_transform", "embedded")
    pairs = c("stats.causality_scan", "pairs")
    out = {
        "corpus.load_s": t("corpus.load_corpus"),
        "corpus.posts_in": c("corpus.load_corpus", "posts_in"),
        "corpus.dropped": c("corpus.load_corpus", "dropped"),
        "textpipe.token_docs_s": t("textpipe.build_token_docs"),
        "textpipe.docs": c("textpipe.build_token_docs", "docs"),
        "textpipe.empty_docs": c("textpipe.build_token_docs", "empty_docs"),
        "textpipe.phrase_fit_s": t("textpipe.fit_phrase_pipeline"),
        "features.tfidf_fit_s": t("features.fit_tfidf"),
        "features.vocab_size": c("features.fit_tfidf", "vocab_size"),
        "features.projector_fit_s": t("features.projector_fit"),
        "features.projector_transform_s": t("features.projector_transform"),
        "features.zero_vectors": (c("features.projector_transform", "zero_vectors") / embedded
                                  if embedded else 0.0),
        "topics.distance_s": t("topics.cosine_distance_matrix"),
        "topics.n_points": c("topics.cosine_distance_matrix", "n_points"),
        "topics.distance_bytes": c("topics.cosine_distance_matrix", "distance_bytes"),
        "topics.kmedoids_s": t("topics.kmedoids"),
        "topics.kmedoids_calls": calls.get("topics.kmedoids", 0),
        "topics.swaps": c("topics.kmedoids", "swaps"),
        "topics.silhouette_s": t("topics.silhouette"),
        "topics.summarize_s": t("topics.summarize_topics"),
        "classifier.train_s": t("classifier.train"),
        "classifier.n_train": c("classifier.train", "n_train"),
        "classifier.predict_s": predict_s,
        "classifier.n_predicted": n_predicted,
        "classifier.weighted_f1": c("classifier.train", "weighted_f1"),
        "series.bin_s": t("series.bin_posts"),
        "series.posts_binned": c("series.bin_posts", "posts_binned"),
        "series.n_series": c("series.bin_posts", "n_series"),
        "stats.scan_s": t("stats.causality_scan"),
        "stats.pairs": pairs,
        "stats.pairs_tested": c("stats.causality_scan", "pairs_tested"),
        "stats.pairs_skipped": c("stats.causality_scan", "pairs_skipped"),
        "stats.stationary_s": t("stats.make_stationary_pair"),
        "stats.adf_calls": calls.get("stats.adf_test", 0),
        "stats.adf_per_pair": calls.get("stats.adf_test", 0) / pairs if pairs else 0.0,
        "stats.granger_calls": calls.get("stats.granger_test", 0),
        "stats.granger_s": t("stats.granger_test"),
        "report.emit_s": t("report.emit_report_bundle") + t("report.matrix_json"),
        "bundle.save_s": t("bundle.save"),
        "trace.spans": len(spans),
        "trace.counts_s": layer_self["trace"],
        "trace.unattributed_s": layer_self["job"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
