"""Discover the ego's topics: cosine distances, k-medoids, silhouette selection.

Topics are clusters of the ego's own posts in embedding space.  k-medoids
(PAM) keeps an actual post as each cluster's center, the silhouette score
picks k, and each topic is summarized by the tokens with the highest mean
TF-IDF inside it.
"""

from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from egoflux.corpus import load_corpus
from egoflux.features import FallbackProjector, fit_tfidf, tfidf_matrix
from egoflux.textpipe import build_token_docs, fit_phrase_pipeline
from egoflux.topics import (
    cosine_distance_matrix,
    select_k,
    summarize_topics,
)

REPO = Path(__file__).resolve().parents[1]
CORPUS_CSV = REPO / "tests" / "data" / "synthetic_corpus.csv"
WINDOW = (datetime(2021, 1, 4, tzinfo=timezone.utc),
          datetime(2021, 10, 11, tzinfo=timezone.utc))


def main() -> None:
    corpus = load_corpus(CORPUS_CSV, format="csv", window=WINDOW).corpus
    ego_posts = [p for p in corpus.posts if p.author == "ego"]
    print(f"{len(ego_posts)} ego posts")

    raw_docs = build_token_docs(ego_posts)
    phrases = fit_phrase_pipeline(raw_docs)
    docs = build_token_docs(ego_posts, pipeline=phrases)
    tfidf = fit_tfidf(docs, min_df=2)
    # One TF-IDF matrix feeds the projector and the topic summaries.
    A = tfidf_matrix(tfidf, docs)
    ids = [d.post_id for d in docs]
    emb = FallbackProjector.fit(A, dim=16, seed=42).transform(A, ids)

    # Row i of emb.rows is post ids[i]; a zero row has no direction to cluster.
    rows = np.flatnonzero(emb.rows.any(axis=1))
    dm = cosine_distance_matrix(emb, rows)

    print("\n== Choosing k by silhouette ==")
    selection = select_k(dm, k_min=2, k_max=5, seed=42)
    print("k   silhouette")
    for k in sorted(selection.scores):
        mark = "  <- selected" if k == selection.best.k else ""
        print(f"{k}   {selection.scores[k]:.4f}{mark}")

    clustering = selection.best
    print("\n== Topic summaries ==")
    # Rows in the distance matrix's order, as clustering.labels holds them.
    summaries = summarize_topics(clustering, tfidf, A[rows], top_n=8)
    for s in summaries:
        words = ", ".join(t for t, _ in s.top_words)
        print(f"{s.label} (n={s.size}): {words}")

    print("\nEach medoid is a real post:")
    text_by_id = {p.id: p.text for p in ego_posts}
    for topic, mid in enumerate(clustering.medoid_ids):
        print(f"  topic_{topic} medoid {mid}: {text_by_id[mid][:60]!r}")


if __name__ == "__main__":
    main()
