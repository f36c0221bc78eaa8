"""Carry the ego's topics onto the alters and bin everything into weekly series.

A linear one-vs-rest classifier learns the ego's cluster labels, alter posts
pass through the exact models fitted on the ego (phrases, TF-IDF, embedding
projection), and every labeled post lands in an ISO-Monday weekly grid.  The
binning conserves counts exactly: series totals add back up to the number of
labeled posts per account.
"""

from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from egoflux.corpus import load_corpus
from egoflux.pipeline import PipelineConfig, classify_corpus, fit_topics
from egoflux.series import bin_posts, build_week_index

REPO = Path(__file__).resolve().parents[1]
CORPUS_CSV = REPO / "tests" / "data" / "synthetic_corpus.csv"
WINDOW = (datetime(2021, 1, 4, tzinfo=timezone.utc),
          datetime(2021, 10, 11, tzinfo=timezone.utc))


def main() -> None:
    corpus = load_corpus(CORPUS_CSV, format="csv", window=WINDOW).corpus
    config = PipelineConfig(ego="ego", k_min=2, k_max=4, embed_dim=16, seed=42)
    fit = fit_topics(corpus, config)

    print("== Classifier quality (held-out ego posts) ==")
    report = fit.eval_report
    print(f"weighted F1: {report.weighted_f1:.4f}")
    for i, cls in enumerate(report.classes):
        print(f"  topic_{cls}: precision={report.precision[i]:.3f} "
              f"recall={report.recall[i]:.3f} f1={report.f1[i]:.3f} "
              f"(n={report.support[i]})")

    print("\n== Labeling alters with the saved bundle ==")
    alters = [h for h, _ in fit.ranking.entries]
    alter_posts = [p for p in corpus.posts if p.author in set(alters)]
    labels = classify_corpus(fit.bundle, alter_posts)
    print(f"labeled {len(labels)} alter posts across {len(alters)} alters")
    for topic in sorted(set(labels.values())):
        share = sum(1 for t in labels.values() if t == topic) / len(labels)
        print(f"  topic_{topic}: {share:.1%} of alter posts")

    print("\n== Weekly series ==")
    all_labels = {**fit.clustering.assignment, **labels}
    week_index = build_week_index(WINDOW)
    labeled_posts = [p for p in corpus.posts if p.id in all_labels]
    series = bin_posts(labeled_posts, all_labels, week_index,
                       fit.clustering.k, accounts=["ego", *alters])
    print(f"{len(series)} series ({1 + len(alters)} accounts x "
          f"{fit.clustering.k} topics), {week_index.n_weeks} weeks each")

    print("\nconservation check (series sum == labeled posts per account):")
    for account in ["ego", *alters]:
        total = sum(int(np.sum(s.counts)) for s in series
                    if s.account == account)
        n_posts = sum(1 for p in labeled_posts if p.author == account)
        print(f"  {account:<8}{total:>5} == {n_posts}")

    ego0 = next(s for s in series if s.account == "ego" and s.topic == 0)
    print(f"\nego topic_0 first 10 weeks: {[int(c) for c in ego0.counts[:10]]}")


if __name__ == "__main__":
    main()
