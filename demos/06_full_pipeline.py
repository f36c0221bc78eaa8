"""One call from raw corpus to influence report, plus the emitted artifacts.

run_pipeline chains every stage: ingest -> alter ranking -> phrases ->
TF-IDF -> embeddings -> k-medoids -> classifier -> weekly series ->
paired-stationary Granger scan -> report bundle.  Identical seeds give
byte-identical artifacts.

Usage: python demos/06_full_pipeline.py [OUT_DIR]   (default demos/out)
"""

import sys
from datetime import datetime, timezone
from pathlib import Path

from egoflux.corpus import load_corpus
from egoflux.pipeline import PipelineConfig, run_pipeline
from egoflux.report import emit_report_bundle
from egoflux.stats import CORRECTION_BH

REPO = Path(__file__).resolve().parents[1]
CORPUS_CSV = REPO / "tests" / "data" / "synthetic_corpus.csv"
WINDOW = (datetime(2021, 1, 4, tzinfo=timezone.utc),
          datetime(2021, 10, 11, tzinfo=timezone.utc))
DEFAULT_OUT = Path(__file__).resolve().parent / "out"


def main(out: Path) -> None:
    corpus = load_corpus(CORPUS_CSV, format="csv", window=WINDOW).corpus
    config = PipelineConfig(
        ego="ego", k_min=2, k_max=4, embed_dim=16, seed=42,
        max_lag=4, alpha=0.01, correction=CORRECTION_BH,
    )
    result = run_pipeline(corpus, config)
    # Grouping only orders the rows of matrix.csv, so it is set on the report.
    result.report.grouping = {"alt_a": "close", "alt_b": "close", "alt_c": "distant"}

    m = result.report.metrics
    print("== Run summary ==")
    print(f"ego posts: {m['n_ego_posts']}, labeled posts: {m['n_labeled_posts']}")
    print(f"selected k: {m['selected_k']} "
          f"(silhouettes {m['silhouette_by_k']})")
    print(f"classifier weighted F1: {m['eval']['weighted_f1']:.4f}")
    print(f"skipped pairs: {m['skip_counts'] or 'none'}")

    print("\n== Significant influence ==")
    top_words = {s.topic: ", ".join(t for t, _ in s.top_words[:3])
                 for s in result.bundle.summaries}
    found = [(p.alter, p.topic, p.best.lag, p.best.p_value)
             for p in result.matrix.pairs if result.matrix.significant(p)]
    if not found:
        print("none at this alpha")
    for alter, topic, lag, p in found:
        print(f"  {alter} leads ego on topic_{topic} ({top_words[topic]}) "
              f"by {lag} week(s), p={p:.2e}")

    paths = emit_report_bundle(result.report, out)
    result.bundle.save(out / "bundle")
    print(f"\n== Artifacts (in {out}) ==")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path.relative_to(out)}")
    print("  bundle: bundle/")

    print("\nmatrix.csv:")
    print(paths["matrix"].read_text(encoding="utf-8"))


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT)
