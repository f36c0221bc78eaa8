"""One batch job in a fresh interpreter, the way a user runs egoflux.

Usage: python3 job.py JOB_JSON [--trace]

JOB_JSON names the input file, the output directory and the run settings.
The job reads the input, runs the public API and writes every artifact; its
timings, counts and (with --trace) spans go to ``<output dir>.stats.json``
after the clock has stopped.
"""

import time

_T0 = time.perf_counter()
# Importing what the job uses is the measured set-up.
from egoflux import corpus, pipeline, report, series, stats  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from datetime import datetime  # noqa: E402
from pathlib import Path  # noqa: E402


def _write_labels(path: Path, posts, labels: dict[str, int]) -> None:
    """Labeled posts in the format ``egoflux classify`` writes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["post_id", "author", "created_at", "topic"])
        for post in posts:
            if post.id in labels:
                writer.writerow([post.id, post.author, post.created_at.isoformat(),
                                 labels[post.id]])


def run_corpus_job(job: dict, out: Path) -> dict:
    """ingest -> run_pipeline -> bundle, labels, series CSV, matrix JSON, report."""
    start, end = (datetime.fromisoformat(t) for t in job["window"])
    ingest = corpus.load_corpus(job["input"], format="csv", window=(start, end))
    result = pipeline.run_pipeline(ingest.corpus,
                                   pipeline.PipelineConfig(**job["config"]))
    result.bundle.save(out / "bundle")
    _write_labels(out / "labels.csv", ingest.corpus.posts, result.labels)
    series.write_series_csv(result.series, out / "series.csv")
    (out / "matrix.json").write_text(result.matrix.to_json() + "\n", encoding="utf-8")
    report.emit_report_bundle(result.report, out / "report")
    return {"n_posts": len(ingest.corpus), "n_pairs": len(result.matrix.pairs)}


def run_series_job(job: dict, out: Path) -> dict:
    """``egoflux causality`` then ``egoflux report`` on a series CSV."""
    topic_series = series.read_series_csv(job["input"])
    alters = sorted({s.account for s in topic_series} - {job["ego"]})
    matrix = stats.causality_scan(topic_series, job["ego"], alters,
                                  max_lag=job["max_lag"], alpha=job["alpha"],
                                  correction=job["correction"])
    (out / "matrix.json").write_text(matrix.to_json() + "\n", encoding="utf-8")
    report.emit_report_bundle(report.ReportBundle(matrix=matrix), out / "report")
    return {"n_posts": int(sum(int(s.counts.sum()) for s in topic_series)),
            "n_pairs": len(matrix.pairs)}


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    out = Path(job["out"])
    out.mkdir(parents=True, exist_ok=True)
    stats_path = out.parent / (out.name + ".stats.json")
    run = run_corpus_job if job["kind"] == "corpus" else run_series_job
    spans: list = []
    if "--trace" in argv:
        import tracing  # the benchmark's own module, next to this file

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        run = tracer.wrap(run, "job")
        spans = tracer.spans

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    counts = run(job, out)
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    stats_path.write_text(json.dumps({
        "setup_s": SETUP_S,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": spans,
        **counts,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
