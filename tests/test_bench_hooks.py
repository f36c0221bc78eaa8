"""The benchmark (perfbench/) still runs against the package.

`tracing.instrument` replaces attributes of the package by name, and
`job.py` reads the results of the public API by name, so a refactor that
renames or removes one of them breaks benchmark runs; these tests make that
a test failure instead.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import egoflux
from egoflux.corpus import load_corpus
from egoflux.series import write_series_csv
from egoflux.stats import CORRECTION_NONE
from egoflux.synth import AlterSpec, Coupling, SynthSpec, generate_series

from conftest import FIXTURE_CONFIG, FIXTURE_CORPUS_CSV, FIXTURE_WINDOW

SRC = Path(egoflux.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PERFBENCH), str(SRC)])}


def test_tracer_instruments_the_package():
    code = ("import tracing\n"
            "tracer = tracing.Tracer()\n"
            "tracing.instrument(tracer)\n"
            "print('instrumented')\n")
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "instrumented"


CORPUS_JOB = {
    "kind": "corpus",
    "input": str(FIXTURE_CORPUS_CSV),
    "window": [t.isoformat() for t in FIXTURE_WINDOW],
    "config": FIXTURE_CONFIG.to_dict(),
}


def _run_job(tmp_path, job: dict, *flags: str) -> tuple[Path, dict]:
    out = tmp_path / "out"
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps({**job, "out": str(out)}), encoding="utf-8")
    run = subprocess.run([sys.executable, str(PERFBENCH / "job.py"), str(job_path), *flags],
                         env=ENV, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    stats = json.loads((tmp_path / "out.stats.json").read_text(encoding="utf-8"))
    assert stats["n_pairs"] > 0 and stats["run_s"] > 0
    return out, stats


def test_corpus_job_writes_its_artifacts(tmp_path):
    out, _ = _run_job(tmp_path, CORPUS_JOB)
    for name in ("labels.csv", "series.csv", "matrix.json", "report/matrix.csv",
                 "report/heatmap.csv", "report/run_report.json",
                 "bundle/manifest.json", "bundle/topics.json", "bundle/classifier.json"):
        assert (out / name).stat().st_size > 0, name


def test_traced_corpus_job_tokenizes_and_labels_each_post_once(tmp_path):
    out, stats = _run_job(tmp_path, CORPUS_JOB, "--trace")
    name_of = [span[0] for span in stats["spans"]]
    alters = json.loads((out / "matrix.json").read_text(encoding="utf-8"))["alters"]
    posts = load_corpus(FIXTURE_CORPUS_CSV, format="csv", window=FIXTURE_WINDOW).corpus.posts
    n_ego = sum(1 for p in posts if p.author == "ego")
    n_alter = sum(1 for p in posts if p.author in alters)
    with open(out / "labels.csv", newline="", encoding="utf-8") as fh:
        n_labeled_alter = sum(1 for row in csv.DictReader(fh) if row["author"] != "ego")

    docs = [counts["docs"] for name, _, _, _, counts in stats["spans"]
            if name == "textpipe.build_token_docs"]
    assert sum(docs) == n_ego + n_alter
    # The alters' predict runs outside training (whose validation predict is nested in it).
    [alter_predict] = [counts for name, parent, _, _, counts in stats["spans"]
                       if name == "classifier.predict"
                       and name_of[parent] != "classifier.train"]
    assert alter_predict["n_predicted"] == n_labeled_alter > 0


def test_series_job_writes_its_artifacts(tmp_path):
    spec = SynthSpec(n_weeks=60, n_topics=2, seed=5,
                     alters=[AlterSpec("alt_a", [Coupling(topic=0, lag=1, strength=0.8)]),
                             AlterSpec("alt_b", [])])
    write_series_csv(generate_series(spec).series, tmp_path / "series.csv")
    out, _ = _run_job(tmp_path, {
        "kind": "series", "input": str(tmp_path / "series.csv"), "ego": "ego",
        "max_lag": 4, "alpha": 0.05, "correction": CORRECTION_NONE,
    })
    for name in ("matrix.json", "report/matrix.csv", "report/heatmap.csv",
                 "report/run_report.json"):
        assert (out / name).stat().st_size > 0, name
