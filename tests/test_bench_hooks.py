"""The benchmark (perfbench/) still runs against the package.

`tracing.instrument` replaces attributes of the package by name, and
`job.py` reads the results of the public API by name, so a refactor that
renames or removes one of them breaks benchmark runs; these tests make that
a test failure instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import egoflux
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


def _run_job(tmp_path, job: dict) -> Path:
    out = tmp_path / "out"
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps({**job, "out": str(out)}), encoding="utf-8")
    run = subprocess.run([sys.executable, str(PERFBENCH / "job.py"), str(job_path)],
                         env=ENV, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    stats = json.loads((tmp_path / "out.stats.json").read_text(encoding="utf-8"))
    assert stats["n_pairs"] > 0 and stats["run_s"] > 0
    return out


def test_corpus_job_writes_its_artifacts(tmp_path):
    out = _run_job(tmp_path, {
        "kind": "corpus",
        "input": str(FIXTURE_CORPUS_CSV),
        "window": [t.isoformat() for t in FIXTURE_WINDOW],
        "config": FIXTURE_CONFIG.to_dict(),
    })
    for name in ("labels.csv", "series.csv", "matrix.json", "report/matrix.csv",
                 "report/heatmap.csv", "report/run_report.json",
                 "bundle/manifest.json", "bundle/topics.json", "bundle/classifier.json"):
        assert (out / name).stat().st_size > 0, name


def test_series_job_writes_its_artifacts(tmp_path):
    spec = SynthSpec(n_weeks=60, n_topics=2, seed=5,
                     alters=[AlterSpec("alt_a", [Coupling(topic=0, lag=1, strength=0.8)]),
                             AlterSpec("alt_b", [])])
    write_series_csv(generate_series(spec).series, tmp_path / "series.csv")
    out = _run_job(tmp_path, {
        "kind": "series", "input": str(tmp_path / "series.csv"), "ego": "ego",
        "max_lag": 4, "alpha": 0.05, "correction": CORRECTION_NONE,
    })
    for name in ("matrix.json", "report/matrix.csv", "report/heatmap.csv",
                 "report/run_report.json"):
        assert (out / name).stat().st_size > 0, name
