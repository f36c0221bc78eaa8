"""Smoke test of the benchmark at a tiny scale.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted for every workload,
in end-to-end and traced runs, that a tampered artifact counts as a failed
job, and that a null false-positive rate above the workload's ceiling fails
the run.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

# A tiny input has too few un-planted pairs for a steady null false-positive
# rate, so the ceiling is lifted here and tested on its own below.
TINY = {
    "ego_fit": dataclasses.replace(
        workloads.WORKLOADS["ego_fit"], n_weeks=30, n_topics=3, topics={"k_max": 4},
        couplings=((0, 0, 2, 1.5), (1, 1, 1, 1.5)), ego_offset=2.0, alter_scale=0.5,
        null_fpr_max=1.0),
    "alter_apply": dataclasses.replace(
        workloads.WORKLOADS["alter_apply"], n_weeks=30, n_alters=4,
        couplings=((0, 0, 2, 1.0), (2, 1, 1, 1.0)), ego_offset=2.0, alter_scale=2,
        null_fpr_max=1.0),
    "scan": dataclasses.replace(workloads.WORKLOADS["scan"], n_weeks=60, n_alters=10,
                                null_fpr_max=1.0),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "INSTANCES", 1)


def test_workload_names_match():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted(name, trace, section, tmp_path):
    result = run.benchmark(name, seed=1, seconds=0, trace=bool(trace), work=tmp_path)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    assert got == want
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_artifact_is_a_failure(monkeypatch, tmp_path):
    real = run.run_job

    def tampering(job, work, name, *args, **kwargs):
        out, stats = real(job, work, name, *args, **kwargs)
        if name == "job001":  # leave the reference intact, corrupt the rerun
            with open(out / "report" / "matrix.csv", "a", encoding="utf-8") as fh:
                fh.write("x")
        return out, stats

    monkeypatch.setattr(run, "run_job", tampering)
    result = run.benchmark("scan", seed=1, seconds=0, trace=False, work=tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] >= 2


def test_null_fpr_above_ceiling_fails_the_run(monkeypatch, tmp_path):
    no_rate_passes = dataclasses.replace(TINY["scan"], null_fpr_max=-1.0)
    monkeypatch.setitem(TINY, "scan", no_rate_passes)
    result = run.benchmark("scan", seed=1, seconds=0, trace=False, work=tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1
