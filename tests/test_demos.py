"""Each demo script runs to completion, and 06_full_pipeline.py reproduces
the committed demos/out/ byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import egoflux

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(egoflux.__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "01_ingest_and_rank.py",
    "02_text_to_features.py",
    "03_topic_discovery.py",
    "04_classify_and_series.py",
    "05_simulate_and_scan.py",
])
def test_demo_exits_zero(script):
    _run_demo(script)


def test_full_pipeline_reproduces_committed_out(tmp_path):
    _run_demo("06_full_pipeline.py", str(tmp_path))
    committed = DEMOS / "out"
    names = sorted(str(p.relative_to(committed)) for p in committed.rglob("*") if p.is_file())
    produced = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert produced == names
    stale = [n for n in names if (tmp_path / n).read_bytes() != (committed / n).read_bytes()]
    assert stale == [], "demos/out/ is stale; regenerate it with demos/06_full_pipeline.py"


def _run_demo(script, *args):
    out = subprocess.run([sys.executable, str(DEMOS / script), *args],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
