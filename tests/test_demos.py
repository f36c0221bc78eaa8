"""Smoke test: each self-contained demo script runs to completion.

06_full_pipeline.py is left out because it rewrites the tracked demos/out/.
"""

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
    out = subprocess.run([sys.executable, str(DEMOS / script)],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
