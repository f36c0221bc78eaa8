"""tests/data/synthetic_corpus.csv is what tools/make_corpus_fixture.py writes."""

import os
import subprocess
import sys
from pathlib import Path

import egoflux

REPO = Path(__file__).resolve().parents[1]
SRC = Path(egoflux.__file__).resolve().parents[1]


def test_fixture_regenerates_byte_for_byte(tmp_path):
    out = tmp_path / "synthetic_corpus.csv"
    proc = subprocess.run([sys.executable, str(REPO / "tools" / "make_corpus_fixture.py"),
                           str(out)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    committed = REPO / "tests" / "data" / "synthetic_corpus.csv"
    assert out.read_bytes() == committed.read_bytes(), \
        "tests/data/synthetic_corpus.csv is stale; regenerate it with tools/make_corpus_fixture.py"
