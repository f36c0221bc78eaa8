"""The benchmark's tracer (perfbench/tracing.py) still finds every function it wraps.

`tracing.instrument` replaces attributes of the package by name, so a
refactor that renames or removes one of them breaks traced benchmark runs;
this test makes that a test failure instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import egoflux

SRC = Path(egoflux.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_instruments_the_package():
    code = ("import tracing\n"
            "tracer = tracing.Tracer()\n"
            "tracing.instrument(tracer)\n"
            "print('instrumented')\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PERFBENCH), str(SRC)])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "instrumented"
