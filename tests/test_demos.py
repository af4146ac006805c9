"""Each demo runs to completion: the demos reach the measures through
measure_sample, measure_population and the named estimators of the
public API, and check their own numbers, exiting nonzero on a miss."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmdinfo

DEMOS = Path(__file__).resolve().parents[1] / "demos"
#: flags that keep a demo short; the defaults take the same code paths
FLAGS = {"estimator_convergence.py": ["--reps", "20"]}


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_zero(demo):
    src = str(Path(gmdinfo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)] + FLAGS.get(demo, []),
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
