"""The benchmark's traced mode wraps library names from outside; a refactor
that drops one of them breaks ``perfbench/tracing.py`` without failing any
library test, so install the tracer here in a fresh process."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_mode_installs():
    probe = textwrap.dedent("""
        from tracing import Tracer
        from avgcycle.expr import VectorFieldSeries

        tracer = Tracer(run_id="smoke")
        tracer.install()
        # the tensor_stack wrapper reads the series' stack cache
        series = VectorFieldSeries.from_strings(("x",), [["-x"], ["x^2"]], 1.0)
        series.tensor_stack(1, 2)
        assert tracer.counts["expr.compile"] == 1
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
