"""The benchmark's traced mode wraps library names from outside; a refactor
that drops one of them breaks ``perfbench/tracing.py`` without failing any
library test, so install the tracer here in a fresh process."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_traced(probe):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(probe)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_traced_mode_installs():
    run_traced("""
        from tracing import Tracer
        from avgcycle.expr import VectorFieldSeries

        tracer = Tracer(run_id="smoke")
        tracer.install()
        # the tensor_stack wrapper reads the series' stack cache
        series = VectorFieldSeries.from_strings(("x",), [["-x"], ["x^2"]], 1.0)
        series.tensor_stack(1, 2)
        assert tracer.counts["expr.compile"] == 1
    """)


def test_traced_mode_counts_integrations():
    # integrations are counted where flow calls solve_ivp, and every
    # right-hand side call the stepper makes must pass the traced wrapper,
    # or flow.rhs_us goes dead
    run_traced("""
        from tracing import Tracer
        from avgcycle import flow
        from avgcycle.problems import load_fixture

        tracer = Tracer(run_id="smoke")
        tracer.install()
        series = load_fixture("cyl3d").series()
        flow.integrate_full(series, [1.1, 0.2], 0.01, variational=True)
        counts = tracer.counts
        assert counts["flow.integrations"] == 1, counts
        assert counts["flow.rhs_calls"] == counts["flow.rhs_evals"] > 0, counts
    """)
