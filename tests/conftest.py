import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import avgcycle
from avgcycle.expr import VectorFieldSeries
from avgcycle.problems import load_fixture


@pytest.fixture(scope="session")
def cyl3d():
    return load_fixture("cyl3d")


@pytest.fixture(scope="session")
def cyl3d_series(cyl3d):
    return cyl3d.series()


@pytest.fixture(scope="session")
def cyl3d_chart(cyl3d):
    return cyl3d.chart()


@pytest.fixture(scope="session")
def mb():
    return load_fixture("maxwell_bloch")


@pytest.fixture(scope="session")
def mb_series(mb):
    return mb.series()


@pytest.fixture(scope="session")
def mb_chart(mb):
    return mb.chart()


MB_PARAMS = dict(a0=-1.0, a2=-2.0, b1=1.0, b2=-2.0, c1=2.0, c2=1.0, omega=1.0)


@pytest.fixture(scope="session")
def mb_params():
    return dict(MB_PARAMS)


@pytest.fixture(scope="session")
def radial_gs(cyl3d_series):
    from avgcycle.lyapschmidt import AveragedGSeries
    return AveragedGSeries(cyl3d_series, 2)


@pytest.fixture(scope="session")
def radial_reduction_session(radial_gs, cyl3d_chart):
    from avgcycle.lyapschmidt import reduce_chart
    return reduce_chart(radial_gs, cyl3d_chart, 2, grid=24)


@pytest.fixture(scope="session")
def mb_base_gs(mb_series):
    from avgcycle.lyapschmidt import AveragedGSeries
    return AveragedGSeries(mb_series, 3)


@pytest.fixture(scope="session")
def mb_nested_gs(mb_base_gs, mb_chart):
    from avgcycle.solver import nested_reduction
    return nested_reduction(mb_base_gs, 1, mb_chart)


@pytest.fixture(scope="session")
def mb_reduction_session(mb_nested_gs, mb_chart):
    from avgcycle.lyapschmidt import reduce_chart
    return reduce_chart(mb_nested_gs, mb_chart, 2, grid=12, validate=False)


def random_polynomial_series(rng, n, k, period=2 * np.pi, scale=0.3,
                             zero_f0=False):
    """Random smooth trig-polynomial standard-form system for property tests."""
    names = tuple(f"x{i+1}" for i in range(n))
    monomials = ["1"] + [nm for nm in names] + \
                [f"{a}*{b}" for ai, a in enumerate(names) for b in names[ai:]]
    harmonics = ["1", "sin(t)", "cos(t)", "sin(2*t)", "cos(2*t)"]

    def component():
        terms = []
        for _ in range(rng.integers(2, 5)):
            c = rng.uniform(-scale, scale)
            terms.append(f"({c:.6f})*({rng.choice(monomials)})*({rng.choice(harmonics)})")
        return " + ".join(terms)

    fields = []
    for i in range(k + 1):
        if i == 0 and zero_f0:
            fields.append(["0"] * n)
        else:
            fields.append([component() for _ in range(n)])
    from avgcycle.expr import VectorFieldSeries
    return VectorFieldSeries.from_strings(names, fields, period)


def random_component(rng, names, depth=3):
    """A random smooth expression over ``names`` and the parameter ``a``,
    defined for every real argument."""
    if depth == 0 or rng.random() < 0.25:
        return str(rng.choice(list(names) + ["a", f"{rng.uniform(0.2, 2.0):.3f}"]))
    u = random_component(rng, names, depth - 1)
    v = random_component(rng, names, depth - 1)
    forms = [f"({u} + {v})", f"({u} - {v})", f"({u})*({v})", f"({u})/(2 + ({v})^2)",
             f"({u})^3", f"sin({u})", f"cos({u})*({v})", f"exp(0.3*sin({u}))",
             f"log(2 + ({u})^2)", f"sqrt(3 + sin({u}))", f"(2 + cos({u}))^(-3/2)"]
    return forms[rng.integers(len(forms))]


def assert_value_error_survives_optimize(code):
    """``code`` raises ValueError here and also under ``python -O``, which
    strips ``assert`` statements."""
    with pytest.raises(ValueError):
        exec(code, {})
    probe = (f"try:\n{textwrap.indent(code, '    ')}\n"
             f"except ValueError:\n    print('ValueError', __debug__)\n")
    src = os.path.dirname(os.path.dirname(avgcycle.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["ValueError", "False"]


def with_period(series, period):
    """``series`` integrated over another period: its flow to t = ``period``
    is read off that integration's endpoint."""
    return VectorFieldSeries(decls=series.decls, period=period, order=series.order,
                             fields=series.fields, params=series.params)
