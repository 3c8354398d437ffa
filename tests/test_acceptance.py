"""Acceptance gate: one test (or test group) per criterion, each printing a
PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py`` to see the
lines.

Four sub-assertions encode reference values that turned out to be
inconsistent with the fixture systems themselves: exact symbolic reduction
and direct integration agree with each other and disagree with those
reference numbers.  The reference assertions are kept verbatim as
strict-xfail tests so the discrepancy stays visible (and any change that
makes one pass gets flagged), and each is paired with a test of the
independently verified value.  Everything else asserts directly at its
stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from avgcycle.averaging import y_functions
from avgcycle.expr import Declarations, parse
from avgcycle.flow import IntegratorConfig, integrate_full
from avgcycle.lyapschmidt import AveragedGSeries, bifurcation_functions, delta_alpha
from avgcycle.solver import (
    brouwer_degree, degree_preservation_check, find_branch,
)
from avgcycle.verify import STABLE, eig_coefficient_fit, refine_periodic
from conftest import random_polynomial_series
from oracles import explicit_f, y_functions_literal
from test_lyapschmidt import _random_gseries

TWO_PI = 2 * math.pi
TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-12)

ALPHAS = (0.5, 1.0, 2.0, 3.0)


def note(criterion, ok, text):
    print(f"\n[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'}: {text}")


def reference_branch_root(eps):
    return math.sqrt(9 * eps ** 2 + 8 * eps) + 3 * eps


def verified_branch_root(eps):
    return (3 * eps + math.sqrt(9 * eps ** 2 + 16 * eps)) / 2


# --- criterion 1: radial-fixture bifurcation functions ----------------------

@pytest.fixture(scope="module")
def c1_values(cyl3d_series, cyl3d_chart):
    t0 = time.perf_counter()
    gs = AveragedGSeries(cyl3d_series, 2)
    fs = {a: bifurcation_functions(gs, cyl3d_chart, a, 2)[0] for a in ALPHAS}
    elapsed = time.perf_counter() - t0
    return fs, elapsed


def test_c1_f1_closed_form_and_runtime(c1_values):
    fs, elapsed = c1_values
    worst = max(abs(fs[a][0][0] - math.pi * a ** 3 / 2) / (math.pi * a ** 3 / 2)
                for a in ALPHAS)
    ok = worst <= 1e-6 and elapsed <= 10.0
    note(1, ok, f"f1 = pi a^3/2 worst rel err {worst:.2e} (<= 1e-6), "
                f"runtime {elapsed:.1f}s (<= 10s)")
    assert worst <= 1e-6
    assert elapsed <= 10.0


@pytest.mark.xfail(strict=True, reason=(
    "the reference value f2 = +pi a (3a + 4) contradicts the fixture: "
    "exact symbolic reduction and direct orbit shooting both give "
    "f2 = -pi a (3a + 4)/2"))
def test_c1_f2_reference_value(c1_values):
    fs, _ = c1_values
    worst = max(abs(fs[a][1][0] - math.pi * a * (3 * a + 4))
                / (math.pi * a * (3 * a + 4)) for a in ALPHAS)
    note(1, worst <= 1e-6, f"f2 = +pi a (3a+4) worst rel err {worst:.2e}")
    assert worst <= 1e-6


def test_c1_f2_verified_value(c1_values):
    fs, _ = c1_values
    worst = max(abs(fs[a][1][0] + math.pi * a * (3 * a + 4) / 2)
                / (math.pi * a * (3 * a + 4) / 2) for a in ALPHAS)
    note(1, worst <= 1e-6,
         f"f2 = -pi a (3a+4)/2 (verified value) worst rel err {worst:.2e}")
    assert worst <= 1e-6


# --- criterion 2: radial-fixture branch --------------------------------------

@pytest.fixture(scope="module")
def c2_branch(radial_reduction_session):
    eps = np.geomspace(1e-3, 1e-1, 17)
    return find_branch(radial_reduction_session, eps)


def test_c2_det_delta(radial_gs, cyl3d_chart):
    _, det = delta_alpha(radial_gs, cyl3d_chart, 1.0)
    err = abs(det - (1 - math.exp(-TWO_PI)))
    note(2, err <= 1e-9, f"det Delta = 1 - e^(-2 pi), abs err {err:.2e} (<= 1e-9)")
    assert err <= 1e-9


@pytest.mark.xfail(strict=True, reason=(
    "the reference closed form a_eps = sqrt(9 eps^2 + 8 eps) + 3 eps is "
    "not a root of eps f1 + eps^2 f2 for the fixture (nor of the reference "
    "f1, f2 pair); the true branch is (3 eps + sqrt(9 eps^2 + 16 eps))/2, "
    "confirmed by direct shooting"))
def test_c2_branch_reference_value(c2_branch):
    want = np.array([reference_branch_root(e) for e in c2_branch.eps])
    worst = np.max(np.abs(c2_branch.a_eps[:, 0] - want))
    note(2, worst <= 1e-8, f"branch vs reference closed form, worst {worst:.2e}")
    assert c2_branch.eps.size == 17
    assert worst <= 1e-8


def test_c2_branch_verified_value(c2_branch):
    want = np.array([verified_branch_root(e) for e in c2_branch.eps])
    worst = np.max(np.abs(c2_branch.a_eps[:, 0] - want))
    note(2, worst <= 1e-8,
         f"branch vs verified closed form over 17 eps, worst abs err {worst:.2e}")
    assert c2_branch.eps.size == 17
    assert worst <= 1e-8


# --- criterion 3: radial-fixture orbits --------------------------------------

@pytest.fixture(scope="module")
def c3_orbits(cyl3d_series, c2_branch):
    t0 = time.perf_counter()
    orbits = []
    guess = None
    for eps, alpha in zip(c2_branch.eps, c2_branch.a_eps):
        z0 = np.array([alpha[0], 0.0]) if guess is None else guess
        orbit = refine_periodic(cyl3d_series, z0, eps)
        orbits.append(orbit)
        guess = orbit.z
    elapsed = time.perf_counter() - t0
    return orbits, elapsed


def test_c3_orbits_exist_and_residuals(c3_orbits, c2_branch):
    orbits, elapsed = c3_orbits
    worst = max(o.residual for o in orbits)
    ok = len(orbits) == c2_branch.eps.size and worst <= 1e-9 and elapsed <= 60.0
    note(3, ok, f"{len(orbits)} orbits refined, worst residual {worst:.2e} "
                f"(<= 1e-9), runtime {elapsed:.1f}s (<= 60s)")
    assert len(orbits) == c2_branch.eps.size
    assert worst <= 1e-9
    assert elapsed <= 60.0


@pytest.mark.xfail(strict=True, reason=(
    "the reference amplitude law r(0, eps) ~ sqrt(8 eps) belongs to the "
    "same inconsistent branch formula; the fixture's orbits approach "
    "2 sqrt(eps), so the defect against sqrt(8 eps) only shrinks like "
    "sqrt(eps)"))
def test_c3_amplitude_law_reference_value(c3_orbits, c2_branch):
    orbits, _ = c3_orbits
    errs = np.array([abs(o.z[0] - math.sqrt(8 * e))
                     for o, e in zip(orbits, c2_branch.eps)])
    slope = np.polyfit(np.log(c2_branch.eps), np.log(errs), 1)[0]
    note(3, slope >= 0.7, f"|r(0,eps) - sqrt(8 eps)| log-log slope {slope:.3f}")
    assert slope >= 0.7


def test_c3_amplitude_law_verified_value(c3_orbits, c2_branch):
    orbits, _ = c3_orbits
    errs = np.array([abs(o.z[0] - verified_branch_root(e))
                     for o, e in zip(orbits, c2_branch.eps)])
    slope = np.polyfit(np.log(c2_branch.eps), np.log(errs), 1)[0]
    note(3, slope >= 0.7,
         f"|r(0,eps) - a_eps| log-log slope {slope:.3f} (>= 0.7, the O(eps) law)")
    assert slope >= 0.7


# --- criterion 4: Maxwell-Bloch reduction ------------------------------------

def test_c4_first_averaged_function(mb_series, mb_params):
    from avgcycle.averaging import averaged_functions
    a0, c1, om = mb_params["a0"], mb_params["c1"], mb_params["omega"]
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(10):
        r0 = rng.uniform(0.3, 2.5)
        w0 = rng.uniform(-4.0, 4.0)
        avg = averaged_functions(mb_series, [r0, w0], 1, TIGHT)
        want = np.array([0.0, -2 * math.pi * (2 * a0 * r0 ** 2 + c1 * w0) / om])
        worst = max(worst, float(np.max(np.abs(avg.g[1] - want))))
    note(4, worst <= 1e-8,
         f"g1 closed form at 10 random points, worst abs err {worst:.2e} (<= 1e-8)")
    assert worst <= 1e-8


def test_c4_nested_f1_and_delta(mb_nested_gs, mb_chart, mb_params):
    a0, c1, om = mb_params["a0"], mb_params["c1"], mb_params["omega"]
    B = mb_params["a2"] + mb_params["b2"]
    _, det = delta_alpha(mb_nested_gs, mb_chart, 2.0)
    det_err = abs(det - (-2 * math.pi * c1 / om))
    worst = 0.0
    for alpha in (1.0, 1.8, 2.6, 3.2):
        fs, _ = bifurcation_functions(mb_nested_gs, mb_chart, alpha, 1)
        want = math.pi * alpha * (a0 * alpha ** 2 - 2 * B * om ** 2) / (2 * om ** 3)
        worst = max(worst, abs(fs[0][0] - want) / max(abs(want), 1.0))
    ok = det_err <= 1e-9 and worst <= 1e-7
    note(4, ok, f"nested f1 closed form worst rel err {worst:.2e} (<= 1e-7); "
                f"Delta = -2 pi c1/omega abs err {det_err:.2e} (<= 1e-9)")
    assert det_err <= 1e-9
    assert worst <= 1e-7


# --- criterion 5: Maxwell-Bloch stability ------------------------------------

@pytest.fixture(scope="module")
def c5_data(mb_series, mb_params):
    B = mb_params["a2"] + mb_params["b2"]
    om, c1, a0 = mb_params["omega"], mb_params["c1"], mb_params["a0"]
    alpha0 = om * math.sqrt(2 * B / a0)
    beta0 = -4 * om ** 2 * B / c1
    eps_grid = np.geomspace(1e-3, 1e-2, 6)
    guess = np.array([alpha0, beta0])
    table = []
    for eps in eps_grid:
        orbit = refine_periodic(mb_series, guess, eps)
        table.append(orbit.dh_eigenvalues)
        guess = orbit.z
    orbit_25 = refine_periodic(mb_series, np.array([alpha0, beta0]), 1 / 25)
    # 200-period iteration of the return map from the predicted point
    z = np.array([alpha0, beta0])
    dists = []
    for _ in range(201):
        dists.append(float(np.linalg.norm(z - orbit_25.z)))
        z = integrate_full(mb_series, z, 1 / 25, TIGHT).xT
    return eps_grid, table, orbit_25, np.array(dists)


def test_c5_eigenvalue_coefficients(c5_data, mb_params):
    eps_grid, table, _, _ = c5_data
    B = mb_params["a2"] + mb_params["b2"]
    om, c1 = mb_params["omega"], mb_params["c1"]
    c_small, c_large = eig_coefficient_fit(eps_grid, table)
    want_fast = -2 * math.pi * c1 / om
    want_slow = 2 * math.pi * B / om
    err_fast = abs(c_large - want_fast) / abs(want_fast)
    err_slow = abs(c_small - want_slow) / abs(want_slow)
    ok = err_fast <= 0.05 and err_slow <= 0.10
    note(5, ok, f"lambda- coeff rel err {err_fast:.3f} (<= 0.05), "
                f"lambda+ eps^2 coeff rel err {err_slow:.3f} (<= 0.10)")
    assert err_fast <= 0.05
    assert err_slow <= 0.10


def test_c5_classification_at_figure_eps(c5_data):
    _, _, orbit, _ = c5_data
    ok = orbit.classification == STABLE
    note(5, ok, f"classification at eps = 1/25: {orbit.classification}")
    assert orbit.classification == STABLE


@pytest.mark.xfail(strict=True, reason=(
    "the distance to the orbit grows for about two periods before decaying "
    "(transient growth of the non-normal return map); monotone decay from "
    "the first period is not a property of this system"))
def test_c5_monotone_decay_reference_claim(c5_data):
    _, _, _, dists = c5_data
    mono = bool(np.all(np.diff(dists) <= 1e-12))
    note(5, mono, f"200-period decay monotone from start: {mono}")
    assert mono


def test_c5_decay_after_transient(c5_data):
    _, _, orbit, dists = c5_data
    tail = dists[3:]
    mono = bool(np.all(np.diff(tail) <= 1e-12))
    ok = mono and dists[-1] < 1e-5 * dists.max()
    note(5, ok, f"decay monotone after a 3-period transient: {mono}; "
                f"contraction {dists.max():.3g} -> {dists[-1]:.3g}")
    assert mono
    assert dists[-1] < 1e-5 * dists.max()


# --- criterion 6: expansion-order law ----------------------------------------

@pytest.mark.parametrize("name,k,z", [("cyl3d", 2, [1.1, 0.1]),
                                      ("maxwell_bloch", 3, [1.5, 0.5])])
def test_c6_remainder_order(request, name, k, z):
    series = request.getfixturevalue(
        "cyl3d_series" if name == "cyl3d" else "mb_series")
    eps_grid = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
    aug = y_functions(series, z, k, TIGHT)
    res = []
    for eps in eps_grid:
        full = integrate_full(series, z, eps, TIGHT).xT
        approx = aug.traj.xT.copy()
        for i in range(1, k + 1):
            approx += eps ** i * aug.yT[i - 1] / math.factorial(i)
        res.append(np.linalg.norm(full - approx))
    slope = np.polyfit(np.log(eps_grid), np.log(res), 1)[0]
    ok = abs(slope - (k + 1)) <= 0.3
    note(6, ok, f"{name}: remainder slope {slope:.3f} vs k+1 = {k + 1} (+- 0.3)")
    assert abs(slope - (k + 1)) <= 0.3


# --- criterion 7: explicit-table equivalence on random systems ----------------

def test_c7_y_and_reduction_table_equivalence():
    rng = np.random.default_rng(7)
    worst_y = 0.0
    worst_fg = 0.0
    for trial in range(20):
        n = int(rng.integers(1, 4))
        series = random_polynomial_series(rng, n, 5, scale=0.5 / n)
        z = rng.uniform(-0.3, 0.3, size=n)
        cfg = IntegratorConfig(rtol=1e-11, atol=1e-11)
        a = y_functions(series, z, 5, cfg)
        b = y_functions_literal(series, z, 5, cfg)
        for ya, yb in zip(a.yT, b.yT):
            worst_y = max(worst_y, float(np.max(np.abs(ya - yb)))
                          / max(1.0, float(np.max(np.abs(ya)))))
        m = int(rng.integers(1, 3))
        nb = int(rng.integers(1, 3))
        if m + nb > 3:
            nb = 3 - m
        gs, chart = _random_gseries(rng, m, nb)
        alpha = rng.uniform(-0.4, 0.4, size=m)
        fs_a, gam_a = bifurcation_functions(gs, chart, alpha, 5)
        fs_b, gam_b = explicit_f(gs, chart, alpha, 5)
        for xa, xb in zip(fs_a + gam_a, fs_b + gam_b):
            worst_fg = max(worst_fg, float(np.max(np.abs(xa - xb)))
                           / max(1.0, float(np.max(np.abs(xa)))))
    ok = worst_y <= 1e-9 and worst_fg <= 1e-9
    note(7, ok, f"20 random k=5 systems: y deviation {worst_y:.2e}, "
                f"f/gamma deviation {worst_fg:.2e} (<= 1e-9)")
    assert worst_y <= 1e-9
    assert worst_fg <= 1e-9


# --- criterion 8: degree axioms ------------------------------------------------

def test_c8_degree_axioms_and_margin_example():
    ok = True
    cert = brouwer_degree(lambda x: x, [[-1.0, 1.0], [-1.0, 1.0]])
    ok &= cert.degree == 1
    assert cert.degree == 1
    cert = brouwer_degree(lambda x: np.array([x[0] ** 2 - 1.0]), [[-2.0, 2.0]])
    ok &= cert.degree == 0 and len(cert.zeros) == 2
    assert cert.degree == 0 and len(cert.zeros) == 2
    # additivity
    f = lambda x: np.array([(x[0] - 1.0) * (x[0] + 1.0) * x[0]])
    whole = brouwer_degree(f, [[-2.0, 2.0]]).degree
    parts = sum(brouwer_degree(f, b).degree
                for b in ([[-2.0, -0.5]], [[-0.5, 0.5]], [[0.5, 2.0]]))
    ok &= whole == parts
    assert whole == parts
    # homotopy invariance with bounded remainder
    eps = 0.05
    g = lambda x: np.array([x[0] ** 2 - eps * x[0]])
    rfun = lambda x: np.array([0.2 * math.cos(5 * x[0])])
    degs = {brouwer_degree(lambda x, t=t: g(x) + t * eps ** 2 * rfun(x),
                           [[eps / 2, 3 * eps / 2]]).degree
            for t in np.linspace(0, 1, 5)}
    ok &= degs == {1}
    assert degs == {1}
    # worked boundary-margin example: |g(eps/2, eps)| = eps^2/4 > eps^2/5
    passed, margin, threshold = degree_preservation_check(
        lambda x, e: x[0] ** 2 - e * x[0], 1 / 5, eps, 1,
        [[eps / 2, 3 * eps / 2]])
    ok &= passed and margin == pytest.approx(eps ** 2 / 4, rel=1e-12)
    assert passed
    assert margin == pytest.approx(eps ** 2 / 4, rel=1e-12)
    assert threshold == pytest.approx(eps ** 2 / 5, rel=1e-12)
    note(8, ok, "degree axioms (normalisation, additivity, homotopy) and the "
                "shrinking-box margin example reproduce exactly")


# --- criterion 9: derivative tensors vs finite differences ---------------------

def test_c9_tensor_oracle():
    from avgcycle.expr import derivative_tensor
    from test_expr import _fd_tensor
    rng = np.random.default_rng(9)
    steps = {1: 1e-3, 2: 1e-3, 3: 4e-3, 4: 1.5e-2}
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 4))
        names = tuple(f"x{i+1}" for i in range(n))
        decls = Declarations(state=names)
        comps = []
        for _ in range(n):
            terms = []
            for _ in range(3):
                c = rng.uniform(-1, 1)
                v1, v2 = rng.choice(names), rng.choice(names)
                kind = rng.integers(0, 3)
                if kind == 0:
                    terms.append(f"({c:.5f})*{v1}^{rng.integers(1, 5)}")
                elif kind == 1:
                    terms.append(f"({c:.5f})*{v1}*{v2}")
                else:
                    terms.append(f"({c:.5f})*sin({v1})*cos({v2})")
            comps.append(" + ".join(terms))
        comps = [parse(s, decls) for s in comps]
        pt = rng.uniform(-0.8, 0.8, size=n)
        order = int(rng.integers(1, 5))
        tens = derivative_tensor(comps, 0.0, pt, order, {}, decls=decls)
        fd = _fd_tensor(comps, 0.0, pt, order, {}, h=steps[order])
        dense = tens.to_dense()
        scale = max(1.0, float(np.max(np.abs(dense))))
        worst = max(worst, float(np.max(np.abs(dense - fd))) / scale)
    ok = worst <= 1e-6
    note(9, ok, f"50 random fields, orders 1..4: worst rel deviation from "
                f"5-point differences {worst:.2e} (<= 1e-6)")
    assert worst <= 1e-6
