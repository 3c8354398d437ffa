import math

import numpy as np
import pytest

from avgcycle import expr
from avgcycle.lyapschmidt import (
    AveragedGSeries, ExprGSeries, ManifoldChart, ShiftedGSeries,
    SingularDeltaError, bifurcation_functions, delta_alpha, detect_first_order,
    gamma_functions, reduce_chart,
)
from oracles import explicit_f, explicit_gamma

TWO_PI = 2 * math.pi


# --- synthetic series with hand-derived reduction ---------------------------

@pytest.fixture(scope="module")
def quadratic_gs():
    # g0 = (a b, 2 b + b^2), g1 = (a^2, a + b), g2 = (b, a b + 3):
    # on the chart b = 0 one finds Delta = 2, Gamma = a and by hand
    #   gamma1 = -a/2
    #   gamma2 = -(3 - a/2 + a^2/4)
    #   f1 = a^2/2
    #   f2 = -3 a/2 + a^2/4 - a^3/8
    return ExprGSeries(
        [["a*b", "2*b + b^2"], ["a^2", "a + b"], ["b", "a*b + 3"]],
        state=("a", "b"))


@pytest.fixture(scope="module")
def line_chart():
    return ManifoldChart.from_strings(("a",), ["0"], [[0.2, 3.0]], n=2)


def test_b_tensor_reuses_one_stack_per_order(monkeypatch):
    built = []

    class CountingStack(expr._TensorStack):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    gs = ExprGSeries([["a*b^2", "b^3 + a"], ["c*a*b^3", "sin(c*b)*a^2"]],
                     state=("a", "b"), params={"c": 2.0})
    z = np.array([0.7, -0.4])

    def uncached():
        return expr.derivative_tensor(gs.gs[1], 0.0, z, 3, gs.params,
                                      decls=gs.decls, wrt=(1,)).entries

    want = uncached()
    monkeypatch.setattr(expr, "_TensorStack", CountingStack)
    for _ in range(20):
        assert np.array_equal(gs.b_tensor(1, z, 3, 1).entries, want)
    assert len(built) == 1
    # an in-place parameter edit compiles afresh
    gs.params["c"] = 3.0
    got = gs.b_tensor(1, z, 3, 1).entries
    assert len(built) == 2
    assert np.array_equal(got, uncached())
    assert not np.array_equal(got, want)


def test_delta_of_synthetic_series(quadratic_gs, line_chart):
    delta, det = delta_alpha(quadratic_gs, line_chart, 1.3)
    assert delta.shape == (1, 1)
    assert delta[0, 0] == pytest.approx(2.0, rel=1e-13)
    assert det == pytest.approx(2.0, rel=1e-13)


def test_gamma_hand_values(quadratic_gs, line_chart):
    for a in (0.5, 1.0, 2.5):
        g1, g2 = gamma_functions(quadratic_gs, line_chart, a, 2)
        assert g1[0] == pytest.approx(-a / 2, rel=1e-12)
        assert g2[0] == pytest.approx(-(3 - a / 2 + a * a / 4), rel=1e-12)


def test_bifurcation_hand_values(quadratic_gs, line_chart):
    for a in (0.5, 1.0, 2.5):
        fs, _ = bifurcation_functions(quadratic_gs, line_chart, a, 2)
        assert fs[0][0] == pytest.approx(a * a / 2, rel=1e-12)
        assert fs[1][0] == pytest.approx(-1.5 * a + a * a / 4 - a ** 3 / 8, rel=1e-12)


def test_gamma_zero_when_normal_part_vanishes(line_chart):
    gs = ExprGSeries([["a*b", "b"], ["a^2", "0"]], state=("a", "b"))
    g1 = gamma_functions(gs, line_chart, 1.7, 1)[0]
    assert g1[0] == pytest.approx(0.0, abs=1e-14)


def test_implicit_branch_matches_numeric_solution(quadratic_gs, line_chart):
    # solve pi-perp g(alpha, b, eps) = 0 for b by bisection/Newton and compare
    # its eps-Taylor coefficients with gamma_1, gamma_2
    alpha = 1.4
    gs = quadratic_gs

    def normal_eq(b, eps):
        z = np.array([alpha, b])
        total = 0.0
        for i in range(3):
            total += eps ** i * gs.value(i, z)[1]
        return total

    def solve_b(eps):
        b = 0.0
        for _ in range(60):
            fb = normal_eq(b, eps)
            db = (normal_eq(b + 1e-8, eps) - normal_eq(b - 1e-8, eps)) / 2e-8
            step = fb / db
            b -= step
            if abs(step) < 1e-14:
                break
        return b

    g1, g2 = gamma_functions(gs, line_chart, alpha, 2)
    h = 1e-4
    bp, b0, bm = solve_b(h), solve_b(0.0), solve_b(-h)
    d1 = (bp - bm) / (2 * h)
    d2 = (bp - 2 * b0 + bm) / h ** 2
    assert d1 == pytest.approx(g1[0], rel=1e-5)
    assert d2 == pytest.approx(g2[0], rel=1e-4)


def test_claim_style_eps_derivatives_of_reduced_equation(line_chart):
    # series with exactly solvable normal part: pi-perp g = b - eps p(a) - eps^2 q(a)
    gs = ExprGSeries(
        [["a^2*b + a*b^2", "b"],
         ["a^3 + a*b", "-(2*a + a^2)"],       # p(a) = 2 a + a^2
         ["a - b^2", "-(1 - a)"]],            # q(a) = 1 - a
        state=("a", "b"))
    alpha = 0.8

    def beta_bar(eps):
        p = 2 * alpha + alpha ** 2
        q = 1 - alpha
        return eps * p + eps ** 2 * q

    def delta_fn(eps):
        z = np.array([alpha, beta_bar(eps)])
        return sum(eps ** i * gs.value(i, z)[0] for i in range(3))

    fs, gammas = bifurcation_functions(gs, line_chart, alpha, 2)
    assert gammas[0][0] == pytest.approx(2 * alpha + alpha ** 2, rel=1e-12)
    assert gammas[1][0] == pytest.approx(2 * (1 - alpha), rel=1e-12)
    h = 1e-3
    vals = [delta_fn(e) for e in (-2 * h, -h, 0.0, h, 2 * h)]
    d1 = (vals[3] - vals[1]) / (2 * h)
    d2 = (vals[3] - 2 * vals[2] + vals[1]) / h ** 2
    assert d1 == pytest.approx(1 * fs[0][0], rel=1e-4, abs=1e-10)
    assert d2 == pytest.approx(2 * fs[1][0], rel=1e-4, abs=1e-8)


def test_projection_reassembly():
    z = np.array([1.0, -2.0, 3.0])
    m = 2
    assert np.concatenate([z[:m], z[m:]]) == pytest.approx(z)


def test_full_dimensional_chart_trivial_reduction():
    gs = ExprGSeries([["0", "0"], ["a^2 - 1", "b"], ["a*b", "1"]],
                     state=("a", "b"))
    chart = ManifoldChart(m=2, n=2, box=[[0.1, 2.0], [-1.0, 1.0]])
    delta, det = delta_alpha(gs, chart, [1.0, 0.5])
    assert delta.shape == (0, 0)
    assert det == 1.0
    fs, gammas = bifurcation_functions(gs, chart, [1.0, 0.5], 2)
    assert fs[0] == pytest.approx(gs.value(1, np.array([1.0, 0.5])))
    assert fs[1] == pytest.approx(gs.value(2, np.array([1.0, 0.5])))
    assert gammas[0].size == 0


def test_singular_delta_raises(line_chart):
    gs = ExprGSeries([["a*b", "b^2"], ["a", "1"]], state=("a", "b"))
    with pytest.raises(SingularDeltaError):
        gamma_functions(gs, line_chart, 1.0, 1)


# --- explicit-table oracle vs the recurrence ---------------------------------

def _random_gseries(rng, m, nb):
    """Random polynomial series with g0 vanishing on {b = beta(a)} and a
    well-conditioned Delta block."""
    n = m + nb
    a_names = [f"a{i+1}" for i in range(m)]
    b_names = [f"b{i+1}" for i in range(nb)]
    names = a_names + b_names
    betas = []
    for _ in range(nb):
        c0, c1 = rng.uniform(-0.5, 0.5, size=2)
        betas.append(f"({c0:.5f}) + ({c1:.5f})*{rng.choice(a_names)}")
    shifted = [f"({b_names[j]} - ({betas[j]}))" for j in range(nb)]

    def poly(max_deg=2):
        mono = ["1"] + names + [f"{u}*{v}" for ui, u in enumerate(names)
                                for v in names[ui:]]
        terms = [f"({rng.uniform(-1, 1):.5f})*({rng.choice(mono)})"
                 for _ in range(3)]
        return " + ".join(terms)

    # g0 rows: M(z) (b - beta(a)) with M = I + small polynomial entries
    g0 = []
    for i in range(n):
        parts = []
        for j in range(nb):
            diag = 1.0 if (i - m) == j else 0.0
            parts.append(f"({diag} + 0.2*({poly()}))*{shifted[j]}")
        g0.append(" + ".join(parts))
    gs_rows = [g0] + [[poly() for _ in range(n)] for _ in range(5)]
    series = ExprGSeries(gs_rows, state=names)
    chart = ManifoldChart.from_strings(
        a_names, betas, [[-0.5, 0.5]] * m, n=n)
    return series, chart


@pytest.mark.parametrize("m,nb", [(1, 1), (1, 2), (2, 1)])
def test_explicit_tables_match_recurrence(m, nb):
    rng = np.random.default_rng(50 + 10 * m + nb)
    for trial in range(6):
        gs, chart = _random_gseries(rng, m, nb)
        alpha = rng.uniform(-0.4, 0.4, size=m)
        fs_a, gam_a = bifurcation_functions(gs, chart, alpha, 5)
        fs_b, gam_b = explicit_f(gs, chart, alpha, 5)
        for a, b in zip(gam_a, gam_b):
            scale = max(1.0, np.max(np.abs(a)))
            assert np.max(np.abs(a - b)) / scale < 1e-9
        for a, b in zip(fs_a, fs_b):
            scale = max(1.0, np.max(np.abs(a)))
            assert np.max(np.abs(a - b)) / scale < 1e-9


def test_order3_gamma_coefficient_discrepancy_is_decided_by_truth():
    # the coefficient of d(pi-perp g1).gamma2 inside gamma3 must be 3, not 2:
    # series built so that term alone distinguishes the two candidates
    gs = ExprGSeries(
        [["0", "b"],          # Delta = 1
         ["0", "1 + 0*a"],    # gamma1 = -1
         ["0", "a*b"],        # d_b(pi-perp g1) = 0 -> irrelevant at b=0...
         ["0", "0"]],
        state=("a", "b"))
    # construct instead with pi-perp g1 depending on b so gamma2 != 0 and
    # d_b pi-perp g1 != 0
    gs = ExprGSeries(
        [["0", "b"],
         ["0", "1 + b"],      # gamma1 = -1, d_b(pi-perp g1) = 1
         ["0", "0"],
         ["0", "0"]],
        state=("a", "b"))
    chart = ManifoldChart.from_strings(("a",), ["0"], [[-1.0, 1.0]], n=2)
    alpha = 0.3
    # exact branch: b + eps (1 + b) = 0 -> b(eps) = -eps/(1+eps)
    # derivatives at 0: b' = -1, b'' = 2, b''' = -6
    g1, g2, g3 = gamma_functions(gs, chart, alpha, 3)
    assert g1[0] == pytest.approx(-1.0, abs=1e-13)
    assert g2[0] == pytest.approx(2.0, abs=1e-12)
    assert g3[0] == pytest.approx(-6.0, abs=1e-12)
    # the explicit tables encode the same (corrected) coefficient
    a1, a2, a3 = explicit_gamma(gs, chart, alpha, 3)
    assert a3[0] == pytest.approx(-6.0, abs=1e-12)


# --- pipeline-backed series ---------------------------------------------------

def test_radial_fixture_delta_and_f(cyl3d_series, cyl3d_chart):
    gs = AveragedGSeries(cyl3d_series, 2)
    delta, det = delta_alpha(gs, cyl3d_chart, 1.0)
    assert det == pytest.approx(1 - math.exp(-TWO_PI), abs=1e-9)
    for alpha in (0.5, 1.0, 2.0, 3.0):
        fs, gammas = bifurcation_functions(gs, cyl3d_chart, alpha, 2)
        f1_want = math.pi * alpha ** 3 / 2
        f2_want = -math.pi * alpha * (3 * alpha + 4) / 2
        assert fs[0][0] == pytest.approx(f1_want, rel=1e-7)
        assert fs[1][0] == pytest.approx(f2_want, rel=1e-7)


def test_radial_fixture_gamma1(cyl3d_series, cyl3d_chart):
    # with the corrected second field component, pi-perp g1(z_a) integrates to
    # -a (1 - e^{-2 pi})/2... the chart-normal correction is gamma1 = a/2
    gs = AveragedGSeries(cyl3d_series, 2)
    for alpha in (0.8, 1.6):
        g1 = gamma_functions(gs, cyl3d_chart, alpha, 1)[0]
        assert g1[0] == pytest.approx(alpha / 2, rel=1e-7)


def test_mb_nested_reduction_values(mb_series, mb_chart, mb_params):
    a0, a2, b2 = mb_params["a0"], mb_params["a2"], mb_params["b2"]
    b1, c1, om = mb_params["b1"], mb_params["c1"], mb_params["omega"]
    base = AveragedGSeries(mb_series, 3)
    nested = ShiftedGSeries(base, 1)
    delta, det = delta_alpha(nested, mb_chart, 2.0)
    assert det == pytest.approx(-2 * math.pi * c1 / om, rel=1e-9)
    B = a2 + b2
    for alpha in (1.0, 2.0, 2.8):
        fs, _ = bifurcation_functions(nested, mb_chart, alpha, 2)
        f1_want = math.pi * alpha * (a0 * alpha ** 2 - 2 * B * om ** 2) / (2 * om ** 3)
        f2_want = -(math.pi * alpha * (10 * a0 ** 2 * alpha ** 2 * (b1 * c1 + alpha ** 2)
                    + om ** 2 * (c1 * alpha ** 2 * (2 * b1 + c1)
                                 - 4 * a0 * B * (b1 * c1 + alpha ** 2))))
        f2_want /= 4 * c1 * om ** 5
        assert fs[0][0] == pytest.approx(f1_want, rel=2e-7, abs=1e-8)
        assert fs[1][0] == pytest.approx(f2_want, rel=2e-6, abs=1e-7)


def test_reduce_chart_detects_first_order(cyl3d_series, cyl3d_chart):
    gs = AveragedGSeries(cyl3d_series, 2)
    red = reduce_chart(gs, cyl3d_chart, 2, grid=8)
    assert red.r == 1
    assert red.min_abs_det() == pytest.approx(1 - math.exp(-TWO_PI), abs=1e-8)


def test_detect_first_order_thresholds():
    assert detect_first_order(np.array([0.0, 1.0])) == 2
    assert detect_first_order(np.array([1e-12, 1.0])) == 2
    assert detect_first_order(np.array([0.5, 1.0])) == 1
    assert detect_first_order(np.array([0.0, 0.0])) == 0
