import math
from itertools import product

import numpy as np
import pytest

from avgcycle import averaging, expr, lyapschmidt
from avgcycle.expr import VectorFieldSeries
from avgcycle.lyapschmidt import (
    AveragedGSeries, ExprGSeries, ManifoldChart, ShiftedGSeries,
    SingularDeltaError, bifurcation_functions, delta_alpha, detect_first_order,
    gamma_functions, reduce_chart,
)
from oracles import explicit_f, explicit_gamma, fd_b_tensor

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


def test_b_tensor_reuses_one_jet_per_order(monkeypatch):
    compiled = []
    original = expr.jet_partials

    def counting(nodes, L, wrt, params, names):
        compiled.append((L, tuple(wrt), tuple(params[name] for name in names)))
        return original(nodes, L, wrt, params, names)

    gs = ExprGSeries([["a*b^2", "b^3 + a"], ["c*a*b^3", "sin(c*b)*a^2"]],
                     state=("a", "b"), params={"c": 2.0})
    z = np.array([0.7, -0.4])

    def uncached():
        return original(gs.gs[1], 3, (1,), gs.params, gs.decls.params)(0.0, z)

    want = uncached()
    monkeypatch.setattr(expr, "jet_partials", counting)
    for _ in range(20):
        assert np.array_equal(gs.b_tensor(1, z, 3, 1).entries, want)
        assert np.array_equal(gs.b_tensor(1, z, 2, 1).entries,
                              original(gs.gs[1], 2, (1,), gs.params, gs.decls.params)(0.0, z))
    # one jet per (i, L, nb, parameter values)
    assert compiled == [(3, (1,), (2.0,)), (2, (1,), (2.0,))]
    # an in-place parameter edit compiles afresh
    gs.params["c"] = 3.0
    got = gs.b_tensor(1, z, 3, 1).entries
    assert compiled[2:] == [(3, (1,), (3.0,))]
    assert np.array_equal(got, uncached())
    assert not np.array_equal(got, want)


@pytest.mark.parametrize("name", ["cyl3d_chart", "mb_chart"])
def test_embed_is_the_interpreted_value_bit_for_bit(request, name):
    chart = request.getfixturevalue(name)
    for alpha in chart.chebyshev_grid(17):
        want = [expr.evaluate(e, 0.0, alpha, chart.params) for e in chart.beta_exprs]
        assert np.array_equal(chart.embed(alpha), np.concatenate([alpha, want]))


def test_mb_beta_jacobian_closed_form(mb_chart, mb_params):
    # beta = -2 a0 r^2 / c1
    for r in mb_chart.chebyshev_grid(9)[:, 0]:
        want = -4 * mb_params["a0"] * r / mb_params["c1"]
        got = mb_chart.beta_jacobian([r])
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - want) <= 1e-14 * abs(want)


def test_singular_chart_point_names_the_subexpression():
    chart = ManifoldChart.from_strings(("a",), ["1/a"], [[-1.0, 1.0]], n=2)
    for read in (chart.embed, chart.beta_jacobian):
        with pytest.raises(expr.EvalDomainError,
                           match=r"division by zero in subexpression '1 / a'"):
            read([0.0])
    # the value is fine at 0, its slope is not
    chart = ManifoldChart.from_strings(("a",), ["sqrt(a)"], [[0.0, 1.0]], n=2)
    assert chart.embed([0.0]).tolist() == [0.0, 0.0]
    with pytest.raises(expr.EvalDomainError, match=r"derivative expression hit "
                       r"a singularity .* in subexpression 'sqrt\(a\)'"):
        chart.beta_jacobian([0.0])


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


@pytest.mark.parametrize("count", [0, -4])
def test_empty_chart_grid_is_refused(radial_gs, cyl3d_chart, count):
    # no nodes would leave nothing to detect the leading order on
    with pytest.raises(ValueError, match="at least one node"):
        cyl3d_chart.chebyshev_grid(count)
    with pytest.raises(ValueError, match="at least one node"):
        reduce_chart(radial_gs, cyl3d_chart, 2, grid=count, validate=False)


def test_detect_first_order_thresholds():
    assert detect_first_order(np.array([0.0, 1.0])) == 2
    assert detect_first_order(np.array([1e-12, 1.0])) == 2
    assert detect_first_order(np.array([0.5, 1.0])) == 1
    assert detect_first_order(np.array([0.0, 0.0])) == 0


# --- exact b-partials by jet transport ----------------------------------------

def _logistic_series():
    # nonlinear F0, so Y(T) and its inverse depend on the base point
    return VectorFieldSeries.from_strings(
        ("x", "y"), [["0", "-y - y^2"], ["x*(1 + y)^2", "0.7 + x*y"], ["x*y", "y^2"]], 1.0)


@pytest.mark.parametrize("case", ["cyl3d", "mb", "logistic"])
def test_jet_b_partials_agree_with_finite_differences(request, case):
    if case == "logistic":
        series, k, z = _logistic_series(), 2, [1.2, 0.1]
    else:
        series = request.getfixturevalue(f"{case}_series")
        k, z = (2, [1.3, 0.05]) if case == "cyl3d" else (3, [2.0, 2.0])
    gs = AveragedGSeries(series, k)
    for nb in (1, 2):
        # every partial an order-k reduction reads
        for i, L in product(range(k + 1), range(k + 1)):
            if i + L > k:
                continue
            jet = gs.b_tensor(i, z, L, nb).entries
            fd = fd_b_tensor(gs, i, z, L, nb).entries
            scale = max(1.0, np.max(np.abs(jet)))
            assert np.max(np.abs(jet - fd)) <= 1e-7 * scale, (nb, i, L)


def test_g0_partials_match_closed_form_for_nonlinear_f0():
    # F_0 = (0, -y - y^2) over T = 1: y(T) = phi(y) = y/(e + y (e - 1)) and
    # Y(T) = diag(1, phi'), so g_0 = (0, (phi(y) - y)/phi'(y)), which with
    # c = 1 - 1/e is the cubic (1 - e) y + c (1 - 2e) y^2 - e c^2 y^3
    e = math.e
    c = 1 - 1 / e
    derivatives = [
        lambda y: (1 - e) * y + c * (1 - 2 * e) * y ** 2 - e * c ** 2 * y ** 3,
        lambda y: (1 - e) + 2 * c * (1 - 2 * e) * y - 3 * e * c ** 2 * y ** 2,
        lambda y: 2 * c * (1 - 2 * e) - 6 * e * c ** 2 * y,
        lambda y: -6 * e * c ** 2,
    ]
    assert [d(0.0) for d in derivatives[1:3]] == pytest.approx(
        [-1.7182818, -5.6088862], abs=1e-7)
    gs = AveragedGSeries(_logistic_series(), 2)
    for y in (0.0, 0.1):
        # L = 3 is past the series order: one more integration
        for L, d in enumerate(derivatives):
            got = gs.b_tensor(0, [1.2, y], L, 1).entries[:, 0]
            assert got == pytest.approx([0.0, d(y)], rel=1e-9, abs=1e-9), (y, L)


def _exp_coefficient(P, i):
    """Coefficient of eps^i in exp(sum_l eps^l P[l-1]), as expression text."""
    terms = []
    for counts in product(*(range(i // l + 1) for l in range(1, len(P) + 1))):
        if sum(l * c for l, c in enumerate(counts, start=1)) != i:
            continue
        factors = [f"({P[l - 1]})^{c}" for l, c in enumerate(counts, start=1) if c]
        weight = 1.0 / math.prod(math.factorial(c) for c in counts)
        terms.append("*".join([repr(weight)] + factors))
    return " + ".join(terms)


def test_order5_reduction_through_jets_matches_closed_forms():
    # x' = eps x (1 + y)^2, y' = -y + eps c over T = 1: y(t) is explicit, so
    # x(T) = x0 exp(eps P0 + eps^2 P1 + eps^3 P2), y(T) = y0 e^-T + eps c q,
    # and the g_i = Y(T)^-1 y_i(T)/i! have closed forms; the chart y = 0 is
    # the zero set of g_0 = (0, (1 - e^T) y)
    T, c = 1.0, 0.7
    q, q2 = 1 - math.exp(-T), (1 - math.exp(-2 * T)) / 2
    series = VectorFieldSeries.from_strings(
        ("x", "y"), [["0", "-y"], ["x*(1 + y)^2", "c"]] + [["0", "0"]] * 4, T,
        params={"c": c})
    P = [f"{T!r} + {2 * q!r}*y + {q2!r}*y^2",
         f"{2 * c * (T - q)!r} + {2 * c * (q - q2)!r}*y",
         f"{c * c * (T - 2 * q + q2)!r}"]
    g = [["0", f"{1 - math.exp(T)!r}*y"], [f"x*({P[0]})", f"{c * (math.exp(T) - 1)!r}"]]
    g += [[f"x*({_exp_coefficient(P, i)})", "0"] for i in range(2, 6)]
    exact = ExprGSeries(g, state=("x", "y"))
    chart = ManifoldChart.from_strings(("x",), ["0"], [[0.5, 2.0]], n=2)
    gs = AveragedGSeries(series, 5)
    for alpha in (0.7, 1.6):
        z = chart.embed(alpha)
        for i, L in product(range(6), range(6)):
            if i + L <= 5:
                got = gs.b_tensor(i, z, L, 1).entries
                want = exact.b_tensor(i, z, L, 1).entries
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (i, L)
        fs, gammas = bifurcation_functions(gs, chart, alpha, 5)
        fs_want, gammas_want = bifurcation_functions(exact, chart, alpha, 5)
        for got, want in zip(fs + gammas, fs_want + gammas_want):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
    # past the series order: one more integration, graded for what is asked
    z = chart.embed(1.6)
    for i, L, nb in ((1, 5, 1), (2, 3, 2)):
        got = gs.b_tensor(i, z, L, nb).entries
        want = exact.b_tensor(i, z, L, nb).entries
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (i, L, nb)
    with pytest.raises(ValueError, match="0..5"):
        gs.b_tensor(1, z, 6, 1)
    red = reduce_chart(gs, chart, 5, grid=4)
    red_want = reduce_chart(exact, chart, 5, grid=4)
    assert red.r == red_want.r == 1
    assert red.f_table == pytest.approx(red_want.f_table, rel=1e-9, abs=1e-9)
    assert red.gamma_table == pytest.approx(red_want.gamma_table, rel=1e-9, abs=1e-9)


def test_mixed_b_partials_n3_m1():
    # x' = eps x (1 + y w), y' = -y + eps c, w' = -2 w over T = 1:
    # x(T) = x0 exp(eps P0 + eps^2 P1) with P0 = T + q3 y w, P1 = c (q2 - q3) w,
    # so the g_i have closed forms with mixed (y, w) partials
    T, c = 1.0, 0.4
    q = 1 - math.exp(-T)
    q2, q3 = (1 - math.exp(-2 * T)) / 2, (1 - math.exp(-3 * T)) / 3
    series = VectorFieldSeries.from_strings(
        ("x", "y", "w"), [["0", "-y", "-2*w"], ["x*(1 + y*w)", "c", "0"],
                          ["0", "0", "0"], ["0", "0", "0"]], T, params={"c": c})
    P = [f"{T!r} + {q3!r}*y*w", f"{c * (q2 - q3)!r}*w"]
    g = [["0", f"{1 - math.exp(T)!r}*y", f"{1 - math.exp(2 * T)!r}*w"],
         [f"x*({P[0]})", f"{c * math.exp(T) * q!r}", "0"]]
    g += [[f"x*({_exp_coefficient(P, i)})", "0", "0"] for i in (2, 3)]
    exact = ExprGSeries(g, state=("x", "y", "w"))
    chart = ManifoldChart.from_strings(("x",), ["0", "0"], [[0.5, 2.0]], n=3)
    gs = AveragedGSeries(series, 3)
    z = np.array([1.3, 0.2, -0.3])        # off the chart: every partial is live
    for i, L in product(range(4), range(4)):
        if i + L <= 3:
            got = gs.b_tensor(i, z, L, 2)
            want = exact.b_tensor(i, z, L, 2)
            assert got.entries == pytest.approx(want.entries, rel=1e-9, abs=1e-9), (i, L)
    mixed = gs.b_tensor(1, z, 2, 2).entry(0, (0, 1))
    assert mixed == pytest.approx(1.3 * q3, rel=1e-9)
    for alpha in (0.8, 1.7):
        fs, gammas = bifurcation_functions(gs, chart, alpha, 3)
        fs_want, gammas_want = bifurcation_functions(exact, chart, alpha, 3)
        for got, want in zip(fs + gammas, fs_want + gammas_want):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_reduce_chart_integrates_once_per_node(cyl3d_series, cyl3d_chart, monkeypatch):
    points = []
    real = lyapschmidt.averaged_functions
    monkeypatch.setattr(lyapschmidt, "averaged_functions",
                        lambda *args, **kw: points.append(args[1]) or real(*args, **kw))
    gs = AveragedGSeries(cyl3d_series, 2)
    red = reduce_chart(gs, cyl3d_chart, 2, grid=5, validate=False)
    assert len(points) == len(red.alphas) == 5


@pytest.fixture
def integrations(monkeypatch):
    """(k, nb) of every averaging integration a lookup runs."""
    calls = []
    real = lyapschmidt.averaged_functions

    def counted(series, z, k, config=None, nb=0, order=None):
        calls.append((k, nb))
        return real(series, z, k, config, nb, order)

    monkeypatch.setattr(lyapschmidt, "averaged_functions", counted)
    return calls


def test_value_lookup_integrates_only_the_order_it_reads(mb_series, integrations):
    gs = AveragedGSeries(mb_series, 3)
    z = np.array([1.3, -0.2])
    gs.value(0, z)
    gs.g0_jacobian(z)
    gs.g0_jacobian(z + 0.1)
    assert integrations == [(0, 0), (0, 0)]
    for i in (1, 2, 3):
        gs.value(i, z + i)
    assert integrations[2:] == [(1, 0), (2, 0), (3, 0)]


def test_highest_order_first_is_one_integration(mb_series, integrations):
    gs = AveragedGSeries(mb_series, 3)
    z = np.array([1.3, -0.2])
    for i in (3, 2, 1, 0):
        gs.value(i, z)
    gs.g0_jacobian(z)
    assert integrations == [(3, 0)]


def test_cached_jet_serves_value_lookups(mb_series, integrations):
    gs = AveragedGSeries(mb_series, 3)
    z = np.array([1.3, -0.2])
    gs.b_tensor(1, z, 1, 1)
    for i in range(4):
        gs.value(i, z)
    gs.g0_jacobian(z)
    assert integrations == [(3, 1)]


def test_higher_order_after_lower_integrates_once_more(mb_series, integrations):
    gs = AveragedGSeries(mb_series, 3)
    z = np.array([1.3, -0.2])
    low = gs.value(1, z)
    high = gs.value(3, z)
    again = gs.value(1, z)        # the k = 3 cut now serves g_1
    assert integrations == [(1, 0), (3, 0)]
    full = averaging.averaged_functions(mb_series, z, 3, gs.config)
    assert low == pytest.approx(full.g[1], rel=1e-9, abs=1e-9)
    assert np.array_equal(again, full.g[1])
    assert np.array_equal(high, full.g[3])
    # a b-tensor reads a cut of every order, whatever plain cut is cached
    gs.b_tensor(1, z + 0.1, 0, 0)
    gs.value(1, z + 0.2)
    gs.b_tensor(1, z + 0.2, 0, 0)
    assert integrations[2:] == [(3, 0), (1, 0), (3, 0)]


def test_series_at_integrates_once_and_serves_b_tensor(mb_series, integrations):
    gs = AveragedGSeries(mb_series, 3)
    z = np.array([1.3, -0.2])
    cut = gs.series_at(z, 1)
    assert (cut.k, cut.nb, cut.order) == (3, 1, 3)
    assert gs.series_at(z, 1) is cut
    for i, L in ((0, 1), (1, 2), (3, 0)):
        assert np.array_equal(gs.b_tensor(i, z, L, 1).entries, cut.b_partials(i, L))
    assert integrations == [(3, 1)]
    # a request beyond order k integrates once more and replaces the entry
    gs.b_tensor(2, z, 2, 1)
    assert gs.series_at(z, 1).order == 4
    assert integrations == [(3, 1), (3, 1)]
    # nb = 0 is the plain cut of order k, which value lookups then read
    plain = gs.series_at(z + 0.1, 0)
    assert (plain.k, plain.nb) == (3, 0)
    assert np.array_equal(gs.value(2, z + 0.1), plain.g[2])
    assert integrations[2:] == [(3, 0)]


def test_full_dimensional_chart_integrates_once_per_node(mb_series, integrations):
    # m = n: the f_i are the g_i themselves, read off one plain cut per node
    chart = ManifoldChart.from_strings(("r", "w"), [], [[1.0, 2.0], [-0.5, 0.5]], n=2)
    gs = AveragedGSeries(mb_series, 3)
    red = reduce_chart(gs, chart, 3, grid=2)
    assert len(red.alphas) == 4
    assert integrations == [(3, 0)] * 4
    for alpha, fs in zip(red.alphas, red.f_table):
        for i in (1, 2, 3):
            assert np.array_equal(fs[i - 1], gs.value(i, chart.embed(alpha)))
    assert len(integrations) == 4
