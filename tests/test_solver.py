import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avgcycle.lyapschmidt import ExprGSeries, ManifoldChart, reduce_chart
from avgcycle.solver import (
    BranchError, brouwer_degree, check_hypotheses, degree_preservation_check,
    expand_branch, find_branch, nested_reduction,
)
from conftest import assert_value_error_survives_optimize

TWO_PI = 2 * math.pi


def closed_form_branch(eps):
    # root of alpha^2 - 3 eps alpha - 4 eps = 0 (the radial fixture branch)
    return (3 * eps + math.sqrt(9 * eps ** 2 + 16 * eps)) / 2


@pytest.fixture(scope="module")
def radial_reduction(radial_reduction_session):
    return radial_reduction_session


@pytest.fixture(scope="module")
def radial_branch(radial_reduction):
    eps_grid = np.geomspace(1e-3, 1e-1, 17)
    return find_branch(radial_reduction, eps_grid)


@pytest.fixture(scope="module")
def mb_reduction(mb_reduction_session):
    return mb_reduction_session


def test_linear_function_branch_is_constant():
    gs = ExprGSeries([["a*b", "b"], ["a - 1.5", "0"]], state=("a", "b"))
    chart = ManifoldChart.from_strings(("a",), ["0"], [[0.5, 3.0]], n=2)
    red = reduce_chart(gs, chart, 1, grid=16)
    branch = find_branch(red, [1e-3, 1e-2, 1e-1])
    assert branch.a_eps[:, 0] == pytest.approx([1.5, 1.5, 1.5], abs=1e-10)


def test_radial_fixture_branch_closed_form(radial_branch):
    want = np.array([closed_form_branch(e) for e in radial_branch.eps])
    assert radial_branch.eps.size == 17
    assert np.max(np.abs(radial_branch.a_eps[:, 0] - want)) < 1e-8
    assert np.all(radial_branch.residual <= 1e-10 * np.abs(radial_branch.eps)
                  * 200)


def test_mb_order1_branch_is_alpha0(mb_nested_gs, mb_chart, mb_params):
    red1 = reduce_chart(mb_nested_gs, mb_chart, 1, grid=12, validate=False)
    branch = find_branch(red1, [1e-3, 5e-3])
    a0, B = mb_params["a0"], mb_params["a2"] + mb_params["b2"]
    alpha0 = mb_params["omega"] * math.sqrt(2 * B / a0)
    assert branch.a_eps[:, 0] == pytest.approx([alpha0, alpha0], abs=1e-8)


def test_branch_failure_is_recorded_not_fatal():
    gs = ExprGSeries([["a*b", "b"], ["a^2 + 1", "0"]], state=("a", "b"))
    chart = ManifoldChart.from_strings(("a",), ["0"], [[0.5, 2.0]], n=2)
    red = reduce_chart(gs, chart, 1, grid=8)
    with pytest.raises(BranchError):
        find_branch(red, [1e-2])


def test_planar_chart_branch_and_expansion():
    # m = n = 2: multi-start damped Newton on the exact evaluator
    gs = ExprGSeries([["0", "0"], ["a^2 - 2.25", "a*b - 0.75"]],
                     state=("a", "b"))
    chart = ManifoldChart.from_strings(("a", "b"), [], [[0.5, 3.0], [-1.0, 2.0]],
                                       n=2)
    red = reduce_chart(gs, chart, 1, grid=6)
    branch = find_branch(red, [1e-3, 1e-2])
    assert branch.a_eps == pytest.approx(np.array([[1.5, 0.5]] * 2), abs=1e-9)
    z0, z1, alpha0, alpha1 = expand_branch(red, branch)
    assert alpha0 == pytest.approx([1.5, 0.5], abs=1e-10)
    assert np.array_equal(alpha1, np.zeros(2))


# --- hypothesis report -------------------------------------------------------

def test_radial_fixture_hypotheses(radial_reduction, radial_branch):
    rep = check_hypotheses(radial_reduction, radial_branch)
    assert rep.r == 1
    assert rep.det_nonsingular
    assert rep.min_abs_det_delta == pytest.approx(1 - math.exp(-TWO_PI), abs=1e-7)
    assert rep.l == 2
    assert abs(rep.l_fit - 2) < 0.25
    assert rep.l_bound == pytest.approx(2.0)   # (k + r + 1)/2 with k=2, r=1
    assert rep.l_within_bound
    assert rep.predicted_tangential_order == pytest.approx(1.0)
    assert rep.P0 > 0
    assert not rep.corollary_fast_path


def test_mb_hypotheses(mb_reduction):
    branch = find_branch(mb_reduction, np.geomspace(1e-3, 1e-2, 5))
    rep = check_hypotheses(mb_reduction, branch, k=1)
    assert rep.r == 1
    assert rep.l == 1
    assert rep.l_within_bound


def test_corollary_fast_path():
    # r = k = 1 with a simple root: l = r = k reported directly
    gs = ExprGSeries([["a*b", "b"], ["a - 1.0", "0"]], state=("a", "b"))
    chart = ManifoldChart.from_strings(("a",), ["0"], [[0.5, 2.0]], n=2)
    red = reduce_chart(gs, chart, 1, grid=8)
    branch = find_branch(red, [1e-3, 1e-2])
    rep = check_hypotheses(red, branch)
    assert rep.corollary_fast_path
    assert rep.l == rep.r == 1


def test_hypotheses_refuse_a_one_point_fit():
    # r = 1 < k = 2, so l comes from the fit, and one point fits no slope
    gs = ExprGSeries([["a*b", "b"], ["a - 1.0", "0"], ["a", "0"]],
                     state=("a", "b"))
    chart = ManifoldChart.from_strings(("a",), ["0"], [[0.5, 2.0]], n=2)
    red = reduce_chart(gs, chart, 2, grid=8)
    for eps in ([1e-2], [1e-2, 1e-2]):
        with pytest.raises(BranchError, match="the branch has 1"):
            check_hypotheses(red, find_branch(red, eps))


def test_corollary_fast_path_one_point_has_no_fit():
    gs = ExprGSeries([["a*b", "b"], ["a - 1.0", "0"]], state=("a", "b"))
    chart = ManifoldChart.from_strings(("a",), ["0"], [[0.5, 2.0]], n=2)
    red = reduce_chart(gs, chart, 1, grid=8)
    rep = check_hypotheses(red, find_branch(red, [1e-2]))
    assert rep.corollary_fast_path
    assert rep.l == 1
    assert rep.l_fit is None


# --- Brouwer degree -----------------------------------------------------------

def test_degree_identity_map():
    cert = brouwer_degree(lambda x: x, [[-1.0, 1.0]])
    assert cert.degree == 1
    assert len(cert.signs) == 1


def test_degree_quadratic_two_roots():
    cert = brouwer_degree(lambda x: np.array([x[0] ** 2 - 1.0]), [[-2.0, 2.0]])
    assert cert.degree == 0
    assert len(cert.zeros) == 2
    assert sorted(cert.signs) == [-1, 1]


def test_degree_planar_point_reflection():
    # x -> -x in the plane has determinant +1: degree 1
    cert = brouwer_degree(lambda x: -x, [[-1.0, 1.0], [-1.0, 1.0]])
    assert cert.degree == 1


def test_degree_nonzero_implies_zero_exists():
    rng = np.random.default_rng(8)
    for _ in range(5):
        A = rng.normal(size=(2, 2))
        if abs(np.linalg.det(A)) < 0.3:
            continue
        shift = rng.uniform(-0.2, 0.2, size=2)
        cert = brouwer_degree(lambda x, A=A, s=shift: A @ (x - s),
                              [[-1.0, 1.0], [-1.0, 1.0]])
        if cert.degree != 0:
            assert len(cert.zeros) >= 1
            assert np.linalg.norm(cert.zeros[0] - shift) < 1e-7


def test_degree_additivity_over_disjoint_boxes():
    f = lambda x: np.array([(x[0] - 1.0) * (x[0] + 1.0) * x[0]])
    whole = brouwer_degree(f, [[-2.0, 2.0]])
    parts = [brouwer_degree(f, [[-2.0, -0.5]]),
             brouwer_degree(f, [[-0.5, 0.5]]),
             brouwer_degree(f, [[0.5, 2.0]])]
    assert whole.degree == sum(p.degree for p in parts)


def test_degree_homotopy_invariance():
    # g_t = g + t eps^{k+1} r with bounded remainder keeps the degree
    eps, k = 0.1, 1
    g = lambda x: np.array([x[0] ** 2 - eps * x[0]])
    r = lambda x: np.array([0.2 * math.sin(3 * x[0])])
    box = [[eps / 2, 3 * eps / 2]]
    degs = set()
    for t in np.linspace(0.0, 1.0, 5):
        cert = brouwer_degree(
            lambda x, t=t: g(x) + t * eps ** (k + 1) * r(x), box)
        degs.add(cert.degree)
    assert degs == {1}


def test_degree_boundary_violation_raises():
    with pytest.raises(ValueError):
        brouwer_degree(lambda x: x, [[0.0, 1.0]])  # zero on the boundary


def test_degree_nonregular_zero_detected():
    with pytest.raises(ValueError):
        brouwer_degree(lambda x: np.array([x[0] ** 2]), [[-1.0, 1.0]])


def test_degree_touch_between_samples_refuses():
    # no scan sample lands on the double zero at 0; Newton from the dip of
    # |f| reaches it
    with pytest.raises(ValueError, match="non-regular"):
        brouwer_degree(lambda x: np.array([x[0] ** 2]), [[-1.0, 1.1]])


def test_degree_small_box_counts_each_zero_once():
    # every start reaches the one zero; stopping at |F| < tol would leave
    # the end points farther apart than the merge radius of 2.8e-11
    cert = brouwer_degree(lambda x: x + x ** 2, [[-1e-5, 1e-5]] * 2)
    assert cert.degree == 1
    assert len(cert.zeros) == 1


def test_degree_steep_zero_is_counted():
    # a zero 1e-4 wide: the boundary degree is 1
    cert = brouwer_degree(lambda x: np.arctan(1e4 * (x - 0.3)), [[0.0, 1.0]])
    assert cert.degree == 1


def _close_triple(c, d=1e-3):
    return lambda x: 1e6 * (x - c) * (x - c - d) * (x - c + d)


def test_degree_close_zero_triple_matches_boundary():
    # three zeros inside one scan interval; the scan lands on an outer one
    cert = brouwer_degree(_close_triple(0.5013), [[0.0, 1.0]])
    assert cert.degree == 1


def test_degree_scan_on_the_middle_zero_refuses():
    # the scan lands on the middle zero, whose slope opposes its bracket
    with pytest.raises(ValueError, match="missed zeros"):
        brouwer_degree(_close_triple(0.3025), [[0.0, 1.0]])


_clusters = st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(1, 3),
                               st.floats(-4.0, -1.0)), min_size=1, max_size=3)


@given(_clusters, st.floats(-1.5, 0.5), st.floats(0.5, 2.5), st.floats(0.0, 6.0))
@settings(max_examples=300, deadline=None)
def test_degree_1d_is_the_boundary_degree_or_refuses(clusters, lo, width, scale):
    # polynomials with clusters of up to three zeros 1e-4..1e-1 apart
    zeros = [c + j * 10.0 ** log_gap for c, count, log_gap in clusters
             for j in range(count)]
    poly = 10.0 ** scale * np.polynomial.Polynomial.fromroots(zeros)
    hi = lo + width
    ends = np.sign([poly(lo), poly(hi)])
    if 0 in ends:
        return
    try:
        cert = brouwer_degree(lambda x: poly(x), [[lo, hi]])
    except ValueError:
        return
    assert cert.degree == (ends[1] - ends[0]) / 2


# --- shrinking-box margin check ------------------------------------------------

def test_margin_example_passes_with_small_remainder():
    g = lambda x, e: x[0] ** 2 - e * x[0]
    eps = 0.03
    ok, margin, threshold = degree_preservation_check(
        g, 1 / 5, eps, 1, [[eps / 2, 3 * eps / 2]], boundary_samples=2)
    assert ok
    assert margin == pytest.approx(eps ** 2 / 4, rel=1e-12)
    assert threshold == pytest.approx(eps ** 2 / 5, rel=1e-12)


def test_margin_zero_remainder_always_passes():
    g = lambda x, e: x[0] ** 2 - e * x[0]
    eps = 0.03
    ok, _, _ = degree_preservation_check(g, 0.0, eps, 1,
                                         [[eps / 2, 3 * eps / 2]])
    assert ok


def test_margin_large_remainder_fails():
    g = lambda x, e: x[0] ** 2 - e * x[0]
    eps = 0.03
    ok, margin, threshold = degree_preservation_check(
        g, 0.3, eps, 1, [[eps / 2, 3 * eps / 2]])
    assert not ok
    assert margin < threshold


# --- nested reduction and expansion --------------------------------------------

def test_nested_reduction_shifts_orders(mb_base_gs, mb_nested_gs, mb_chart):
    base, nested = mb_base_gs, mb_nested_gs
    z = mb_chart.embed(1.5)
    assert nested.value(0, z) == pytest.approx(base.value(1, z))
    assert nested.value(1, z) == pytest.approx(base.value(2, z))
    assert nested.k == 2


def test_nested_reduction_rejects_bad_chart(mb_base_gs):
    base = mb_base_gs
    bad_chart = ManifoldChart.from_strings(("r",), ["1 + r^2"], [[0.5, 2.0]], n=2)
    with pytest.raises(ValueError):
        nested_reduction(base, 1, bad_chart)


def test_nested_reduction_rejects_nonvanishing_lower_order():
    # g_2 vanishes on the sub-chart b = 0, but g_1 does not vanish at all
    chart = ManifoldChart.from_strings(("a",), ["0"], [[0.5, 2.0]], n=2)
    g = [["0", "-b"], ["a", "0"], ["0", "b"], ["a", "b"]]
    with pytest.raises(ValueError, match="order-1 averaged function"):
        nested_reduction(ExprGSeries(g, state=("a", "b")), 2, chart)
    g[1] = ["0", "0"]
    assert nested_reduction(ExprGSeries(g, state=("a", "b")), 2, chart).k == 1


def test_expand_branch_mb(mb_reduction, mb_params):
    a0, b1 = mb_params["a0"], mb_params["b1"]
    c1, om = mb_params["c1"], mb_params["omega"]
    B = mb_params["a2"] + mb_params["b2"]
    z0, z1, alpha0, alpha1 = expand_branch(mb_reduction)
    assert alpha0[0] == pytest.approx(om * math.sqrt(2 * B / a0), rel=1e-8)
    # implicit-function value; the sign follows a0 (here a0 < 0)
    K = 8 * a0 ** 2 * b1 * c1 + om ** 2 * (16 * a0 * B + c1 * (2 * b1 + c1))
    alpha1_want = math.sqrt(B / (2 * a0)) * K / (2 * a0 * c1 * om)
    assert alpha1[0] == pytest.approx(alpha1_want, rel=1e-5)
    assert alpha1_want == pytest.approx(-22 * math.sqrt(2), rel=1e-12)
    # z0 = (alpha0, beta(alpha0)) with beta from the chart map
    assert z0[1] == pytest.approx(-4 * om ** 2 * B / c1, rel=1e-8)


def test_expand_branch_fitted_against_true_roots(mb_reduction):
    # the defect of the first-order expansion against the exact order-2
    # roots must shrink quadratically in eps
    z0, z1, alpha0, alpha1 = expand_branch(mb_reduction)
    eps_grid = np.array([4e-3, 2e-3, 1e-3, 5e-4])
    branch = find_branch(mb_reduction, eps_grid)
    defect = np.abs(branch.a_eps[:, 0] - alpha0[0] - branch.eps * alpha1[0])
    slope = np.polyfit(np.log(branch.eps), np.log(defect), 1)[0]
    assert abs(slope - 2.0) < 0.3


def test_expand_branch_linear_case_alpha1_zero():
    gs = ExprGSeries([["a*b", "b"], ["a - 1.0", "0"]], state=("a", "b"))
    chart = ManifoldChart.from_strings(("a",), ["0"], [[0.5, 2.0]], n=2)
    red = reduce_chart(gs, chart, 1, grid=8)
    z0, z1, alpha0, alpha1 = expand_branch(red)
    assert alpha0[0] == pytest.approx(1.0, abs=1e-10)
    assert alpha1[0] == pytest.approx(0.0, abs=1e-10)


def test_expand_branch_nonsimple_root_raises():
    gs = ExprGSeries([["a*b", "b"], ["(a - 1.0)^2", "0"]], state=("a", "b"))
    chart = ManifoldChart.from_strings(("a",), ["0"], [[0.5, 2.0]], n=2)
    red = reduce_chart(gs, chart, 1, grid=8)
    with pytest.raises(BranchError):
        expand_branch(red)


def test_degree_certificate_rejects_inconsistent_degree():
    assert_value_error_survives_optimize(
        "import numpy as np\n"
        "from avgcycle.solver import DegreeCertificate\n"
        "DegreeCertificate(box=np.array([[0.0, 1.0]]), target=np.zeros(1),\n"
        "                  degree=1, zeros=np.array([[0.5]]),\n"
        "                  signs=np.array([-1]), boundary_margin=0.5)\n")
