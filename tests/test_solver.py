import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from avgcycle.lyapschmidt import ExprGSeries, ManifoldChart, reduce_chart
from avgcycle.solver import (
    BranchError, DegreeCertificate, _Surrogate, _real_zeros, _surrogate,
    brouwer_degree, check_hypotheses, degree_preservation_check, expand_branch,
    find_branch, nested_reduction,
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
    # m = n = 2: multi-start damped Newton on the surrogate, confirmed on the
    # exact evaluator
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


def test_planar_surrogate_jacobians_are_exact():
    # f_i polynomials of degree 3 below the 6-node grid: the tensor
    # interpolant is f_i itself, and its derivative series are the exact
    # Jacobians, with no difference stencil
    gs = ExprGSeries([["0", "0"], ["a^3 - 2*a*b", "b^2 + a"], ["a*b^2", "a^2 - b"]],
                     state=("a", "b"))
    chart = ManifoldChart.from_strings(("a", "b"), [], [[0.5, 3.0], [-1.0, 2.0]],
                                       n=2)
    sur = _surrogate(reduce_chart(gs, chart, 2, grid=6))
    # chopped per axis: degree 3 in a, degree 2 in b
    assert sur.coef.shape == (2, 4, 3, 2)
    rng = np.random.default_rng(0)
    for a, b in zip(rng.uniform(0.5, 3.0, 20), rng.uniform(-1.0, 2.0, 20)):
        J1 = np.array([[3 * a ** 2 - 2 * b, -2 * a], [1.0, 2 * b]])
        J2 = np.array([[b ** 2, 2 * a * b], [2 * a, -1.0]])
        assert np.max(np.abs(sur.df(1, [a, b]) - J1)) <= 1e-12
        assert np.max(np.abs(sur.df(2, [a, b]) - J2)) <= 1e-12
        for eps in (1e-2, 0.3):
            want = eps * J1 + eps ** 2 * J2
            assert np.max(np.abs(sur.dF([a, b], eps) - want)) <= 1e-12


def test_planar_surrogate_keeps_zeros_per_seed():
    # the m >= 2 zeros come from seeded starts: a run with another seed
    # computes its own, the series stays shared
    gs = ExprGSeries([["0", "0"], ["a^2 - 2.25", "a*b - 0.75"]], state=("a", "b"))
    chart = ManifoldChart.from_strings(("a", "b"), [], [[0.5, 3.0], [-1.0, 2.0]],
                                       n=2)
    red = reduce_chart(gs, chart, 1, grid=6)
    sur = _surrogate(red)
    find_branch(red, [1e-2], seed=0)
    find_branch(red, [1e-2], seed=1)
    assert set(sur._zeros) == {(1e-2, 0), (1e-2, 1)}
    assert list(sur._at) == [1e-2]
    for zeros in sur._zeros.values():
        assert zeros == pytest.approx(np.array([[1.5, 0.5]]), abs=1e-12)


# eps of the cyl3d branch; at eps = 1 its root a = 4 lies outside the chart box
CYL3D_EPS = [1e-3, 1e-2, 0.3, 1.0, 5e-2]


def _fresh_cyl3d_reduction(series, chart):
    from avgcycle.lyapschmidt import AveragedGSeries
    return reduce_chart(AveragedGSeries(series, 2), chart, 2, grid=8)


def _hexed(branch):
    """eps, roots and residuals of a branch, each float by ``float.hex``."""
    return [[float(v).hex() for v in getattr(branch, name).ravel()]
            for name in ("eps", "a_eps", "residual")]


def _stack_sizes(monkeypatch, fail_stacks=False):
    """Patch ``flow._run_solver`` to record how many start states each call
    integrates; with ``fail_stacks`` a call of more than one raises."""
    from avgcycle import flow
    sizes, real = [], flow._run_solver

    def run(fn, u0, *rest):
        sizes.append(len(np.atleast_2d(u0)))
        if fail_stacks and sizes[-1] > 1:
            raise flow.IntegrationError("stack refused")
        return real(fn, u0, *rest)

    monkeypatch.setattr(flow, "_run_solver", run)
    return sizes


def test_branch_grid_integrates_its_starts_as_one_stack(cyl3d_series, cyl3d_chart, monkeypatch):
    # every eps's surrogate zeros are known before the first Newton step, so
    # their exact residuals are one stacked integration; the branch is bit
    # for bit the branch solved one eps at a time, each start on its own
    stacked = _fresh_cyl3d_reduction(cyl3d_series, cyl3d_chart)
    alone = _fresh_cyl3d_reduction(cyl3d_series, cyl3d_chart)
    sizes = _stack_sizes(monkeypatch)
    branch = find_branch(stacked, CYL3D_EPS)
    assert sizes == [4]
    assert sum(len(_surrogate(stacked).zeros(eps)) for eps in CYL3D_EPS) == 4
    sizes.clear()
    per_eps, failed = [], []
    for eps in CYL3D_EPS:
        try:
            per_eps.append(find_branch(alone, [eps]))
        except BranchError as err:
            failed.append(str(err))
    assert sizes == [1, 1, 1, 1]
    assert branch.failed == [(1.0, "the surrogate has no zero inside the chart box")]
    assert failed == [f"no roots found on the entire grid: {branch.failed}"]
    assert _hexed(branch) == [sum(column, []) for column in zip(*map(_hexed, per_eps))]


def test_branch_stack_that_fails_falls_back_to_lone_integrations(
        cyl3d_series, cyl3d_chart, monkeypatch):
    # a refused stack caches nothing, and each Newton integrates its points
    # one by one to the same branch
    want = find_branch(_fresh_cyl3d_reduction(cyl3d_series, cyl3d_chart), CYL3D_EPS)
    reduction = _fresh_cyl3d_reduction(cyl3d_series, cyl3d_chart)
    sizes = _stack_sizes(monkeypatch, fail_stacks=True)
    branch = find_branch(reduction, CYL3D_EPS)
    assert (_hexed(branch), branch.failed) == (_hexed(want), want.failed)
    assert sizes == [4, 1, 1, 1, 1]


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

def _jac_1d(df):
    """The 1x1 Jacobian of a scalar map with derivative df."""
    return lambda x: np.array([[df(x[0])]])


IDENTITY = lambda x: np.eye(len(x))


def test_degree_identity_map():
    cert = brouwer_degree(lambda x: x, [[-1.0, 1.0]], jacobian=IDENTITY)
    assert cert.degree == 1
    assert len(cert.signs) == 1


def test_degree_quadratic_two_roots():
    cert = brouwer_degree(lambda x: np.array([x[0] ** 2 - 1.0]), [[-2.0, 2.0]],
                          jacobian=_jac_1d(lambda a: 2 * a))
    assert cert.degree == 0
    assert len(cert.zeros) == 2
    assert sorted(cert.signs) == [-1, 1]


def test_degree_planar_point_reflection():
    # x -> -x in the plane has determinant +1: degree 1
    cert = brouwer_degree(lambda x: -x, [[-1.0, 1.0], [-1.0, 1.0]],
                          jacobian=lambda x: -np.eye(2))
    assert cert.degree == 1


def test_degree_nonzero_implies_zero_exists():
    rng = np.random.default_rng(8)
    for _ in range(5):
        A = rng.normal(size=(2, 2))
        if abs(np.linalg.det(A)) < 0.3:
            continue
        shift = rng.uniform(-0.2, 0.2, size=2)
        cert = brouwer_degree(lambda x, A=A, s=shift: A @ (x - s),
                              [[-1.0, 1.0], [-1.0, 1.0]], jacobian=lambda x, A=A: A)
        if cert.degree != 0:
            assert len(cert.zeros) >= 1
            assert np.linalg.norm(cert.zeros[0] - shift) < 1e-7


def test_degree_additivity_over_disjoint_boxes():
    f = lambda x: np.array([(x[0] - 1.0) * (x[0] + 1.0) * x[0]])
    J = _jac_1d(lambda a: 3 * a ** 2 - 1.0)
    whole = brouwer_degree(f, [[-2.0, 2.0]], jacobian=J)
    parts = [brouwer_degree(f, [[-2.0, -0.5]], jacobian=J),
             brouwer_degree(f, [[-0.5, 0.5]], jacobian=J),
             brouwer_degree(f, [[0.5, 2.0]], jacobian=J)]
    assert whole.degree == sum(p.degree for p in parts)


def test_degree_homotopy_invariance():
    # g_t = g + t eps^{k+1} r with bounded remainder keeps the degree
    eps, k = 0.1, 1
    g = lambda x: np.array([x[0] ** 2 - eps * x[0]])
    r = lambda x: np.array([0.2 * math.sin(3 * x[0])])
    box = [[eps / 2, 3 * eps / 2]]
    degs = set()
    for t in np.linspace(0.0, 1.0, 5):
        J = _jac_1d(lambda a, t=t: 2 * a - eps + t * eps ** (k + 1) * 0.6 * math.cos(3 * a))
        cert = brouwer_degree(
            lambda x, t=t: g(x) + t * eps ** (k + 1) * r(x), box, jacobian=J)
        degs.add(cert.degree)
    assert degs == {1}


def test_degree_boundary_violation_raises():
    with pytest.raises(ValueError):
        brouwer_degree(lambda x: x, [[0.0, 1.0]], jacobian=IDENTITY)  # zero on the boundary


def test_degree_nonregular_zero_detected():
    with pytest.raises(ValueError):
        brouwer_degree(lambda x: np.array([x[0] ** 2]), [[-1.0, 1.0]],
                       jacobian=_jac_1d(lambda a: 2 * a))


def test_degree_touch_between_samples_refuses():
    # no sample need land on the double zero at 0; the critical point of the
    # fit there is the touch that refuses
    with pytest.raises(ValueError, match="non-regular"):
        brouwer_degree(lambda x: np.array([x[0] ** 2]), [[-1.0, 1.1]],
                       jacobian=_jac_1d(lambda a: 2 * a))


def test_degree_small_box_counts_each_zero_once():
    # every start reaches the one zero; stopping at |F| < tol would leave
    # the end points farther apart than the merge radius of 2.8e-11
    cert = brouwer_degree(lambda x: x + x ** 2, [[-1e-5, 1e-5]] * 2,
                          jacobian=lambda x: np.diag(1 + 2 * x))
    assert cert.degree == 1
    assert len(cert.zeros) == 1


def test_degree_finds_a_pair_between_samples():
    # both zeros lie between the samples 0.300 and 0.305; the critical point
    # 0.3025 joins the samples and splits them
    f = lambda x: (x - 0.3021) * (x - 0.3029)
    cert = brouwer_degree(f, [[0.0, 1.0]], jacobian=_jac_1d(lambda a: 2 * a - 0.605))
    assert cert.degree == 0
    assert cert.zeros[:, 0] == pytest.approx([0.3021, 0.3029], abs=1e-14)
    assert list(cert.signs) == [-1, 1]


def test_degree_touch_under_roundoff_refuses():
    # (x - 1/4)^2 expanded: the values carry roundoff, so no sample is an
    # exact zero, but the critical point of the fit is the touch
    with pytest.raises(ValueError, match="non-regular"):
        brouwer_degree(lambda x: x * x - 0.5 * x + 0.0625, [[-0.62, 0.41]],
                       jacobian=_jac_1d(lambda a: 2 * a - 0.5))


def test_degree_steep_zero_is_counted():
    # a zero 1e-4 wide: the boundary degree is 1
    cert = brouwer_degree(lambda x: np.arctan(1e4 * (x - 0.3)), [[0.0, 1.0]],
                          jacobian=_jac_1d(lambda a: 1e4 / (1 + (1e4 * (a - 0.3)) ** 2)))
    assert cert.degree == 1


def _close_triple(c, d=1e-3):
    """1e6 (x - c)(x - c - d)(x - c + d) and its Jacobian."""
    poly = 1e6 * np.polynomial.Polynomial.fromroots([c, c + d, c - d])
    return (lambda x: 1e6 * (x - c) * (x - c - d) * (x - c + d)), _jac_1d(poly.deriv())


@pytest.mark.parametrize("c", [0.3025, 0.5013])
def test_degree_close_zero_triple_matches_boundary(c):
    # three zeros 1e-3 apart: all three are listed, with alternating signs
    f, J = _close_triple(c)
    cert = brouwer_degree(f, [[0.0, 1.0]], jacobian=J)
    assert cert.degree == 1
    assert cert.zeros[:, 0] == pytest.approx([c - 1e-3, c, c + 1e-3], abs=1e-12)
    assert list(cert.signs) == [1, -1, 1]


@pytest.mark.parametrize("f, df, box, want", [
    (lambda x: math.nan if x > 0.5 else x - 0.7, lambda x: 1.0, [0.0, 1.0], "not finite"),
    (lambda x: math.copysign(1.0, x - 0.3), lambda x: 0.0, [0.0, 1.0], "no Chebyshev fit"),
    (lambda x: math.sin(40 * x), lambda x: 40 * math.cos(40 * x), [0.05, 3.0],
     np.arange(1, 39) * math.pi / 40),
    (lambda x: math.exp(x) - 1e5, math.exp, [0.0, 20.0], [math.log(1e5)]),
], ids=["nan-value", "jump", "sin-40x", "exp-wide"])
def test_degree_fit_refuses_or_finds_every_zero(f, df, box, want):
    # a non-finite value or a jump refuses; a map that needs more than 129
    # points, or a wide range, is resolved and every zero listed
    degree = lambda: brouwer_degree(lambda x: np.array([f(x[0])]), [box],
                                    jacobian=_jac_1d(df))
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            degree()
        return
    cert = degree()
    assert cert.zeros[:, 0] == pytest.approx(want, abs=1e-12)
    assert cert.degree == (np.sign(f(box[1])) - np.sign(f(box[0]))) / 2


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
        cert = brouwer_degree(lambda x: poly(x), [[lo, hi]], jacobian=_jac_1d(poly.deriv()))
    except ValueError:
        return
    assert cert.degree == (ends[1] - ends[0]) / 2
    # an accepted certificate lists every distinct zero in the box
    assert len(cert.zeros) == np.unique([z for z in zeros if lo < z < hi]).size


# --- m = 1 surrogate: colleague-matrix zeros and degree ------------------------

def _surrogate_of(fs, box, grid=16):
    """The m = 1 surrogate of F = sum_i eps^i f_i from the f_i at the chart's
    Chebyshev grid, as ``reduce_chart`` tabulates them."""
    chart = ManifoldChart.from_strings(("a",), ["0"], [box], n=2)
    alphas = chart.chebyshev_grid(grid)
    f_table = np.array([[[f(a)] for f in fs] for a in alphas[:, 0]])
    return _Surrogate(SimpleNamespace(chart=chart, alphas=alphas, f_table=f_table,
                                      k=len(fs)))


def _value(sur, alpha, eps):
    """F(alpha, eps) on the surrogate."""
    x = (np.asarray(alpha, dtype=float) - sur.mid[0]) / sur.half[0]
    return np.polynomial.chebyshev.chebval(x, sur.at(eps)[0][:, 0])


def _fit_degree(sur, eps, box, r=1):
    """``brouwer_degree`` of g = F(., eps) / eps^r on the surrogate, with
    g' from ``chebder`` of the series, not from the surrogate's own."""
    cheb = np.polynomial.chebyshev
    slope = cheb.chebder(sur.at(eps)[0][:, 0]) / sur.half[0]
    return brouwer_degree(
        lambda a: np.array([_value(sur, a[0], eps) / eps ** r]), box,
        jacobian=lambda a: np.array([[cheb.chebval((a[0] - sur.mid[0]) / sur.half[0], slope)
                                      / eps ** r]]))


@pytest.fixture(scope="module", params=["cyl3d", "maxwell_bloch"])
def fixture_surrogate(request, radial_reduction, mb_reduction, cyl3d, mb):
    # each fixture's surrogate with the eps grid of its problem file
    if request.param == "cyl3d":
        return _surrogate(radial_reduction), radial_reduction, cyl3d.run.eps
    return _surrogate(mb_reduction), mb_reduction, mb.run.eps


def test_colleague_zeros_equal_the_scan(fixture_surrogate):
    # the one zero in the chart box, against Brent's method on the series
    sur, red, eps_grid = fixture_surrogate
    lo, hi = red.chart.box[0]
    for eps in eps_grid:
        want = brentq(lambda a: _value(sur, a, eps), lo, hi, xtol=1e-15)
        zeros = sur.zeros(eps)[:, 0]
        assert zeros.shape == (1,)
        assert abs(zeros[0] - want) <= 1e-12 * (hi - lo)


def test_surrogate_degree_equals_brouwer_degree(fixture_surrogate):
    sur, red, eps_grid = fixture_surrogate
    r = red.r
    branch = find_branch(red, eps_grid)
    for eps, alpha in zip(branch.eps, branch.a_eps):
        boxes = [red.chart.box, [[alpha[0] - eps, alpha[0] + eps]]]
        for box in boxes:
            want = _fit_degree(sur, eps, box, r)
            got = sur.degree(eps, box, r)
            assert got.degree == want.degree
            assert abs(got.degree) == 1
            assert np.array_equal(got.signs, want.signs)
            assert got.zeros == pytest.approx(want.zeros, abs=1e-12)
            assert got.boundary_margin == pytest.approx(want.boundary_margin, rel=1e-12)
            assert 0 < got.chop_tail < 1e-6 * got.boundary_margin


def test_surrogate_degree_counts_every_sign():
    # three simple zeros of f_1 and an f_2 that moves them by O(eps)
    sur = _surrogate_of([lambda a: (a - 1.0) * (a - 1.5) * (a - 2.0),
                         lambda a: math.sin(a)], [0.5, 2.6])
    eps = 1e-3
    for box, degree, signs in (([[0.5, 2.6]], 1, [1, -1, 1]),
                               ([[1.2, 2.6]], 0, [-1, 1]),
                               ([[1.2, 1.7]], -1, [-1])):
        want = _fit_degree(sur, eps, box)
        got = sur.degree(eps, box, 1)
        assert got.degree == want.degree == degree
        assert list(got.signs) == list(want.signs) == signs
        assert got.zeros == pytest.approx(want.zeros, abs=1e-12)


@pytest.mark.parametrize("touch", [1.0, 1.1234567, 1.3])
@pytest.mark.parametrize("lift", [0.0, 1e-12])
def test_surrogate_degree_refuses_a_touch_between_samples(touch, lift):
    # f_1 touches zero, or comes within 1e-12 of it (a complex pair of zeros
    # 1e-6 off the real axis), at a point that none of the 201 samples of the
    # old scan hit.  The colleague matrix returns a double zero as a complex
    # pair or as two real zeros; the critical point refuses either way
    box = [[0.62, 1.41]]
    assert np.min(np.abs(np.linspace(*box[0], 201) - touch)) > 1e-4
    sur = _surrogate_of([lambda a: (a - touch) ** 2 * (a + 1.0) + lift], [0.5, 2.0])
    with pytest.raises(ValueError, match="non-regular"):
        sur.degree(1e-2, box, 1)
    # lifted off zero by 1e-6 of the scale, the minimum is no zero
    lifted = _surrogate_of([lambda a: (a - touch) ** 2 * (a + 1.0) + 1e-6], [0.5, 2.0])
    cert = lifted.degree(1e-2, box, 1)
    assert cert.degree == 0 and cert.zeros.shape == (0, 1)


def test_surrogate_degree_refuses_a_flat_zero():
    # a triple zero: one real eigenvalue or a cluster, each with g' at roundoff
    sur = _surrogate_of([lambda a: (a - 1.3) ** 3], [0.5, 2.0])
    with pytest.raises(ValueError, match="non-regular"):
        sur.degree(1e-2, [[0.9, 1.7]], 1)


def test_surrogate_degree_refuses_when_a_zero_is_missing():
    # the sign sum must equal the boundary degree: a zero lost from the
    # cached eigenvalues cannot pass unnoticed
    sur = _surrogate_of([lambda a: (a - 1.0) * (a - 1.5) * (a - 2.0)], [0.5, 2.6])
    zeros = sur.zeros(1.0)
    assert zeros.size == 3
    sur._zeros[(1.0, 0)] = zeros[:2]
    with pytest.raises(ValueError, match="missed zeros"):
        sur.degree(1.0, [[0.5, 2.6]], 1)


def test_real_zeros_are_polished_to_the_series_zero():
    # one Newton step on the series takes each eigenvalue of the colleague
    # matrix (off by up to 4e-15 here) to within roundoff of the series' zero
    cheb = np.polynomial.chebyshev
    found = 0
    for seed in range(40):
        c = np.random.default_rng(seed).normal(size=41) * 0.8 ** np.arange(41)
        zeros = _real_zeros(c)
        limit = zeros.copy()
        for _ in range(30):
            limit -= cheb.chebval(limit, c) / cheb.chebval(limit, cheb.chebder(c))
        assert np.all(np.abs(zeros - limit) <= 1e-15)
        found += zeros.size
    assert found >= 80


def test_surrogate_degree_refuses_a_chop_tail_at_its_margin():
    sur = _surrogate_of([lambda a: a - 1.0, lambda a: math.exp(a)], [0.5, 2.0])
    eps, box = 1e-2, [[0.9, 1.1]]
    cert = sur.degree(eps, box, 1)
    assert cert.degree == 1
    # what the chop discarded is charged as sum_i |eps|^(i-r) tail_i
    assert cert.chop_tail == pytest.approx(sur.tail[0] + eps * sur.tail[1], rel=1e-15)
    sur.tail = np.array([cert.boundary_margin, 0.0])
    with pytest.raises(ValueError, match="chop tail .* is not below the boundary margin"):
        sur.degree(eps, box, 1)
    sur.tail = np.array([0.0, 0.99 * cert.boundary_margin / eps])
    assert sur.degree(eps, box, 1).chop_tail < cert.boundary_margin


def test_surrogate_chop_keeps_the_polynomial_part():
    sur = _surrogate_of([lambda a: a ** 3 - 2.0, lambda a: 1e-14 * math.cos(40 * a)],
                        [0.5, 2.0], grid=24)
    # f_2 is below the chop level everywhere: dropped, and charged to tail[1]
    assert sur.coef.shape == (2, 4, 1)
    assert not np.any(sur.coef[1])
    assert 0 < sur.tail[1] < 1e-12
    assert sur.tail[0] < 1e-13
    assert sur.zeros_of(1)[:, 0] == pytest.approx([2.0 ** (1 / 3)], abs=1e-14)


def test_surrogate_on_one_grid_node_has_no_zero():
    # one node fits a constant on the box; the old fit on the node span had
    # zero width and failed in LAPACK
    sur = _surrogate_of([lambda a: a - 1.0], [0.5, 2.0], grid=1)
    assert sur.coef.shape == (1, 1, 1)
    assert sur.zeros(1e-2).size == 0


_sur_clusters = st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(1, 3),
                                   st.floats(-4.0, -1.0)), min_size=1, max_size=3)


@given(_sur_clusters, st.floats(-1.2, 0.4), st.floats(0.1, 1.6), st.floats(0.0, 6.0))
@settings(max_examples=200, deadline=None)
def test_surrogate_degree_is_the_boundary_degree_or_refuses(clusters, lo, width, scale):
    # clusters of up to three zeros 1e-4..1e-1 apart, on a box inside the chart
    zeros = [c + j * 10.0 ** log_gap for c, count, log_gap in clusters
             for j in range(count)]
    poly = 10.0 ** scale * np.polynomial.Polynomial.fromroots(zeros)
    sur = _surrogate_of([poly], [-1.5, 2.0], grid=12)
    hi = min(lo + width, 2.0)
    ends = np.sign(_value(sur, np.array([lo, hi]), 1.0))
    if 0 in ends:
        return
    try:
        cert = sur.degree(1.0, [[lo, hi]], 1)
    except ValueError:
        return
    assert cert.degree == (ends[1] - ends[0]) / 2
    assert len(cert.zeros) == len(cert.signs)


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


def test_nested_check_integrates_off_chart_only_when_needed(mb_series, mb_chart,
                                                           monkeypatch):
    # g_1 vanishes on the Maxwell-Bloch chart to far below 1e-7, the floor of
    # the threshold, so the 9 chart points decide and the 9 displaced points
    # that scale the threshold are never integrated
    from avgcycle import lyapschmidt
    from avgcycle.lyapschmidt import AveragedGSeries
    calls = []
    real = lyapschmidt.averaged_functions
    # a stack of points counts each of them
    monkeypatch.setattr(lyapschmidt, "averaged_functions",
                        lambda *args, **kw: calls.extend(np.atleast_2d(args[1]))
                        or real(*args, **kw))
    nested_reduction(AveragedGSeries(mb_series, 3), 1, mb_chart)
    assert len(calls) == 9
    chart_points = [mb_chart.embed(a) for a in mb_chart.chebyshev_grid(9)]
    assert all(np.array_equal(z, p) for z, p in zip(calls, chart_points))


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


def test_degree_certificate_rejects_a_chop_tail_at_its_margin():
    assert_value_error_survives_optimize(
        "import numpy as np\n"
        "from avgcycle.solver import DegreeCertificate\n"
        "DegreeCertificate(box=np.array([[0.0, 1.0]]), target=np.zeros(1),\n"
        "                  degree=1, zeros=np.array([[0.5]]), signs=np.array([1]),\n"
        "                  boundary_margin=0.5, chop_tail=0.5)\n")
    cert = DegreeCertificate(box=np.array([[0.0, 1.0]]), target=np.zeros(1), degree=1,
                             zeros=np.array([[0.5]]), signs=np.array([1]),
                             boundary_margin=0.5, chop_tail=0.4)
    assert cert.chop_tail == 0.4


def _series_surrogate(c):
    """The m = 1 surrogate whose f_1 is the Chebyshev series c on the chart
    [-1, 1], so that alpha is the series variable itself."""
    sur = _surrogate_of([lambda a: 0.0], [-1.0, 1.0], grid=len(c))
    sur.coef = np.asarray(c, dtype=float)[None, :, None]
    return sur


_D = 5e-3   # x^3 - D^2 x has zeros -D, 0 and D
_PAIR = [0.0, 0.75 - _D ** 2, 0.0, 0.25]   # x^3 - D^2 x as a Chebyshev series


@pytest.mark.parametrize("series, box, match", [
    ([-0.5, 1.0], [[0.5, 0.9]], "target on the box boundary"),  # x - 1/2
    ([0.5, 0.0, 0.5], [[-0.62, 0.41]], "non-regular")],         # x^2
    ids=["zero-on-the-boundary", "touching-double-zero"])
def test_surrogate_and_fit_refuse_alike(series, box, match):
    # one rule for both 1-D certificates: the same defect on the same
    # polynomial refuses through the surrogate and through the fit
    sur = _series_surrogate(series)
    with pytest.raises(ValueError, match=match):
        sur.degree(1.0, box, 1)
    with pytest.raises(ValueError, match=match):
        _fit_degree(sur, 1.0, box)


def test_surrogate_refuses_a_dropped_pair():
    # the surrogate's cached zeros lose the pair +-D by hand
    sur = _series_surrogate(_PAIR)
    zeros = sur.zeros(1.0)
    assert zeros[:, 0] == pytest.approx([-_D, 0.0, _D], abs=1e-12)
    sur._zeros[(1.0, 0)] = np.delete(zeros, [0, 2], axis=0)
    with pytest.raises(ValueError, match="missed zeros"):
        sur.degree(1.0, [[-1.0, 1.0]], 1)


def test_fit_finds_the_pair_between_samples():
    # the pair +-D and the zero at 0, 5e-3 apart: the fit lists all three,
    # as the surrogate's colleague matrix does
    sur = _series_surrogate(_PAIR)
    want = sur.degree(1.0, [[-1.0, 1.0]], 1)
    got = _fit_degree(sur, 1.0, [[-1.0, 1.0]])
    assert got.degree == want.degree == 1
    assert list(got.signs) == list(want.signs) == [1, -1, 1]
    assert got.zeros == pytest.approx(want.zeros, abs=1e-12)
