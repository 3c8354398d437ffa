import math
from math import factorial

import numpy as np
import pytest

from avgcycle.averaging import averaged_functions, y_functions
from avgcycle.expr import VectorFieldSeries, full_call
from avgcycle.flow import IntegrationError, IntegratorConfig, _Plan, integrate_full
from avgcycle.tensor import SymTensor, packed_index_table, recurrence_terms
from conftest import (
    assert_value_error_survives_optimize, random_polynomial_series, with_period,
)
from oracles import (
    RECURRENCE_TABLE, _stack_table, _tensor_dict, eval_field,
    explicit_y_integrand, literal_terms, partition_y_integrand,
    y_functions_literal, y_functions_quadrature,
)

TWO_PI = 2 * math.pi
TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-12)


def test_zero_perturbation_gives_zero_y(cyl3d_series):
    series = VectorFieldSeries.from_strings(
        ("r", "w"), [["0", "w"], ["0", "0"], ["0", "0"]], TWO_PI)
    aug = y_functions(series, [1.0, 0.3], 2)
    for yv in aug.yT:
        assert np.max(np.abs(yv)) < 1e-12


def test_y0_is_displacement_of_unperturbed_flow(cyl3d_series):
    # over a period of 1.5, y_0 = x(T) - z = (0, 0.4 (e^1.5 - 1)), and
    # g_0 = Y(T)^-1 y_0 with Y(T) = diag(1, e^1.5)
    series = with_period(cyl3d_series, 1.5)
    traj = y_functions(series, [1.2, 0.4], 2).traj
    want = np.array([0.0, 0.4 * (math.exp(1.5) - 1.0)])
    assert traj.xT - traj.z == pytest.approx(want, rel=1e-9)
    g0 = averaged_functions(series, [1.2, 0.4], 2).g[0]
    assert g0 == pytest.approx(want * math.exp(-1.5), rel=1e-9)


def test_radial_fixture_y2_first_component(cyl3d_series):
    # closed form -pi r (3 r + 4), pinned by exact symbolic integration of
    # the order-2 terms and consistent with the branch root tested elsewhere
    for r0 in (0.5, 1.0, 2.0):
        aug = y_functions(cyl3d_series, [r0, 0.0], 2, TIGHT)
        want = -math.pi * r0 * (3 * r0 + 4)
        assert aug.yT[1][0] == pytest.approx(want, rel=1e-9)


def test_radial_fixture_y2_independent_of_w(cyl3d_series):
    vals = [y_functions(cyl3d_series, [1.0, w0], 2, TIGHT).yT[1][0]
            for w0 in (0.0, 0.2)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-9)


def test_averaged_functions_radial_fixture(cyl3d_series):
    # g1 = (pi r^3/2, .), g0 = (0, w (1 - e^{-2 pi})), Dg0 exact
    avg = averaged_functions(cyl3d_series, [1.0, 0.2], 2, TIGHT)
    assert avg.g[1][0] == pytest.approx(math.pi / 2, rel=1e-10)
    assert avg.g[0][0] == pytest.approx(0.0, abs=1e-10)
    assert avg.g[0][1] == pytest.approx(0.2 * (1 - math.exp(-TWO_PI)), rel=1e-10)
    assert avg.Dg0[1, 1] == pytest.approx(1 - math.exp(-TWO_PI), rel=1e-10)
    assert avg.Dg0[0, 0] == pytest.approx(0.0, abs=1e-10)


def test_mb_first_averaged_function(mb_series, mb_params):
    # g1 = (0, -2 pi (2 a0 r^2 + c1 w)/omega)
    a0, c1, om = mb_params["a0"], mb_params["c1"], mb_params["omega"]
    rng = np.random.default_rng(2)
    for _ in range(10):
        r0, w0 = rng.uniform(0.3, 2.5), rng.uniform(-3, 3)
        avg = averaged_functions(mb_series, [r0, w0], 1, TIGHT)
        want = -2 * math.pi * (2 * a0 * r0 ** 2 + c1 * w0) / om
        assert avg.g[1][0] == pytest.approx(0.0, abs=1e-9)
        assert avg.g[1][1] == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_mb_second_averaged_function_first_component(mb_series, mb_params):
    a0, a2, b2 = mb_params["a0"], mb_params["a2"], mb_params["b2"]
    c1, om = mb_params["c1"], mb_params["omega"]
    for r0, w0 in ((1.0, 0.5), (2.0, -1.0), (2.82, 8.0)):
        avg = averaged_functions(mb_series, [r0, w0], 2, TIGHT)
        want = (math.pi * r0 * (3 * a0 * r0 ** 2 + c1 * w0
                                - 2 * (a2 + b2) * om ** 2) / (2 * om ** 3))
        assert avg.g[2][0] == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_autonomous_first_order_average_is_period_times_field():
    series = VectorFieldSeries.from_strings(
        ("x1", "x2"), [["0", "0"], ["x1^2 - x2", "x1*x2"]], TWO_PI)
    z = [0.7, -0.3]
    avg = averaged_functions(series, z, 1)
    want = TWO_PI * eval_field(series, 1, 0.0, z)
    assert avg.g[1] == pytest.approx(want, rel=1e-10)


# --- two encodings of the integrand ----------------------------------------

def _random_ingredients(rng, n, k_top=5):
    tensors = {}
    for m in range(0, k_top + 1):
        for L in range(0, k_top - m + 1 if m else k_top + 1):
            cnt = len(packed_index_table(n, L))
            tensors[(m, L)] = SymTensor(L, n, n, rng.normal(size=(n, cnt)))
    yvals = {j: rng.normal(size=n) for j in range(1, k_top + 1)}
    return tensors, yvals


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_partition_and_explicit_tables_agree(order):
    rng = np.random.default_rng(100 + order)
    for n in (1, 2, 3):
        for _ in range(8):
            tensors, yvals = _random_ingredients(rng, n)
            a = partition_y_integrand(order, tensors, yvals)
            b = explicit_y_integrand(order, tensors, yvals)
            scale = max(1.0, np.max(np.abs(a)))
            assert np.max(np.abs(a - b)) / scale < 1e-12


def test_order_one_integrand_is_first_field():
    rng = np.random.default_rng(9)
    tensors, yvals = _random_ingredients(rng, 2)
    got = partition_y_integrand(1, tensors, yvals)
    assert got == pytest.approx(tensors[(1, 0)].entries[:, 0])


def test_y_from_both_integrand_encodings_agree(cyl3d_series):
    a = y_functions(cyl3d_series, [1.1, 0.2], 2, TIGHT)
    b = y_functions_literal(cyl3d_series, [1.1, 0.2], 2, TIGHT)
    for ya, yb in zip(a.yT, b.yT):
        assert np.max(np.abs(ya - yb)) < 1e-9 * max(1.0, np.max(np.abs(ya)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("table,integrand", [
    (recurrence_terms, partition_y_integrand),
    (lambda i: literal_terms(RECURRENCE_TABLE, i), explicit_y_integrand),
], ids=["partition", "explicit"])
def test_rhs_plan_matches_symtensor_reference(n, k, table, integrand):
    # the packed contraction of the integrated right-hand side against
    # SymTensor.apply, point by point; F_0 vanishes for even k
    rng = np.random.default_rng(1000 + 10 * n + k)
    series = random_polynomial_series(rng, n, k, zero_f0=k % 2 == 0)
    plan = _Plan(series, 0.0, True, [table(i) for i in range(1, k + 1)])
    stacks = _stack_table(series, k)
    base = n + n * n
    for _ in range(4):
        t = rng.uniform(0.0, series.period)
        u = rng.normal(size=base + k * n)
        # the plan's states: zero where it reads zero (``fn.zero``)
        u[list(plan.fn.zero)] = 0.0
        du = np.asarray(full_call(plan.fn, t, u.tolist()))
        flats = {m: stack.eval_all(t, u[:n]) for m, stack in stacks.items()}
        tensors = _tensor_dict(stacks, flats, k, n)
        A = tensors[(0, 1)].to_dense() if (0, 1) in tensors else np.zeros((n, n))
        yvals = {j: u[base + (j - 1) * n: base + j * n] for j in range(1, k + 1)}
        want = [eval_field(series, 0, t, u[:n]),
                (A @ u[n:base].reshape(n, n)).ravel()]
        want += [A @ yvals[i] + integrand(i, tensors, yvals, dim=n)
                 for i in range(1, k + 1)]
        want = np.concatenate(want)
        assert np.max(np.abs(du - want)) <= 1e-12 * np.max(np.abs(want))


def test_averaged_series_rejects_inconsistent_g():
    assert_value_error_survives_optimize(
        "import numpy as np\n"
        "from avgcycle.averaging import AveragedSeries\n"
        "AveragedSeries(z=np.zeros(2), k=1, g=[np.zeros(2), np.ones(2)],\n"
        "               yT=[np.zeros(2)], YT_inv=np.eye(2),\n"
        "               Dg0=np.zeros((2, 2)), tolerance_bound=0.0)\n")


def test_quadrature_cross_check(cyl3d_series):
    z = [1.3, 0.15]
    aug = y_functions(cyl3d_series, z, 2, TIGHT)
    quad = y_functions_quadrature(cyl3d_series, z, 2, TIGHT)
    for ode_val, quad_val in zip(aug.yT, quad):
        scale = max(1.0, np.max(np.abs(ode_val)))
        assert np.max(np.abs(ode_val - quad_val)) / scale < 1e-8


# --- expansion-order laws ----------------------------------------------------

def _expansion_residual(series, z, k, eps, config=TIGHT):
    aug = y_functions(series, z, k, config)
    xT_full = integrate_full(series, z, eps, config).xT
    approx = aug.traj.xT.copy()
    for i in range(1, k + 1):
        approx += eps ** i * aug.yT[i - 1] / factorial(i)
    return np.linalg.norm(xT_full - approx)


def _loglog_slope(xs, ys):
    return np.polyfit(np.log(xs), np.log(ys), 1)[0]


@pytest.mark.parametrize("fixture_name,k", [("cyl3d", 2), ("maxwell_bloch", 3)])
def test_expansion_remainder_order(request, fixture_name, k):
    series = request.getfixturevalue(
        "cyl3d_series" if fixture_name == "cyl3d" else "mb_series")
    z = [1.1, 0.1] if fixture_name == "cyl3d" else [1.5, 0.5]
    eps_grid = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
    res = np.array([_expansion_residual(series, z, k, e) for e in eps_grid])
    slope = _loglog_slope(eps_grid, res)
    assert abs(slope - (k + 1)) < 0.3


def test_y1_is_eps_derivative_of_flow(cyl3d_series):
    z = [0.9, 0.2]
    aug = y_functions(cyl3d_series, z, 1, TIGHT)
    h = 1e-4
    xp = integrate_full(cyl3d_series, z, h, TIGHT).xT
    xm = integrate_full(cyl3d_series, z, -h, TIGHT).xT
    fd = (xp - xm) / (2 * h)
    assert np.max(np.abs(aug.yT[0] - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5


def test_g_stability_under_tolerance_refinement(cyl3d_series):
    z = [1.0, 0.1]
    a = averaged_functions(cyl3d_series, z, 2, IntegratorConfig(rtol=1e-10, atol=1e-10))
    b = averaged_functions(cyl3d_series, z, 2, IntegratorConfig(rtol=5e-11, atol=5e-11))
    for i in range(3):
        assert np.max(np.abs(a.g[i] - b.g[i])) < 10 * a.tolerance_bound


def test_random_system_partition_vs_explicit_tables_k5():
    rng = np.random.default_rng(77)
    series = random_polynomial_series(rng, 2, 5, scale=0.25)
    z = rng.uniform(-0.3, 0.3, size=2)
    a = y_functions(series, z, 5, TIGHT)
    b = y_functions_literal(series, z, 5, TIGHT)
    for ya, yb in zip(a.yT, b.yT):
        assert np.max(np.abs(ya - yb)) < 1e-9 * max(1.0, np.max(np.abs(ya)))


def test_order_zero_cut_gives_g0_of_the_full_cut(cyl3d_series):
    # x and Y alone: off the periodic manifold g_0 and Dg0 are those of k = 2
    z = [1.0, 0.2]
    plain = averaged_functions(cyl3d_series, z, 0, TIGHT)
    full = averaged_functions(cyl3d_series, z, 2, TIGHT)
    assert plain.k == 0 and len(plain.g) == 1 and plain.yT == []
    assert plain.g[0] == pytest.approx(full.g[0], rel=1e-10, abs=1e-10)
    assert plain.Dg0 == pytest.approx(full.Dg0, rel=1e-10, abs=1e-10)
    assert plain.source.traj.end.size == 6
    for k in (-1, 6):
        with pytest.raises(ValueError, match=r"order k must be in 0\.\.5"):
            y_functions(cyl3d_series, z, k)


def test_jet_leaving_its_domain_raises_integration_error():
    # log(w) along w = -1: the plain and the lifted integration both raise
    log_series = VectorFieldSeries.from_strings(
        ("r", "w"), [["0", "0"], ["log(w)", "0"]], TWO_PI)
    for nb in (0, 1):
        with pytest.raises(IntegrationError, match="left its domain"):
            averaged_functions(log_series, [1.0, -1.0], 1, nb=nb)
    # sqrt(w) at w = 0: the value is fine, its w-derivative is not
    sqrt_series = VectorFieldSeries.from_strings(
        ("r", "w"), [["0", "0"], ["sqrt(w)", "0"]], TWO_PI)
    averaged_functions(sqrt_series, [1.0, 0.0], 1)
    with pytest.raises(IntegrationError, match="left its domain"):
        averaged_functions(sqrt_series, [1.0, 0.0], 1, nb=1, order=2)


def test_jet_is_graded_for_the_reduction_order(cyl3d_series):
    # order K: x and Y to degree K, y_i to degree K - i
    n = 2
    for order, want in ((2, [2] * 6 + [1] * n + [0] * n),
                        (3, [3] * 6 + [2] * n + [1] * n)):
        aug = y_functions(cyl3d_series, [1.0, 0.0], 2, TIGHT, nb=1, order=order)
        assert aug.traj.jet.degrees == tuple(want)
