import math

import numpy as np
import pytest

from avgcycle import flow
from avgcycle.expr import VectorFieldSeries
from avgcycle.flow import (
    IntegratorConfig, IntegrationError, fundamental_matrix, integrate_full,
    integrate_unperturbed, liouville_defect,
)
from avgcycle.problems import load_fixture
from avgcycle.tensor import recurrence_terms

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def harmonic():
    return VectorFieldSeries.from_strings(
        ("x1", "x2"), [["-x2", "x1"], ["0", "0"]], TWO_PI)


def test_zero_field_is_constant():
    series = VectorFieldSeries.from_strings(("x1", "x2"), [["0", "0"], ["x1", "x2"]], 1.0)
    traj = integrate_unperturbed(series, [0.3, -0.7])
    for t in (0.0, 0.37, 1.0):
        assert traj.x(t) == pytest.approx([0.3, -0.7], abs=1e-13)


def test_initial_condition_exact():
    series = VectorFieldSeries.from_strings(("x1",), [["sin(t)*x1"], ["0"]], 1.0)
    traj = integrate_unperturbed(series, [1.2345])
    assert traj.x(0.0)[0] == pytest.approx(1.2345, abs=1e-15)


def test_harmonic_oscillator_period_return(harmonic):
    traj = integrate_unperturbed(harmonic, [1.0, 0.0])
    assert np.linalg.norm(traj.xT - [1.0, 0.0]) < 1e-9
    assert traj.periodicity_defect < 1e-9
    # quarter period reaches (0, 1)
    assert traj.x(TWO_PI / 4) == pytest.approx([0.0, 1.0], abs=1e-9)


def test_unperturbed_flow_of_radial_fixture(cyl3d_series):
    # F0 = (0, w): the flow is (r0, w0 e^t)
    traj = integrate_unperturbed(cyl3d_series, [1.3, 0.25])
    for t in (0.5, 2.0, TWO_PI):
        assert traj.x(t) == pytest.approx([1.3, 0.25 * math.exp(t)], rel=1e-9)


def test_fundamental_matrix_identity_for_zero_field(mb_series):
    traj = fundamental_matrix(mb_series, [1.0, 2.0])
    for t in (0.0, 1.0, TWO_PI):
        assert traj.Y(t) == pytest.approx(np.eye(2), abs=1e-12)


def test_fundamental_matrix_radial_fixture(cyl3d_series):
    # Y(t) = diag(1, e^t)
    traj = fundamental_matrix(cyl3d_series, [0.8, 0.0])
    assert traj.Y(0.0) == pytest.approx(np.eye(2), abs=1e-13)
    for t in (1.0, TWO_PI):
        want = np.diag([1.0, math.exp(t)])
        assert traj.Y(t) == pytest.approx(want, rel=1e-9)


def test_liouville_identity_random_linear():
    rng = np.random.default_rng(4)
    A = rng.uniform(-0.4, 0.4, size=(2, 2))
    comps = [f"({A[0,0]})*x1 + ({A[0,1]})*x2", f"({A[1,0]})*x1 + ({A[1,1]})*x2"]
    series = VectorFieldSeries.from_strings(("x1", "x2"), [comps, ["0", "0"]], TWO_PI)
    traj = fundamental_matrix(series, [0.1, 0.2])
    assert liouville_defect(series, traj) < 1e-7


def test_full_integration_at_zero_eps_matches_unperturbed(cyl3d_series):
    z = [1.1, 0.2]
    a = integrate_unperturbed(cyl3d_series, z)
    b = integrate_full(cyl3d_series, z, 0.0)
    assert np.max(np.abs(a.xT - b.xT)) < 1e-12


@pytest.mark.parametrize("fixture_name", ["cyl3d", "maxwell_bloch"])
def test_entry_points_share_one_builder(request, fixture_name):
    series = request.getfixturevalue(
        "cyl3d_series" if fixture_name == "cyl3d" else "mb_series")
    z = [1.1, 0.2]
    assert np.array_equal(integrate_unperturbed(series, z).xT,
                          integrate_full(series, z, 0.0).xT)
    a = fundamental_matrix(series, z)
    b = integrate_full(series, z, 0.0, variational=True)
    assert np.array_equal(a.xT, b.xT)
    assert np.array_equal(a.YT, b.YT)


def test_step_budget_limits_rhs_evaluations(cyl3d_series, monkeypatch):
    # DOP853 with dense output: 12 stages plus 3 interpolation stages per
    # step, plus the initial slope and the initial-step probe
    from scipy.integrate import DOP853
    cap = 2 + 5 * (DOP853.n_stages + len(DOP853.A_EXTRA))
    assert cap == 77
    calls = []
    rhs = flow._Plan.rhs

    def counting(plan, t, u):
        calls.append(t)
        return rhs(plan, t, u)

    monkeypatch.setattr(flow._Plan, "rhs", counting)
    with pytest.raises(IntegrationError, match="step budget exceeded"):
        integrate_unperturbed(cyl3d_series, [1.1, 0.2], IntegratorConfig(max_steps=5))
    assert 0 < len(calls) <= cap


def test_full_integration_near_periodic_at_branch_point(cyl3d_series):
    # the radial equation decouples; at the order-2 branch root its
    # displacement over one period drops to the eps^3 tail
    eps = 0.01
    a = (3 * eps + math.sqrt(9 * eps ** 2 + 16 * eps)) / 2
    traj = integrate_full(cyl3d_series, [a, 0.0], eps)
    assert abs(traj.xT[0] - a) < 2e-5
    # the w-direction is unstable (multiplier e^{2 pi}), so the chart point
    # is near-periodic only radially; w stays bounded over the period
    assert abs(traj.xT[1]) < 1.0


def test_group_property(harmonic):
    config = IntegratorConfig()
    z = np.array([0.6, -0.2])
    one_shot = integrate_unperturbed(harmonic, z, config)
    mid = one_shot.x(TWO_PI / 2)
    series_half = VectorFieldSeries.from_strings(
        ("x1", "x2"), [["-x2", "x1"], ["0", "0"]], TWO_PI / 2)
    second = integrate_unperturbed(series_half, mid, config)
    tol = 10 * (config.rtol + config.atol)
    assert np.max(np.abs(second.xT - one_shot.xT)) < 10 * tol


def test_tolerance_halving_self_consistency(cyl3d_series):
    z = [1.2, 0.1]
    loose = integrate_unperturbed(cyl3d_series, z, IntegratorConfig(rtol=1e-8, atol=1e-8))
    tight = integrate_unperturbed(cyl3d_series, z, IntegratorConfig(rtol=5e-9, atol=5e-9))
    assert np.max(np.abs(loose.xT - tight.xT)) < 10 * loose.error_estimate


def test_variational_matches_flow_differences(cyl3d_series):
    z = np.array([0.9, 0.15])
    traj = fundamental_matrix(cyl3d_series, z)
    h = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        xp = integrate_unperturbed(cyl3d_series, z + e).xT
        xm = integrate_unperturbed(cyl3d_series, z - e).xT
        col = (xp - xm) / (2 * h)
        assert np.max(np.abs(traj.YT[:, j] - col)) < 1e-7


def test_blowup_reported():
    series = VectorFieldSeries.from_strings(("x1",), [["x1^2"], ["0"]], 3.0)
    with pytest.raises(IntegrationError):
        integrate_unperturbed(series, [1.0])


def test_domain_error_becomes_integration_error():
    # Python floats raise where numpy returned inf; the integrator reports it
    series = VectorFieldSeries.from_strings(("x1",), [["1/x1"], ["0"]], 1.0)
    with pytest.raises(IntegrationError, match="left its domain") as info:
        integrate_unperturbed(series, [0.0])
    assert info.value.t_fail == 0.0
    assert isinstance(info.value.__cause__, ZeroDivisionError)


@pytest.fixture
def compilations(monkeypatch):
    compiled = []
    original = flow.compile_stack

    def counting(nodes, params=()):
        compiled.append(params)
        return original(nodes, params)

    monkeypatch.setattr(flow, "compile_stack", counting)
    return compiled


def test_rhs_function_cached_per_cut(compilations):
    series = load_fixture("cyl3d").series()
    z = [1.1, 0.2]
    first = flow._integrate(series, z, 0.0, None, True)
    second = flow._integrate(series, z, 0.0, None, True)
    assert len(compilations) == 1
    assert np.array_equal(first.YT, second.YT)
    # eps is a call argument, not part of the key
    a = integrate_full(series, z, 0.01, variational=True)
    b = integrate_full(series, z, 0.02, variational=True)
    assert len(compilations) == 2
    assert not np.array_equal(a.xT, b.xT)
    # the plan reads the stacks' expressions; it compiles none of them
    assert all(stack._fn is None for stack in series._stacks.values())


def test_rhs_function_follows_in_place_parameter_edit(compilations):
    series = VectorFieldSeries.from_strings(("x1",), [["-a*x1"], ["0"]], 1.0,
                                            params={"a": 1.0})
    assert integrate_unperturbed(series, [1.0]).xT[0] == pytest.approx(math.exp(-1), rel=1e-9)
    series.params["a"] = 2.0
    assert integrate_unperturbed(series, [1.0]).xT[0] == pytest.approx(math.exp(-2), rel=1e-9)
    assert compilations == [(1.0,), (2.0,)]


def test_time_functions_computed_once_across_fields(mb_series):
    # F_0..F_3 and their derivative stacks all read sin(t) and cos(t); the
    # one generated function computes each once
    plan = flow._Plan(mb_series, 0.0, True, [recurrence_terms(i) for i in (1, 2, 3)])
    lines = plan.fn.source.splitlines()
    assert sum(line.endswith("= sin(t)") for line in lines) == 1
    assert sum(line.endswith("= cos(t)") for line in lines) == 1
    assert sum("sin(" in line or "cos(" in line for line in lines) == 2


def test_full_variational_jacobian(cyl3d_series):
    eps = 0.02
    z = np.array([0.8, 0.1])
    traj = integrate_full(cyl3d_series, z, eps, variational=True)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        xp = integrate_full(cyl3d_series, z + e, eps).xT
        xm = integrate_full(cyl3d_series, z - e, eps).xT
        col = (xp - xm) / (2 * h)
        assert np.max(np.abs(traj.YT[:, j] - col)) < 1e-6
