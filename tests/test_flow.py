import functools
import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from avgcycle import expr, flow
from avgcycle.averaging import y_functions
from avgcycle.expr import VectorFieldSeries, compile_jet
from avgcycle.flow import (
    IntegratorConfig, IntegrationError, fundamental_matrix, integrate_full,
    integrate_unperturbed, sample_orbit,
)
from avgcycle.problems import load_fixture
from avgcycle.tensor import recurrence_terms
from conftest import random_component, with_period
from oracles import liouville_defect, with_magnitudes

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def harmonic():
    return VectorFieldSeries.from_strings(
        ("x1", "x2"), [["-x2", "x1"], ["0", "0"]], TWO_PI)


def test_zero_field_is_constant():
    series = VectorFieldSeries.from_strings(("x1", "x2"), [["0", "0"], ["x1", "x2"]], 1.0)
    z = [0.3, -0.7]
    for x in sample_orbit(series, z, 0.0, (0.0, 0.37, 1.0)):
        assert x == pytest.approx(z, abs=1e-13)
    assert integrate_unperturbed(series, z).xT == pytest.approx(z, abs=1e-13)


def test_initial_condition_exact():
    series = VectorFieldSeries.from_strings(("x1",), [["sin(t)*x1"], ["0"]], 1.0)
    traj = integrate_unperturbed(series, [1.2345])
    assert traj.start[0] == pytest.approx(1.2345, abs=1e-15)


def test_harmonic_oscillator_period_return(harmonic):
    traj = integrate_unperturbed(harmonic, [1.0, 0.0])
    assert np.linalg.norm(traj.xT - [1.0, 0.0]) < 1e-9
    assert traj.periodicity_defect < 1e-9
    # quarter period reaches (0, 1)
    quarter, = sample_orbit(harmonic, [1.0, 0.0], 0.0, [TWO_PI / 4])
    assert quarter == pytest.approx([0.0, 1.0], abs=1e-9)


def test_unperturbed_flow_of_radial_fixture(cyl3d_series):
    # F0 = (0, w): the flow is (r0, w0 e^t)
    for t in (0.5, 2.0, TWO_PI):
        traj = integrate_unperturbed(with_period(cyl3d_series, t), [1.3, 0.25])
        assert traj.xT == pytest.approx([1.3, 0.25 * math.exp(t)], rel=1e-9)


def test_fundamental_matrix_identity_for_zero_field(mb_series):
    # Y(t) at an interior time is Y(T) of the series over a period of t
    for t in (1.0, TWO_PI):
        traj = fundamental_matrix(with_period(mb_series, t), [1.0, 2.0])
        assert traj.start[2:6] == pytest.approx(np.eye(2).ravel(), abs=1e-12)
        assert traj.YT == pytest.approx(np.eye(2), abs=1e-12)


def test_fundamental_matrix_radial_fixture(cyl3d_series):
    # Y(t) = diag(1, e^t)
    traj = fundamental_matrix(cyl3d_series, [0.8, 0.0])
    assert traj.start[2:6] == pytest.approx(np.eye(2).ravel(), abs=1e-13)
    for t in (1.0, TWO_PI):
        want = np.diag([1.0, math.exp(t)])
        assert fundamental_matrix(with_period(cyl3d_series, t), [0.8, 0.0]).YT \
            == pytest.approx(want, rel=1e-9)


def test_liouville_identity_random_linear():
    rng = np.random.default_rng(4)
    A = rng.uniform(-0.4, 0.4, size=(2, 2))
    comps = [f"({A[0,0]})*x1 + ({A[0,1]})*x2", f"({A[1,0]})*x1 + ({A[1,1]})*x2"]
    series = VectorFieldSeries.from_strings(("x1", "x2"), [comps, ["0", "0"]], TWO_PI)
    traj = fundamental_matrix(series, [0.1, 0.2])
    assert liouville_defect(series, traj) < 1e-7


def test_sample_orbit_follows_the_flow(cyl3d_series):
    # F0 = (0, w): x(t) = (r0, w0 e^t); t = 0 is z itself and a repeated
    # time repeats its sample
    z = [1.3, 0.25]
    times = (0.0, 0.5, 2.0, 2.0, TWO_PI)
    xs = sample_orbit(cyl3d_series, z, 0.0, times)
    assert xs.shape == (5, 2)
    assert np.array_equal(xs[0], z) and np.array_equal(xs[2], xs[3])
    for t, x in zip(times, xs):
        assert x == pytest.approx([1.3, 0.25 * math.exp(t)], rel=1e-9)
    # chained to T, the samples end where one integration over [0, T] does
    full = integrate_full(cyl3d_series, z, 0.02)
    last = sample_orbit(cyl3d_series, z, 0.02, np.linspace(0.0, TWO_PI, 9))[-1]
    assert np.max(np.abs(last - full.xT)) <= full.tolerance_bound
    assert sample_orbit(cyl3d_series, z, 0.02, []).shape == (0, 2)
    for times in ([1.0, 0.5], [-0.1]):
        with pytest.raises(ValueError, match="non-negative and non-decreasing"):
            sample_orbit(cyl3d_series, z, 0.0, times)


@pytest.mark.parametrize("settings", [
    dict(rtol=math.nan, atol=math.nan), dict(rtol=math.nan), dict(atol=math.inf),
    dict(rtol=0.0), dict(atol=-1e-10)])
def test_integrator_config_rejects_bad_tolerances(settings):
    with pytest.raises(ValueError, match="tolerances must be positive and finite"):
        IntegratorConfig(**settings)


@pytest.mark.parametrize("max_steps", [0, -3])
def test_integrator_config_rejects_a_step_budget_below_one(max_steps):
    with pytest.raises(ValueError, match="max_steps must be at least 1"):
        IntegratorConfig(max_steps=max_steps)


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


def _count_rhs_calls(monkeypatch):
    """A list that records the time of every right-hand side call the
    solver makes."""
    calls = []
    run = flow._run_solver

    def counting(rhs, *args):
        return run(lambda t, u: calls.append(t) or rhs(t, u), *args)

    monkeypatch.setattr(flow, "_run_solver", counting)
    return calls


def _recording(solutions, solve):
    """``solve`` that appends each solution it returns to ``solutions``."""
    def run(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]
    return run


def test_step_budget_limits_rhs_evaluations(cyl3d_series, monkeypatch):
    # DOP853: 12 stages per step attempt, plus the initial slope and the
    # initial-step probe
    from scipy.integrate import DOP853
    cap = 2 + 5 * DOP853.n_stages
    assert cap == 62
    calls = _count_rhs_calls(monkeypatch)
    with pytest.raises(IntegrationError, match="step budget exceeded"):
        integrate_unperturbed(cyl3d_series, [1.1, 0.2], IntegratorConfig(max_steps=5))
    assert 0 < len(calls) <= cap


def test_step_budget_admits_exactly_max_steps(cyl3d_series, monkeypatch):
    z = [1.1, 0.2]
    sols = []
    monkeypatch.setattr(flow, "solve_ivp", _recording(sols, flow.solve_ivp))
    integrate_unperturbed(cyl3d_series, z)
    steps = sols[0].t.size - 1
    assert steps > 1
    # no step was rejected, so the run attempts exactly ``steps`` steps
    assert sols[0].nfev == 2 + 12 * steps
    integrate_unperturbed(cyl3d_series, z, IntegratorConfig(max_steps=steps))
    with pytest.raises(IntegrationError, match="step budget exceeded"):
        integrate_unperturbed(cyl3d_series, z, IntegratorConfig(max_steps=steps - 1))


def test_tableau_is_scipy_dop853():
    from scipy.integrate import DOP853
    for name in ("A", "B", "C", "E3", "E5"):
        ours, theirs = getattr(flow._DOP853, name), getattr(DOP853, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    assert flow._DOP853.n_stages == DOP853.n_stages == 12
    assert flow._DOP853.error_estimator_order == DOP853.error_estimator_order == 7


def scipy_dop853(fun, t_span, y0, method, **options):
    """scipy's own DOP853 on the same counted right-hand side: the oracle
    for flow's float stepper."""
    return solve_ivp(lambda t, u: np.array(fun(float(t), u.tolist())), t_span, y0,
                     method="DOP853", **options)


def blowup_series():
    # x' = x^2 from 0.9 blows up at t = 1/0.9, just past T = 1: the steps
    # shrink as it steepens, and some are rejected
    return VectorFieldSeries.from_strings(("x1",), [["x1^2"], ["0"]], 1.0)


@pytest.mark.parametrize("case", ["cyl3d-variational", "mb-jet", "rejecting"])
def test_float_stepper_matches_scipy_dop853(case, cyl3d_series, mb_series, monkeypatch):
    integrate = {
        "cyl3d-variational": lambda: integrate_full(
            cyl3d_series, [1.1, 0.2], 0.01, IntegratorConfig(1e-12, 1e-12),
            variational=True),
        "mb-jet": lambda: y_functions(mb_series, [2.0, 6.0], 3, nb=1).traj,
        "rejecting": lambda: integrate_unperturbed(blowup_series(), [0.9]),
    }[case]
    sols = []
    monkeypatch.setattr(flow, "solve_ivp", _recording(sols, flow.solve_ivp))
    ours = integrate()
    monkeypatch.setattr(flow, "solve_ivp", _recording(sols, scipy_dop853))
    ref = integrate()
    mine, theirs = sols
    # the same steps and the same right-hand side calls
    assert mine.t.size == theirs.t.size
    assert mine.nfev == theirs.nfev
    if case == "rejecting":
        # ten or more rejected steps: 12 calls each, beside the 12 of
        # every accepted step
        accepted = theirs.t.size - 1
        assert theirs.nfev - 2 - 12 * accepted >= 12 * 10
    # the error estimate cancels down to the size of the tolerance, so
    # summing the stages in another order moves it in about its 4th digit,
    # and each step size, its -1/8 power, in about its 5th
    assert np.allclose(mine.t, theirs.t, rtol=1e-4, atol=0.0)
    assert np.max(np.abs(ours.end - ref.end)) <= 1e-13 * np.max(np.abs(ref.end))


def _hex(values):
    return [v.hex() for v in np.ravel(values).tolist()]


@pytest.mark.parametrize("case", ["mb-jet", "cyl3d-jet", "mb-plain"])
def test_constant_slots_step_bit_identically(case, cyl3d_series, mb_series, monkeypatch):
    # the stepper that copies the constant slots against the one that sums
    # every slot, on the same counted right-hand side
    integrate = {
        "mb-jet": lambda: y_functions(mb_series, [2.0, 6.0], 3, nb=1),
        "cyl3d-jet": lambda: y_functions(cyl3d_series, [1.1, 0.2], 2, nb=1),
        "mb-plain": lambda: y_functions(mb_series, [2.0, 6.0], 3),
    }[case]
    runs = []
    real = flow.solve_ivp

    def both(fun, t_span, y0, method, **options):
        full = functools.partial(method, constant=())
        runs.append((method.keywords["constant"], real(fun, t_span, y0, method, **options),
                     real(fun, t_span, y0, full, **options)))
        return runs[-1][1]

    monkeypatch.setattr(flow, "solve_ivp", both)
    integrate()
    (constant, mine, full), = runs
    assert len(constant) == {"mb-jet": 24, "cyl3d-jet": 9, "mb-plain": 6}[case]
    assert np.array_equal(mine.t, full.t)
    assert mine.nfev == full.nfev
    # every accepted step's state, the endpoint included
    assert _hex(mine.y) == _hex(full.y)


def _plan_constant(texts):
    """Constant slots of the plain x cut at eps = 0 with F_0 = ``texts``."""
    series = VectorFieldSeries.from_strings(("r", "w"), [texts, ["1", "r"]], TWO_PI)
    return flow._Plan(series, 0.0, False, None).fn.constant


def test_constant_slots_are_the_literal_zeros(cyl3d_series, mb_series):
    # F_0 = 0: x and Y never move at eps = 0, nor do their lifted levels;
    # 24 of the 36 slots of the Maxwell-Bloch nb = 1 reduction jet
    n = mb_series.dim
    terms = [recurrence_terms(i) for i in (1, 2, 3)]
    degrees = [3] * (n + n * n) + [2] * n + [1] * n + [0] * n
    plan = flow._Plan(mb_series, 0.0, True, terms, 1, degrees)
    assert plan.jet.length == 36
    assert plan.fn.constant == tuple(range(6)) + tuple(range(12, 30))
    # cyl3d, F_0 = (0, w): r and the first row of Y stay; nothing does once
    # the perturbation is live
    assert flow._Plan(cyl3d_series, 0.0, True, None).fn.constant == (0, 2, 3)
    assert flow._Plan(cyl3d_series, 0.01, True, None).fn.constant == ()
    # structure, not value: r^2 - r^2 is kept as written, and sin(t) r is
    # zero at r = 0 only
    assert _plan_constant(["r^2 - r^2 + w", "0"]) == (1,)
    assert _plan_constant(["sin(t)*r", "0*w"]) == (1,)
    series = VectorFieldSeries.from_strings(("x",), [["sin(t)*x"], ["0"]], 1.0)
    assert flow._Plan(series, 0.0, False, None).fn.constant == ()
    assert integrate_unperturbed(series, [0.0]).xT[0] == 0.0


def _stepper_sources(n, constant):
    """Every source a ``_Stepper`` generates."""
    sources = []

    class Recording(flow._Stepper):
        def _define(self, src):
            sources.append(src)
            return super()._define(src)

    Recording(n, frozenset(constant))
    return "\n".join(sources)


def test_stepper_sums_no_constant_slot():
    # a constant slot is copied into every stage state and the new state,
    # and read by no stage sum or error sum
    constant = (0, 2, 3)
    source = _stepper_sources(6, constant)
    for i in range(6):
        reads = len(re.findall(rf"k\d+\[{i}\]", source))
        assert (reads == 0) == (i in constant), i
    assert "_live(y), _live(y_new)" in source and ", rtol, atol, 6))" in source
    # without a constant slot: every slot summed, the norm over all of them
    full = _stepper_sources(6, ())
    assert "_live" not in full and ", rtol, atol))" in full
    assert all(f"k0[{i}]" in full for i in range(6))


def test_constant_slot_keeps_a_negative_zero():
    # y + 0 * h would turn -0.0 into 0.0; a copied slot keeps its sign
    series = VectorFieldSeries.from_strings(("x1", "x2"), [["0", "x2"], ["0", "0"]], 1.0)
    xT = integrate_unperturbed(series, [-0.0, 1.0]).xT
    assert xT[0].hex() == (-0.0).hex()


def test_compiled_rhs_sees_only_python_floats(monkeypatch):
    # a numpy scalar in any slot (or in t) would put every stage sum on
    # numpy scalars and cancel the float stepper's gain without failing
    seen = set()
    real = flow.compile_jet

    def watching(*args):
        fn = real(*args)

        @functools.wraps(fn)
        def checked(t, x):
            seen.add(type(t))
            seen.update(map(type, x))
            return fn(t, x)

        return checked

    monkeypatch.setattr(flow, "compile_jet", watching)
    series = load_fixture("cyl3d").series()   # nothing compiled yet
    z = [1.1, 0.2]
    integrate_full(series, z, 0.02, variational=True)
    integrate_full(series, z, 0.02)
    integrate_unperturbed(series, z)
    sample_orbit(series, z, 0.0, np.array([0.5, 1.0]))
    y_functions(series, z, 2, nb=1)
    assert seen == {float}


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
    # the field is autonomous: the second half period is the first again
    half = with_period(harmonic, TWO_PI / 2)
    mid = integrate_unperturbed(half, z, config).xT
    second = integrate_unperturbed(half, mid, config)
    tol = 10 * (config.rtol + config.atol)
    assert np.max(np.abs(second.xT - one_shot.xT)) < 10 * tol


def test_tolerance_halving_self_consistency(cyl3d_series):
    z = [1.2, 0.1]
    loose = integrate_unperturbed(cyl3d_series, z, IntegratorConfig(rtol=1e-8, atol=1e-8))
    tight = integrate_unperturbed(cyl3d_series, z, IntegratorConfig(rtol=5e-9, atol=5e-9))
    assert np.max(np.abs(loose.xT - tight.xT)) < 10 * loose.tolerance_bound


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
    # x' = x^2 from 1 blows up at t = 1, where the steps shrink below the
    # spacing of floats
    series = VectorFieldSeries.from_strings(("x1",), [["x1^2"], ["0"]], 3.0)
    with pytest.raises(IntegrationError, match="less than spacing") as info:
        integrate_unperturbed(series, [1.0])
    assert info.value.t_fail == pytest.approx(1.0, abs=1e-6)


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
    original = flow.compile_jet

    def counting(nodes, degrees, params=(), nb=1):
        compiled.append(params)
        return original(nodes, degrees, params, nb)

    monkeypatch.setattr(flow, "compile_jet", counting)
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


@pytest.mark.parametrize("fixture_name", ["cyl3d", "maxwell_bloch"])
def test_plain_cut_compiles_the_scalar_code(fixture_name):
    # a jet in no offsets is the plain right-hand side, text for text: what
    # the scalar emitter alone writes for the nodes
    series = load_fixture(fixture_name).series()
    k = series.order
    for live, terms in (((), [recurrence_terms(i) for i in range(1, k + 1)]),
                        (tuple(range(1, k + 1)), [])):
        for variational in (False, True):
            nodes = flow._rhs_nodes(series, live, variational, terms)
            jet = compile_jet(nodes, (0,) * len(nodes), series.param_tuple, 0)
            emitter = expr._Emitter(series.param_tuple)
            plain = expr._assemble(emitter, [emitter.ref(nd)[0] for nd in nodes])
            assert jet.source == plain.source


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


# --- right-hand sides regrouped by state monomial ------------------------------

# |regrouped - as written| <= REGROUP_BOUND (M_regrouped + M_written), M the
# running roundoff magnitudes of ``oracles.with_magnitudes``: each code is
# within a small multiple of u = 2^-53 times its own magnitude of the exact
# value.  Measured, 20 points per plan: at most 0.75 u (M + M) on the
# fixture plans, 3.6 u (M + M) on the plans of 200 random fields.
REGROUP_BOUND = 16 * 2.0 ** -53


def _plan_kinds(series):
    """(eps, variational, terms, nb, degrees) of every plan kind the
    pipeline builds on ``series``: x alone and x with Y, at eps = 0 and at
    eps != 0; and each averaging cut k = 0..order, plain and lifted in 1 and
    n offsets, graded for a reduction of order k or of the series order the
    way ``averaging.y_functions`` grades it."""
    n, top = series.dim, series.order
    kinds = [(eps, variational, None, 0, None)
             for eps in (0.0, 0.01) for variational in (False, True)]
    for k in range(top + 1):
        terms = [recurrence_terms(i) for i in range(1, k + 1)]
        kinds.append((0.0, True, terms, 0, None))
        for order in sorted({max(k, 1), top}):
            degrees = ([order] * (n + n * n)
                       + [max(order - i, 0) for i in range(1, k + 1) for _ in range(n)])
            kinds += [(0.0, True, terms, nb, degrees) for nb in sorted({1, n})]
    return kinds


def _regrouped_and_written(series, eps, variational, terms, nb, degrees):
    """The plan's generated function, and ``compile_jet`` of its nodes as
    ``_rhs_nodes`` writes them."""
    plan = flow._Plan(series, eps, variational, terms, nb, degrees)
    live = tuple(range(1, series.order + 1)) if eps else ()
    nodes = flow._rhs_nodes(series, live, variational, terms or ())
    written = compile_jet(nodes, plan.jet.degrees, series.param_tuple, plan.jet.nb)
    return plan, written


def _assert_regrouped_matches_written(series, kind, rng, low=-1.0, high=1.0):
    plan, written = _regrouped_and_written(series, *kind)
    regrouped, written = with_magnitudes(plan.fn), with_magnitudes(written)
    for _ in range(4):
        t = rng.uniform(0.0, series.period)
        u = rng.uniform(low, high, plan.jet.length).tolist() + plan.weights
        a, ma = map(np.array, regrouped(t, u))
        b, mb = map(np.array, written(t, u))
        assert a.shape == b.shape
        assert np.all(np.abs(a - b) <= REGROUP_BOUND * (ma + mb)), kind


@pytest.mark.parametrize("fixture_name", ["cyl3d", "maxwell_bloch"])
def test_regrouped_fixture_plans_match_the_written_nodes(fixture_name):
    series = load_fixture(fixture_name).series()
    rng = np.random.default_rng(5)
    for kind in _plan_kinds(series):
        # cyl3d divides by r: keep the state away from 0
        _assert_regrouped_matches_written(series, kind, rng, 0.3, 2.0)


@pytest.mark.parametrize("seed", range(8))
def test_regrouped_random_plans_match_the_written_nodes(seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    names = tuple(f"x{i + 1}" for i in range(n))
    texts = [[random_component(rng, names) for _ in range(n)] for _ in range(3)]
    series = VectorFieldSeries.from_strings(
        names, texts, TWO_PI, params={"a": float(rng.uniform(0.5, 1.5))})
    terms = [recurrence_terms(1), recurrence_terms(2)]
    degrees = [2] * (n + n * n) + [1] * n + [0] * n
    for kind in [(0.0, False, None, 0, None), (0.05, True, None, 0, None),
                 (0.0, True, terms, 1, degrees)]:
        _assert_regrouped_matches_written(series, kind, rng)


@pytest.mark.parametrize("fixture_name", ["cyl3d", "maxwell_bloch"])
def test_regrouped_plans_are_no_longer_than_the_written_ones(fixture_name):
    # a deterministic guard on the regrouping: line counts do not drift
    # like wall time
    series = load_fixture(fixture_name).series()
    for kind in _plan_kinds(series):
        plan, written = _regrouped_and_written(series, *kind)
        assert plan.fn.source.count("\n") <= written.source.count("\n"), kind
    if fixture_name == "maxwell_bloch":
        # the jet the nested reduction integrates at every node: nb = 1,
        # graded for order 3; 861 lines as written
        n = series.dim
        terms = [recurrence_terms(i) for i in (1, 2, 3)]
        degrees = [3] * (n + n * n) + [2] * n + [1] * n + [0] * n
        plan = flow._Plan(series, 0.0, True, terms, 1, degrees)
        assert plan.fn.source.count("\n") <= 600
        # a0 = -1 is folded into the literals: no products by -1 are left
        assert "(-1.0) *" not in plan.fn.source


@pytest.mark.parametrize("text, bad_r", [
    # nothing cancels: r*w/r divides by r, and so does the sum of the
    # terms w/r - w/r, so the integration fails at r = 0 as the field does
    ("r*w/r + 2*r*w/r*sin(t)", 0.0), ("w/r - w/r + r", 0.0),
    # r^2 - r^2 is kept while nothing else squares r: r ** 2 overflows
    ("r^2 - r^2 + w", 1e200)])
def test_regrouped_field_still_leaves_its_domain(text, bad_r):
    series = VectorFieldSeries.from_strings(("r", "w"), [[text, "0"], ["0", "0"]],
                                            TWO_PI)
    with pytest.raises(IntegrationError, match="left its domain"):
        integrate_unperturbed(series, [bad_r, 1.0])
    with pytest.raises(IntegrationError, match="left its domain"):
        flow._integrate(series, [bad_r, 1.0], 0.0, None, True)
    traj = integrate_unperturbed(series, [0.5, 1.0])
    assert np.all(np.isfinite(traj.xT))


@pytest.mark.parametrize("times", [
    np.linspace(0.0, TWO_PI, 400),
    # a segment 1e-12 long, cut from the carried step, hands that step on
    # and not its own size
    [1.0, 1.0 + 1e-12, TWO_PI]], ids=["svg-400", "near-repeat"])
def test_sample_orbit_pays_the_initial_step_rule_once(times, cyl3d_series, monkeypatch):
    # the 400 samples of the SVG orbit plot: every segment after the first
    # starts from the step size the one before it proposed, where a fresh
    # start pays the initial-step rule and its probe
    z, eps = [1.3, 0.01], 0.05
    evals = []
    real = flow._run_solver

    def counting(*args):
        sol = real(*args)
        evals.append(sol.nfev)
        return sol

    monkeypatch.setattr(flow, "_run_solver", counting)
    carried = sample_orbit(cyl3d_series, z, eps, times)
    carried_evals = sum(evals)
    del evals[:]
    # the same segments, each started afresh
    monkeypatch.setattr(flow, "_run_solver", lambda *args: counting(*args[:5]))
    fresh = sample_orbit(cyl3d_series, z, eps, times)
    segments = len(evals)
    assert segments == len(times) - (times[0] == 0.0)
    assert carried_evals <= sum(evals) - (segments - 1)
    # both agree with one integration to each time
    bound = 10 * (1e-10 * np.max(np.abs(carried)) + 1e-10)
    for i in sorted({1, len(times) // 7, len(times) // 2, len(times) - 1}):
        one, = sample_orbit(cyl3d_series, z, eps, [times[i]])
        assert np.max(np.abs(carried[i] - one)) <= bound
        assert np.max(np.abs(fresh[i] - one)) <= bound
