import ast
import functools
import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import sici

from avgcycle import expr, flow
from avgcycle.averaging import averaged_functions, y_functions
from avgcycle.expr import VectorFieldSeries, compile_jet
from avgcycle.flow import (
    IntegratorConfig, IntegrationError, fundamental_matrix, integrate_full,
    integrate_unperturbed, sample_orbit,
)
from avgcycle.problems import load_fixture
from avgcycle.tensor import (
    jet_level_starts, jet_state_starts, level_partials, packed_index_table, recurrence_terms,
)
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


@pytest.mark.parametrize("times", [[1.0, math.nan, 2.0], [1.0, math.inf]], ids=["nan", "inf"])
def test_sample_orbit_rejects_a_non_finite_time(times, cyl3d_series):
    # a nan is neither below nor above the time before it, and an inf is
    # no end an integration can reach
    with pytest.raises(ValueError, match="finite, non-negative and non-decreasing"):
        sample_orbit(cyl3d_series, [1.3, 0.25], 0.05, times)


@pytest.mark.parametrize("settings", [
    dict(rtol=math.nan, atol=math.nan), dict(rtol=math.nan), dict(atol=math.inf),
    dict(rtol=0.0), dict(atol=-1e-10)])
def test_integrator_config_rejects_bad_tolerances(settings):
    with pytest.raises(ValueError, match="tolerances must be positive and finite"):
        IntegratorConfig(**settings)


@pytest.mark.parametrize("max_steps", [0, -3, 2.5, math.nan, math.inf])
def test_integrator_config_rejects_a_step_budget_below_one(max_steps):
    # a NaN, an infinite or a fractional budget never equals the count of
    # step attempts, so it would never stop an integration
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


def _counting(rhs, calls):
    """``rhs`` that records in ``calls`` the time of every evaluation: one
    per scalar call, and one per row of each array call that returns (its
    rows in order).  The wrapper keeps what the stepper reads off ``rhs``:
    its reads, its constant slots and its levels."""
    counted = functools.wraps(rhs)(lambda t, u: calls.append(t) or rhs(t, u))
    if getattr(rhs, "arrays", None) is not None:
        def counting(array):
            def counted_array(t, x):
                out = array(t, x)
                calls.extend(t.tolist())
                return out
            return counted_array
        counted.arrays = tuple(map(counting, rhs.arrays))
    return counted


def _count_rhs_calls(monkeypatch):
    """A list that records the time of every right-hand side evaluation the
    solver makes, scalar or in an array call."""
    calls = []
    run = flow._run_solver
    monkeypatch.setattr(flow, "_run_solver", lambda rhs, *args: run(_counting(rhs, calls), *args))
    return calls


def _without_depth(rhs):
    """``rhs`` with its reads and constant slots but no dependency depth:
    ``_run_solver`` steps it with DOP853 whatever its graph."""
    plain = functools.wraps(rhs)(lambda t, u: rhs(t, u))
    plain.depth = plain.levels = None
    return plain


def _on_dop853(monkeypatch):
    """Every integration from here on takes the DOP853 stepper, the cuts
    that would take Chebyshev quadrature included, on the same right-hand
    side and states."""
    run = flow._run_solver
    monkeypatch.setattr(flow, "_run_solver", lambda rhs, *args: run(_without_depth(rhs), *args))


def _recording(solutions, solve):
    """``solve`` that appends each solution it returns to ``solutions``."""
    def run(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]
    return run


def logistic_series():
    # F_0 = (0, -x2 - x2^2): x2 reads itself, not affinely, so every cut
    # steps DOP853
    return VectorFieldSeries.from_strings(("x1", "x2"), [["0", "-x2 - x2^2"], ["0", "0"]],
                                          TWO_PI)


def test_step_budget_limits_rhs_evaluations(monkeypatch):
    # DOP853: 12 stages per step attempt, plus the initial slope and the
    # initial-step probe
    from scipy.integrate import DOP853
    cap = 2 + 5 * DOP853.n_stages
    assert cap == 62
    calls = _count_rhs_calls(monkeypatch)
    with pytest.raises(IntegrationError, match="step budget exceeded"):
        integrate_unperturbed(logistic_series(), [1.1, 0.2], IntegratorConfig(max_steps=5))
    assert 0 < len(calls) <= cap


def test_step_budget_admits_exactly_max_steps(monkeypatch):
    series, z = logistic_series(), [1.1, 0.2]
    sols = []
    monkeypatch.setattr(flow, "solve_ivp", _recording(sols, flow.solve_ivp))
    integrate_unperturbed(series, z)
    steps = sols[0].t.size - 1
    assert steps > 1
    # no step was rejected, so the run attempts exactly ``steps`` steps
    assert sols[0].nfev == 2 + 12 * steps
    integrate_unperturbed(series, z, IntegratorConfig(max_steps=steps))
    with pytest.raises(IntegrationError, match="step budget exceeded"):
        integrate_unperturbed(series, z, IntegratorConfig(max_steps=steps - 1))


def test_tableau_is_scipy_dop853():
    from scipy.integrate import DOP853
    for name in ("A", "B", "C", "E3", "E5"):
        ours, theirs = getattr(flow._DOP853, name), getattr(DOP853, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    assert flow._DOP853.n_stages == DOP853.n_stages == 12
    assert flow._DOP853.error_estimator_order == DOP853.error_estimator_order == 7


def _on_whole_state(fun, keywords):
    """``fun``, called the compact way that the ``_dop853`` keywords
    ``keywords`` describe, as the right-hand side of the whole state: it
    takes every slot and returns every slope, zero at the constant slots."""
    reads, constant, weights = keywords["reads"], keywords["constant"], keywords["weights"]

    def whole(t, u):
        x = list(u) + list(weights)
        out = fun(t, [x[p] for p in reads])
        for i in constant:
            out.insert(i, 0.0)
        return out

    return whole


def scipy_dop853(fun, t_span, y0, method, **options):
    """scipy's own DOP853 on the same counted right-hand side, on the whole
    state: the oracle for flow's float stepper."""
    whole = _on_whole_state(fun, method.keywords)
    return solve_ivp(lambda t, u: np.array(whole(float(t), u.tolist())), t_span, y0,
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
    # the Maxwell-Bloch jet is acyclic: DOP853 is asked for by name
    _on_dop853(monkeypatch)
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
    # the eps = 0 cuts take Chebyshev quadrature: DOP853 is asked for by name
    _on_dop853(monkeypatch)
    runs = []
    real = flow.solve_ivp

    def both(fun, t_span, y0, method, **options):
        # the reference passes the whole state and sums every slot
        full = functools.partial(method, reads=tuple(range(len(y0))), constant=(),
                                 weights=())
        runs.append((method.keywords["constant"], real(fun, t_span, y0, method, **options),
                     real(_on_whole_state(fun, method.keywords), t_span, y0, full,
                          **options)))
        return runs[-1][1]

    monkeypatch.setattr(flow, "solve_ivp", both)
    integrate()
    (constant, mine, full), = runs
    assert len(constant) == {"mb-jet": 26, "cyl3d-jet": 16, "mb-plain": 6}[case]
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
    # nor do the two level-1 entries of y_2 that start at zero and read
    # only held entries: 26 of the 36 slots of the Maxwell-Bloch nb = 1
    # reduction jet
    n = mb_series.dim
    terms = [recurrence_terms(i) for i in (1, 2, 3)]
    degrees = [3] * (n + n * n) + [2] * n + [1] * n + [0] * n
    plan = flow._Plan(mb_series, 0.0, True, terms, 1, degrees)
    assert plan.jet.length == 36
    assert plan.fn.constant == tuple(range(6)) + tuple(range(12, 30)) + (31, 33)
    # cyl3d, F_0 = (0, w): r and the first row of Y stay, and so does Y's
    # zero entry dw/dr; once the perturbation is live, dr/dw still does,
    # since no field's radial component reads w.  Y at eps != 0 is the
    # degree-1 jet of x in both offsets, whose levels 1 sit where the
    # variational block's Y does
    assert flow._Plan(cyl3d_series, 0.0, True, None).fn.constant == (0, 2, 3, 4)
    assert flow._Plan(cyl3d_series, 0.0, False, None, 2, (1, 1)).fn.constant == (0, 2, 3, 4)
    assert flow._Plan(cyl3d_series, 0.01, False, None, 2, (1, 1)).fn.constant == (3,)
    # with the perturbation live, every entry of Maxwell-Bloch's Y moves
    plan = flow._Plan(mb_series, 0.01, False, None, 2, (1, 1))
    assert plan.fn.zero == plan.fn.constant == ()
    # the cyl3d nb = 1 reduction jet: 16 of its 24 slots are held, 9 whose
    # right-hand side is a literal zero as written and 7 that start at zero
    # and read only held entries: dw/dr (4) and its levels (18, 19), the
    # second level of w (13), the levels of Y's last entry (20, 21) and the
    # level of y_1's radial entry (22)
    n = cyl3d_series.dim
    degrees = [2] * (n + n * n) + [1] * n + [0] * n
    plan = flow._Plan(cyl3d_series, 0.0, True, terms[:2], 1, degrees)
    assert plan.fn.constant == (0, 2, 3, 4, 10, 11) + tuple(range(13, 23))
    assert plan.fn.zero == (3, 4, 10, 11) + tuple(range(13, 23))
    # structure, not value: r^2 - r^2 is kept as written, and sin(t) r is
    # zero at r = 0 only
    assert _plan_constant(["r^2 - r^2 + w", "0"]) == (1,)
    assert _plan_constant(["sin(t)*r", "0*w"]) == (1,)
    series = VectorFieldSeries.from_strings(("x",), [["sin(t)*x"], ["0"]], 1.0)
    assert flow._Plan(series, 0.0, False, None).fn.constant == ()
    assert integrate_unperturbed(series, [0.0]).xT[0] == 0.0


def test_stepper_sums_no_constant_slot():
    # a held slot is passed as it is to every stage and kept in the new
    # state, and read by no stage sum or error sum
    held = (0, 2, 3)
    source = flow._loop(6, frozenset(held), tuple(range(6))).source
    for i in range(6):
        reads = len(re.findall(rf"\bk\d+_{i}\b", source))
        summed = len(re.findall(rf"\by{i} \+", source))
        assert (reads == 0 and summed == 0) == (i in held), i
    # the error norm scales only the live slots and counts all six
    assert source.count("s = atol + ") == 3 and "* 6)" in source
    # without a held slot: every slot summed, the norm over all of them
    full = flow._loop(6, frozenset(), tuple(range(6))).source
    assert full.count("s = atol + ") == 6 and "* 6)" in full
    assert all(f"k0_{i}" in full for i in range(6))


def test_stepper_builds_stage_states_for_the_read_slots_alone():
    # the right-hand side reads slots 0 (held) and 1 and the weight at
    # position 6: slots 4 and 5 move unread, so each gets its new state and
    # its error terms but no stage state, and the held slot and the weight
    # are bound once
    source = flow._loop(6, frozenset({0, 2, 3}), (0, 1, 6)).source
    assert source.count("e6 = weights[0]") == 1
    assert len(re.findall(r"\by1 \+", source)) == 11 + 1
    for i in (4, 5):
        assert len(re.findall(rf"\by{i} \+", source)) == 1, i
        assert source.count(f"b = abs(w{i})") == 1
    # every stage and the new point pass three values
    calls = re.findall(r"= fun\(tc, \[(.*?)\]\)", source, re.S)
    assert len(calls) == 12
    assert all(len(re.split(r",\s", c)) == 3 for c in calls)
    assert re.search(r"fun\(tc, \[y0, w1, e6\]\)", source)


def _regrouped_nodes(series, live, variational, terms):
    nodes = flow._rhs_nodes(series, live, variational, terms)
    return expr.regroup(nodes, series.param_tuple, len(nodes))


@pytest.mark.parametrize("fixture_name", ["cyl3d", "maxwell_bloch"])
def test_forced_slots_are_never_held(fixture_name):
    # every F_i component of both fixtures is nonzero, so y_i is forced from
    # the start in every component, and no level-0 y_i entry is read as zero
    series = load_fixture(fixture_name).series()
    n = series.dim
    for eps, variational, terms, nb, degrees in _plan_kinds(series):
        plan = flow._Plan(series, eps, variational, terms, nb, degrees)
        forced = range(n + n * n, len(plan.jet.degrees)) if variational else ()
        assert not set(forced) & set(plan.fn.zero), (eps, variational, nb)
        assert set(plan.fn.zero) <= set(plan.fn.constant)


def test_held_slots_are_structural():
    # F_1 = (x2, 0) forces y_1 in its first component alone: the second
    # starts at zero and reads only itself, so it is held; x and Y are held
    # too, since F_0 = 0
    series = VectorFieldSeries.from_strings(("x1", "x2"), [["0", "0"], ["x2", "0"]], 1.0)
    plan = flow._Plan(series, 0.0, True, [recurrence_terms(1)])
    assert plan.fn.zero == (3, 4, 7)
    assert plan.fn.constant == (0, 1, 2, 3, 4, 5, 7)
    yT = y_functions(series, [0.5, 2.0], 1).traj.end
    assert yT[6] == pytest.approx(2.0, rel=1e-12) and yT[7] == 0.0


@pytest.mark.parametrize("case", ["cyl3d-jet", "mb-jet", "cyl3d-variational",
                                  "cyl3d-plain"])
def test_held_slots_integrate_as_the_full_lift(case, cyl3d_series, mb_series):
    # the plan's pruned function and held stepper against compile_jet of the
    # same regrouped nodes with no slot read as zero, stepped with full sums,
    # both by DOP853 (the eps = 0 jets would take Chebyshev quadrature)
    series = {"cyl3d": cyl3d_series, "mb": mb_series}[case.split("-")[0]]
    n = series.dim
    k = series.order
    terms = [recurrence_terms(i) for i in range(1, k + 1)]
    degrees = ([k] * (n + n * n)
               + [k - i for i in range(1, k + 1) for _ in range(n)])
    eps, variational, terms, nb, degrees = {
        "cyl3d-jet": (0.0, True, terms, 1, degrees),
        "mb-jet": (0.0, True, terms, 1, degrees),
        # Y at eps != 0: the degree-1 jet of x in both offsets
        "cyl3d-variational": (0.01, False, [], n, (1,) * n),
        "cyl3d-plain": (0.0, True, terms, 0, None),
    }[case]
    plan = flow._Plan(series, eps, variational, terms, nb, degrees)
    assert plan.fn.zero
    live = tuple(range(1, k + 1)) if eps else ()
    full = compile_jet(_regrouped_nodes(series, live, variational, tuple(terms)),
                       plan.jet.degrees, series.param_tuple, plan.jet.nb)
    assert full.zero == () and len(full.constant) < len(plan.fn.constant)
    if case == "mb-jet":
        # F_0 = 0: the x slots are held, and every entry reads them
        assert {0, 1} <= set(plan.fn.constant) & set(plan.fn.reads)
    u0 = plan.start(np.array([1.1, 0.2]))
    config = IntegratorConfig()
    mine = flow._run_solver(_without_depth(plan.fn), u0, (0.0, series.period), config,
                            plan.weights)

    # the reference is called on the whole state and sums every slot
    def whole(t, u):
        return expr.full_call(full, t, u + plan.weights)

    whole.reads, whole.constant = tuple(range(len(u0))), ()
    theirs = flow._run_solver(whole, u0, (0.0, series.period), config)
    assert mine.nfev == theirs.nfev
    assert _hex(mine.t) == _hex(theirs.t)
    assert _hex(mine.y) == _hex(theirs.y)


def test_generated_code_is_named_for_profiles():
    # cProfile lists the stepper, the right-hand side and its array forms
    # apart, each by its state size.  A Chebyshev integration calls the
    # array forms alone, and the right-hand side is compiled on its first
    # call
    series = load_fixture("cyl3d").series()
    n = series.dim
    degrees = [2] * (n + n * n) + [1] * n + [0] * n
    plan = flow._Plan(series, 0.0, True, [recurrence_terms(1), recurrence_terms(2)],
                      1, degrees)
    stub = plan.fn.__code__
    y_functions(series, [1.1, 0.2], 2, nb=1)
    assert plan.fn.__code__ is stub
    expr.full_call(plan.fn, 0.0, plan.start(np.array([1.1, 0.2])))
    assert plan.fn.__code__ is not stub
    assert plan.fn.__code__.co_filename == "<jet n=24 nb=1 constant=16 reads=8>"
    assert [array.__code__.co_filename for array in plan.fn.arrays] == [
        "<jet n=24 nb=1 constant=16 arrays reads=8>"] * 3
    run = flow._loop(24, frozenset(plan.fn.constant), plan.fn.reads)
    assert run.__code__.co_filename == "<dop853 n=24 held=16 reads=8>"
    assert run.source.startswith("def _run(") and plan.fn.source.startswith("def _fn(")


def test_stepper_passes_only_what_the_right_hand_side_reads(cyl3d_series, mb_series,
                                                            monkeypatch):
    # every call gets the values at fn.reads, the read state slots and then
    # the weights, never the whole state; a Chebyshev cut makes no scalar
    # call, and each row of its array forms' columns is the values at the
    # reads followed by the clock's
    seen = set()
    real = flow.solve_ivp

    def watching(fun, t_span, y0, method, **options):
        reads, weights = method.keywords["reads"], method.keywords["weights"]
        state = sum(p < len(y0) for p in reads)
        shape = (len(reads), state + len(weights), len(y0) + len(weights))

        def checked(t, x):
            seen.add(("scalar", len(x), *shape))
            return fun(t, x)

        def watched(array):
            def checked_array(t, x):
                times = np.array([clock(s) for s in t.tolist()]).reshape(t.size, clock.width)
                assert np.array_equal(x[len(reads):], times.T)
                seen.add(("array", len(x), clock.width, *shape))
                return array(t, x)
            return checked_array

        if "arrays" in method.keywords:
            clock, arrays = method.keywords["clock"], method.keywords["arrays"]
            method = functools.partial(method, arrays=tuple(map(watched, arrays)))
        return real(checked, t_span, y0, method, **options)

    monkeypatch.setattr(flow, "solve_ivp", watching)
    # the Maxwell-Bloch nb = 1 reduction jet: 9 of its 36 slots are read,
    # and its 27 time-only values are the array forms' last columns
    y_functions(mb_series, [2.0, 6.0], 3, nb=1)
    # cyl3d with Y at eps != 0: 5 of the 6 slots and both weights
    integrate_full(cyl3d_series, [1.1, 0.2], 0.01, variational=True)
    assert seen == {("array", 9 + 27, 27, 9, 9, 36), ("scalar", 7, 7, 7, 8)}


def test_generated_code_names_values_by_liveness(mb_series):
    # the Maxwell-Bloch nb = 1 reduction jet computes over 300 values; a
    # name is handed on once its value is dead, so the frame holds about as
    # many locals as values live at once
    n = mb_series.dim
    terms = [recurrence_terms(i) for i in (1, 2, 3)]
    degrees = [3] * (n + n * n) + [2] * n + [1] * n + [0] * n
    fn = flow._Plan(mb_series, 0.0, True, terms, 1, degrees).fn
    # compiled on its first call
    expr.full_call(fn, 0.0, np.ones(max(fn.reads) + 1))
    assert fn.__code__.co_filename == "<jet n=36 nb=1 constant=26 reads=9>"
    assert len(fn.source.splitlines()) > 300
    assert fn.__code__.co_nlocals <= 64


def test_initial_step_overflow_is_an_integration_error():
    # x' = 1e200 x^2 from x = 1, a DOP853 cut: the initial-step rule squares
    # slope / scale, 5e209, past the largest float
    series = VectorFieldSeries.from_strings(("x1",), [["1e200*x1^2"], ["0"]], 1.0)
    with pytest.raises(IntegrationError, match="initial-step rule overflowed") as info:
        integrate_unperturbed(series, [1.0])
    assert info.value.t_fail == 0.0
    assert isinstance(info.value.__cause__, OverflowError)


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


@pytest.mark.parametrize("name", ["cyl3d", "maxwell_bloch"])
@pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.1])
def test_degree_2_jet_gives_the_hessian_at_nonzero_eps(name, eps):
    # the degree-2 jet of x in all n offsets carries D^2 h at level 2; it
    # equals central differences of the degree-1 jet's Dh to within their
    # error: truncation, at most 4 |fd(d) - fd(2d)| for an O(d^2) error, and
    # the integration error of Dh over d
    series = load_fixture(name).series()
    z = {"cyl3d": [1.1, 0.2], "maxwell_bloch": [2.0, 6.0]}[name]
    n, d = series.dim, 1e-4
    tight = IntegratorConfig(rtol=1e-12, atol=1e-12)
    traj = flow._integrate(series, z, eps, tight, nb=n, degrees=(2,) * n)
    starts = jet_level_starts(n, 2)
    hessian = level_partials(traj.jet.unpack(traj.end)[starts[2]:starts[3]].T, n, 2)
    bounds = []

    def differences(d):
        # column (j, k) of the packed table: d^2 x / dz_j dz_k
        cols = []
        for j, k in packed_index_table(n, 2):
            e = np.zeros(n)
            e[j] = d
            plus, minus = (integrate_full(series, np.add(z, s * e), eps, tight, True)
                           for s in (1, -1))
            cols.append((plus.YT[:, k] - minus.YT[:, k]) / (2 * d))
            bounds.extend([plus.tolerance_bound, minus.tolerance_bound])
        return np.column_stack(cols)

    fd = differences(d)
    bound = 4 * np.abs(fd - differences(2 * d)) + max(bounds) / d
    assert np.all(np.abs(hessian - fd) <= bound)
    assert np.max(bound) < 1e-5 * (1 + np.max(np.abs(hessian)))


def test_compile_jet_reads_a_weight_at_level_0_alone():
    # a state Var past the slots is a weight: constant in the offsets, read
    # once past the lifted state, never as a coefficient; the lift equals the
    # one with the weight written in as a literal
    names = ("x1", "x2")
    decls = expr.Declarations(state=names + ("w",), params=())
    texts = ["w*x1^3 + sin(t)*w", "x1*x2/w + w^2"]
    nodes = [expr.parse(text, decls) for text in texts]
    written = [expr.parse(text.replace("w", "0.3"), decls) for text in texts]
    degrees = (2, 1)
    length = jet_state_starts(2, degrees)[-1]
    fn = compile_jet(nodes, degrees, (), 2)
    assert fn.reads[-1] == length and all(p < length for p in fn.reads[:-1])
    rng = np.random.default_rng(3)
    u = rng.uniform(0.5, 1.5, length).tolist()
    ref = compile_jet(written, degrees, (), 2)
    assert np.allclose(expr.full_call(fn, 0.7, u + [0.3]), expr.full_call(ref, 0.7, u),
                       rtol=1e-15, atol=0.0)


def test_variational_block_refuses_a_live_field(cyl3d_series):
    # Y at eps != 0 is the degree-1 jet of x; the variational block and its
    # y_i belong to the eps = 0 averaging system
    with pytest.raises(ValueError, match="eps = 0 only"):
        flow._Plan(cyl3d_series, 0.01, True, None)
    flow._Plan(cyl3d_series, 0.01, False, None, 2, (1, 1))


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


def test_domain_error_at_an_interior_stage_time(monkeypatch):
    # x1 = 1 - t, so sqrt(x1 - 0.37) leaves its domain past t = 0.63; the
    # steps grow tenfold from 1e-4 and a stage of the step across 0.63 fails
    series = VectorFieldSeries.from_strings(
        ("x1", "x2"), [["-1", "sqrt(x1 - 0.37)"], ["0", "0"]], 1.0)
    calls = _count_rhs_calls(monkeypatch)
    # x2 reads x1 alone: an acyclic cut, stepped by DOP853 here
    _on_dop853(monkeypatch)
    with pytest.raises(IntegrationError, match="left its domain") as info:
        integrate_unperturbed(series, [1.0, 0.0])
    # the time of the failing call, a stage inside a step, not its start
    assert info.value.t_fail == calls[-1]
    assert 0.63 < info.value.t_fail < 1.0
    assert len(calls) > 3 and max(calls[:-1]) < 0.63
    assert isinstance(info.value.__cause__, ValueError)


@pytest.fixture
def compilations(monkeypatch):
    compiled = []
    original = flow.compile_jet

    def counting(nodes, degrees, params=(), nb=1, zero=()):
        compiled.append(params)
        return original(nodes, degrees, params, nb, zero)

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


@pytest.mark.parametrize("fixture_name", ["cyl3d", "maxwell_bloch"])
def test_layouts_of_one_cut_regroup_once(fixture_name, monkeypatch):
    # the nb = 1 and nb = 2 reduction jets regroup the same nodes, once; the
    # code generated on the cached nodes, self-loop coefficients included,
    # is the cold code, byte for byte
    regrouped = []
    real = flow.regroup
    monkeypatch.setattr(flow, "regroup", lambda *args: regrouped.append(1) or real(*args))
    series = load_fixture(fixture_name).series()
    n, k = series.dim, series.order
    terms = [recurrence_terms(i) for i in range(1, k + 1)]
    degrees = [k] * (n + n * n) + [k - i for i in range(1, k + 1) for _ in range(n)]

    def sources(series, nb):
        return flow._Plan(series, 0.0, True, terms, nb, degrees).fn.source

    sources(series, 2)
    warm = sources(series, 1)
    assert len(regrouped) == 1
    assert sources(load_fixture(fixture_name).series(), 1) == warm
    assert len(regrouped) == 2


@pytest.mark.parametrize("fixture_name, lifts", [("cyl3d", 6), ("maxwell_bloch", 8)])
def test_a_fixture_run_lifts_once_per_fixed_point_round(fixture_name, lifts, monkeypatch):
    # compile_jet finds the zero reads by the lifts it compiles from, and
    # emits the self-loop coefficients with the slopes: one lift per round
    # of the fixed point (a pass for the zero reads and another to compile
    # them took 12 and 11)
    from avgcycle.cli import run_pipeline
    count = []
    real = expr._lifted_outputs
    monkeypatch.setattr(expr, "_lifted_outputs", lambda *args: count.append(1) or real(*args))
    report, code = run_pipeline(load_fixture(fixture_name), report_wall_time=False)
    assert code == 0, report.data["errors"]
    assert len(count) == lifts


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
    # the scalar emitter alone writes for the nodes and then for the
    # coefficients of their self-loops, split by a clock where the jet has
    # one, returning the slopes alone.  cyl3d's cuts at eps = 0 have
    # self-loops (w' = w), Maxwell-Bloch's none
    series = load_fixture(fixture_name).series()
    k = series.order
    looped = 0
    for live, terms in (((), [recurrence_terms(i) for i in range(1, k + 1)]),
                        (tuple(range(1, k + 1)), [])):
        for variational in (False, True):
            nodes = flow._rhs_nodes(series, live, variational, terms)
            jet = compile_jet(nodes, (0,) * len(nodes), series.param_tuple, 0)
            emitter = expr._Emitter(series.param_tuple)
            # the entries that are not literal zeros, as compile_jet returns
            refs = [ref for ref, value in map(emitter.ref, nodes) if value != 0.0]
            if jet.depth is not None:
                slots = sorted({j for j in jet.loops if j is not None})
                refs += [emitter.ref(expr.diff(nodes[j], j))[0] for j in slots]
                looped += bool(slots)
            plain = expr._assemble(
                emitter, refs, groups=None if jet.depth is None else [range(len(refs))],
                returned=len(jet.loops))
            assert jet.source == plain.source
    assert looped == {"cyl3d": 2, "maxwell_bloch": 0}[fixture_name]


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
    pipeline builds on ``series``: x alone and x with Y (the degree-1 jet
    in all n offsets), at eps = 0 and at eps != 0; and each averaging cut
    k = 0..order, plain and lifted in 1 and n offsets, graded for a
    reduction of order k or of the series order the way
    ``averaging.y_functions`` grades it."""
    n, top = series.dim, series.order
    kinds = [(eps, False, None, nb, degrees) for eps in (0.0, 0.01)
             for nb, degrees in ((0, None), (n, (1,) * n))]
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
        u = rng.uniform(low, high, plan.jet.length)
        # the plan's states: zero where it reads zero (``fn.zero``)
        u[list(plan.fn.zero)] = 0.0
        u = u.tolist() + plan.weights
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
    for kind in [(0.0, False, None, 0, None), (0.05, False, None, n, (1,) * n),
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


def _segment_evals(series, z, eps, times, **restart):
    """``sample_orbit`` and the ``nfev`` of each segment it integrates, with
    ``restart`` bound into each stepper partial: ``first_step=None`` and
    ``slope=None`` start a segment afresh."""
    evals = []
    real = flow.solve_ivp

    def counting(fun, t_span, y0, method, rtol, atol):
        sol = real(fun, t_span, y0, functools.partial(method, **restart), rtol, atol)
        evals.append(sol.nfev)
        return sol

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "solve_ivp", counting)
        return sample_orbit(series, z, eps, times), evals


@pytest.mark.parametrize("times", [
    np.linspace(0.0, TWO_PI, 400),
    # a segment 1e-12 long, cut from the carried step, hands that step on
    # and not its own size
    [1.0, 1.0 + 1e-12, TWO_PI]], ids=["svg-400", "near-repeat"])
def test_sample_orbit_pays_the_initial_step_rule_once(times, cyl3d_series):
    # the 400 samples of the SVG orbit plot: every segment after the first
    # starts from the step size the one before it proposed, where a fresh
    # start pays the initial-step rule and its probe
    z, eps = [1.3, 0.01], 0.05
    carried, evals = _segment_evals(cyl3d_series, z, eps, times)
    # the same segments, each started afresh
    fresh, fresh_evals = _segment_evals(cyl3d_series, z, eps, times,
                                        first_step=None, slope=None)
    segments = len(fresh_evals)
    assert segments == len(times) - (times[0] == 0.0)
    assert sum(evals) <= sum(fresh_evals) - (segments - 1)
    # both agree with one integration to each time
    bound = 10 * (1e-10 * np.max(np.abs(carried)) + 1e-10)
    for i in sorted({1, len(times) // 7, len(times) // 2, len(times) - 1}):
        one, = sample_orbit(cyl3d_series, z, eps, [times[i]])
        assert np.max(np.abs(carried[i] - one)) <= bound
        assert np.max(np.abs(fresh[i] - one)) <= bound


def test_sample_orbit_carries_the_last_slope(cyl3d_series):
    # DOP853 ends each step on the slope at its end point, where the next
    # segment starts: carried along with the step size, it spares one RHS
    # evaluation per segment after the first, and every sample is the same
    z, eps, times = [1.3, 0.01], 0.05, np.linspace(0.0, TWO_PI, 400)
    carried, evals = _segment_evals(cyl3d_series, z, eps, times)
    # the step size carried, the slope evaluated afresh
    step_only, step_evals = _segment_evals(cyl3d_series, z, eps, times, slope=None)
    assert len(step_evals) == 399
    assert sum(evals) == sum(step_evals) - 398
    assert _hex(carried) == _hex(step_only)


def test_sample_orbit_steps_dop853_at_eps_0(cyl3d_series, monkeypatch):
    # the eps = 0 cut takes Chebyshev quadrature as a whole integration,
    # but every sample_orbit segment steps DOP853, and only the first starts
    # without a carried step size and slope
    taken = _route(monkeypatch)
    fresh = []
    dop = flow._dop853

    def dop853(*args, **kwargs):
        fresh.append((kwargs.get("first_step") is None, kwargs.get("slope") is None))
        return dop(*args, **kwargs)

    monkeypatch.setattr(flow, "_dop853", dop853)
    sample_orbit(cyl3d_series, [1.1, 0.2], 0.0, [1.0, 2.0, TWO_PI])
    assert taken == [("dop853", None)] * 3
    assert fresh == [(True, True), (False, False), (False, False)]


# --- Chebyshev cumulative quadrature: acyclic cuts and affine self-loops --------

def _jet_of(texts, names=("x1", "x2", "x3"), nb=0, degrees=None):
    """``compile_jet`` of the right-hand side ``texts``, one per state slot;
    a state ``w`` past the slots is a weight."""
    decls = expr.Declarations(state=names[:len(texts)] + ("w",), params=())
    return compile_jet([expr.parse(text, decls) for text in texts],
                       degrees or (0,) * len(texts), (), nb)


def _levels_of(texts, names=("x1", "x2", "x3")):
    """``fn.levels`` and ``fn.depth`` of the plain right-hand side ``texts``."""
    fn = _jet_of(texts, names)
    return fn.levels, fn.depth


def test_compile_jet_records_the_dependency_depth():
    # a chain: x1 reads nothing that moves, x2 reads x1, x3 reads both
    assert _levels_of(["sin(t)", "x1", "x1*x2"]) == ((0, 1, 2), 2)
    # a slot that reads itself affinely is a self-loop at level 0, solved in
    # its own pass; one that reads itself otherwise, and two that read each
    # other, are cycles.  Reads are structural: x1 - x1 is affine in x1
    assert _levels_of(["x1"]) == ((0,), 0)
    assert _levels_of(["x1 - x1 + t", "0"]) == ((0,), 0)
    assert _levels_of(["x1^2"]) == (None, None)
    assert _levels_of(["x2", "x1*sin(t)"]) == (None, None)
    # a weight is no edge, nor is a slot whose slope is a literal zero: x2
    # never moves, so x1 reads nothing that does; the entries are x1's alone
    assert _levels_of(["w*x2*sin(t)", "0"]) == ((0,), 0)
    # nothing moves: no entry, depth 0
    assert _levels_of(["0", "0"]) == ((), 0)


def _level_rows(fn, t, x):
    """What each level's array form returns at one time ``t`` on the reads
    ``x``, the clock's values after them, as lists."""
    columns = np.array([*x, *fn.clock(t)])[:, None]
    return [array(np.array([t]), columns)[0].tolist() for array in fn.arrays]


def test_compile_jet_records_the_affine_self_loops():
    # per slope, the plain slot whose partial is the coefficient of its read
    # of itself; the function returns the slopes alone, and each level's
    # array form returns its slopes, then the partials of its loops, one
    # per slot, ascending
    fn = _jet_of(["cos(t)*x1", "x1 + x2*w"])
    assert fn.loops == (0, 1) and fn.levels == (0, 1)
    # x1, x2 and the weight w, which the second coefficient reads
    assert fn.reads == (0, 1, 2) and fn.inputs[2:] == ((), (2,))
    out = fn(0.5, [2.0, 3.0, 4.0])
    assert out == [math.cos(0.5) * 2.0, 2.0 + 3.0 * 4.0]
    assert _level_rows(fn, 0.5, [2.0, 3.0, 4.0]) == [[out[0], math.cos(0.5)],
                                                     [out[1], 4.0]]
    assert expr.full_call(fn, 0.5, [2.0, 3.0, 4.0]) == out
    # a level-L >= 1 entry is linear in its own coefficient, with the slot's
    # partial as coefficient, whatever the slot's level 0
    fn = _jet_of(["sin(t)*x1"], nb=1, degrees=(2,))
    assert fn.loops == (0, 0, 0) and fn.depth == 0 and len(fn.inputs) == 3 + 1
    # with a cycle, no coefficient is returned
    fn = _jet_of(["x1^2"], nb=1, degrees=(1,))
    assert fn.loops == (None, 0) and fn.depth is None and len(fn.inputs) == 2
    # an entry sits above every moving slot its coefficient reads
    fn = _jet_of(["1", "x1*x2"])
    assert fn.loops == (None, 1) and fn.levels == (0, 1)
    assert fn.inputs[2:] == ((0,),)
    # on a lifted state the weight sits past the levels: here at 2, past x1
    # and its level 1
    fn = _jet_of(["w*x1"], nb=1, degrees=(1,))
    assert fn.loops == (0, 0) and fn.inputs[2:] == ((2,),)
    assert fn(0.5, [2.0, 5.0, 3.0]) == [6.0, 15.0]
    assert _level_rows(fn, 0.5, [2.0, 5.0, 3.0]) == [[6.0, 15.0, 3.0]]
    # without a self-loop there is no coefficient
    fn = _jet_of(["sin(t)", "x1"])
    assert fn.loops == (None, None) and len(fn.inputs) == 2


def test_compile_jet_finds_the_zero_fixed_point(monkeypatch):
    # read as zero, x1 zeroes x1' = x1 x2, x3 zeroes x2' = x3 and x4 zeroes
    # x4' = x4 cos(t), but x3' = sin(t) is no zero: x3 drops out, then x2,
    # and {x1, x4} is the fixed point, one lift per round
    lifts = []
    real = expr._lifted_outputs
    monkeypatch.setattr(expr, "_lifted_outputs", lambda *args: lifts.append(args[-1])
                        or real(*args))
    names = ("x1", "x2", "x3", "x4")
    decls = expr.Declarations(state=names)
    nodes = [expr.parse(text, decls) for text in ("x1*x2", "x3", "sin(t)", "x4*cos(t)")]
    fn = compile_jet(nodes, (0,) * 4, (), 0, [0, 1, 2, 3])
    assert lifts == [(0, 1, 2, 3), (0, 1, 3), (0, 3)]
    assert fn.zero == fn.constant == (0, 3)
    # on states zero there, the full lift
    full = compile_jet(nodes, (0,) * 4, (), 0)
    assert full.zero == () and full.constant == ()
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = [0.0, *rng.uniform(-2.0, 2.0, 2), 0.0]
        t = float(rng.uniform(0.0, 3.0))
        assert expr.full_call(fn, t, u) == expr.full_call(full, t, u)
    # a fixed point is kept as it is, in one lift
    del lifts[:]
    assert compile_jet(nodes, (0,) * 4, (), 0, (0, 3)).zero == (0, 3)
    assert len(lifts) == 1


def test_fixture_cuts_are_acyclic_where_f0_vanishes():
    # Maxwell-Bloch, F_0 = 0: x and Y never move at eps = 0 and y_i reads
    # y_1..y_{i-1}, so every averaging cut of order k has depth k - 1 (0 for
    # k = 0, where nothing moves), with no self-loop.  cyl3d's w' = w is an
    # affine self-loop: w, its levels, Y and y_i read themselves through it,
    # and y_i reads w and y_1..y_{i-1}, so a cut of order k has depth k.
    # With the perturbation live, x reads itself not affinely in both
    for name in ("cyl3d", "maxwell_bloch"):
        series = load_fixture(name).series()
        for kind in _plan_kinds(series):
            eps, variational, terms = kind[:3]
            fn = flow._Plan(series, *kind).fn
            k = len(terms or ())
            # what the function returns past its slopes
            coefficients = fn.inputs[len(fn.loops):]
            if eps:
                assert fn.depth is None and not coefficients, kind
            elif name == "cyl3d":
                # each the constant 1, which reads nothing
                assert fn.depth == k and coefficients, kind
                assert not any(coefficients), kind
            else:
                assert fn.depth == max(k - 1, 0) and not coefficients, kind


def _route(monkeypatch):
    """A list of ("chebyshev", passes) or ("dop853", None), one per
    stepper call, the fallback of a Chebyshev integration included."""
    taken = []
    cheb, dop = flow._chebyshev, flow._dop853

    def chebyshev(*args, **kwargs):
        sol = cheb(*args, **kwargs)
        taken.append(("chebyshev", getattr(sol, "passes", None)))
        return sol

    def dop853(*args, **kwargs):
        taken.append(("dop853", None))
        return dop(*args, **kwargs)

    monkeypatch.setattr(flow, "_chebyshev", chebyshev)
    monkeypatch.setattr(flow, "_dop853", dop853)
    return taken


def test_cyl3d_cuts_take_chebyshev_at_eps_0_and_dop853_elsewhere(cyl3d_series, mb_series,
                                                                  monkeypatch):
    # every eps = 0 cut of cyl3d in depth + 1 passes, none falling back;
    # every eps != 0 cut of both fixtures and every sample_orbit segment
    # steps DOP853
    taken = _route(monkeypatch)
    z = [1.1, 0.2]
    for k in range(3):
        for nb in range(3):
            y_functions(cyl3d_series, z, k, nb=nb)
            assert taken == [("chebyshev", k + 1)], (k, nb)
            del taken[:]
    for variational in (False, True):
        integrate_full(cyl3d_series, z, 0.0, variational=variational)
        assert taken == [("chebyshev", 1)]
        del taken[:]
        for series in (cyl3d_series, mb_series):
            integrate_full(series, z, 0.02, variational=variational)
            assert taken == [("dop853", None)]
            del taken[:]
    sample_orbit(cyl3d_series, z, 0.02, [1.0, 2.0, TWO_PI])
    assert taken == [("dop853", None)] * 3


def test_every_maxwell_bloch_averaging_cut_takes_chebyshev(mb_series, monkeypatch):
    # each in exactly depth + 1 passes over the slopes, and none falls back
    taken = _route(monkeypatch)
    n, depths = mb_series.dim, set()
    for k in range(4):
        for nb in range(3):
            del taken[:]
            y_functions(mb_series, [2.0, 6.0], k, nb=nb)
            degrees = ([k] * (n + n * n)
                       + [k - i for i in range(1, k + 1) for _ in range(n)])
            depth = flow._Plan(mb_series, 0.0, True, [recurrence_terms(i)
                                                       for i in range(1, k + 1)],
                               nb, degrees).fn.depth
            assert taken == [("chebyshev", depth + 1)], (k, nb)
            depths.add(depth)
    assert depths == {0, 1, 2}


# (nfev, passes, N, array calls) of each order k's cut, the same for nb =
# 0, 1 and 2: a faster stepper does the same work.  Each attempt at N
# evaluates every level it runs at all N + 1 points
CHEBYSHEV_WORK = {
    "cyl3d": ([1.1, 0.2], [(33, 1, 32, 1), (163, 2, 64, 3), (228, 3, 64, 4)]),
    "maxwell_bloch": ([2.0, 6.0], [(33, 1, 32, 1), (33, 1, 32, 1), (131, 2, 64, 3),
                                   (196, 3, 64, 4)]),
}


def _array_calls(monkeypatch):
    """The rows of each array-form call of every integration from here on."""
    rows = []
    run = flow._run_solver

    def counting(rhs, *args):
        counted = functools.wraps(rhs)(lambda t, u: rhs(t, u))
        counted.arrays = tuple(functools.partial(
            lambda array, t, x: rows.append(len(t)) or array(t, x), array)
            for array in rhs.arrays)
        return run(counted, *args)

    monkeypatch.setattr(flow, "_run_solver", counting)
    return rows


@pytest.mark.parametrize("fixture_name", CHEBYSHEV_WORK)
def test_fixture_cuts_keep_their_chebyshev_work(fixture_name, request, monkeypatch):
    series = request.getfixturevalue(
        "cyl3d_series" if fixture_name == "cyl3d" else "mb_series")
    z, work = CHEBYSHEV_WORK[fixture_name]
    sols = []
    monkeypatch.setattr(flow, "solve_ivp", _recording(sols, flow.solve_ivp))
    rows = _array_calls(monkeypatch)
    for k, want in enumerate(work):
        for nb in range(3):
            del rows[:]
            y_functions(series, z, k, nb=nb)
            sol = sols.pop()
            assert (sol.nfev, sol.passes, len(sol.t) - 1, len(rows)) == want, (k, nb)
            # every evaluation is a row of an array call
            assert sum(rows) == sol.nfev, (k, nb)


def test_cached_chebyshev_plan_carries_no_state(cyl3d_series, mb_series):
    # a cut integrated after other layouts and points, and after the plans
    # and the clock tables are built afresh, is the cut integrated first,
    # bit for bit
    sols = []
    solve = _recording(sols, flow.solve_ivp)

    def cut(series, z, k, nb):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flow, "solve_ivp", solve)
            end = y_functions(series, z, k, nb=nb).traj.end
        return end, sols[-1].nfev, sols[-1].passes

    z1 = [1.1, 0.2]
    first = cut(cyl3d_series, z1, 2, 1)
    cut(cyl3d_series, z1, 2, 2)
    cut(cyl3d_series, [0.7, -0.3], 2, 1)
    again = cut(cyl3d_series, z1, 2, 1)
    flow._cheb_plan.cache_clear()
    warm = cut(cyl3d_series, z1, 2, 1)
    _cold_clocks(cyl3d_series)
    for end, nfev, passes in (again, warm, cut(cyl3d_series, z1, 2, 1)):
        assert np.array_equal(end, first[0])
        assert (nfev, passes) == first[1:]
    # a Maxwell-Bloch jet with 27 tabulated values, cold and warm
    _cold_clocks(mb_series)
    cold = cut(mb_series, [2.0, 6.0], 3, 1)
    for end, nfev, passes in (cold, cut(mb_series, [2.0, 6.0], 3, 1)):
        assert _hex(end) == _hex(cold[0]) and (nfev, passes) == (196, 3)


def _cold_clocks(series):
    """Empty the clock tables of every cut compiled on ``series``."""
    for fn, _ in series._rhs_fns.values():
        if fn.clock is not None:
            fn.clock.tables.clear()


def _counting_clocks(monkeypatch):
    """The times of the clock calls of every integration from here on.  The
    wrapped clock shares the tables of the compiled one: ``functools.wraps``
    copies its attributes."""
    clocks = []
    run = flow._run_solver

    def counting(rhs, *args):
        rhs = functools.wraps(rhs)(lambda t, u, rhs=rhs: rhs(t, u))
        clock = rhs.clock
        if clock is not None:
            rhs.clock = functools.wraps(clock)(lambda t: clocks.append(t) or clock(t))
        return run(rhs, *args)

    monkeypatch.setattr(flow, "_run_solver", counting)
    return clocks


@pytest.mark.parametrize("fixture_name, z, k", [("cyl3d", [1.1, 0.2], 2),
                                                ("maxwell_bloch", [2.0, 6.0], 3)])
def test_clock_runs_once_per_point_of_each_n(fixture_name, z, k, monkeypatch):
    # three integrations of one cut on a fresh series: the clock runs once
    # at each point of every N they use (33 + 65 calls), at the first that
    # uses it; then a cut makes no clock call and does the same work.
    # cyl3d's coefficients (the constant 1 of w' = w) read no state, so
    # their integrating factors are kept with the tables
    series = load_fixture(fixture_name).series()
    clocks = _counting_clocks(monkeypatch)
    sols = []
    monkeypatch.setattr(flow, "solve_ivp", _recording(sols, flow.solve_ivp))
    y_functions(series, [z[0] * 0.9, z[1] * 1.1], k, nb=1)
    first = len(clocks)
    for point in (z, [z[0] * 1.1, z[1] * 0.9]):
        y_functions(series, point, k, nb=1)
        assert len(clocks) == first
    assert (sols[1].nfev, sols[1].passes, len(sols[1].t) - 1) == CHEBYSHEV_WORK[
        fixture_name][1][k][:3]
    points = [flow._cheb_points(N, 0.0, series.period) for N in (32, 64)]
    assert sorted(clocks) == sorted(np.concatenate(points).tolist())
    fn = flow._Plan(series, 0.0, True, [recurrence_terms(i) for i in range(1, k + 1)], 1,
                    [k] * 6 + [k - i for i in range(1, k + 1) for _ in range(2)]).fn
    assert sorted(key[2] for key in fn.clock.tables) == [32, 64]
    assert [bool(table.factors) for table in fn.clock.tables.values()] == [
        fixture_name == "cyl3d"] * 2


def test_sample_orbit_keeps_one_interval_of_tables(cyl3d_series):
    # every segment steps DOP853, which builds no table: the tables of the
    # cut's last Chebyshev integration stay as they were
    integrate_unperturbed(cyl3d_series, [1.1, 0.2])
    clock = flow._Plan(cyl3d_series, 0.0, False, None).fn.clock
    before = dict(clock.tables)
    assert before
    for i in range(50):
        sample_orbit(cyl3d_series, [1.1, 0.2], 0.0, [0.5 + 0.01 * i, TWO_PI])
    assert clock.tables.keys() == before.keys()
    assert all(clock.tables[key] is table for key, table in before.items())


def test_one_layout_builds_its_chebyshev_plan_once(cyl3d_series, monkeypatch):
    # keyed by the layout, not by the right-hand side, which the counting
    # wrapper makes afresh for every integration
    calls = _count_rhs_calls(monkeypatch)
    flow._cheb_plan.cache_clear()
    for z in ([1.1, 0.2], [0.7, -0.3], [1.4, 0.1]):
        y_functions(cyl3d_series, z, 2, nb=1)
    info = flow._cheb_plan.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert len(calls) == 3 * 228


MB_CUT_POINTS = [[0.5, 0.25], [3.25, 3.25 ** 2], [6.0, 36.0], [3.25, -4.0]]


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("nb", [0, 1])
def test_acyclic_cuts_match_a_dop853_oracle(k, nb, mb_series, monkeypatch):
    # the box edges and centre on the manifold w = r^2, and a point off it;
    # at 1e-13 both methods are near roundoff: measured 1.9e-14 of the state
    # at most, and 1.2% of the tolerance bound
    tight = IntegratorConfig(1e-13, 1e-13)
    for z in MB_CUT_POINTS:
        mine = y_functions(mb_series, z, k, tight, nb=nb).traj
        with monkeypatch.context() as patch:
            _on_dop853(patch)
            theirs = y_functions(mb_series, z, k, tight, nb=nb).traj
        error = np.max(np.abs(mine.end - theirs.end))
        assert error <= 1e-13 * np.max(np.abs(theirs.end)), z
        assert error <= mine.tolerance_bound, z


def test_maxwell_bloch_g1_closed_form_on_the_chebyshev_path(mb_series, mb_params):
    # g_1 = (0, -2 pi (2 a0 r^2 + c1 w) / omega) at the run's tolerances;
    # measured 9e-16 relative
    from avgcycle.averaging import averaged_functions
    a0, c1, om = mb_params["a0"], mb_params["c1"], mb_params["omega"]
    for r, w in ((0.5, -1.0), (3.25, -2.0), (6.0, 30.0), (2.0, 6.0), (1.3, -7.0)):
        g1 = averaged_functions(mb_series, [r, w], 1).g[1]
        want = -2 * math.pi * (2 * a0 * r ** 2 + c1 * w) / om
        assert abs(g1[0]) <= 1e-12 * abs(want)
        assert abs(g1[1] - want) <= 1e-12 * abs(want)


def test_chebyshev_honours_the_step_budget(mb_series, monkeypatch):
    # 12 evaluations a step, as DOP853's stages: a budget short of the
    # passes raises before its evaluations would pass 12 max_steps
    z = [2.0, 6.0]
    calls = _count_rhs_calls(monkeypatch)
    y_functions(mb_series, z, 3, nb=1)
    need = len(calls)
    steps = math.ceil(need / 12)
    for max_steps in (1, 2, steps // 2, steps - 1):
        del calls[:]
        with pytest.raises(IntegrationError, match="step budget exceeded") as info:
            y_functions(mb_series, z, 3, IntegratorConfig(max_steps=max_steps), nb=1)
        assert info.value.t_fail == 0.0
        assert len(calls) <= 12 * max_steps
    del calls[:]
    y_functions(mb_series, z, 3, IntegratorConfig(max_steps=steps), nb=1)
    assert len(calls) == need


def test_domain_error_at_a_chebyshev_point(monkeypatch):
    # x1 = 1 - t and x2' = sqrt(x1 - 0.37): the second pass reads x1 final,
    # and its array call leaves the domain past t = 0.63, so the
    # integration falls back to DOP853, which raises where its own step
    # leaves the domain, at t = 0.630015
    series = VectorFieldSeries.from_strings(
        ("x1", "x2"), [["-1", "sqrt(x1 - 0.37)"], ["0", "0"]], 1.0)
    calls = _count_rhs_calls(monkeypatch)
    taken = _route(monkeypatch)
    with pytest.raises(IntegrationError, match="left its domain") as info:
        integrate_unperturbed(series, [1.0, 0.0])
    assert taken == [("dop853", None)]
    x = flow._cheb_matrices(32)[0]
    points = (0.5 * (x + 1.0)).tolist()
    t_fail = info.value.t_fail
    assert t_fail == calls[-1] and t_fail not in points
    assert 0.63 < t_fail < 0.63002
    # the first pass on the start state, then DOP853's calls from t = 0
    assert calls[:33] == points and calls[33] == 0.0
    assert isinstance(info.value.__cause__, ValueError)
    # time-only code that leaves its domain: the clock leaves N = 32 without
    # a table at t = pi, the midpoint of [0, 2 pi], so no pass evaluates a
    # point and DOP853, which never meets t = pi, fails short of the pole
    series = VectorFieldSeries.from_strings(("x1",), [["1/(t - pi)"], ["0"]], TWO_PI)
    del calls[:], taken[:]
    with pytest.raises(IntegrationError, match="integrator failed") as info:
        integrate_unperturbed(series, [0.0])
    assert taken == [("dop853", None), ("chebyshev", None)]
    assert calls[0] == 0.0 and max(calls) < math.pi
    assert 0.0 < math.pi - info.value.t_fail < 1e-9


def test_domain_error_in_an_earlier_pass_falls_back_to_dop853(monkeypatch):
    # x1 = t, x2' = sqrt(x1 - t + 0.01) = 0.1: at x1's start value 0 the
    # root leaves its domain past t = 0.01, but the first pass evaluates
    # x1's slope alone and the second reads x1 final, so the solution,
    # which never leaves it, stays on Chebyshev quadrature
    series = VectorFieldSeries.from_strings(
        ("x1", "x2"), [["1", "sqrt(x1 - t + 0.01)"], ["0", "0"]], 1.0)
    taken = _route(monkeypatch)
    xT = integrate_unperturbed(series, [0.0, 0.0]).xT
    assert taken == [("chebyshev", 2)]
    assert xT == pytest.approx([1.0, 0.1], rel=1e-10)
    # the first pass's own code leaving its domain still falls back: x1' =
    # sin(t - x3) / (t - x3) with x3 held at 1/2, the midpoint of [0, 1], is
    # 0 / 0 at that point, which DOP853 never meets.  x2' = x1, so x1(1) =
    # 2 Si(1/2) and x2(1) = Si(1/2)
    series = VectorFieldSeries.from_strings(*_AT_THE_MIDPOINT)
    del taken[:]
    xT = integrate_unperturbed(series, [0.0, 0.0, 0.5]).xT
    assert taken == [("dop853", None), ("chebyshev", None)]
    assert xT == pytest.approx([2 * sici(0.5)[0], sici(0.5)[0], 0.5], rel=1e-10)


def test_domain_error_in_earlier_time_only_code_falls_back_to_dop853(monkeypatch):
    # x1 = t, x2' = x1 + sin(t - 1/2) / (t - 1/2): the time-only quotient is
    # 0 / 0 at t = 1/2, the midpoint of [0, 1], so the first of two passes
    # has no clock table, evaluates point by point and leaves the domain
    # there; DOP853 never meets t = 1/2 exactly
    series = VectorFieldSeries.from_strings(
        ("x1", "x2"), [["1", "x1 + sin(t - 0.5)/(t - 0.5)"], ["0", "0"]], 1.0)
    taken = _route(monkeypatch)
    xT = integrate_unperturbed(series, [0.0, 0.0]).xT
    assert taken == [("dop853", None), ("chebyshev", None)]
    assert xT == pytest.approx([1.0, 0.5 + 2 * sici(0.5)[0]], rel=1e-10)


def test_unresolved_integrand_falls_back_to_dop853(monkeypatch):
    # a peak 0.01 wide at t = 0.5: past 257 points the tail is still above
    # the tolerance, and the integration is DOP853's, bit for bit, with the
    # passes' evaluations counted
    series = VectorFieldSeries.from_strings(("x1",), [["1/(1e-4 + (t - 0.5)^2)"], ["0"]], 1.0)
    taken = _route(monkeypatch)
    sols = []
    monkeypatch.setattr(flow, "solve_ivp", _recording(sols, flow.solve_ivp))
    mine = integrate_unperturbed(series, [0.0])
    assert taken == [("dop853", None), ("chebyshev", None)]
    with monkeypatch.context() as patch:
        _on_dop853(patch)
        theirs = integrate_unperturbed(series, [0.0])
    assert _hex(mine.end) == _hex(theirs.end)
    # each N evaluates the pass at all of its points
    assert sols[0].nfev == sols[1].nfev + 33 + 65 + 129 + 257
    exact = (math.atan(50.0) - math.atan(-50.0)) / 0.01
    assert mine.xT[0] == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("N", [16, 32, 64, 128])
def test_chebyshev_points_of_n_are_those_of_2n_at_even_j(N):
    # bit for bit: solver._fit_1d keeps its values at the points of N when
    # it doubles to 2N and evaluates only the odd ones
    assert _hex(flow._cheb_matrices(2 * N)[0][::2]) == _hex(flow._cheb_matrices(N)[0])


def test_non_finite_slope_is_a_blow_up():
    # 1e300 t t 1e300 overflows to inf past t = 0 without raising: a
    # blow-up at the first point whose slope or state is not finite
    series = VectorFieldSeries.from_strings(("x1",), [["1e300*t*t*1e300"], ["0"]], 1.0)
    with pytest.raises(IntegrationError, match="blow-up") as info:
        integrate_unperturbed(series, [0.0])
    x = flow._cheb_matrices(32)[0]
    assert info.value.t_fail == 0.5 * (x[1] + 1.0)


def test_chebyshev_invariants_are_typed_errors():
    from conftest import assert_value_error_survives_optimize
    assert_value_error_survives_optimize(
        "from avgcycle.flow import IntegratorConfig\n"
        "IntegratorConfig(max_steps=2.5)")
    # one level per moving slot
    assert_value_error_survives_optimize(
        "import numpy as np\n"
        "from avgcycle import flow\n"
        "flow._chebyshev(lambda t, x: [1.0, 1.0], 0.0, [0.0, 0.0], 1.0, 1e-10, 1e-10,\n"
        "                reads=(), levels=(0,), arrays=(lambda t, x: np.ones((len(t), 2)),))")
    # a clock table as wide as the values its clock returns
    assert_value_error_survives_optimize(
        "import numpy as np\n"
        "from avgcycle import flow\n"
        "def clock(t):\n"
        "    return [1.0, 2.0]\n"
        "clock.width, clock.tables = 1, {}\n"
        "flow._chebyshev(lambda t, x: [1.0], 0.0, [0.0], 1.0, 1e-10, 1e-10,\n"
        "                reads=(), levels=(0,), arrays=(lambda t, x: np.ones((len(t), 1)),),\n"
        "                clock=clock)")


def _accepted_points(text, u0, period):
    """The integration of u' = ``text`` (in x1) from u0 over [0, period],
    and rtol s + atol, the bound its accepted points meet."""
    series = VectorFieldSeries.from_strings(("x1",), [[text], ["0"]], period)
    plan = flow._Plan(series, 0.0, False, None)
    config = IntegratorConfig()
    sol = flow._run_solver(plan.fn, np.array([u0]), (0.0, period), config)
    return sol, config.rtol * np.max(np.abs(sol.y[0])) + config.atol


def test_self_loop_invariants_are_typed_errors():
    from conftest import assert_value_error_survives_optimize
    # one loop entry per moving slot, and a coefficient after the slopes
    # for a loop, in the array form's columns
    assert_value_error_survives_optimize(
        "import numpy as np\n"
        "from avgcycle import flow\n"
        "flow._chebyshev(lambda t, x: [1.0], 0.0, [0.0], 1.0, 1e-10, 1e-10,\n"
        "                reads=(), levels=(0,), arrays=(lambda t, x: np.ones((len(t), 1)),),\n"
        "                loops=(0, 0))")
    with pytest.raises(ValueError, match="returns 1 values a call, not 2: 1 slopes "
                                         "and 1 self-loop coefficients"):
        flow._chebyshev(lambda t, x: [1.0], 0.0, [0.0], 1.0, 1e-10, 1e-10,
                        reads=(), levels=(0,), arrays=(lambda t, x: np.ones((len(t), 1)),),
                        loops=(0,))


@pytest.mark.parametrize("stepper", ["_dop853", "_chebyshev"])
@pytest.mark.parametrize("returned", [[], [1.0, 2.0]], ids=["none", "two"])
def test_a_miscounted_right_hand_side_is_a_value_error(stepper, returned):
    # one slope for one slot: the count is checked on the first call, not
    # taken for a domain error (too many values to unpack) or reshaped; a
    # Chebyshev pass counts the columns of its level's array form
    from conftest import assert_value_error_survives_optimize
    arrays = (f", levels=(0,),\n    arrays=(lambda t, x: np.array([{returned!r}] * len(t))"
              f".reshape(len(t), {len(returned)}),)")
    call = (f"flow.{stepper}(lambda t, x: {returned!r}, 0.0, [0.0], 1.0, 1e-10, 1e-10,\n"
            f"    reads=(){arrays if stepper == '_chebyshev' else ''})")
    with pytest.raises(ValueError, match=f"returns {len(returned)} values a call, not 1: "
                                         "1 slopes and 0 self-loop coefficients"):
        exec(call, {"flow": flow, "np": np})
    assert_value_error_survives_optimize("import numpy as np\nfrom avgcycle import flow\n"
                                         + call)


def test_self_loop_coefficient_that_reads_the_state(monkeypatch):
    # r' = 1 and w' = cos(r) w: w's coefficient cos(r) reads r, so it comes
    # from the right-hand side at each point, with the slopes, in one call;
    # the end state and the three DOP853 segments of sample_orbit, which
    # drop the coefficient, keep their bits
    series = VectorFieldSeries.from_strings(("r", "w"), [["1", "cos(r)*w"],
                                                         ["0", "sin(t)*r"]], TWO_PI)
    fn = flow._Plan(series, 0.0, False, None).fn
    assert fn.loops == (None, 1) and fn.levels == (0, 1) and fn.inputs[2:] == ((0,),)
    tight = IntegratorConfig(1e-12, 1e-12)
    calls = _count_rhs_calls(monkeypatch)
    taken = _route(monkeypatch)
    sols = []
    monkeypatch.setattr(flow, "solve_ivp", _recording(sols, flow.solve_ivp))
    xT = integrate_unperturbed(series, [0.3, 1.0], tight).xT
    assert _hex(xT) == ["0x1.a552e8777604bp+2", "0x1.ffffffffffffep-1"]
    assert sols[0].nfev == len(calls) == 131 and taken == [("chebyshev", 2)]
    samples = sample_orbit(series, [0.3, 1.0], 0.0, [1.0, 2.0, 3.0], tight)
    assert taken[1:] == [("dop853", None)] * 3
    assert _hex(samples) == [
        "0x1.4cccccccccccfp+0", "0x1.f34ddc950bc0ep+0", "0x1.2666666666669p+1",
        "0x1.918fec97315aep+0", "0x1.a666666666669p+1", "0x1.4566b1aac82c3p-1"]


@pytest.mark.parametrize("omega", [20.0, 45.0, 90.0, 180.0])
def test_accepted_points_meet_the_tolerance(omega):
    # every state the passes accept, not only the end, is within rtol s +
    # atol of the solution: the next level reads them all.  sin(omega (t -
    # 1/2)) is odd about the midpoint, so its even Chebyshev coefficients
    # vanish, the last ones included, and only a tail of several of them
    # tells it resolved
    sol, bound = _accepted_points(f"sin({omega}*(t - 0.5))", 0.0, 1.0)
    assert sol.passes == 1
    exact = (math.cos(omega / 2) - np.cos(omega * (sol.t - 0.5))) / omega
    assert np.max(np.abs(sol.y[0] - exact)) <= bound


SELF_LOOPS = {
    # u' = u + sin t: (u0 + 1/2) e^t - (sin t + cos t) / 2; measured 4e-13
    "x1 + sin(t)": (1, lambda t, u0: (u0 + 0.5) * np.exp(t) - (np.sin(t) + np.cos(t)) / 2),
    # u' = cos(t) u: u0 e^{sin t}; measured 3e-16
    "cos(t)*x1": (1, lambda t, u0: u0 * np.exp(np.sin(t))),
    # u' = -k u + sin t: (u0 + 1 / (k^2 + 1)) e^{-k t} + (k sin t - cos t) /
    # (k^2 + 1).  1 / E = e^{k t} spans eight decades at k = 3, where the
    # roundoff of its integral left the integrating factor's solution 3e-10
    # off, past the bound, at every N; at k = 120 E underflows and 1 / E
    # overflows, though u decays.  DOP853 takes both
    **{f"-{k}*x1 + sin(t)": (None, lambda t, u0, k=k: (
        (u0 + 1 / (k * k + 1)) * np.exp(-k * t) + (k * np.sin(t) - np.cos(t)) / (k * k + 1)))
       for k in (3, 120)},
}


@pytest.mark.parametrize("text", SELF_LOOPS)
def test_accepted_self_loop_points_meet_the_tolerance(text):
    # affine self-loops over a period, by their integrating factors
    passes, exact = SELF_LOOPS[text]
    sol, bound = _accepted_points(text, 0.3, TWO_PI)
    assert getattr(sol, "passes", None) == passes
    assert np.max(np.abs(sol.y[0] - exact(sol.t, 0.3))) <= bound


@pytest.mark.parametrize("texts, exact", [
    # a self-loop not affine, the logistic F_0: y = 1 / ((1 + 1/y0) e^t - 1)
    (["0", "-x2 - x2^2"], lambda t: [0.3, 1 / ((1 + 1 / 0.2) * math.exp(t) - 1)]),
    # a cycle of two slots
    (["x2", "-x1"], lambda t: [0.3 * math.cos(t) + 0.2 * math.sin(t),
                               0.2 * math.cos(t) - 0.3 * math.sin(t)])])
def test_cycles_keep_dop853(texts, exact, monkeypatch):
    series = VectorFieldSeries.from_strings(("x1", "x2"), [texts, ["0", "0"]], TWO_PI)
    taken = _route(monkeypatch)
    assert integrate_unperturbed(series, [0.3, 0.2]).xT == pytest.approx(exact(TWO_PI),
                                                                        rel=1e-8)
    fundamental_matrix(series, [0.3, 0.2])
    assert taken == [("dop853", None)] * 2


@pytest.mark.parametrize("k", [3, 120])
def test_decaying_self_loop_leaves_after_one_pass(k, monkeypatch):
    # u' = -k u + sin t over 2 pi: 1 / E spans more decades than rtol
    # leaves room for, so the first pass sends the cut to DOP853 without
    # doubling N: it costs 33 evaluations more than DOP853 alone
    calls = _count_rhs_calls(monkeypatch)
    _accepted_points(f"-{k}*x1 + sin(t)", 0.3, TWO_PI)
    both = len(calls)
    _on_dop853(monkeypatch)
    calls.clear()
    _accepted_points(f"-{k}*x1 + sin(t)", 0.3, TWO_PI)
    assert both == 33 + len(calls)


def test_integrating_factor_overflow_falls_back_to_dop853(monkeypatch):
    # u' = 1000 u from 1: exp(1000 t) overflows past t = 0.7098, so the
    # first pass sends the cut to DOP853, whose steps shrink to nothing
    # just before, as the solution blows up
    series = VectorFieldSeries.from_strings(("x1",), [["1000*x1"], ["0"]], 1.0)
    taken = _route(monkeypatch)
    with pytest.raises(IntegrationError, match="integrator failed") as info:
        integrate_unperturbed(series, [1.0])
    assert taken == [("dop853", None), ("chebyshev", None)]
    limit = math.log(np.finfo(float).max) / 1000
    assert 0.69 < info.value.t_fail < limit


def test_integrating_factor_overflow_in_an_earlier_pass_falls_back_to_dop853(monkeypatch):
    # x1 = t and x2' = 2000 (t - x1) x2, so x2 stays put: at x1's start
    # value 0, exp(1000 t^2) overflows, but x2's pass reads x1 final, where
    # its integrating factor is 1, so the cut stays on Chebyshev quadrature
    series = VectorFieldSeries.from_strings(
        ("x1", "x2"), [["1", "2000*(t - x1)*x2"], ["0", "0"]], 1.0)
    taken = _route(monkeypatch)
    xT = integrate_unperturbed(series, [0.0, 0.7]).xT
    assert taken == [("chebyshev", 2)]
    assert xT == pytest.approx([1.0, 0.7], rel=1e-10)
    # the first pass's own integrating factor overflowing still falls back:
    # x1' = -1000 x1 + sin t, whose 1 / E = exp(1000 t) overflows past t =
    # 0.71, and x2' = x1, so x2(1) = (x1(0) + 1 / (k^2 + 1)) (1 - e^-k) / k
    # + (k (1 - cos 1) - sin 1) / (k^2 + 1), k = 1000
    series = VectorFieldSeries.from_strings(
        ("x1", "x2"), [["-1000*x1 + sin(t)", "x1"], ["0", "0"]], 1.0)
    del taken[:]
    xT = integrate_unperturbed(series, [0.3, 0.0]).xT
    assert taken == [("dop853", None), ("chebyshev", None)]
    k, s = 1000.0, 1.0 / (1000.0 ** 2 + 1)
    x2 = (0.3 + s) * (1 - math.exp(-k)) / k + s * (k * (1 - math.cos(1.0)) - math.sin(1.0))
    assert xT[1] == pytest.approx(x2, rel=1e-8)


def test_doubled_points_carry_the_accepted_levels(monkeypatch):
    # x1 = 0.5 + sin t is accepted on 33 points, x2' = x1 sin(20 t) is not:
    # at 65 points x1 is its accepted series, and only x2's pass runs again
    series = VectorFieldSeries.from_strings(
        ("x1", "x2"), [["cos(t)", "x1*sin(20*t)"], ["0", "0"]], 1.0)
    calls = _count_rhs_calls(monkeypatch)
    taken = _route(monkeypatch)
    traj = integrate_unperturbed(series, [0.5, 0.0])
    assert taken == [("chebyshev", 2)]
    assert len(calls) == 33 + 33 + 65
    # x2 = integral of (0.5 + sin s) sin(20 s) from 0 to 1
    exact = (0.5 * (1 - math.cos(20)) / 20
             + 0.5 * (math.sin(19) / 19 - math.sin(21) / 21))
    assert traj.xT == pytest.approx([0.5 + math.sin(1.0), exact], rel=1e-10)


def _solo_and_stacked(fn, starts, config, weights=(), period=TWO_PI):
    """Each start state's solo integration, and the list the stack of them
    gives, through ``_run_solver``."""
    solo = [flow._run_solver(fn, u0, (0.0, period), config, weights) for u0 in starts]
    return solo, flow._run_solver(fn, np.array(starts), (0.0, period), config, weights)


def _assert_members_are_solo(solo, stacked):
    assert len(stacked) == len(solo)
    for one, member in zip(solo, stacked):
        assert _hex(member.y[:, -1]) == _hex(one.y[:, -1])
        assert (member.nfev, len(member.t)) == (one.nfev, len(one.t))
        assert getattr(member, "passes", None) == getattr(one, "passes", None)


def test_a_stack_integrates_each_member_as_its_solo_integration(cyl3d_series, cyl3d_chart,
                                                                monkeypatch):
    # the cyl3d nb = 1 reduction jet at r = 1 (accepted at N = 64) and r = 2
    # (at N = 128) in one stack, and the k = 0 cut, whose self-loop w' = w
    # has the time-only coefficient 1: one _chebyshev call each, every
    # member's end state and nfev its solo integration's, bit for bit
    config = IntegratorConfig(rtol=1e-12, atol=1e-12)
    n = cyl3d_series.dim
    jet = flow._Plan(cyl3d_series, 0.0, True, [recurrence_terms(1), recurrence_terms(2)], 1,
                     [2] * (n + n * n) + [1] * n + [0] * n)
    plain = flow._Plan(cyl3d_series, 0.0, True, [])
    assert plain.fn.loops is not None and not any(plain.fn.inputs[len(plain.fn.loops):])
    alphas = [1.0, 2.0, 1.0, 0.5]
    for plan, sizes in ((jet, {65, 129}), (plain, {33})):
        starts = [plan.start(cyl3d_chart.embed(np.array([a]))) for a in alphas]
        solo, _ = _solo_and_stacked(plan.fn, starts, config, plan.weights)
        taken = _route(monkeypatch)
        stacked = flow._run_solver(plan.fn, np.array(starts), (0.0, TWO_PI), config,
                                   plan.weights)
        assert taken == [("chebyshev", None)]
        monkeypatch.undo()
        assert {len(sol.t) for sol in solo} == sizes
        _assert_members_are_solo(solo, stacked)


# x1' = 1 and x3' = -1 from (x1, x3)(0), x2' = sqrt(x1 - t + 0.01) + sqrt(x3 + 0.5),
# and x5' = sin(t - x4) / (t - x4), x4 held: the first pass evaluates x1, x3 and
# x5 alone, and meets 0 / 0 at x4 = 1/2, the midpoint of [0, 1]
_TWO_ROOTS = (("x1", "x2", "x3", "x4", "x5"),
              [["1", "sqrt(x1 - t + 0.01) + sqrt(x3 + 0.5)", "-1", "0", "sin(t - x4)/(t - x4)"],
               ["0"] * 5], 1.0)

# x1' = sin(t - x3) / (t - x3), x3 held, and x2' = x1
_AT_THE_MIDPOINT = (("x1", "x2", "x3"), [["sin(t - x3)/(t - x3)", "x1", "0"],
                                         ["0", "0", "0"]], 1.0)


def test_stack_members_leave_the_domain_as_their_solo_integrations(monkeypatch):
    # (1, 0, 1, 1/2, 0) leaves the domain in the first pass only (0 / 0 at
    # the midpoint), so it falls back to DOP853 alone; (1, 0, 0, 2, 0)
    # leaves it in the last pass, past t = 1/2, falls back too, and raises
    # where DOP853 leaves it, as its solo integration does, before the
    # members after it: (1, 0, -0.2, 2, 0) fails earlier in t, past 0.3,
    # and neither it nor the second early member steps DOP853
    series = VectorFieldSeries.from_strings(*_TWO_ROOTS)
    plan = flow._Plan(series, 0.0, False, None)
    config = IntegratorConfig()
    fine, early, late = [1.0, 0.0, 1.0, 2.0, 0.0], [1.0, 0.0, 1.0, 0.5, 0.0], [
        1.0, 0.0, 0.0, 2.0, 0.0]
    sooner = [1.0, 0.0, -0.2, 2.0, 0.0]
    solo, stacked = _solo_and_stacked(plan.fn, [fine, early, fine], config, period=1.0)
    _assert_members_are_solo(solo, stacked)
    assert [getattr(sol, "passes", None) for sol in stacked] == [2, None, 2]
    with pytest.raises(IntegrationError, match="left its domain") as alone:
        flow._run_solver(plan.fn, late, (0.0, 1.0), config)
    taken = _route(monkeypatch)
    with pytest.raises(IntegrationError, match="left its domain") as info:
        flow._run_solver(plan.fn, np.array([fine, early, late, sooner, early]), (0.0, 1.0),
                         config)
    assert str(info.value) == str(alone.value)
    assert info.value.t_fail == alone.value.t_fail > 0.5
    assert isinstance(info.value.__cause__, ValueError)
    # the early member's fallback, then the late member's
    assert taken == [("dop853", None)] * 2


def test_stack_of_a_cut_with_a_cycle_steps_each_member_by_dop853(monkeypatch):
    # the logistic F_0 has no dependency depth: each member steps DOP853
    series = logistic_series()
    plan = flow._Plan(series, 0.0, False, None)
    assert plan.fn.depth is None
    starts = [[1.1, 0.2], [0.3, -0.1], [1.1, 0.2]]
    solo, _ = _solo_and_stacked(plan.fn, starts, IntegratorConfig())
    taken = _route(monkeypatch)
    stacked = flow._run_solver(plan.fn, np.array(starts), (0.0, TWO_PI), IntegratorConfig())
    assert taken == [("dop853", None)] * 3
    _assert_members_are_solo(solo, stacked)
    assert [_hex(sol.y) for sol in stacked] == [_hex(sol.y) for sol in solo]


def test_integrate_and_averaged_functions_take_a_stack(cyl3d_series, mb_series):
    # a stack of points gives each point's own trajectory and series
    for series, k, nb in ((cyl3d_series, 2, 1), (mb_series, 3, 1), (mb_series, 1, 0)):
        points = np.array([[1.0, 0.2], [2.5, -0.4], [1.0, 0.2]])
        stacked = averaged_functions(series, points, k, nb=nb)
        for z, avg in zip(points, stacked):
            one = averaged_functions(series, z, k, nb=nb)
            assert _hex(avg.source.traj.end) == _hex(one.source.traj.end)
            assert [_hex(g) for g in avg.g_jet] == [_hex(g) for g in one.g_jet]
            assert _hex(avg.Dg0) == _hex(one.Dg0)
            assert avg.tolerance_bound == one.tolerance_bound


def _sized(arrays, sizes):
    """The array forms ``arrays``, each recording in ``sizes`` the rows of
    every call."""
    return tuple((lambda t, x, array=array: sizes.append(t.size) or array(t, x))
                 for array in arrays)


def _unread_values(source):
    """The assignments of the generated straight-line ``source`` whose value
    no later line and no return reads."""
    pending, unread = {}, []
    for statement in ast.parse(source).body[0].body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                pending.pop(node.id, None)
        for target in getattr(statement, "targets", ()):
            if target.id in pending:
                unread.append(pending[target.id])
            pending[target.id] = ast.unparse(statement)
    return unread + list(pending.values())


def _chebyshev_cuts(series):
    """(k, nb, plan) for every cut of ``series`` that Chebyshev quadrature
    integrates: eps = 0, nb in {0, 1, n}, every k."""
    n = series.dim
    for k in range(series.order + 1):
        for nb in (0, 1, n):
            degrees = [k] * (n + n * n) + [k - i for i in range(1, k + 1) for _ in range(n)]
            yield k, nb, flow._Plan(series, 0.0, True,
                                    [recurrence_terms(i) for i in range(1, k + 1)], nb, degrees)


@pytest.mark.parametrize("fixture_name", ["cyl3d", "maxwell_bloch"])
def test_array_form_equals_the_scalar_function(fixture_name, monkeypatch):
    # every cut the fixture integrates by Chebyshev quadrature (eps = 0, nb in
    # {0, 1, n}, every k), at random states and times: each row of each
    # level's array form, which takes the clock's columns after the reads,
    # is the scalar code's on the reads alone at that level's slopes and
    # coefficients, bit for bit: the lines ``compile_jet`` assembles, all
    # its refs returned, and its function's slopes.  No form but the last
    # computes a value it does not read itself, so no level runs a line
    # that only a level above it reads
    assembled, real = {}, expr._assemble

    def assemble(emitter, refs, *args):
        fn = real(emitter, refs, *args)
        assembled[fn] = real(emitter, list(refs))
        return fn

    monkeypatch.setattr(expr, "_assemble", assemble)
    # a fresh series, so that every cut compiles here
    series = load_fixture(fixture_name).series()
    rng = np.random.default_rng(7)
    for k, nb, plan in _chebyshev_cuts(series):
        fn = plan.fn
        assert fn.depth is not None and len(fn.arrays) == fn.depth + 1
        t = rng.uniform(0.0, series.period, 40)
        x = rng.uniform(0.3, 3.0, (len(fn.reads), t.size))
        clock = np.array([fn.clock(s) for s in t.tolist()]).reshape(t.size, -1).T
        columns = np.concatenate((x, clock))
        whole = [assembled[fn](s, row) for s, row in zip(t.tolist(), x.T.tolist())]
        assert [fn(s, row) for s, row in zip(t.tolist(), x.T.tolist())] == [
            row[:len(fn.loops)] for row in whole]
        for array, take in zip(fn.arrays, expr.level_returns(fn.levels, fn.loops)):
            out = array(t, columns)
            assert out.shape == (t.size, len(take))
            assert [_hex(row) for row in out.tolist()] == [
                _hex([row[i] for i in take]) for row in whole], (k, nb)
        for array in fn.arrays[:-1]:
            assert _unread_values(array.source) == [], (k, nb)


def test_a_pass_of_a_stack_is_one_array_call(cyl3d_series, cyl3d_chart):
    # the k = 0 cyl3d cut at three points, accepted in one pass at N = 32:
    # one array call of 3 x 33 rows, no scalar call, and 33 evaluations each
    plan = flow._Plan(cyl3d_series, 0.0, True, [])
    starts = np.array([plan.start(cyl3d_chart.embed(np.array([a]))) for a in (0.5, 1.0, 2.0)])
    scalar, arrays = [], []
    rhs = functools.wraps(plan.fn)(lambda t, u: scalar.append(t) or plan.fn(t, u))
    rhs.arrays = _sized(plan.fn.arrays, arrays)
    sols = flow._run_solver(rhs, starts, (0.0, TWO_PI), IntegratorConfig(), plan.weights)
    assert arrays == [3 * 33] and scalar == []
    assert [(sol.nfev, sol.passes) for sol in sols] == [(33, 1)] * 3


# x1 is held, x2' = x1 / (x1 + t - pi): 0 / 0 at t = pi, the midpoint of
# [0, 2 pi], from x1 = 0 alone
_ZERO_OVER_ZERO = (("x1", "x2"), [["0", "x1/(x1 + t - pi)"], ["0", "0"]], TWO_PI)


def test_a_stack_member_at_zero_over_zero_fails_as_alone():
    # the array call raises, each member makes its own, and the member whose
    # own call raises falls back to DOP853, which never meets t = pi and
    # finishes with x2 = 0, as alone; first or last in the stack, every
    # member gets its solo result
    plan = flow._Plan(VectorFieldSeries.from_strings(*_ZERO_OVER_ZERO), 0.0, False, None)
    config = IntegratorConfig()
    fine, zero = [[10.0, 0.0], [5.0, 1.0]], [0.0, 0.0]
    for stack, passes in (([*fine, zero], [1, 1, None]), ([zero, *fine], [None, 1, 1])):
        solo, stacked = _solo_and_stacked(plan.fn, stack, config)
        _assert_members_are_solo(solo, stacked)
        assert [getattr(sol, "passes", None) for sol in stacked] == passes
        assert stacked[passes.index(None)].y[1, -1] == 0.0


# x1' = x2 cos(x3 t), x2 and x3 held, over [0, 4]: (0, 1, 1/2) is accepted
# at N = 32, (0, 1, 8) doubles N to 64, and (0, 1e308, 0) integrates past
# the largest float, an overflow in the passes' own array operations, where
# numpy does not raise
_ENDS_APART = (("x1", "x2", "x3"), [["x2*cos(x3*t)", "0", "0"], ["0", "0", "0"]], 4.0)


def test_stack_members_that_end_apart_are_their_solo_integrations(monkeypatch):
    # each member that finishes is its solo integration bit for bit, beside
    # the overflowing member too (its result recorded as the stepper builds
    # it), and the stack raises that member's solo blow-up, whether it sits
    # first, in the middle or last: the whole-stack finiteness check breaks
    # out to the failing member alone
    plan = flow._Plan(VectorFieldSeries.from_strings(*_ENDS_APART), 0.0, False, None)
    config = IntegratorConfig()
    fine, doubling, overflow = [0.0, 1.0, 0.5], [0.0, 1.0, 8.0], [0.0, 1e308, 0.0]
    solo, stacked = _solo_and_stacked(plan.fn, [fine, doubling], config, period=4.0)
    _assert_members_are_solo(solo, stacked)
    assert [len(sol.t) for sol in solo] == [33, 65]
    with pytest.raises(IntegrationError, match="blow-up") as alone:
        flow._run_solver(plan.fn, overflow, (0.0, 4.0), config)
    assert alone.value.t_fail == 2.0 * (flow._cheb_matrices(32)[0][1] + 1.0)
    real, finished = flow.SimpleNamespace, []

    def recording(**fields):
        out = real(**fields)
        if "passes" in fields:
            finished.append(out)
        return out

    for stack in ([overflow, fine, doubling], [fine, overflow, doubling],
                  [fine, doubling, overflow]):
        del finished[:]
        monkeypatch.setattr(flow, "SimpleNamespace", recording)
        with pytest.raises(IntegrationError, match="blow-up") as info:
            flow._run_solver(plan.fn, np.array(stack), (0.0, 4.0), config)
        monkeypatch.undo()
        assert (str(info.value), info.value.t_fail) == (str(alone.value), alone.value.t_fail)
        _assert_members_are_solo(solo, finished)
        assert [_hex(sol.y) for sol in finished] == [_hex(sol.y) for sol in solo]


def test_an_early_pass_domain_error_in_a_stack_sends_one_member_to_dop853(monkeypatch):
    # a _TWO_ROOTS stack: (0, 0, 1, 2, 0) would leave the domain at x1's
    # start value, but no pass reads a level above its own, so it stays on
    # Chebyshev quadrature; (1, 0, 1, 1/2, 0) meets 0 / 0 in the first
    # pass's array call, so each member makes its own, and that member
    # falls back to DOP853; the second is one array call on the three
    # members left
    series = VectorFieldSeries.from_strings(*_TWO_ROOTS)
    plan = flow._Plan(series, 0.0, False, None)
    starts = [[1.0, 0.0, 1.0, 2.0, 0.0], [0.0, 0.0, 1.0, 2.0, 0.0],
              [1.0, 0.0, 1.0, 0.5, 0.0], [2.0, 0.0, 2.0, 2.0, 0.0]]
    solo, _ = _solo_and_stacked(plan.fn, starts, IntegratorConfig(), period=1.0)
    arrays = []
    rhs = functools.wraps(plan.fn)(lambda t, u: plan.fn(t, u))
    rhs.arrays = _sized(plan.fn.arrays, arrays)
    taken = _route(monkeypatch)
    stacked = flow._run_solver(rhs, np.array(starts), (0.0, 1.0), IntegratorConfig())
    assert arrays == [4 * 33] + [33] * 4 + [3 * 33]
    assert taken == [("dop853", None), ("chebyshev", None)]
    _assert_members_are_solo(solo, stacked)
    assert [getattr(sol, "passes", None) for sol in stacked] == [2, 2, None, 2]


def test_a_bare_right_hand_side_keeps_each_level_on_its_array_form(monkeypatch):
    # a wrapper that hands the stepper a bare closure over the right-hand
    # side, as a tracing wrapper does, carries none of its attributes; the
    # passes still evaluate each level through the stepper's own array
    # forms, so (0, 0, 1, 2, 0), whose level-1 root would leave the domain at
    # x1's start value, stays on Chebyshev quadrature, and every member of
    # the _TWO_ROOTS stack is its unwrapped solo integration bit for bit
    plan = flow._Plan(VectorFieldSeries.from_strings(*_TWO_ROOTS), 0.0, False, None)
    starts = [[1.0, 0.0, 1.0, 2.0, 0.0], [0.0, 0.0, 1.0, 2.0, 0.0], [2.0, 0.0, 2.0, 2.0, 0.0]]
    solo = [flow._run_solver(plan.fn, u0, (0.0, 1.0), IntegratorConfig()) for u0 in starts]
    real = flow.solve_ivp
    monkeypatch.setattr(flow, "solve_ivp", lambda fun, *args, **kwargs: real(
        lambda t, x: fun(t, x), *args, **kwargs))
    stacked = flow._run_solver(plan.fn, np.array(starts), (0.0, 1.0), IntegratorConfig())
    assert [getattr(sol, "passes", None) for sol in stacked] == [2, 2, 2]
    _assert_members_are_solo(solo, stacked)


def test_an_overflowing_product_is_the_same_blow_up_on_both_paths():
    # x1 = t + x1(0) and x2' = 1e300 x1 x1 1e300: the product overflows to
    # inf wherever x1 is not tiny, where numpy raises and Python floats do
    # not; the array call raises, and DOP853 meets the inf slopes.  From
    # x1(0) = 0 its steps shrink to nothing; from x1(0) = -1 its first slope
    # is already inf, a blow-up at t = 0.  Alone or first in a stack, each
    # fails the same way
    series = VectorFieldSeries.from_strings(
        ("x1", "x2"), [["1", "1e300*x1*x1*1e300"], ["0", "0"]], 1.0)
    fn = flow._Plan(series, 0.0, False, None).fn

    def failure(y0):
        with pytest.raises(IntegrationError) as info:
            flow._run_solver(fn, np.array(y0), (0.0, 1.0), IntegratorConfig())
        return str(info.value), info.value.t_fail

    zero, steep = [0.0, 0.0], [-1.0, 0.0]
    message, t_fail = failure(zero)
    assert message.startswith("integrator failed") and 0.0 < t_fail < 1e-200
    assert failure(steep) == ("non-finite state (blow-up)", 0.0)
    for stack in ([zero, steep], [steep, zero]):
        assert failure(stack) == failure(stack[0])


def test_a_miscounted_array_form_is_a_value_error():
    # a pass checks the count of its array form's columns, whatever the
    # scalar function returns
    from conftest import assert_value_error_survives_optimize
    call = ("import numpy as np\n"
            "from avgcycle import flow\n"
            "def fun(t, x):\n"
            "    return [1.0]\n"
            "flow._chebyshev(fun, 0.0, [0.0], 1.0, 1e-10, 1e-10, reads=(), levels=(0,),\n"
            "                arrays=[lambda t, x: np.ones((len(t), 2))])")
    with pytest.raises(ValueError, match="returns 2 values a call, not 1: 1 slopes and 0 "
                                         "self-loop coefficients"):
        exec(call, {})
    assert_value_error_survives_optimize(call)
