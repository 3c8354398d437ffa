import math

import numpy as np
import pytest

from avgcycle import flow, verify
from avgcycle.flow import IntegratorConfig, sample_orbit
from avgcycle.solver import expand_branch
from avgcycle.verify import (
    INCONCLUSIVE, STABLE, UNSTABLE, displacement, eig_coefficient_fit,
    jacobian_series, refine_periodic, stability_classify,
)
from avgcycle.problems import load_fixture
from oracles import floquet, variational_displacement

TWO_PI = 2 * math.pi
TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-12)


def radial_branch_root(eps):
    return (3 * eps + math.sqrt(9 * eps ** 2 + 16 * eps)) / 2


def test_displacement_zero_on_chart_at_zero_eps(cyl3d_series):
    h, _ = displacement(cyl3d_series, [1.3, 0.0], 0.0, TIGHT)
    assert np.linalg.norm(h) < 1e-10


def test_displacement_jacobian_matches_differences(mb_series):
    eps = 0.02
    z = np.array([2.0, 6.0])
    _, Dh = displacement(mb_series, z, eps, TIGHT)
    d = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = d
        hp, _ = displacement(mb_series, z + e, eps, TIGHT)
        hm, _ = displacement(mb_series, z - e, eps, TIGHT)
        col = (hp - hm) / (2 * d) + [0, 0]
        # d h / d z = (x(T, z+e) - (z+e) - x(T, z-e) + (z-e)) / 2d
        assert np.max(np.abs(Dh[:, j] - col)) < 1e-5


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.1])
def test_displacement_jacobian_matches_the_variational_oracle(cyl3d_series, eps):
    # Dh is read off the degree-1 jet of x; scipy's DOP853 on the written-out
    # Y' = A Y, A = sum_i eps^i dF_i/dx, agrees within 1e-9 of Dh's scale
    # (measured: 1e-12 relative and below)
    z = [1.1, 0.2]
    h, Dh = displacement(cyl3d_series, z, eps, TIGHT)
    h_ref, Dh_ref = variational_displacement(cyl3d_series, z, eps)
    # the tolerance bound scales with x and Y, as the variational block's did
    traj = flow.integrate_full(cyl3d_series, z, eps, TIGHT, variational=True)
    assert traj.tolerance_bound >= 10 * (1e-12 * np.max(np.abs(traj.end)) + 1e-12)
    assert np.max(np.abs(h - h_ref)) <= 1e-9 * (1 + np.max(np.abs(h_ref)))
    assert np.max(np.abs(Dh - Dh_ref)) <= 1e-9 * (1 + np.max(np.abs(Dh_ref)))


def test_refinement_compiles_one_displacement_plan():
    # work guard: every displacement of a refinement at eps != 0 is the one
    # degree-1 jet of x in all n offsets; no variational plan is compiled
    series = load_fixture("cyl3d").series()
    orbit = refine_periodic(series, [1.05 * radial_branch_root(0.05), 1e-3], 0.05)
    assert orbit.integrations > 1
    (live, variational, terms, _, nb, degrees), = series._rhs_fns
    assert (live, variational, terms, nb, degrees) == ((1, 2), False, (), 2, (1, 1))


def test_displacement_slopes_at_predicted_points(cyl3d_series, radial_gs,
                                                 cyl3d_chart):
    # at (a_eps, beta(a_eps)) the displacement is O(eps) because the chart
    # misses the orbit's normal offset; adding eps*gamma_1 restores the
    # expected O(eps^2) shrink rate
    from avgcycle.lyapschmidt import gamma_functions
    eps_grid = np.array([2e-2, 1e-2, 5e-3, 2.5e-3])
    plain, corrected = [], []
    for eps in eps_grid:
        a = radial_branch_root(eps)
        h_plain, _ = displacement(cyl3d_series, [a, 0.0], eps, TIGHT)
        g1 = gamma_functions(radial_gs, cyl3d_chart, a, 1)[0]
        h_corr, _ = displacement(cyl3d_series, [a, eps * g1[0]], eps, TIGHT)
        plain.append(np.linalg.norm(h_plain))
        corrected.append(np.linalg.norm(h_corr))
    slope_plain = np.polyfit(np.log(eps_grid), np.log(plain), 1)[0]
    slope_corr = np.polyfit(np.log(eps_grid), np.log(corrected), 1)[0]
    # the plain defect is eps * O(a_eps) = O(eps^1.5) on this branch (the
    # root itself shrinks like sqrt(eps)); the correction gains a full order
    assert 1.2 < slope_plain < 1.8
    assert slope_corr > 1.8
    assert slope_corr > slope_plain + 0.3


def test_refine_periodic_trivial_at_zero_eps(cyl3d_series):
    orbit = refine_periodic(cyl3d_series, [1.1, 0.0], 0.0)
    assert orbit.iterations == 0
    assert orbit.residual < 1e-10


def test_refined_radial_orbit_matches_root_law(cyl3d_series):
    # r(0, eps) tracks the order-2 branch root to O(eps)
    for eps in (1e-3, 1e-2):
        a = radial_branch_root(eps)
        orbit = refine_periodic(cyl3d_series, [a, 0.0], eps)
        assert orbit.residual < 1e-9
        assert abs(orbit.z[0] - a) < 2.0 * eps


def test_refined_orbit_truly_periodic(cyl3d_series):
    eps = 5e-3
    a = radial_branch_root(eps)
    orbit = refine_periodic(cyl3d_series, [a, 0.0], eps)
    one, two = sample_orbit(cyl3d_series, orbit.z, eps, (TWO_PI, 2 * TWO_PI), TIGHT)
    tol1 = 10 * max(orbit.residual, 1e-12)
    # the second period amplifies the first-return defect by the unstable
    # multiplier (~ e^{2 pi} here)
    amp = np.linalg.norm(orbit.monodromy, ord=2)
    assert np.linalg.norm(one - orbit.z) < tol1
    assert np.linalg.norm(two - orbit.z) < 10 * amp * tol1


def test_monodromy_eigenvalue_identity(cyl3d_series):
    eps = 5e-3
    a = radial_branch_root(eps)
    orbit = refine_periodic(cyl3d_series, [a, 0.0], eps)
    mono_eigs = np.sort_complex(np.linalg.eigvals(orbit.monodromy))
    dh_eigs = np.sort_complex(orbit.dh_eigenvalues + 1.0)
    assert np.max(np.abs(mono_eigs - dh_eigs)) < 1e-8


def test_mb_orbit_normal_component(mb_series, mb_params):
    # w(0, eps) -> -4 omega^2 (a2+b2)/c1 as eps -> 0
    B = mb_params["a2"] + mb_params["b2"]
    om, c1, a0 = mb_params["omega"], mb_params["c1"], mb_params["a0"]
    alpha0 = om * math.sqrt(2 * B / a0)
    beta0 = -4 * om ** 2 * B / c1
    errs = []
    eps_grid = np.array([4e-3, 2e-3, 1e-3])
    for eps in eps_grid:
        orbit = refine_periodic(mb_series, [alpha0, beta0], eps)
        assert orbit.residual < 1e-9
        errs.append(abs(orbit.z[1] - beta0))
    slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
    assert slope > 0.7   # O(eps) approach to the predicted normal component


def test_mb_stability_at_figure_parameters(mb_series):
    orbit = refine_periodic(mb_series, [math.sqrt(8), 8.0], 1 / 25)
    assert orbit.classification == STABLE
    eigs, verdict = floquet(orbit)
    assert verdict == STABLE
    assert np.all(np.abs(orbit.multipliers) < 1.0)


def test_mb_eigenvalue_coefficient_fits(mb_series, mb_params):
    # lambda- = -2 pi c1/omega eps + ..., lambda+ = 2 pi (a2+b2)/omega eps^2 + ...
    B = mb_params["a2"] + mb_params["b2"]
    om, c1, a0 = mb_params["omega"], mb_params["c1"], mb_params["a0"]
    alpha0 = om * math.sqrt(2 * B / a0)
    beta0 = -4 * om ** 2 * B / c1
    eps_grid = np.geomspace(1e-3, 1e-2, 6)
    table = []
    guess = np.array([alpha0, beta0])
    for eps in eps_grid:
        orbit = refine_periodic(mb_series, guess, eps)
        table.append(orbit.dh_eigenvalues)
        guess = orbit.z
    c_small, c_large = eig_coefficient_fit(eps_grid, table)
    assert c_large == pytest.approx(-2 * math.pi * c1 / om, rel=0.05)
    assert c_small == pytest.approx(2 * math.pi * B / om, rel=0.10)


def test_jacobian_series_mb(mb_base_gs, mb_reduction_session, mb_params):
    a0, c1 = mb_params["a0"], mb_params["c1"]
    b1, om = mb_params["b1"], mb_params["omega"]
    B = mb_params["a2"] + mb_params["b2"]
    z0, z1, _, _ = expand_branch(mb_reduction_session)
    A1, A2, eig_series = jacobian_series(mb_base_gs, z0, z1)
    # Dg1(z0) row structure: first row zero, second row (-8 pi a0 alpha0/om, -2 pi c1/om)
    alpha0 = om * math.sqrt(2 * B / a0)
    assert np.max(np.abs(A1[0])) < 1e-6
    assert A1[1, 0] == pytest.approx(-8 * math.pi * a0 * alpha0 / om, rel=1e-6)
    assert A1[1, 1] == pytest.approx(-2 * math.pi * c1 / om, rel=1e-7)
    # eigenvalue expansions agree with the closed-form leading coefficients
    eps_grid = np.geomspace(1e-3, 1e-2, 6)
    table = [eig_series(e) for e in eps_grid]
    c_small, c_large = eig_coefficient_fit(eps_grid, table)
    assert c_large == pytest.approx(-2 * math.pi * c1 / om, rel=0.02)
    assert c_small == pytest.approx(2 * math.pi * B / om, rel=0.05)
    # second-order coefficient of the fast eigenvalue from the series:
    # 2 pi (a0 b1 c1 + omega (pi c1^2 - c2 omega))/omega^3
    c2v = mb_params["c2"]
    lam2_want = 2 * math.pi * (a0 * b1 * c1 + om * (math.pi * c1 ** 2 - c2v * om)) / om ** 3
    large = np.array([np.real(t[-1]) for t in table])
    fit = np.polyfit(eps_grid, large / eps_grid, 2)
    assert fit[1] == pytest.approx(lam2_want, rel=0.05)


def test_jacobian_series_cross_checks_floquet(mb_series, mb_base_gs,
                                              mb_reduction_session):
    z0, z1, _, _ = expand_branch(mb_reduction_session)
    _, _, eig_series = jacobian_series(mb_base_gs, z0, z1)
    eps_grid = np.geomspace(2e-3, 8e-3, 4)
    guess = z0
    floq, serie = [], []
    for eps in eps_grid:
        orbit = refine_periodic(mb_series, guess, eps)
        guess = orbit.z
        floq.append(orbit.dh_eigenvalues)
        serie.append(eig_series(eps))
    cf = eig_coefficient_fit(eps_grid, floq)
    cs = eig_coefficient_fit(eps_grid, serie)
    assert cf[0] == pytest.approx(cs[0], rel=0.10)
    assert cf[1] == pytest.approx(cs[1], rel=0.10)


def test_zero_first_average_gives_zero_A1(mb_chart):
    from avgcycle.lyapschmidt import ExprGSeries
    gs = ExprGSeries([["0", "0"], ["0", "0"], ["a^2", "b"]], state=("a", "b"))
    A1, A2, _ = jacobian_series(gs, [1.0, 0.5], [0.0, 0.0])
    assert np.max(np.abs(A1)) < 1e-9


def test_stability_classification_rules():
    assert stability_classify([0.5]) == UNSTABLE          # multiplier 1.5
    assert stability_classify([-0.5, -0.3]) == STABLE
    assert stability_classify([0.0, -0.4]) == INCONCLUSIVE
    assert stability_classify([0.0, 0.0]) == INCONCLUSIVE
    assert stability_classify([1e-7]) == UNSTABLE
    assert stability_classify([-2.5]) == UNSTABLE         # multiplier -1.5


def test_mb_zero_eps_displacement_jacobian_vanishes(mb_series):
    _, Dh = displacement(mb_series, [1.0, 1.0], 0.0, TIGHT)
    assert np.max(np.abs(Dh)) < 1e-11
    assert stability_classify(np.linalg.eigvals(Dh)) == INCONCLUSIVE


def _record_displacements(monkeypatch):
    """Every ``displacement`` call ``refine_periodic`` makes, as (z, config)."""
    calls = []
    real = verify.displacement

    def recording(series, z, eps, config=None):
        calls.append((np.array(z, dtype=float), config))
        return real(series, z, eps, config)

    monkeypatch.setattr(verify, "displacement", recording)
    return calls


def _count_rhs_evals(monkeypatch):
    """A one-item list holding the RHS evaluations of every integration."""
    total = [0]
    real = flow._run_solver

    def counting(*args):
        sol = real(*args)
        total[0] += sol.nfev
        return sol

    monkeypatch.setattr(flow, "_run_solver", counting)
    return total


# cyl3d starts off the branch amplitude by 2% and off the chart by 5e-4, and
# Maxwell-Bloch's at its figure parameters; at eps = 0 every point of the
# cyl3d chart w = 0 is fixed, so h vanishes at any tolerance and the guess
# passes the stopping test at the loosest one
CERTIFY_CASES = {
    "cyl3d-0": ("cyl3d_series", 0.0, lambda e: [1.1, 0.0]),
    "cyl3d-1e-3": ("cyl3d_series", 1e-3, lambda e: [1.02 * radial_branch_root(e), 5e-4]),
    "cyl3d-5e-2": ("cyl3d_series", 5e-2, lambda e: [0.98 * radial_branch_root(e), -5e-4]),
    "mb-1/25": ("mb_series", 1 / 25, lambda e: [math.sqrt(8), 8.0]),
}


def _certify_case(request, case):
    name, eps, start = CERTIFY_CASES[case]
    return request.getfixturevalue(name), eps, start(eps)


@pytest.mark.parametrize("case", CERTIFY_CASES)
def test_orbit_is_certified_at_the_configured_tolerance(case, request, monkeypatch):
    series, eps, z0 = _certify_case(request, case)
    calls = _record_displacements(monkeypatch)
    orbit = refine_periodic(series, z0, eps, TIGHT)
    assert orbit.integrations == len(calls)
    assert orbit.integrations > orbit.iterations
    configs = [config for _, config in calls]
    # the ladder starts loose, and the orbit is certified at TIGHT
    assert configs[0].rtol > TIGHT.rtol and configs[0].atol > TIGHT.atol
    assert (configs[-1].rtol, configs[-1].atol) == (TIGHT.rtol, TIGHT.atol)
    assert np.array_equal(calls[-1][0], orbit.z)
    h, Dh = displacement(series, orbit.z, eps, TIGHT)
    assert orbit.residual == float(np.linalg.norm(h))
    assert orbit.residual <= 1e-10 * (np.linalg.norm(orbit.z) + 1.0)
    assert np.array_equal(orbit.monodromy, Dh + np.eye(series.dim))
    eigs = np.linalg.eigvals(Dh)
    assert np.array_equal(orbit.dh_eigenvalues, eigs[np.argsort(np.abs(eigs))])


@pytest.mark.parametrize("case", [c for c in CERTIFY_CASES if c != "cyl3d-0"])
def test_orbit_is_as_accurate_as_its_stopping_test(case, request):
    # three Newton steps at 1e-14 polish the orbit to z*; the stopping test
    # |h| <= 1e-10 (|z| + 1) allows |z - z*| up to |Dh(z*)^-1| times that
    # (Dh vanishes at eps = 0)
    series, eps, z0 = _certify_case(request, case)
    orbit = refine_periodic(series, z0, eps, TIGHT)
    polish = IntegratorConfig(rtol=1e-14, atol=1e-14)
    z_star = orbit.z
    for _ in range(3):
        h, Dh = displacement(series, z_star, eps, polish)
        z_star = z_star - np.linalg.solve(Dh, h)
    _, Dh = displacement(series, z_star, eps, polish)
    allowed = (np.linalg.norm(np.linalg.inv(Dh), ord=2)
               * 1e-10 * (np.linalg.norm(orbit.z) + 1.0))
    assert np.linalg.norm(orbit.z - z_star) <= 2 * allowed


def test_loose_config_runs_every_integration_at_config(cyl3d_series, monkeypatch):
    loose = IntegratorConfig(rtol=1e-5, atol=1e-5)
    calls = _record_displacements(monkeypatch)
    eps = 1e-2
    orbit = refine_periodic(cyl3d_series, [1.02 * radial_branch_root(eps), 5e-4],
                            eps, loose)
    assert orbit.integrations == len(calls) > 1
    assert all(config == loose for _, config in calls)


def test_ladder_integrates_cheaper_than_config_throughout(cyl3d_series, monkeypatch):
    # ten starts over the orbit-refine ranges; the replay integrates at the
    # configured tolerance at every point the ladder visited
    eps_grid = np.geomspace(1e-3, 1e-1, 10)
    offsets = np.resize([0.02, -0.02, 0.013, -0.007], 10)
    w0 = np.linspace(-1e-3, 1e-3, 10)
    evals = _count_rhs_evals(monkeypatch)
    calls = _record_displacements(monkeypatch)
    visited = []
    for eps, off, w in zip(eps_grid, offsets, w0):
        del calls[:]
        refine_periodic(cyl3d_series, [(1 + off) * radial_branch_root(eps), w],
                        eps, TIGHT)
        visited += [(z, eps) for z, _ in calls]
    ladder = evals[0]
    evals[0] = 0
    for z, eps in visited:
        displacement(cyl3d_series, z, eps, TIGHT)
    assert ladder <= 0.75 * evals[0]
