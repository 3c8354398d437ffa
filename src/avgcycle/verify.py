"""Direct verification: true periodic orbits of the full system.

A point z is the initial condition of a T-periodic solution exactly when the
displacement h(z, eps) = x(T, z, eps) - z vanishes.  This module Newton-
refines predicted initial conditions against h, with D_z h read off the
degree-1 jet of x in all n offsets, each integration only as tight as its
residual needs, and certifies the orbit at the configured tolerances: the
residual, the monodromy and the eigenvalues come from an integration at
exactly those.  It classifies stability through the eigenvalues of the
time-T map Id + D_z h, and exposes the low-order expansion
D_z h(z(eps), eps) = eps A1 + eps^2 A2 + O(eps^3) whose eigenvalues give the
leading stability coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .flow import IntegrationError, IntegratorConfig, integrate_full

__all__ = [
    "PeriodicOrbit", "RefinementError", "displacement", "refine_periodic",
    "stability_classify", "jacobian_series", "eig_coefficient_fit",
    "UNSTABLE", "STABLE", "INCONCLUSIVE",
]

UNSTABLE = "has-unstable-direction"
STABLE = "asymptotically-stable"
INCONCLUSIVE = "inconclusive"

UNIT_CIRCLE_TOL = 1e-8


class RefinementError(RuntimeError):
    pass


@dataclass
class PeriodicOrbit:
    eps: float
    z: np.ndarray                     # refined initial condition
    residual: float                   # |h(z, eps)|
    monodromy: np.ndarray             # dx(T, z, eps)/dz
    dh_eigenvalues: np.ndarray        # eigenvalues of D_z h, sorted by |.|
    classification: str
    iterations: int                   # accepted Newton steps
    integrations: int                 # displacement integrations, all told
    period: float

    @property
    def multipliers(self):
        return 1.0 + self.dh_eigenvalues


# the tolerance ladder of ``refine_periodic``: the loosest integration, the
# contraction assumed before the first step, and how far below the predicted
# residual each integration's tolerance sits
_TAU_LOOSE = 1e-6
_THETA_0 = 3e-4
_TAU_MARGIN = 1e-2


def _at(config, tau):
    """``config`` with each tolerance raised to tau, tau capped at
    ``_TAU_LOOSE``; ``config`` itself when neither rises."""
    tau = min(tau, _TAU_LOOSE)
    if tau <= config.rtol and tau <= config.atol:
        return config
    return replace(config, rtol=max(config.rtol, tau), atol=max(config.atol, tau))


def displacement(series, z, eps, config=None):
    """h(z, eps) and D_z h from one integration of the degree-1 jet of x."""
    traj = integrate_full(series, z, eps, config, variational=True)
    n = series.dim
    h = traj.xT - np.asarray(z, dtype=float)
    Dh = traj.YT - np.eye(n)
    return h, Dh


def refine_periodic(series, z_guess, eps, config=None):
    """Newton iteration on the displacement from a predicted initial point.

    Each displacement is integrated only as tightly as its residual needs
    (inexact Newton with accuracy matched to the residual: Dembo, Eisenstat
    & Steihaug, SIAM J. Numer. Anal. 19, 1982; Deuflhard, Newton Methods
    for Nonlinear Problems, 2004).  The guess is integrated at
    ``_TAU_LOOSE``; after an accepted iterate with residual |h_k| and
    contraction Theta_k = |h_k| / |h_{k-1}|, the candidates of the next
    step, line search included, are integrated at ``_TAU_MARGIN``
    Theta_k^2 |h_k|, that far below the residual predicted for the next
    iterate.
    No integration runs looser than ``_TAU_LOOSE`` or tighter than
    ``config`` (default 1e-12/1e-12), so a ``config`` looser than
    ``_TAU_LOOSE`` runs every integration at ``config``.

    Convergence demands |h| <= 1e-10 (|z| + 1) within 25 iterations, on an
    integration at ``config``'s tolerances: an iterate that passes at a
    looser one is integrated again at ``config`` (an integration, not an
    iteration) before the loop may stop.  The returned ``residual``,
    ``monodromy`` and eigenvalues are those of that last integration,
    ``displacement(series, orbit.z, eps, config)`` bit for bit.  A singular
    Jacobian or iteration budget exhaustion raises ``RefinementError``.
    """
    config = config or IntegratorConfig(rtol=1e-12, atol=1e-12)
    z = np.asarray(z_guess, dtype=float).copy()
    n = series.dim
    # the tolerances the current iterate was integrated at
    at = _at(config, _TAU_LOOSE)
    h, Dh = displacement(series, z, eps, at)
    best = np.linalg.norm(h)
    theta = _THETA_0
    iterations, integrations = 0, 1
    while True:
        if best <= 1e-10 * (np.linalg.norm(z) + 1.0):
            if at is config:
                break
            at = config
            h, Dh = displacement(series, z, eps, at)
            integrations += 1
            best = np.linalg.norm(h)
            continue
        if iterations >= 25:
            raise RefinementError(
                f"no convergence after 25 iterations (|h| = {best:.3e})")
        try:
            step = np.linalg.solve(Dh, h)
        except np.linalg.LinAlgError:
            raise RefinementError("singular displacement Jacobian (near fold)")
        at_next = _at(config, _TAU_MARGIN * theta ** 2 * best)
        lam = 1.0
        while lam >= 1e-4:
            cand = z - lam * step
            integrations += 1
            try:
                h_new, Dh_new = displacement(series, cand, eps, at_next)
            except IntegrationError:
                lam /= 2          # stepped outside the field's domain
                continue
            if np.linalg.norm(h_new) < best or lam < 2e-4:
                theta = np.linalg.norm(h_new) / best
                z, h, Dh, at = cand, h_new, Dh_new, at_next
                best = np.linalg.norm(h)
                break
            lam /= 2
        else:
            raise RefinementError("line search failed; diverging iteration")
        iterations += 1
    eigs = np.linalg.eigvals(Dh)
    eigs = eigs[np.argsort(np.abs(eigs))]
    return PeriodicOrbit(eps=float(eps), z=z, residual=float(best),
                         monodromy=Dh + np.eye(n), dh_eigenvalues=eigs,
                         classification=stability_classify(eigs),
                         iterations=iterations, integrations=integrations,
                         period=series.period)


def stability_classify(dh_eigenvalues, tol=UNIT_CIRCLE_TOL):
    """Classify from the time-T map spectrum (multipliers 1 + lambda).

    Any multiplier outside the unit circle gives an unstable direction; all
    strictly inside gives asymptotic stability; anything within ``tol`` of
    the circle is inconclusive at this order.
    """
    mults = np.abs(1.0 + np.asarray(dh_eigenvalues, dtype=complex))
    if np.any(mults > 1.0 + tol):
        return UNSTABLE
    if np.all(mults < 1.0 - tol):
        return STABLE
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# displacement-Jacobian series

def jacobian_series(gs, z0, z1):
    """Matrices A1, A2 with D_z h(z(eps), eps) = eps A1 + eps^2 A2 + O(eps^3).

    A1 is the Jacobian of the first averaged function at z0; A2 adds the
    second derivative of g_1 along z1 and the Jacobian of g_2.  All three
    come from the exact b-partials of the series with every coordinate
    taken as normal (nb = n).  Returns (A1, A2, eig_series) where
    eig_series(eps) evaluates the eigenvalues of eps A1 + eps^2 A2.
    """
    if gs.k < 2:
        raise ValueError("need averaged functions up to order 2")
    n = gs.n
    z0 = np.asarray(z0, dtype=float)
    z1 = np.asarray(z1, dtype=float)
    # the deepest partial first: an averaged series then integrates one jet
    # that serves all three
    H1 = gs.b_tensor(1, z0, 2, n)
    A1 = gs.b_tensor(1, z0, 1, n).entries
    A2 = (np.column_stack([H1.apply([(z1, 1), (e, 1)]) for e in np.eye(n)])
          + gs.b_tensor(2, z0, 1, n).entries)

    def eig_series(eps):
        eigs = np.linalg.eigvals(eps * A1 + eps ** 2 * A2)
        return eigs[np.argsort(np.abs(eigs))]

    return A1, A2, eig_series


def eig_coefficient_fit(eps_grid, eig_table):
    """Leading coefficients of the two slowest/fastest eigenvalue families.

    ``eig_table[i]`` holds the (sorted-by-magnitude) D_z h eigenvalues at
    eps_grid[i].  Returns (c_small, c_large) with the small family fitted as
    c_small * eps^2 and the large one as c_large * eps (the generic pattern
    when the first averaged Jacobian has a simple zero eigenvalue).
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    table = np.asarray(eig_table)
    small = np.real(table[:, 0])
    large = np.real(table[:, -1])
    c_small = np.polyfit(eps_grid, small / eps_grid ** 2, 1)[1]
    c_large = np.polyfit(eps_grid, large / eps_grid, 1)[1]
    return float(c_small), float(c_large)
