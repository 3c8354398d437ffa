"""Direct verification: true periodic orbits of the full system.

A point z is the initial condition of a T-periodic solution exactly when the
displacement h(z, eps) = x(T, z, eps) - z vanishes.  This module Newton-
refines predicted initial conditions against h (with the variational
Jacobian), classifies stability through the eigenvalues of the time-T map
Id + D_z h, and exposes the low-order expansion
D_z h(z(eps), eps) = eps A1 + eps^2 A2 + O(eps^3) whose eigenvalues give the
leading stability coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    iterations: int
    period: float

    @property
    def multipliers(self):
        return 1.0 + self.dh_eigenvalues


def displacement(series, z, eps, config=None):
    """h(z, eps) and its Jacobian from one variational integration."""
    traj = integrate_full(series, z, eps, config, variational=True)
    n = series.dim
    h = traj.xT - np.asarray(z, dtype=float)
    Dh = traj.YT - np.eye(n)
    return h, Dh


def refine_periodic(series, z_guess, eps, config=None):
    """Newton iteration on the displacement from a predicted initial point.

    Convergence demands |h| <= 1e-10 (|z| + 1) within 25 iterations; a
    singular Jacobian or iteration budget exhaustion raises
    ``RefinementError``.
    """
    config = config or IntegratorConfig(rtol=1e-12, atol=1e-12)
    z = np.asarray(z_guess, dtype=float).copy()
    n = series.dim
    h, Dh = displacement(series, z, eps, config)
    best = np.linalg.norm(h)
    iterations = 0
    while True:
        tol = 1e-10 * (np.linalg.norm(z) + 1.0)
        if best <= tol:
            break
        if iterations >= 25:
            raise RefinementError(
                f"no convergence after 25 iterations (|h| = {best:.3e})")
        try:
            step = np.linalg.solve(Dh, h)
        except np.linalg.LinAlgError:
            raise RefinementError("singular displacement Jacobian (near fold)")
        lam = 1.0
        while lam >= 1e-4:
            cand = z - lam * step
            try:
                h_new, Dh_new = displacement(series, cand, eps, config)
            except IntegrationError:
                lam /= 2          # stepped outside the field's domain
                continue
            if np.linalg.norm(h_new) < best or lam < 2e-4:
                z, h, Dh = cand, h_new, Dh_new
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
                         iterations=iterations, period=series.period)


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
