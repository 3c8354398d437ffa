"""Averaged functions g_i and the y_i recurrence.

The order-i averaged function of a T-periodic standard-form system is

    g_i(z) = Y(T,z)^{-1} y_i(T,z) / i!

where y_i solves a linear Cauchy problem along the unperturbed orbit:

    y_i' = A(t) y_i + B_i(t),   y_i(0) = 0,   A(t) = dF_0/dx(t, x(t,z,0)),

and B_i collects derivative tensors of F_0..F_i applied to symmetric products
of the lower-order y_j, with partition coefficients.  The whole chain
(x, Y, y_1..y_k) is integrated as one augmented ODE, which avoids quadrature
against interpolated dense output.

B_i is the term table ``tensor.recurrence_terms(i)``; `y_functions` hands
the tables for i = 1..k to the single augmented right-hand side in `flow`,
which compiles the contraction of packed derivative entries into its
generated function.  Only the endpoints are read.

Partials of the g_i in the trailing nb coordinates come from the same
single integration, carried out in truncated Taylor arithmetic (jet
transport): x(0) = z + db, and for a reduction of order K the state is
graded so that x and Y reach degree K and y_i degree K - i, which is
exactly what g_i needs.  With y_0 = x(T) - (z + db), every g_i, i = 0..k,
is the truncated product g_i = W y_i / i!, where the jet of W = Y(T)^-1
follows from the series inverse W_0 = Y_0^-1,
W_beta = -W_0 sum_{gamma != 0} Y_gamma W_{beta-gamma}.  A plain
integration is the same computation with nb = 0: its jets hold level 0
alone, the values g_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .flow import Trajectory, _integrate
from .tensor import (
    MAX_ORDER, jet_flat_splits, jet_level_starts, level_partials, recurrence_terms,
)

__all__ = [
    "AveragedSeries", "y_functions", "averaged_functions",
    "is_effectively_zero", "ZERO_DETECTION_RELATIVE",
]

# a function sampled on a grid counts as identically zero below this fraction
# of the dominating scale
ZERO_DETECTION_RELATIVE = 1e-8


def is_effectively_zero(values, scale):
    values = np.asarray(values, dtype=float)
    scale = max(float(scale), 1e-300)
    return float(np.max(np.abs(values), initial=0.0)) <= ZERO_DETECTION_RELATIVE * scale


# ---------------------------------------------------------------------------
# augmented integration

@dataclass
class AugmentedResult:
    """(x, Y, y_1..y_k) over one period, read at the endpoints."""

    traj: Trajectory
    k: int

    @property
    def yT(self):
        n = self.traj.dim
        off = n + n * n
        return [self.traj.end[off + i * n:off + (i + 1) * n] for i in range(self.k)]


def y_functions(series, z, k, config=None, nb=0, order=None):
    """Integrate x, Y and y_1..y_k in one pass from initial condition z;
    k = 0 integrates x and Y alone.

    The state is lifted to truncated Taylor polynomials in offsets db of the
    trailing ``nb`` coordinates, x(0) = z + db, graded for a reduction of
    order ``order`` (default k): x and Y to degree order, y_i to degree
    order - i.  With nb = 0 that is the plain integration.
    """
    if not 0 <= k <= MAX_ORDER:
        raise ValueError(f"order k must be in 0..{MAX_ORDER}")
    if k > series.order:
        raise ValueError(f"series only carries fields up to order {series.order}")
    order = k if order is None else order
    n = series.dim
    degrees = ([order] * (n + n * n)
               + [max(order - i, 0) for i in range(1, k + 1) for _ in range(n)])
    traj = _integrate(series, z, 0.0, config, True,
                      [recurrence_terms(i) for i in range(1, k + 1)], nb, degrees)
    return AugmentedResult(traj=traj, k=k)


@dataclass
class AveragedSeries:
    """g_0..g_k at one base point, with the endpoint data they came from.

    ``g_jet[i]`` holds the jet of g_i in the offsets db of the trailing nb
    coordinates, (coefficients, n), exact to degree order - i; its level 0
    is ``g[i]``, and ``b_partials`` reads the rest.  ``Dg0`` = I - Y(T)^-1
    is the Jacobian of g_0 only where x(T) = z, on the periodic manifold.
    """

    z: np.ndarray
    k: int
    g: list                      # g[i] in R^n, i = 0..k
    yT: list                     # y_i(T, z), i = 1..k
    YT_inv: np.ndarray
    Dg0: np.ndarray              # I - Y(T)^-1
    tolerance_bound: float
    source: AugmentedResult = None
    nb: int = 0
    order: int = 0
    g_jet: list = None

    def __post_init__(self):
        # construction identity: g_i = Y(T)^-1 y_i/i!
        for i in range(1, self.k + 1):
            if not np.allclose(self.g[i],
                               self.YT_inv @ self.yT[i - 1] / factorial(i),
                               rtol=1e-12, atol=1e-12):
                raise ValueError(f"g[{i}] does not equal Y(T)^-1 y_{i}(T)/{i}!")

    def b_partials(self, i, L):
        """Packed order-L partials of g_i in the trailing nb coordinates, an
        (n, len(packed_index_table(nb, L))) array."""
        starts = jet_level_starts(self.nb, L)
        if starts[L + 1] > len(self.g_jet[i]):
            raise ValueError(f"order-{L} partials of g_{i} need a jet of "
                             f"order {i + L}, this one has order {self.order}")
        return level_partials(self.g_jet[i][starts[L]:starts[L + 1]].T, self.nb, L)


def _jets(aug, nb, order):
    """Jets of g_i = W y_i / i!, i = 0..k, each to degree order - i, with
    y_0 = x(T) - (z + db) and W = Y(T)^-1 by the exact series inverse
    W_0 = Y_0^-1, W_beta = -W_0 sum Y_gamma W_delta (gamma != 0)."""
    traj = aug.traj
    n = traj.dim
    coef = traj.jet.unpack(traj.end)
    size = coef.shape[0]
    splits = jet_flat_splits(nb, order)
    Y = coef[:, n:n + n * n].reshape(size, n, n)
    W = np.empty_like(Y)
    W[0] = np.linalg.inv(Y[0])
    for q in range(1, size):
        W[q] = -W[0] @ sum(Y[a] @ W[b] for a, b in splits[q] if a)
    # the seeded initial state is the jet of z + db
    ys = [coef[:, :n] - traj.jet.unpack(traj.start)[:, :n]]
    ys += [coef[:, n + n * n + i * n:n + n * n + (i + 1) * n] for i in range(aug.k)]
    g_jet = []
    for i, y in enumerate(ys):
        exact = jet_level_starts(nb, max(order - i, 0))[-1]
        g_jet.append(np.array([sum(W[a] @ y[b] for a, b in splits[q])
                               for q in range(exact)]) / factorial(i))
    return W[0], g_jet


def averaged_functions(series, z, k, config=None, nb=0, order=None):
    """Averaged functions g_0..g_k at z, with their jets in offsets of the
    trailing ``nb`` coordinates for a reduction of order ``order`` (default
    k), all from one integration (``y_functions``); k = 0 gives g_0 from x
    and Y alone."""
    order = k if order is None else order
    aug = y_functions(series, z, k, config, nb=nb, order=order)
    traj = aug.traj
    cond = np.linalg.cond(traj.YT)
    if not np.isfinite(cond) or cond > 1e12:
        raise ArithmeticError(
            f"fundamental matrix at T is numerically singular (cond={cond:.2e})")
    YT_inv, g_jet = _jets(aug, nb, order)
    return AveragedSeries(z=np.asarray(z, dtype=float), k=k,
                          g=[gj[0] for gj in g_jet], yT=aug.yT, YT_inv=YT_inv,
                          Dg0=np.eye(series.dim) - YT_inv,
                          tolerance_bound=traj.tolerance_bound, source=aug,
                          nb=nb, order=order, g_jet=g_jet)
