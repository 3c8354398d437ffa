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

from dataclasses import InitVar, dataclass
from math import factorial

import numpy as np

from .flow import Trajectory, _integrate
from .tensor import (
    MAX_ORDER, jet_flat_splits, jet_level_starts, level_partials, recurrence_terms,
)

__all__ = ["AveragedSeries", "y_functions", "averaged_functions", "ZERO_DETECTION_RELATIVE"]

# a function sampled on a grid counts as identically zero below this fraction
# of the dominating scale
ZERO_DETECTION_RELATIVE = 1e-8


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
    order - i.  With nb = 0 that is the plain integration.  A stack (K, n)
    of points is one stacked integration, and gives the list of results.
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
    if isinstance(traj, list):
        return [AugmentedResult(traj=one, k=k) for one in traj]
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
    # set where the caller checks the construction identity of a whole stack
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        if not checked:
            _check_identity([self])

    def b_partials(self, i, L):
        """Packed order-L partials of g_i in the trailing nb coordinates, an
        (n, len(packed_index_table(nb, L))) array."""
        starts = jet_level_starts(self.nb, L)
        if starts[L + 1] > len(self.g_jet[i]):
            raise ValueError(f"order-{L} partials of g_{i} need a jet of "
                             f"order {i + L}, this one has order {self.order}")
        return level_partials(self.g_jet[i][starts[L]:starts[L + 1]].T, self.nb, L)


def _check_identity(stack):
    """g_i = Y(T)^-1 y_i / i! over a stack of series of one k, at once, else
    ``ValueError`` for the first failing i of the first failing series."""
    k = stack[0].k
    if k:
        want = (np.array([s.YT_inv for s in stack])[:, None]
                @ np.array([s.yT for s in stack])[..., None])[..., 0]
        close = np.isclose(np.array([s.g[1:] for s in stack]), want / np.array(
            [[factorial(i)] for i in range(1, k + 1)]), rtol=1e-12, atol=1e-12).all(axis=2)
        if not close.all():
            i = int(np.argmin(close[np.argmin(close.all(axis=1))])) + 1
            raise ValueError(f"g[{i}] does not equal Y(T)^-1 y_{i}(T)/{i}!")


def _jets(augs, nb, order):
    """Jets of g_i = W y_i / i!, i = 0..k, each to degree order - i, with
    y_0 = x(T) - (z + db) and W = Y(T)^-1 by the exact series inverse
    W_0 = Y_0^-1, W_beta = -W_0 sum Y_gamma W_delta (gamma != 0), per point
    of the stack ``augs``: W_0 (K, n, n) and per i a (K, levels, n) array."""
    trajs = [aug.traj for aug in augs]
    n, jet = trajs[0].dim, trajs[0].jet
    coef = jet.unpack(np.array([traj.end for traj in trajs]))
    K, size = coef.shape[:2]
    splits = jet_flat_splits(nb, order)
    Y = coef[:, :, n:n + n * n].reshape(K, size, n, n)
    W = np.empty_like(Y)
    W[:, 0] = np.linalg.inv(Y[:, 0])
    for q in range(1, size):
        W[:, q] = -W[:, 0] @ sum(Y[:, a] @ W[:, b] for a, b in splits[q] if a)
    # the seeded initial state is the jet of z + db
    ys = [coef[:, :, :n] - jet.unpack(np.array([traj.start for traj in trajs]))[:, :, :n]]
    ys += [coef[:, :, n + n * n + i * n:n + n * n + (i + 1) * n] for i in range(augs[0].k)]
    g_jet = []
    for i, y in enumerate(ys):
        g = np.empty((K, jet_level_starts(nb, max(order - i, 0))[-1], n))
        for q in range(g.shape[1]):
            g[:, q] = sum(W[:, a] @ y[:, b, :, None] for a, b in splits[q])[..., 0]
        g /= factorial(i)
        g_jet.append(g)
    return W[:, 0], g_jet


def averaged_functions(series, z, k, config=None, nb=0, order=None):
    """Averaged functions g_0..g_k at z, with their jets in offsets of the
    trailing ``nb`` coordinates for a reduction of order ``order`` (default
    k), all from one integration (``y_functions``); k = 0 gives g_0 from x
    and Y alone.  A stack (K, n) of points gives the list of their series,
    one integration with its checks at once, each raising for its first
    failing point: integration, then a singular Y(T), then the identity."""
    order = k if order is None else order
    z = np.asarray(z, dtype=float)
    augs = y_functions(series, z, k, config, nb=nb, order=order)
    stack = augs if z.ndim == 2 else [augs]
    cond = np.linalg.cond(np.array([aug.traj.YT for aug in stack]))
    singular = ~(cond <= 1e12)
    if singular.any():
        raise ArithmeticError("fundamental matrix at T is numerically singular "
                              f"(cond={cond[np.argmax(singular)]:.2e})")
    YT_inv, g_jet = _jets(stack, nb, order)
    Dg0 = np.eye(series.dim) - YT_inv
    out = [AveragedSeries(z=aug.traj.z, k=k, g=[gj[j, 0] for gj in g_jet], yT=aug.yT,
                          YT_inv=YT_inv[j], Dg0=Dg0[j], source=aug, nb=nb, order=order,
                          tolerance_bound=aug.traj.tolerance_bound,
                          g_jet=[gj[j] for gj in g_jet], checked=True)
           for j, aug in enumerate(stack)]
    _check_identity(out)
    return out if z.ndim == 2 else out[0]
