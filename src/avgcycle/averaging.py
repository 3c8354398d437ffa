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
generated function.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .flow import DenseTrajectory, _integrate
from .tensor import recurrence_terms

__all__ = [
    "AveragedSeries", "y_functions", "averaged_functions",
    "is_effectively_zero", "ZERO_DETECTION_RELATIVE",
]

MAX_K = 5

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
    """Dense (x, Y, y_1..y_k) over one period plus endpoint values."""

    traj: DenseTrajectory
    k: int

    def y(self, i, t):
        n = self.traj.dim
        if not 1 <= i <= self.k:
            raise ValueError("order out of range")
        u = self.traj.augmented(t)
        off = n + n * n + (i - 1) * n
        return u[off:off + n]

    def y0(self, t):
        """y_0(t,z) = x(t,z,0) - z."""
        return self.traj.x(t) - self.traj.z

    @property
    def yT(self):
        return [self.y(i, self.traj.period) for i in range(1, self.k + 1)]


def y_functions(series, z, k, config=None):
    """Integrate x, Y and y_1..y_k in one pass from initial condition z."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"order k must be in 1..{MAX_K}")
    if k > series.order:
        raise ValueError(f"series only carries fields up to order {series.order}")
    traj = _integrate(series, z, 0.0, config, True,
                      [recurrence_terms(i) for i in range(1, k + 1)])
    return AugmentedResult(traj=traj, k=k)


@dataclass
class AveragedSeries:
    """g_0..g_k at one base point, with the endpoint data they came from."""

    z: np.ndarray
    k: int
    g: list                      # g[i] in R^n, i = 0..k
    yT: list                     # y_i(T, z), i = 1..k
    Y0_inv: np.ndarray
    YT_inv: np.ndarray
    Dg0: np.ndarray              # exact Jacobian of g_0: Y(0)^-1 - Y(T)^-1
    error_estimate: float
    source: AugmentedResult = None

    def __post_init__(self):
        # construction identity: g_i = Y(T)^-1 y_i/i!
        for i in range(1, self.k + 1):
            if not np.allclose(self.g[i],
                               self.YT_inv @ self.yT[i - 1] / factorial(i),
                               rtol=1e-12, atol=1e-12):
                raise ValueError(f"g[{i}] does not equal Y(T)^-1 y_{i}(T)/{i}!")


def averaged_functions(series, z, k, config=None):
    """Averaged functions g_1..g_k at z, plus g_0 and its exact Jacobian."""
    aug = y_functions(series, z, k, config)
    traj = aug.traj
    n = series.dim
    YT = traj.YT
    cond = np.linalg.cond(YT)
    if not np.isfinite(cond) or cond > 1e12:
        raise ArithmeticError(
            f"fundamental matrix at T is numerically singular (cond={cond:.2e})")
    YT_inv = np.linalg.inv(YT)
    g = [YT_inv @ (traj.xT - traj.z)]
    yT = aug.yT
    for i in range(1, k + 1):
        g.append(YT_inv @ yT[i - 1] / factorial(i))
    return AveragedSeries(z=np.asarray(z, dtype=float), k=k, g=g, yT=yT,
                          Y0_inv=np.eye(n), YT_inv=YT_inv,
                          Dg0=np.eye(n) - YT_inv,
                          error_estimate=traj.error_estimate, source=aug)
