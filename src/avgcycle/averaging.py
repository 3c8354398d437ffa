"""Averaged functions g_i and the y_i recurrence.

The order-i averaged function of a T-periodic standard-form system is

    g_i(z) = Y(T,z)^{-1} y_i(T,z) / i!

where y_i solves a linear Cauchy problem along the unperturbed orbit:

    y_i' = A(t) y_i + B_i(t),   y_i(0) = 0,   A(t) = dF_0/dx(t, x(t,z,0)),

and B_i collects derivative tensors of F_0..F_i applied to symmetric products
of the lower-order y_j, with partition coefficients.  The whole chain
(x, Y, y_1..y_k) is integrated as one augmented ODE, which avoids quadrature
against interpolated dense output; the iterated-integral form is kept as an
independent cross-check path (`y_functions_quadrature`).

B_i is written down twice, as term tables of (field, L, y-factors,
coefficient): `_PARTITION_PLANS` is generated from the partition tables and
`_EXPLICIT_PLANS` holds the literal order-by-order expansions.  `y_functions`
hands either table to the single augmented right-hand side in `flow`, which
compiles the contraction of packed derivative entries into its generated
function.  `partition_y_integrand` and `explicit_y_integrand` evaluate the
same tables through `SymTensor.apply`; they are the reference the tests and
the quadrature path check the integrated one against.  Tests require all of them to agree to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .flow import DenseTrajectory, _integrate
from .tensor import partitions_S, partitions_Sprime

__all__ = [
    "AveragedSeries", "y_functions", "averaged_functions",
    "partition_y_integrand", "explicit_y_integrand", "y_functions_quadrature",
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
# term plans
#
# A term is (field_index, deriv_order, ((j, mult), ...), float_coefficient);
# the integrand of y_i is the sum of coefficient * d^L F_field (x) applied to
# the product of y_j^mult factors.  Coefficients carry the i! prefactor.

def _partition_plan(i):
    terms = [(i, 0, (), float(factorial(i)))]
    for l in range(1, i):
        for term in partitions_S(l):
            terms.append((i - l, term.order, term.factors,
                          float(factorial(i) * term.coefficient)))
    if i >= 2:
        for term in partitions_Sprime(i):
            terms.append((0, term.order, term.factors,
                          float(factorial(i) * term.coefficient)))
    return terms


_PARTITION_PLANS = {i: _partition_plan(i) for i in range(1, MAX_K + 1)}

# Explicit expansions, one literal table per order: (coeff, field, L, y-factors).
# Hand-expanded from the recurrence and kept as integers; the test suite
# cross-validates every coefficient against the partition-generated path and
# against eps-derivatives of the actual flow.
_EXPLICIT_Y_TERMS = {
    1: [(1, 1, 0, ())],
    2: [(2, 2, 0, ()), (2, 1, 1, ((1, 1),)), (1, 0, 2, ((1, 2),))],
    3: [(6, 3, 0, ()), (6, 2, 1, ((1, 1),)), (3, 1, 2, ((1, 2),)),
        (3, 1, 1, ((2, 1),)), (3, 0, 2, ((1, 1), (2, 1))), (1, 0, 3, ((1, 3),))],
    4: [(24, 4, 0, ()), (24, 3, 1, ((1, 1),)), (12, 2, 2, ((1, 2),)),
        (12, 2, 1, ((2, 1),)), (12, 1, 2, ((1, 1), (2, 1))), (4, 1, 3, ((1, 3),)),
        (4, 1, 1, ((3, 1),)), (3, 0, 2, ((2, 2),)), (4, 0, 2, ((1, 1), (3, 1))),
        (6, 0, 3, ((1, 2), (2, 1))), (1, 0, 4, ((1, 4),))],
    5: [(120, 5, 0, ()), (120, 4, 1, ((1, 1),)), (60, 3, 2, ((1, 2),)),
        (60, 3, 1, ((2, 1),)), (60, 2, 2, ((1, 1), (2, 1))), (20, 2, 3, ((1, 3),)),
        (20, 2, 1, ((3, 1),)), (20, 1, 2, ((1, 1), (3, 1))), (15, 1, 2, ((2, 2),)),
        (30, 1, 3, ((1, 2), (2, 1))), (5, 1, 4, ((1, 4),)), (5, 1, 1, ((4, 1),)),
        (10, 0, 2, ((2, 1), (3, 1))), (5, 0, 2, ((1, 1), (4, 1))),
        (15, 0, 3, ((1, 1), (2, 2))), (10, 0, 3, ((1, 2), (3, 1))),
        (10, 0, 4, ((1, 3), (2, 1))), (1, 0, 5, ((1, 5),))],
}
_EXPLICIT_PLANS = {i: [(f, L, fac, float(c)) for c, f, L, fac in table]
                   for i, table in _EXPLICIT_Y_TERMS.items()}


def _eval_terms(terms, tensors, yvals, dim=None):
    """Sum coefficient * tensor(field, L) applied to y-factors.

    ``tensors[(field, L)]`` holds SymTensor objects; identically zero ones may
    be omitted from the dict.  ``yvals[j]`` holds the y_j vectors.
    """
    out = None
    for field_idx, L, factors, coeff in terms:
        tens = tensors.get((field_idx, L))
        if tens is None:
            continue
        contrib = coeff * tens.apply([(yvals[j], m) for j, m in factors])
        out = contrib if out is None else out + contrib
    if out is None:
        if dim is None and tensors:
            dim = next(iter(tensors.values())).codomain_dim
        if dim is None:
            raise ValueError("no ingredient tensors supplied")
        out = np.zeros(dim)
    return out


def partition_y_integrand(i, tensors, yvals, dim=None):
    """B_i(t) from the partition-generated table, through SymTensor."""
    if not 1 <= i <= MAX_K:
        raise ValueError(f"order must be in 1..{MAX_K}")
    return _eval_terms(_PARTITION_PLANS[i], tensors, yvals, dim)


def explicit_y_integrand(i, tensors, yvals, dim=None):
    """B_i(t) from the literal order-by-order table, through SymTensor."""
    if not 1 <= i <= MAX_K:
        raise ValueError(f"order must be in 1..{MAX_K}")
    return _eval_terms(_EXPLICIT_PLANS[i], tensors, yvals, dim)


_TERM_TABLES = {partition_y_integrand: _PARTITION_PLANS,
                explicit_y_integrand: _EXPLICIT_PLANS}


# ---------------------------------------------------------------------------
# augmented integration

def _stack_table(series, k):
    """Compiled tensor stacks and the orders each field needs: F_0 up to k,
    F_m up to k - m."""
    stacks = {}
    for m in range(0, k + 1):
        max_l = k if m == 0 else k - m
        stacks[m] = series.tensor_stack(m, max_l)
    return stacks


def _tensor_dict(stacks, flats, k):
    tensors = {}
    for m, stack in stacks.items():
        top = k if m == 0 else k - m
        for L in range(0, top + 1):
            if stack.order_is_zero.get(L, False):
                continue
            tensors[(m, L)] = stack.tensor(L, flats[m])
    return tensors


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


def y_functions(series, z, k, config=None, integrand=partition_y_integrand):
    """Integrate x, Y and y_1..y_k in one pass from initial condition z.

    ``integrand`` selects the B_i encoding: the partition-generated tables
    (default) or the literal oracle tables (``explicit_y_integrand``).  Either
    table drives the same augmented right-hand side in ``flow``.
    """
    tables = _TERM_TABLES.get(integrand)
    if tables is None:
        raise ValueError("integrand must be partition_y_integrand or "
                         "explicit_y_integrand")
    if not 1 <= k <= MAX_K:
        raise ValueError(f"order k must be in 1..{MAX_K}")
    if k > series.order:
        raise ValueError(f"series only carries fields up to order {series.order}")
    traj = _integrate(series, z, 0.0, config, True,
                      [tables[i] for i in range(1, k + 1)])
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


def y_functions_quadrature(series, z, k, config=None, n_nodes=400,
                           integrand=partition_y_integrand):
    """Cross-check path: y_i(T) = Y(T) * quadrature of Y(s)^-1 B_i(s).

    Consumes the dense augmented solution (so lower-order y_j come from the
    ODE) and re-derives each y_i(T) by Gauss-Legendre quadrature of the
    iterated-integral form.  Reduced accuracy by construction; used to check
    the augmented path, not to replace it.
    """
    aug = y_functions(series, z, k, config, integrand=integrand)
    traj = aug.traj
    n = series.dim
    stacks = _stack_table(series, k)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    half = series.period / 2.0
    ts = half * (nodes + 1.0)
    acc = np.zeros((k, n))
    for t, wgt in zip(ts, weights):
        x = traj.x(t).tolist()
        flats = {m: stacks[m].eval_all(float(t), x) for m in range(k + 1)}
        tensors = _tensor_dict(stacks, flats, k)
        Yinv = np.linalg.inv(traj.Y(t))
        yvals = {j: aug.y(j, t) for j in range(1, k + 1)}
        for i in range(1, k + 1):
            acc[i - 1] += wgt * (Yinv @ integrand(i, tensors, yvals, dim=n))
    acc *= half
    YT = traj.YT
    return [YT @ acc[i - 1] for i in range(1, k + 1)]
