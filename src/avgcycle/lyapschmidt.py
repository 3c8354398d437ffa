"""Lyapunov-Schmidt reduction onto a manifold of degenerate zeros.

Let g(z, eps) = sum_i eps^i g_i(z) + O(eps^{k+1}) with g_0 vanishing on an
m-dimensional chart Z = {(alpha, beta(alpha))}.  Splitting z = (a, b) into the
first m and last n-m coordinates, the reduction produces

* Delta_alpha: the lower-right (n-m) x (n-m) block of Dg_0(z_alpha),
* gamma_i(alpha): the eps-Taylor coefficients of the implicit branch
  b = beta_bar(alpha, eps) solving the normal equations,
* f_i(alpha): the order-i bifurcation functions controlling zeros that branch
  from the chart, and the polynomial F^k(alpha, eps) = sum eps^i f_i(alpha).

Both recurrences are generated from the partition tables; an independent
hard-coded encoding of the explicit order 1..5 expansions (`explicit_gamma`,
`explicit_f`) is kept as an oracle and cross-checked in the test suite.

g-series come in two flavours: synthetic (`ExprGSeries`, exact derivative
tensors from the expression DSL) and pipeline (`AveragedGSeries`, values from
the averaged functions of a vector field, b-partials by Richardson-
extrapolated central differences; exact differentiation of g_i in z would
need second-order variational equations for every order, which is the one
place this module trades exactness for finite differences).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np

from . import expr as ex
from .averaging import averaged_functions
from .flow import IntegratorConfig, integrate_unperturbed
from .tensor import SymTensor, packed_index_table, partitions_S, partitions_Sprime

__all__ = [
    "ManifoldChart", "GSeries", "ExprGSeries", "AveragedGSeries",
    "ShiftedGSeries", "ReductionResult", "SingularDeltaError",
    "delta_alpha", "gamma_functions", "bifurcation_functions",
    "explicit_gamma", "explicit_f", "detect_first_order", "reduce_chart",
]

MAX_K = 5
DET_RELATIVE_FLOOR = 1e-10


class SingularDeltaError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# chart

@dataclass
class ManifoldChart:
    """Chart z_alpha = (alpha, beta(alpha)) over an axis-aligned box.

    The chart always occupies the *first* m coordinates; systems whose zero
    manifold lives elsewhere must be permuted upstream (problem files carry a
    ``coordinate_order`` field for exactly that).
    """

    m: int
    n: int
    box: np.ndarray                       # (m, 2)
    beta_exprs: list = field(default_factory=list)
    decls: ex.Declarations = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.box = np.atleast_2d(np.asarray(self.box, dtype=float))
        if not 1 <= self.m <= self.n:
            raise ValueError("need 1 <= m <= n")
        if self.box.shape != (self.m, 2) or not np.all(self.box[:, 0] < self.box[:, 1]):
            raise ValueError("box must be m rows of lo < hi")
        if len(self.beta_exprs) != self.n - self.m:
            raise ValueError(f"beta must have {self.n - self.m} components")
        if self.beta_exprs and self.decls is None:
            raise ValueError("beta expressions need declarations")

    @classmethod
    def from_strings(cls, alpha_names, beta_strings, box, n, params=None):
        params = dict(params or {})
        decls = ex.Declarations(state=tuple(alpha_names),
                                params=tuple(sorted(params)), time="_chart_time")
        exprs = [ex.parse(s, decls) for s in beta_strings]
        return cls(m=len(alpha_names), n=n, box=box, beta_exprs=exprs,
                   decls=decls, params=params)

    def beta(self, alpha):
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        return np.array([ex.evaluate(e, 0.0, alpha, self.params)
                         for e in self.beta_exprs])

    def beta_jacobian(self, alpha):
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        nb = self.n - self.m
        J = np.zeros((nb, self.m))
        cache = {}
        for i, e in enumerate(self.beta_exprs):
            for j in range(self.m):
                J[i, j] = ex.evaluate(ex.diff(e, j, cache), 0.0, alpha, self.params)
        return J

    def embed(self, alpha):
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        return np.concatenate([alpha, self.beta(alpha)])

    def contains(self, alpha, slack=0.0):
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        width = self.box[:, 1] - self.box[:, 0]
        return bool(np.all(alpha >= self.box[:, 0] - slack * width)
                    and np.all(alpha <= self.box[:, 1] + slack * width))

    def chebyshev_grid(self, count=64):
        """count Chebyshev-distributed samples per dimension (tensor grid)."""
        axes = []
        for lo, hi in self.box:
            k = np.arange(count)
            nodes = np.cos((2 * k + 1) * np.pi / (2 * count))[::-1]
            axes.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes)
        if self.m == 1:
            return axes[0][:, None]
        return np.array(list(product(*axes)))

    def validate_periodicity(self, series, config=None, samples=9, tol=1e-8):
        """Check the chart is made of T-periodic initial data of x' = F_0."""
        worst = 0.0
        for alpha in self.chebyshev_grid(samples):
            traj = integrate_unperturbed(series, self.embed(alpha), config)
            worst = max(worst, traj.periodicity_defect)
        if worst > tol:
            raise ValueError(
                f"chart is not a periodic manifold: max |x(T,z_a,0) - z_a| = {worst:.3e}")
        return worst


# ---------------------------------------------------------------------------
# g-series carriers

class GSeries:
    """Order-k series of maps g_i: R^n -> R^n with b-partial tensors.

    ``value(i, z)`` returns g_i(z); ``b_tensor(i, z, L, nb)`` the order-L
    tensor of partials with respect to the trailing nb coordinates (domain
    dimension nb, codomain dimension n).
    """

    n: int
    k: int
    provenance = "abstract"

    def value(self, i, z):
        raise NotImplementedError

    def b_tensor(self, i, z, L, nb):
        raise NotImplementedError

    def validate_vanishing(self, chart, samples=9, tol=1e-7):
        worst = 0.0
        for alpha in chart.chebyshev_grid(samples):
            worst = max(worst, float(np.max(np.abs(self.value(0, chart.embed(alpha))))))
        if worst > tol:
            raise ValueError(
                f"g_0 does not vanish on the chart: max |g_0(z_a)| = {worst:.3e}")
        return worst


class ExprGSeries(GSeries):
    """g_i given as expression vectors; all derivatives exact."""

    provenance = "expressions"

    def __init__(self, g_strings_or_exprs, state, params=None):
        self.params = dict(params or {})
        self.decls = ex.Declarations(state=tuple(state),
                                     params=tuple(sorted(self.params)), time="_g_time")
        self.gs = []
        for comps in g_strings_or_exprs:
            row = [ex.parse(c, self.decls) if isinstance(c, str) else c
                   for c in comps]
            self.gs.append(row)
        self.n = len(state)
        self.k = len(self.gs) - 1
        if any(len(row) != self.n for row in self.gs):
            raise ValueError("every g_i needs n components")
        self._stacks = {}

    def value(self, i, z):
        return np.array([ex.evaluate(c, 0.0, z, self.params) for c in self.gs[i]])

    def b_tensor(self, i, z, L, nb):
        """Exact order-L b-partials of g_i; the compiled stack is cached per
        (i, L, nb, parameter values), so an in-place edit of ``params``
        compiles afresh."""
        if not 0 <= L <= 5:
            raise ValueError("derivative order must be in 0..5")
        wrt = tuple(range(self.n - nb, self.n))
        params = tuple(float(self.params[name]) for name in self.decls.params)
        key = (i, L, wrt, params)
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = ex._TensorStack(self.gs[i], self.n, L,
                                                         wrt, params)
        return stack.tensor_at(0.0, z, self.params)


# central difference stencils of order h^2, per derivative order
_STENCILS = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
}

# default base steps per total derivative order; noise scales like tol/h^L,
# so higher orders use wider stencils
_FD_STEPS = {1: 1e-3, 2: 1e-2, 3: 4e-2}


class AveragedGSeries(GSeries):
    """g_i from the averaging pipeline of a vector-field series.

    One augmented integration per base point yields every order at once; the
    per-point results are cached, so the finite-difference stencils reuse
    evaluations across derivative orders.  The Jacobian of g_0 is available
    exactly (identity minus the inverse fundamental matrix), and is used for
    the order-1 b-tensor of g_0; everything else is Richardson-extrapolated
    central differences with steps scaled by derivative order.
    """

    provenance = "averaging"

    def __init__(self, series, k, config=None, fd_steps=None):
        self.series = series
        self.n = series.dim
        self.k = k
        self.config = config or IntegratorConfig(rtol=1e-12, atol=1e-12)
        self.fd_steps = dict(_FD_STEPS)
        if fd_steps:
            self.fd_steps.update(fd_steps)
        self._cache = {}

    def _series_at(self, z):
        z = np.asarray(z, dtype=float)
        key = z.tobytes()
        hit = self._cache.get(key)
        if hit is None:
            hit = averaged_functions(self.series, z, self.k, self.config)
            self._cache[key] = hit
        return hit

    def value(self, i, z):
        return self._series_at(z).g[i]

    def g0_jacobian(self, z):
        return self._series_at(z).Dg0

    def b_tensor(self, i, z, L, nb):
        z = np.asarray(z, dtype=float)
        if L == 0:
            entries = self.value(i, z)[:, None]
            return SymTensor(0, nb, self.n, entries)
        if i == 0 and L == 1:
            cols = self.g0_jacobian(z)[:, self.n - nb:]
            return SymTensor(1, nb, self.n, cols)
        if i == 0:
            # differentiate the exact Jacobian columns: one derivative order
            # less of finite differencing, and the stencil points coincide
            # with the ones the order-1 tensors of the other g_i use
            fd_order = L - 1
            fetch = lambda pt, col: self.g0_jacobian(pt)[:, self.n - nb + col]
        else:
            fd_order = L
            fetch = None
        if fd_order > 3:
            raise NotImplementedError(
                "pipeline b-partials are implemented up to this order; supply "
                "an expression-backed series for higher orders")
        table = packed_index_table(nb, L)
        entries = np.empty((self.n, len(table)))
        h = self.fd_steps[fd_order]
        for col, multi in enumerate(table):
            expo = [0] * nb
            if fetch is None:
                for j in multi:
                    expo[j] += 1
                fun = lambda pt: self.value(i, pt)
            else:
                for j in multi[1:]:
                    expo[j] += 1
                fun = lambda pt, c=multi[0]: fetch(pt, c)
            coarse = self._fd(fun, z, nb, expo, h)
            fine = self._fd(fun, z, nb, expo, h / 2.0)
            entries[:, col] = (4.0 * fine - coarse) / 3.0
        return SymTensor(L, nb, self.n, entries)

    def _fd(self, fun, z, nb, exponents, h):
        involved = [j for j, e in enumerate(exponents) if e > 0]
        if not involved:
            return fun(z)
        stencils = [_STENCILS[exponents[j]] for j in involved]
        total = np.zeros(self.n)
        for offsets in product(*[list(s.items()) for s in stencils]):
            zp = z.copy()
            coeff = 1.0
            for (off, c), j in zip(offsets, involved):
                zp[self.n - nb + j] += off * h
                coeff *= c
            if coeff != 0.0:
                total += coeff * fun(zp)
        return total / h ** sum(exponents)


class ShiftedGSeries(GSeries):
    """The nested-reduction shift: g~_i = g_{r+i} of a base series."""

    provenance = "shifted"

    def __init__(self, base, r):
        if not 1 <= r <= base.k:
            raise ValueError("shift order out of range")
        self.base = base
        self.r = r
        self.n = base.n
        self.k = base.k - r

    def value(self, i, z):
        return self.base.value(self.r + i, z)

    def b_tensor(self, i, z, L, nb):
        return self.base.b_tensor(self.r + i, z, L, nb)


# ---------------------------------------------------------------------------
# reduction recurrences

def _pi(vec, m):
    return vec[:m]


def _pi_perp(vec, m):
    return vec[m:]


def delta_alpha(gs, chart, alpha):
    """Delta_alpha and its determinant; trivial (empty) when m = n."""
    m, n = chart.m, gs.n
    nb = n - m
    if nb == 0:
        return np.zeros((0, 0)), 1.0
    z = chart.embed(alpha)
    block = gs.b_tensor(0, z, 1, nb).entries[m:, :]
    return block, float(np.linalg.det(block))


def _solve_delta(delta, det, rhs, scale):
    if abs(det) <= DET_RELATIVE_FLOOR * max(scale, 1e-300):
        raise SingularDeltaError(f"Delta_alpha is singular (det = {det:.3e})")
    return np.linalg.solve(delta, rhs)


def _delta_scale(delta):
    nb = delta.shape[0]
    norm = np.linalg.norm(delta, ord=2) if nb else 1.0
    return norm ** nb if nb else 1.0


def gamma_functions(gs, chart, alpha, k, tensors=None):
    """gamma_1..gamma_k at alpha from the partition-generated recurrence."""
    m, n = chart.m, gs.n
    nb = n - m
    if k > min(gs.k, MAX_K):
        raise ValueError("order exceeds the series")
    if nb == 0:
        return [np.zeros(0) for _ in range(k)]
    z = chart.embed(alpha)
    tensors = tensors if tensors is not None else _TensorCache(gs, z, nb)
    delta, det = tensors.delta(chart)
    scale = _delta_scale(delta)
    gammas = []
    for i in range(1, k + 1):
        rhs = _pi_perp(tensors.get(i, 0).apply([]), m).copy()
        for l in range(1, i):
            for term in partitions_S(l):
                tens = tensors.get(i - l, term.order)
                fac = [(gammas[j - 1], c) for j, c in term.factors]
                rhs += float(term.coefficient) * _pi_perp(tens.apply(fac), m)
        if i >= 2:
            for term in partitions_Sprime(i):
                tens = tensors.get(0, term.order)
                fac = [(gammas[j - 1], c) for j, c in term.factors]
                rhs += float(term.coefficient) * _pi_perp(tens.apply(fac), m)
        gammas.append(-factorial(i) * _solve_delta(delta, det, rhs, scale))
    return gammas


def bifurcation_functions(gs, chart, alpha, k, tensors=None):
    """f_1..f_k at alpha (and the gammas they consumed)."""
    m, n = chart.m, gs.n
    nb = n - m
    if nb == 0:
        fs = [gs.value(i, chart.embed(alpha)) for i in range(1, k + 1)]
        return fs, [np.zeros(0) for _ in range(k)]
    z = chart.embed(alpha)
    tensors = tensors if tensors is not None else _TensorCache(gs, z, nb)
    gammas = gamma_functions(gs, chart, alpha, k, tensors=tensors)
    fs = []
    for i in range(1, k + 1):
        f = _pi(tensors.get(i, 0).apply([]), m).copy()
        for l in range(1, i + 1):
            for term in partitions_S(l):
                tens = tensors.get(i - l, term.order)
                fac = [(gammas[j - 1], c) for j, c in term.factors]
                f += float(term.coefficient) * _pi(tens.apply(fac), m)
        fs.append(f)
    return fs, gammas


class _TensorCache:
    """Caches b-tensors of one g-series at one point."""

    def __init__(self, gs, z, nb):
        self.gs = gs
        self.z = z
        self.nb = nb
        self._store = {}

    def get(self, i, L):
        key = (i, L)
        hit = self._store.get(key)
        if hit is None:
            hit = self.gs.b_tensor(i, self.z, L, self.nb)
            self._store[key] = hit
        return hit

    def delta(self, chart):
        key = "delta"
        hit = self._store.get(key)
        if hit is None:
            m = chart.m
            block = self.get(0, 1).entries[m:, :]
            hit = (block, float(np.linalg.det(block)))
            self._store[key] = hit
        return hit


# ---------------------------------------------------------------------------
# literal order-by-order oracle tables
#
# Each term is (coefficient, g_index, derivative_order, gamma factors).
# gamma_i = -Delta^{-1} * sum(...); the order factorial is already folded
# into the integer coefficients.  Hand-expanded from the recurrence; every
# coefficient is pinned by implicit-function cross-checks in the test suite
# (solve the normal equation numerically, Taylor-expand the branch in eps,
# compare).

_EXPLICIT_GAMMA = {
    1: [(1, 1, 0, ())],
    2: [(1, 0, 2, ((1, 2),)), (2, 1, 1, ((1, 1),)), (2, 2, 0, ())],
    3: [(1, 0, 3, ((1, 3),)), (3, 0, 2, ((1, 1), (2, 1))),
        (3, 1, 2, ((1, 2),)), (3, 1, 1, ((2, 1),)),
        (6, 2, 1, ((1, 1),)), (6, 3, 0, ())],
    4: [(1, 0, 4, ((1, 4),)), (3, 0, 2, ((2, 2),)), (4, 0, 2, ((1, 1), (3, 1))),
        (6, 0, 3, ((1, 2), (2, 1))), (4, 1, 1, ((3, 1),)),
        (12, 1, 2, ((1, 1), (2, 1))), (4, 1, 3, ((1, 3),)),
        (12, 2, 1, ((2, 1),)), (12, 2, 2, ((1, 2),)),
        (24, 3, 1, ((1, 1),)), (24, 4, 0, ())],
    5: [(10, 0, 2, ((2, 1), (3, 1))), (5, 0, 2, ((1, 1), (4, 1))),
        (15, 0, 3, ((1, 1), (2, 2))), (10, 0, 3, ((1, 2), (3, 1))),
        (10, 0, 4, ((1, 3), (2, 1))), (1, 0, 5, ((1, 5),)),
        (5, 1, 1, ((4, 1),)), (15, 1, 2, ((2, 2),)),
        (20, 1, 2, ((1, 1), (3, 1))), (30, 1, 3, ((1, 2), (2, 1))),
        (5, 1, 4, ((1, 4),)), (20, 2, 1, ((3, 1),)),
        (60, 2, 2, ((1, 1), (2, 1))), (20, 2, 3, ((1, 3),)),
        (60, 3, 1, ((2, 1),)), (60, 3, 2, ((1, 2),)),
        (120, 4, 1, ((1, 1),)), (120, 5, 0, ())],
}

_EXPLICIT_F = {
    1: [(Fraction(1), 0, 1, ((1, 1),)), (Fraction(1), 1, 0, ())],
    2: [(Fraction(1, 2), 0, 1, ((2, 1),)), (Fraction(1, 2), 0, 2, ((1, 2),)),
        (Fraction(1), 1, 1, ((1, 1),)), (Fraction(1), 2, 0, ())],
    3: [(Fraction(1, 6), 0, 1, ((3, 1),)), (Fraction(1, 6), 0, 3, ((1, 3),)),
        (Fraction(1, 2), 0, 2, ((1, 1), (2, 1))),
        (Fraction(1, 2), 1, 2, ((1, 2),)), (Fraction(1, 2), 1, 1, ((2, 1),)),
        (Fraction(1), 2, 1, ((1, 1),)), (Fraction(1), 3, 0, ())],
    4: [(Fraction(1, 24), 0, 1, ((4, 1),)), (Fraction(1, 24), 0, 4, ((1, 4),)),
        (Fraction(1, 4), 0, 3, ((1, 2), (2, 1))), (Fraction(1, 8), 0, 2, ((2, 2),)),
        (Fraction(1, 6), 0, 2, ((1, 1), (3, 1))),
        (Fraction(1, 6), 1, 3, ((1, 3),)), (Fraction(1, 2), 1, 2, ((1, 1), (2, 1))),
        (Fraction(1, 6), 1, 1, ((3, 1),)),
        (Fraction(1, 2), 2, 2, ((1, 2),)), (Fraction(1, 2), 2, 1, ((2, 1),)),
        (Fraction(1), 3, 1, ((1, 1),)), (Fraction(1), 4, 0, ())],
    5: [(Fraction(1, 120), 0, 1, ((5, 1),)),
        (Fraction(1, 12), 0, 2, ((2, 1), (3, 1))),
        (Fraction(1, 24), 0, 2, ((1, 1), (4, 1))),
        (Fraction(1, 8), 0, 3, ((1, 1), (2, 2))),
        (Fraction(1, 12), 0, 3, ((1, 2), (3, 1))),
        (Fraction(1, 12), 0, 4, ((1, 3), (2, 1))),
        (Fraction(1, 120), 0, 5, ((1, 5),)),
        (Fraction(1, 24), 1, 1, ((4, 1),)), (Fraction(1, 8), 1, 2, ((2, 2),)),
        (Fraction(1, 6), 1, 2, ((1, 1), (3, 1))),
        (Fraction(1, 4), 1, 3, ((1, 2), (2, 1))),
        (Fraction(1, 24), 1, 4, ((1, 4),)),
        (Fraction(1, 6), 2, 1, ((3, 1),)), (Fraction(1, 2), 2, 2, ((1, 1), (2, 1))),
        (Fraction(1, 6), 2, 3, ((1, 3),)),
        (Fraction(1, 2), 3, 1, ((2, 1),)), (Fraction(1, 2), 3, 2, ((1, 2),)),
        (Fraction(1), 4, 1, ((1, 1),)), (Fraction(1), 5, 0, ())],
}


def explicit_gamma(gs, chart, alpha, k, tensors=None):
    """gamma_1..gamma_k from the literal tables (oracle path)."""
    m, n = chart.m, gs.n
    nb = n - m
    if nb == 0:
        return [np.zeros(0) for _ in range(k)]
    z = chart.embed(alpha)
    tensors = tensors if tensors is not None else _TensorCache(gs, z, nb)
    delta, det = tensors.delta(chart)
    scale = _delta_scale(delta)
    gammas = []
    for i in range(1, k + 1):
        rhs = np.zeros(nb)
        for coeff, gi, L, fac in _EXPLICIT_GAMMA[i]:
            tens = tensors.get(gi, L)
            factors = [(gammas[j - 1], c) for j, c in fac]
            rhs += float(coeff) * _pi_perp(tens.apply(factors), m)
        gammas.append(-_solve_delta(delta, det, rhs, scale))
    return gammas


def explicit_f(gs, chart, alpha, k, tensors=None):
    """f_1..f_k from the literal tables (oracle path)."""
    m, n = chart.m, gs.n
    nb = n - m
    if nb == 0:
        fs = [gs.value(i, chart.embed(alpha)) for i in range(1, k + 1)]
        return fs, [np.zeros(0) for _ in range(k)]
    z = chart.embed(alpha)
    tensors = tensors if tensors is not None else _TensorCache(gs, z, nb)
    gammas = explicit_gamma(gs, chart, alpha, k, tensors=tensors)
    fs = []
    for i in range(1, k + 1):
        f = np.zeros(m)
        for coeff, gi, L, fac in _EXPLICIT_F[i]:
            tens = tensors.get(gi, L)
            factors = [(gammas[j - 1], c) for j, c in fac]
            f += float(coeff) * _pi(tens.apply(factors), m)
        fs.append(f)
    return fs, gammas


# ---------------------------------------------------------------------------
# chart-level reduction

@dataclass
class ReductionResult:
    """Reduction data over a chart grid plus an F^k evaluator."""

    chart: ManifoldChart
    gs: GSeries
    k: int
    alphas: np.ndarray                # (N, m) grid used for r-detection
    f_table: np.ndarray               # (N, k, m)
    gamma_table: np.ndarray           # (N, k, n-m)
    det_table: np.ndarray             # (N,)
    r: int
    f_scales: np.ndarray              # (k,) max |f_i| over the grid

    def f_at(self, alpha, k=None):
        fs, _ = bifurcation_functions(self.gs, self.chart, alpha, k or self.k)
        return fs

    def gamma_at(self, alpha, k=None):
        return gamma_functions(self.gs, self.chart, alpha, k or self.k)

    def Fk(self, alpha, eps, k=None):
        fs = self.f_at(alpha, k)
        out = np.zeros(self.chart.m)
        for i, f in enumerate(fs, start=1):
            out += eps ** i * f
        return out

    def min_abs_det(self):
        return float(np.min(np.abs(self.det_table)))


def detect_first_order(f_scales, threshold=None):
    """Index (1-based) of the first f_i that is not identically zero."""
    from .averaging import ZERO_DETECTION_RELATIVE
    threshold = ZERO_DETECTION_RELATIVE if threshold is None else threshold
    scale = float(np.max(f_scales, initial=0.0))
    if scale == 0.0:
        return 0
    for i, s in enumerate(f_scales, start=1):
        if s > threshold * scale:
            return i
    return 0


def reduce_chart(gs, chart, k, grid=64, validate=True):
    """Run the reduction over a chart grid and detect the leading order r."""
    if k > gs.k:
        raise ValueError(f"requested order {k} exceeds series order {gs.k}")
    if validate and chart.m < gs.n:
        gs.validate_vanishing(chart)
    alphas = chart.chebyshev_grid(grid)
    m, n = chart.m, gs.n
    f_table = np.empty((len(alphas), k, m))
    gamma_table = np.empty((len(alphas), k, n - m))
    det_table = np.empty(len(alphas))
    for idx, alpha in enumerate(alphas):
        fs, gammas = bifurcation_functions(gs, chart, alpha, k)
        f_table[idx] = np.array(fs)
        gamma_table[idx] = np.array(gammas)
        _, det_table[idx] = delta_alpha(gs, chart, alpha)
    f_scales = np.array([np.max(np.abs(f_table[:, i, :]), initial=0.0)
                         for i in range(k)])
    r = detect_first_order(f_scales)
    if r == 0:
        raise ArithmeticError(
            "all bifurcation functions vanish up to the requested order; "
            "no bifurcation information at this order")
    return ReductionResult(chart=chart, gs=gs, k=k, alphas=alphas,
                           f_table=f_table, gamma_table=gamma_table,
                           det_table=det_table, r=r, f_scales=f_scales)
