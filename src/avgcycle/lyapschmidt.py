"""Lyapunov-Schmidt reduction onto a manifold of degenerate zeros.

Let g(z, eps) = sum_i eps^i g_i(z) + O(eps^{k+1}) with g_0 vanishing on an
m-dimensional chart Z = {(alpha, beta(alpha))}.  Splitting z = (a, b) into the
first m and last n-m coordinates, the reduction produces

* Delta_alpha: the lower-right (n-m) x (n-m) block of Dg_0(z_alpha),
* gamma_i(alpha): the eps-Taylor coefficients of the implicit branch
  b = beta_bar(alpha, eps) solving the normal equations,
* f_i(alpha): the order-i bifurcation functions controlling zeros that branch
  from the chart, and the polynomial F^k(alpha, eps) = sum eps^i f_i(alpha).

Both come from the term tables of `tensor`: gamma_i = -Delta^{-1} pi-perp of
`recurrence_terms(i)` (the y_i recurrence with the gamma_j as factors and the
g_j as fields) and f_i = pi of `bifurcation_terms(i)`, both summed by
`tensor.eval_terms`.  The literal order 1..5 expansions live in the test
suite, which checks the generated tables and values against them.

g-series come in two flavours: synthetic (`ExprGSeries`, exact derivative
tensors from the expression DSL) and pipeline (`AveragedGSeries`, the
averaged functions of a vector field).  The pipeline's b-partials are exact
too: one integration per base point carries the whole augmented state as
truncated Taylor polynomials in the normal offsets (jet transport), so every
partial the reduction needs is read off its coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import expr as ex
from .averaging import ZERO_DETECTION_RELATIVE, averaged_functions
from .flow import IntegrationError, IntegratorConfig, integrate_unperturbed
from .tensor import (MAX_ORDER, SymTensor, bifurcation_terms, eval_terms,
                     recurrence_terms)

__all__ = [
    "ManifoldChart", "GSeries", "ExprGSeries", "AveragedGSeries",
    "ShiftedGSeries", "ReductionResult", "SingularDeltaError",
    "delta_alpha", "gamma_functions", "bifurcation_functions",
    "detect_first_order", "reduce_chart",
]

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
        self._jets = {}

    def _partials(self, L):
        """Compiled order-L partials of beta in alpha, cached per (L,
        parameter values)."""
        names = self.decls.params if self.decls else ()
        key = (L, tuple(float(self.params[name]) for name in names))
        fn = self._jets.get(key)
        if fn is None:
            fn = self._jets[key] = ex.jet_partials(self.beta_exprs, L, range(self.m),
                                                   self.params, names)
        return fn

    @classmethod
    def from_strings(cls, alpha_names, beta_strings, box, n, params=None):
        params = dict(params or {})
        decls = ex.Declarations(state=tuple(alpha_names),
                                params=tuple(sorted(params)), time="_chart_time")
        exprs = [ex.parse(s, decls) for s in beta_strings]
        return cls(m=len(alpha_names), n=n, box=box, beta_exprs=exprs,
                   decls=decls, params=params)

    def beta(self, alpha):
        return self._partials(0)(0.0, np.atleast_1d(alpha))[:, 0]

    def beta_jacobian(self, alpha):
        # packed order-1 partials are the Jacobian's columns in order
        return self._partials(1)(0.0, np.atleast_1d(alpha))

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
        if count < 1:
            raise ValueError(f"a Chebyshev grid needs at least one node, not {count}")
        axes = []
        for lo, hi in self.box:
            k = np.arange(count)
            nodes = np.cos((2 * k + 1) * np.pi / (2 * count))[::-1]
            axes.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes)
        return np.array(list(product(*axes)))

    def validate_periodicity(self, series, config=None):
        """Check the chart is made of T-periodic initial data of x' = F_0:
        |x(T) - z| <= 1e-8 at 5 Chebyshev points per axis, one stack."""
        worst = 0.0
        points = np.array([self.embed(alpha) for alpha in self.chebyshev_grid(5)])
        for traj in integrate_unperturbed(series, points, config):
            worst = max(worst, traj.periodicity_defect)
        if worst > 1e-8:
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

    def value(self, i, z):
        raise NotImplementedError

    def b_tensor(self, i, z, L, nb):
        raise NotImplementedError

    def prefetch(self, points, i=0, nb=0, order=None):
        """Compute at once what the lookups at ``points`` would compute one by
        one (``AveragedGSeries``); an exact series has nothing to compute."""

    def validate_vanishing(self, chart):
        """Check |g_0| <= 1e-7 on the chart at 9 Chebyshev points per axis."""
        worst = 0.0
        points = [chart.embed(alpha) for alpha in chart.chebyshev_grid(9)]
        self.prefetch(points)
        for z in points:
            worst = max(worst, float(np.max(np.abs(self.value(0, z)))))
        if worst > 1e-7:
            raise ValueError(
                f"g_0 does not vanish on the chart: max |g_0(z_a)| = {worst:.3e}")
        return worst


class ExprGSeries(GSeries):
    """g_i given as expression vectors; all derivatives exact."""

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
        self._jets = {}

    def _partials(self, i, L, nb):
        """Compiled order-L b-partials of g_i, cached per (i, L, nb,
        parameter values), so an in-place edit of ``params`` compiles
        afresh."""
        names = self.decls.params
        key = (i, L, nb, tuple(float(self.params[name]) for name in names))
        fn = self._jets.get(key)
        if fn is None:
            fn = self._jets[key] = ex.jet_partials(
                self.gs[i], L, range(self.n - nb, self.n), self.params, names)
        return fn

    def value(self, i, z):
        return self._partials(i, 0, 0)(0.0, z)[:, 0]

    def b_tensor(self, i, z, L, nb):
        if not 0 <= L <= 5:
            raise ValueError("derivative order must be in 0..5")
        return SymTensor(L, nb, self.n, self._partials(i, L, nb)(0.0, z))


class AveragedGSeries(GSeries):
    """g_i from the averaging pipeline of a vector-field series.

    One integration per base point yields g_0..g_j for the cut j it
    carries (x, Y and y_1..y_j), and the per-point results are cached.
    ``series_at(z, nb)`` is the cut a reduction of the series order k
    reads at z: nb = 0 the plain cut k, nb >= 1 the jets of one
    integration of every order in Taylor arithmetic (``averaged_functions``
    in nb offsets), graded so that g_i reaches degree k - i.  It
    integrates once per (z, nb) and serves every later lookup there; the
    pipeline's avg stage fills the cache first, at its sample points, and
    the reduction reads the same series.  ``b_tensor`` reads its partials
    from ``series_at``; a request beyond order k integrates once more,
    graded for the order it needs.  g_i needs only x, Y and y_1..y_i, so a
    value lookup (``value``, ``g0_jacobian``) reads any series cached at
    the point, jet or plain, that carries order i; otherwise it integrates
    the plain cut k = i (x and Y alone for g_0) and keeps it as the
    point's plain entry.  A caller reading several orders at one point asks
    for the highest first, so one integration serves them all.
    ``prefetch`` integrates what the lookups at a set of points would
    integrate one by one as one stack, into the same entries, as the
    pipeline's checks, reduction grid and avg rows do.  Every partial is
    exact up to the integration tolerance.
    """

    def __init__(self, series, k, config=None):
        self.series = series
        self.n = series.dim
        self.k = k
        self.config = config or IntegratorConfig(rtol=1e-12, atol=1e-12)
        self._cache = {}      # point -> {nb: AveragedSeries}

    def _lookup(self, points, i=0, nb=0, order=None):
        """What the lookups at ``points`` read: no ``order``, a cached series
        carrying g_i, else the plain cut k = i; else the cut of order k in nb
        offsets graded for ``order``, else for max(k, order); misses as one stack."""
        points = np.asarray(points, dtype=float).reshape(-1, self.n)

        def hit(z):
            at = self._cache.get(z.tobytes(), {})
            if order is None:
                return next((avg for avg in at.values() if avg.k >= i), None)
            avg = at.get(nb)
            return avg if avg is not None and avg.k >= self.k and avg.order >= order else None

        misses = {z.tobytes(): z for z in points if hit(z) is None}
        if misses:
            slot, k, grade = (0, i, i) if order is None else (nb, self.k, max(self.k, order))
            fresh = averaged_functions(self.series, np.array(list(misses.values())), k,
                                       self.config, slot, grade)
            for key, avg in zip(misses, fresh):
                self._cache.setdefault(key, {})[slot] = avg
        return [hit(z) for z in points]

    def prefetch(self, points, i=0, nb=0, order=None):
        """Integrate the lookups' misses at ``points`` as one stack, cached as
        each lookup would; a stack that fails caches nothing, and the lookups
        then integrate point by point and raise what they raise."""
        try:
            self._lookup(points, i, nb, order)
        except (IntegrationError, ArithmeticError, ValueError):
            pass

    def value(self, i, z):
        return self._lookup(z, i)[0].g[i]

    def g0_jacobian(self, z):
        return self._lookup(z, 0)[0].Dg0

    def series_at(self, z, nb, order=0):
        """The cut of order k at z in offsets of the trailing nb coordinates
        (nb = 0: the plain cut), graded for a reduction of order ``order``."""
        return self._lookup(z, 0, nb, order)[0]

    def b_tensor(self, i, z, L, nb):
        if not 0 <= L <= 5:
            raise ValueError("derivative order must be in 0..5")
        avg = self.series_at(z, nb, i + L)
        return SymTensor(L, nb, self.n, avg.b_partials(i, L))


class ShiftedGSeries(GSeries):
    """The nested-reduction shift: g~_i = g_{r+i} of a base series."""

    def __init__(self, base, r):
        if not 1 <= r <= base.k:
            raise ValueError("shift order out of range")
        self.base = base
        self.r = r
        self.n = base.n
        self.k = base.k - r

    def value(self, i, z):
        return self.base.value(self.r + i, z)

    def prefetch(self, points, i=0, nb=0, order=None):
        self.base.prefetch(points, self.r + i, nb, None if order is None else self.r + order)

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
    return _TensorCache(gs, chart.embed(alpha), gs.n - chart.m).delta(chart)


def _solve_delta(delta, det, rhs, scale):
    if abs(det) <= DET_RELATIVE_FLOOR * max(scale, 1e-300):
        raise SingularDeltaError(f"Delta_alpha is singular (det = {det:.3e})")
    return np.linalg.solve(delta, rhs)


def _delta_scale(delta):
    nb = delta.shape[0]
    norm = np.linalg.norm(delta, ord=2) if nb else 1.0
    return norm ** nb if nb else 1.0


def _reduce_at(gs, chart, alpha, k, tensors, with_f):
    """gamma_1..gamma_k at alpha, and f_1..f_k when ``with_f``."""
    m, n = chart.m, gs.n
    nb = n - m
    if k > min(gs.k, MAX_ORDER):
        raise ValueError("order exceeds the series")
    z = chart.embed(alpha)
    if nb == 0:
        # the highest order first: one plain integration serves them all
        fs = [gs.value(i, z) for i in range(k, 0, -1)][::-1] if with_f else []
        return fs, [np.zeros(0) for _ in range(k)]
    tensors = tensors if tensors is not None else _TensorCache(gs, z, nb)
    delta, det = tensors.delta(chart)
    scale = _delta_scale(delta)
    fs, gammas = [], []
    for i in range(1, k + 1):
        rhs = eval_terms(recurrence_terms(i), tensors.get, gammas)
        gammas.append(-_solve_delta(delta, det, _pi_perp(rhs, m), scale))
        if with_f:
            fs.append(_pi(eval_terms(bifurcation_terms(i), tensors.get, gammas), m))
    return fs, gammas


def gamma_functions(gs, chart, alpha, k, tensors=None):
    """gamma_1..gamma_k at alpha."""
    return _reduce_at(gs, chart, alpha, k, tensors, with_f=False)[1]


def bifurcation_functions(gs, chart, alpha, k, tensors=None):
    """f_1..f_k at alpha (and the gammas they consumed)."""
    return _reduce_at(gs, chart, alpha, k, tensors, with_f=True)


class _TensorCache:
    """Caches b-tensors of one g-series at one point, and Delta_alpha."""

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
        """Delta_alpha and its determinant; trivial (empty) when nb = 0."""
        if self.nb == 0:
            return np.zeros((0, 0)), 1.0
        key = "delta"
        hit = self._store.get(key)
        if hit is None:
            block = self.get(0, 1).entries[chart.m:, :]
            hit = (block, float(np.linalg.det(block)))
            self._store[key] = hit
        return hit


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


def detect_first_order(f_scales):
    """Index (1-based) of the first f_i above 1e-8 of the largest f_i scale,
    0 when there is none."""
    scale = float(np.max(f_scales, initial=0.0))
    if scale == 0.0:
        return 0
    for i, s in enumerate(f_scales, start=1):
        if s > ZERO_DETECTION_RELATIVE * scale:
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
    points = [chart.embed(alpha) for alpha in alphas]
    # each node's first lookup: f_k where m = n, else the partials of Delta
    gs.prefetch(points, k, n - m, None if m == n else 1)
    for idx, (alpha, z) in enumerate(zip(alphas, points)):
        tensors = _TensorCache(gs, z, n - m)
        fs, gammas = bifurcation_functions(gs, chart, alpha, k, tensors=tensors)
        f_table[idx] = np.array(fs)
        gamma_table[idx] = np.array(gammas)
        _, det_table[idx] = tensors.delta(chart)
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
