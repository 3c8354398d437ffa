"""Zero branches of the reduced equation, hypothesis checks, Brouwer degree.

`find_branch` locates, per epsilon, a root a_eps of
F^k(alpha, eps) = sum_i eps^i f_i(alpha) inside the chart box.
`check_hypotheses` turns the persistence hypotheses into numbers: the minimal
|det Delta| over the chart, the detected leading order r, and the growth
exponent l fitted from the smallest singular value of the alpha-Jacobian
along the branch (sigma_min is the sharp constant in |J alpha| >= P0 |eps|^l
|alpha|).  `brouwer_degree` counts regular zeros with Jacobian-determinant
signs on a box, and `degree_preservation_check` certifies the boundary
margin that lets the truncated polynomial stand in for the full function on
a shrinking box.

Every chart dimension m <= 3 takes one path: zeros, slopes and degree
certificates are read off the tensor Chebyshev surrogate of the f_i
(`_Surrogate`) with its exact Jacobians, and one damped Newton (`_newton`)
confirms each branch root on the exact evaluator.  In one dimension the
surrogate's zeros are the eigenvalues of its colleague matrix; in two and
three they come from one multi-start (`_roots_multistart`), which can miss
a zero.  Every degree certificate takes the exact Jacobian of its map.  In
one dimension both certificates take zeros and critical points from
colleague matrices, of the surrogate's series or of an adaptive Chebyshev
fit of the map (`_fit_1d`, for `brouwer_degree`), with one rule
(`_degree_1d`): the degree is the boundary degree
(sign f(hi) - sign f(lo))/2 or the call refuses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .averaging import ZERO_DETECTION_RELATIVE
from .flow import _cheb_matrices
from .lyapschmidt import ShiftedGSeries, _prefetch_chart

__all__ = [
    "BranchResult", "HypothesisReport", "DegreeCertificate", "BranchError",
    "find_branch", "check_hypotheses", "brouwer_degree",
    "degree_preservation_check", "nested_reduction", "expand_branch",
]


class BranchError(RuntimeError):
    pass


@dataclass
class BranchResult:
    eps: np.ndarray                    # accepted epsilon values
    a_eps: np.ndarray                  # (N, m) roots
    residual: np.ndarray               # |F^k(a_eps, eps)|
    failed: list                       # (eps, reason) pairs


@dataclass
class HypothesisReport:
    min_abs_det_delta: float
    det_nonsingular: bool
    r: int
    l_fit: float | None
    l: int
    l_reliable: bool
    P0: float
    l_bound: float                     # (k + r + 1)/2
    l_within_bound: bool
    corollary_fast_path: bool
    predicted_tangential_order: float  # k + 1 - l
    predicted_normal_order: float      # 1


@dataclass
class DegreeCertificate:
    box: np.ndarray
    target: np.ndarray
    degree: int
    zeros: np.ndarray                  # (Z, m)
    signs: np.ndarray                  # (Z,)
    boundary_margin: float
    chop_tail: float = 0.0             # bound on what a Chebyshev chop discarded

    def __post_init__(self):
        if self.degree != int(np.sum(self.signs)):
            raise ValueError(f"degree {self.degree} is not the sum of the "
                             f"zero signs ({int(np.sum(self.signs))})")
        if not self.chop_tail < self.boundary_margin:
            raise ValueError(f"chop tail {self.chop_tail:.3e} is not below the "
                             f"boundary margin {self.boundary_margin:.3e}")


# ---------------------------------------------------------------------------
# branch finding

_CHOP = 1e-12   # chop level, relative to the largest coefficient of any f_i


class _Surrogate:
    """Tensor Chebyshev interpolants of the f_i on the chart box (m <= 3).

    The grid is a tensor product of first-kind Chebyshev points of the box,
    the last axis fastest, so fitting one axis after another gives the
    interpolant, a series on the box mapped to [-1, 1]^m with coefficients
    indexed (f_i, one axis per chart dimension, component).  Each f_i is
    chopped along each axis after its last coefficient above 1e-12 of the
    largest coefficient of any f_i; ``tail[i]`` = 2 sum |c| over the
    coefficients dropped from f_{i+1} is the aliasing estimate of what the
    chop discards.  Jacobians are exact: derivative series along each axis.
    F(., eps) is the one series sum_i eps^i c_i; it and its derivative series
    are cached per eps and its zeros per eps and seed, so the branch,
    hypothesis and degree stages share them.  Iteration runs on the
    surrogate and only residual confirmation touches the exact evaluators.
    """

    def __init__(self, reduction):
        cheb = np.polynomial.chebyshev
        box = reduction.chart.box
        self.m, self.k, self.box = reduction.chart.m, reduction.k, box
        self.mid, self.half = (box[:, 0] + box[:, 1]) / 2, (box[:, 1] - box[:, 0]) / 2
        axes = [np.unique(x) for x in self._x(reduction.alphas).T]
        shape = tuple(len(x) for x in axes)
        coef = reduction.f_table.reshape(shape + (-1,))
        for j, x in enumerate(axes):
            moved = np.moveaxis(coef, j, 0)
            fit = cheb.chebfit(x, moved.reshape(len(x), -1), len(x) - 1)
            coef = np.moveaxis(fit.reshape(moved.shape), 0, j)
        coef = np.moveaxis(coef.reshape(shape + (self.k, self.m)), -2, 0)
        big = np.nonzero(np.abs(coef) > _CHOP * np.max(np.abs(coef)))
        # one past the last coefficient kept, per f_i and axis
        ends = np.zeros((self.k, self.m), dtype=int)
        np.maximum.at(ends, big[0], np.stack(big[1:-1], axis=1) + 1)
        index = np.indices(shape)[None]
        dropped = (index >= ends[(...,) + (None,) * self.m]).any(axis=1)[..., None]
        self.tail = 2 * np.sum((np.abs(coef) * dropped).reshape(self.k, -1), axis=1)
        keep = [slice(0, max(1, int(e))) for e in ends.max(axis=0)]
        self.coef = np.where(dropped, 0.0, coef)[(slice(None), *keep)]
        self._at, self._zeros = {}, {}

    def _x(self, alpha):
        return (np.asarray(alpha, dtype=float) - self.mid) / self.half

    def _der(self, c):
        der = np.polynomial.chebyshev.chebder
        return [der(c, axis=j) / self.half[j] for j in range(self.m)]

    def _val(self, alpha, c):
        """The series c at alpha, one axis at a time."""
        for x in self._x(alpha):
            c = np.polynomial.chebyshev.chebval(x, c)
        return c

    def _jac(self, alpha, dc):
        return np.stack([self._val(alpha, d) for d in dc], axis=1)

    def at(self, eps):
        """F(., eps) as (its series, its derivative series per axis)."""
        eps = float(eps)
        if eps not in self._at:
            c = np.tensordot(eps ** np.arange(1, self.k + 1), self.coef, 1)
            self._at[eps] = (c, self._der(c))
        return self._at[eps]

    def zeros(self, eps, seed=0):
        """Zeros of F(., eps) in the chart box, as rows."""
        key = (float(eps), seed)
        if key not in self._zeros:
            self._zeros[key] = self._roots(*self.at(eps), seed)
        return self._zeros[key]

    def _roots(self, c, dc, seed):
        """Zeros of the series c in the chart box, as rows: for m = 1 the
        eigenvalues of its colleague matrix; for m >= 2 Newton from the 4^m
        grid and 4^m + 8 points drawn from ``seed``, kept at |F| <= 1e-10 of
        its largest coefficient, which can miss a zero."""
        if self.m == 1:
            return self.mid + self.half * _real_zeros(c[:, 0])[:, None]
        rng = np.random.default_rng(seed)
        starts = [np.array(pt) for pt in product(*[np.linspace(a, b, 4)
                                                   for a, b in self.box])]
        starts += [rng.uniform(*self.box.T) for _ in range(4 ** self.m + 8)]
        found = _roots_multistart(
            lambda a: self._val(a, c), lambda a: self._jac(a, dc), self.box,
            1e-10 * float(np.max(np.abs(c))), starts, 30, 1e-9)
        return np.array(found).reshape(-1, self.m)

    def dF(self, alpha, eps):
        return self._jac(alpha, self.at(eps)[1])

    def df(self, order, alpha):
        """The Jacobian of f_order at alpha."""
        return self._jac(alpha, self._der(self.coef[order - 1]))

    def zeros_of(self, order):
        """Zeros of f_order in the chart box, as rows."""
        c = self.coef[order - 1]
        return self._roots(c, self._der(c), 0)

    def degree(self, eps, box, r, seed=0):
        """Degree certificate of g = F(., eps) / eps^r on ``box``, a sub-box
        of the chart.  The chop tail, sum_i |eps|^(i-r) tail_i, goes into the
        certificate, which refuses unless it is below the boundary margin.
        For m >= 2 it is ``brouwer_degree`` of the series with its exact
        Jacobian, whose multi-start can miss a zero.  For m = 1 it is
        ``_degree_1d`` of the series and its exact derivative series on the
        cached zeros in the box, with the critical points of the series as
        touch points: a zero it touches, or a pair of zeros closer than
        roundoff (the colleague matrix returns either as a complex pair near
        the real axis or as two real zeros), shows there.
        """
        box = np.atleast_2d(np.asarray(box, dtype=float))
        tail = float(sum(abs(eps) ** (i + 1 - r) * t for i, t in enumerate(self.tail)))
        c, dc = self.at(eps)
        if self.m > 1:
            cert = brouwer_degree(lambda a: self._val(a, c) / eps ** r, box, seed=seed,
                                  jacobian=lambda a: self._jac(a, dc) / eps ** r)
            return replace(cert, chop_tail=tail)
        cheb = np.polynomial.chebyshev
        c, dc = c[:, 0] / eps ** r, dc[0][:, 0] / eps ** r
        zeros = self.zeros(eps, seed)[:, 0]
        zeros = zeros[(zeros >= box[0, 0]) & (zeros <= box[0, 1])]
        crit = self.mid + self.half * _real_zeros(dc, *self._x(box[0]))
        return _degree_1d(lambda x: cheb.chebval(self._x(x), c),
                          lambda x: cheb.chebval(self._x(x), dc), box, zeros, crit,
                          np.zeros(1), tail)


def _real_zeros(c, lo=-1.0, hi=1.0):
    """Real zeros in [lo, hi] of the Chebyshev series c on [-1, 1], sorted:
    the real eigenvalues of its colleague matrix (Good, Q. J. Math. 1961;
    Boyd, SIAM Review 2013), each polished by one Newton step on the series.
    Zeros outside the interval by up to 1e-9 of its width are kept."""
    cheb = np.polynomial.chebyshev
    roots = cheb.chebroots(c)
    slack = 1e-9 * (hi - lo)
    x = roots.real[(roots.imag == 0) & (roots.real >= lo - slack)
                   & (roots.real <= hi + slack)]
    slope = cheb.chebval(x, cheb.chebder(c))
    x = x - np.divide(cheb.chebval(x, c), slope, out=np.zeros_like(x),
                      where=slope != 0)
    return np.sort(x[(x >= lo - slack) & (x <= hi + slack)])


def _surrogate(reduction):
    if getattr(reduction, "_surrogate", None) is None:
        reduction._surrogate = _Surrogate(reduction)
    return reduction._surrogate


def _chop(c, tol=np.finfo(float).eps):
    """The number of leading coefficients of the Chebyshev series c to keep,
    by standardChop (Aurentz & Trefethen, ACM TOMS 2017), or None when they
    reach no plateau at the noise level tol: c does not resolve its function."""
    env = np.maximum.accumulate(np.abs(c)[::-1])[::-1]
    env = env / env[0] if env[0] else 0 * env
    for j in range(2, len(c) + 1):     # 1-based indices, as in the paper
        j2 = int(1.25 * j + 5.5)       # rounded half up
        if j2 > len(c):
            return None
        e1, e2 = env[j - 1], env[j2 - 1]
        if e1 == 0 or e2 / e1 > 3 * (1 - np.log(e1) / np.log(tol)):
            break
    if env[j - 2] == 0:
        return j - 1
    j2 = min(j2, int(np.sum(env >= tol ** (7 / 6))) + 1)
    env[j2 - 1] = max(env[j2 - 1], tol ** (7 / 6))
    tilted = np.log10(env[:j2]) + np.linspace(0, -np.log10(tol) / 3, j2)
    return max(int(np.argmin(tilted)), 1)


def _fit_1d(f, lo, hi, depth=12):
    """Chebyshev pieces (a, b, series on [a, b] mapped to [-1, 1], tail) of a
    scalar f on [lo, hi]: f on 17, 33, 65 and 129 nested Chebyshev-Lobatto
    points until ``_chop`` finds a plateau, else the piece is halved.  The
    tail, 2 sum |c| over the chopped coefficients, estimates what the chop
    discards.  A value not finite, or ``depth`` halvings, raise ValueError."""
    vals = np.zeros(0)
    for n in (16, 32, 64, 128):
        x, _, cos = _cheb_matrices(n)     # the x of n / 2 are x[::2], bit for bit
        new = np.array([f((lo + hi) / 2 + (hi - lo) / 2 * t)
                        for t in (x[1::2] if vals.size else x)])
        if not np.all(np.isfinite(new)):
            raise ValueError("the map is not finite on the box")
        vals = np.insert(vals, np.arange(1, vals.size), new) if vals.size else new
        h = np.where(np.arange(n + 1) % n, 1.0, 0.5)   # c_k = (2/n) sum'' v_j T_k(x_j)
        c = 2 / n * h * (cos[:, :n + 1].T @ (h * vals))
        keep = _chop(c)
        if keep is not None:
            return [(lo, hi, c[:keep], 2 * float(np.sum(np.abs(c[keep:]))))]
    if not depth:
        raise ValueError(f"no Chebyshev fit of the map resolves [{lo:.17g}, {hi:.17g}]")
    return _fit_1d(f, lo, (lo + hi) / 2, depth - 1) + _fit_1d(f, (lo + hi) / 2, hi, depth - 1)


def _newton(F, J, x, tol, max_iter):
    """Damped Newton on F from x, with the Jacobian J(x).

    Each step is halved until |F| does not grow; the iteration stops once
    |F| <= tol/4 or the step is roundoff-sized (taken undamped), so tol = 0
    runs on to roundoff.  The residual at an accepted point is reused, so a
    full step costs one evaluation of F.  Returns the point and F there, or
    None for F after a roundoff-sized step.  A singular Jacobian raises
    BranchError.
    """
    x = np.array(x, dtype=float)
    val = F(x)
    for _ in range(max_iter):
        base = np.linalg.norm(val)
        if base <= tol / 4:
            break
        try:
            step = np.linalg.solve(J(x), val)
        except np.linalg.LinAlgError:
            raise BranchError("singular Jacobian during Newton")
        if np.linalg.norm(step) < 1e-14 * max(1.0, np.max(np.abs(x))):
            return x - step, None
        lam = 1.0
        cand = x - step
        cval = F(cand)
        while np.linalg.norm(cval) > base and lam >= 1e-4:
            lam /= 2
            cand = x - lam * step
            cval = F(cand)
        x, val = cand, cval
    return x, val


def _roots_multistart(F, J, box, tol, starts, max_iter, slack):
    """Distinct zeros of F reached by damped Newton from the starts.

    Newton runs on to a roundoff step; a zero is kept when |F| <= tol and it
    lies in the box widened by slack times its width; zeros closer than 1e-6
    of the box diameter are merged.
    """
    lo, hi = box[:, 0], box[:, 1]
    reach = slack * (hi - lo)
    dedup = 1e-6 * float(np.linalg.norm(hi - lo))
    found = []
    for s in starts:
        try:
            root, _ = _newton(F, J, s, 0.0, max_iter)
        except BranchError:
            continue
        if not np.linalg.norm(F(root)) <= tol:
            continue
        if not np.all((root >= lo - reach) & (root <= hi + reach)):
            continue
        if all(np.linalg.norm(root - z) > dedup for z in found):
            found.append(root)
    return found


def find_branch(reduction, eps_grid, seed=0):
    """Roots of F^k(., eps) over an epsilon grid.

    A root is accepted at residual 1e-10 max|f_i| |eps| (the f-scale over
    the reduction grid).  Newton runs with exact residuals (the surrogate's
    exact Jacobian) from every zero of the Chebyshev surrogate in the box
    until the exact residual passes.  For m = 1 those zeros are the
    eigenvalues of its colleague matrix; for m >= 2 they come from a seeded
    multi-start on the surrogate, which can miss a zero.  Roots outside the
    closed chart box are rejected; per-epsilon failures are recorded and the
    run continues.  The starts of every epsilon are known before the first
    step, so their first exact residuals are integrated as one stack.
    """
    chart = reduction.chart
    if chart.m > 3:
        raise BranchError("branch solving supports chart dimension <= 3")
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    roots, eps_ok, residuals, failed = [], [], [], []
    scale_grid = float(np.max(np.abs(reduction.f_table), initial=1.0))
    sur = _surrogate(reduction)
    _prefetch_chart(reduction.gs, chart,
                    [a for eps in eps_grid for a in sur.zeros(eps, seed)], reduction.k)
    last = None
    for eps in eps_grid:
        tol = 1e-10 * max(scale_grid * abs(eps), 1e-300)
        Fk_exact = lambda a: reduction.Fk(a, eps)
        try:
            zeros = sur.zeros(eps, seed)
            if not zeros.size:
                raise BranchError("the surrogate has no zero inside the chart box")
            slope = lambda a: sur.dF(a, eps)
            cands = [_newton(Fk_exact, slope, a, tol, 8) for a in zeros]
            cands = [c for c in cands if chart.contains(c[0], slack=1e-9)]
            if not cands:
                raise BranchError("all candidate roots fell outside the chart")
            near = last if last is not None else np.mean(chart.box, axis=1)
            pick, val = min(cands, key=lambda c: np.linalg.norm(c[0] - near))
            res = float(np.linalg.norm(Fk_exact(pick) if val is None else val))
            if res > tol:
                raise BranchError(f"residual {res:.3e} above tolerance {tol:.3e}")
            roots.append(pick)
            eps_ok.append(eps)
            residuals.append(res)
            last = pick
        except BranchError as err:
            failed.append((float(eps), str(err)))
    if not roots:
        raise BranchError(f"no roots found on the entire grid: {failed}")
    return BranchResult(eps=np.array(eps_ok), a_eps=np.array(roots),
                        residual=np.array(residuals), failed=failed)


# ---------------------------------------------------------------------------
# hypothesis checking

def _root_det_scale(reduction):
    """Natural size of |det Df_r| for simple-root tests: (f-scale over box
    width) to the chart dimension."""
    width = float(np.mean(reduction.chart.box[:, 1] - reduction.chart.box[:, 0]))
    f_scale = max(float(reduction.f_scales[reduction.r - 1]), 1e-300)
    return (f_scale / width) ** reduction.chart.m


def check_hypotheses(reduction, branch, k=None):
    """Numerical evidence for the persistence hypotheses along a branch.

    (i) min |det Delta| over the chart grid, nonsingular above 1e-10; (ii)
    the detected leading order r; (iv) the exponent l from a log-log fit of
    sigma_min( d_alpha F^k ) at a_eps against eps, with P0 the worst
    constant; the fit needs branch points at two distinct eps with
    sigma_min > 0 (BranchError otherwise).  When f_1..f_{k-1} vanish and
    the root of f_k is simple, l = r = k is reported directly (the
    classical-corollary fast path) and the fit is kept as a diagnostic, None
    when there are too few points for it.  Both Jacobians, of F^k and f_k,
    are the surrogate's exact ones.
    """
    k = k or reduction.k
    if branch.eps.size == 0:
        raise BranchError("branch is empty")
    min_det = reduction.min_abs_det()
    r = reduction.r
    sur = _surrogate(reduction)
    sigmas = np.array([np.min(np.linalg.svd(sur.dF(a, e), compute_uv=False))
                       for a, e in zip(branch.a_eps, branch.eps)])
    good = sigmas > 0
    corollary = False
    if r == k:
        # simple-root check on f_k at the smallest-eps root
        J = sur.df(r, branch.a_eps[np.argmin(branch.eps)])
        corollary = bool(abs(np.linalg.det(J)) > 1e-6 * _root_det_scale(reduction))
    n_fit = np.unique(branch.eps[good]).size
    if n_fit < 2 and not corollary:
        raise BranchError(
            f"fitting l needs branch points at two distinct eps with "
            f"sigma_min > 0; the branch has {n_fit}")
    l_fit = None if n_fit < 2 else float(np.polyfit(
        np.log(np.abs(branch.eps[good])), np.log(sigmas[good]), 1)[0])
    l = k if corollary else int(round(l_fit))
    l_reliable = corollary or abs(l_fit - l) <= 0.25
    l = max(l, 1)
    P0 = float(np.min(sigmas / np.abs(branch.eps) ** l))
    bound = (k + r + 1) / 2.0
    return HypothesisReport(
        min_abs_det_delta=min_det,
        det_nonsingular=min_det > 1e-10,
        r=r, l_fit=l_fit, l=l, l_reliable=l_reliable, P0=P0,
        l_bound=bound, l_within_bound=l <= bound,
        corollary_fast_path=corollary,
        predicted_tangential_order=k + 1 - l,
        predicted_normal_order=1.0)


# ---------------------------------------------------------------------------
# Brouwer degree on boxes

# refusal thresholds of every degree certificate, relative to the map's
# interior scale max(1, max |f|) over 5 points per axis
_MARGIN = 1e-12    # the least boundary margin
_REGULAR = 1e-10   # the least |det Df| at a zero
_ZERO = 1e-9       # |f| at or below this counts as a zero


def brouwer_degree(map_fn, box, target=None, seed=0, *, jacobian):
    """Degree of a map on a box as the sign sum over its regular zeros.

    ``jacobian`` is the Jacobian of the map, for Newton and the zero signs.
    In one dimension the colleague-matrix zeros of a Chebyshev fit of the map
    (``_fit_1d``), each moved by one Newton step on the map and merged when
    closer than 1e-12 of the box width (a zero at a join of two pieces), go
    to ``_degree_1d`` with the fit's critical points as touch points and its
    largest piece tail as the chop tail.  In two and three dimensions
    the target must stay 1e-12 of the map's interior scale away from the
    image of the boundary, sampled at 64 points per face, or the degree is
    undefined (raises).  The zeros come from seeded multi-start damped
    Newton with a deduplication radius of 1e-6 times the box diameter, which
    can still miss a zero; a zero with |det Df| < 1e-10 times the scale
    aborts (suspected non-regular zero).
    """
    box = np.atleast_2d(np.asarray(box, dtype=float))
    m = box.shape[0]
    if m > 3:
        raise ValueError("degree computation supports dimension <= 3")
    target = np.zeros(m) if target is None else np.asarray(target, dtype=float)

    def f(x):
        return np.asarray(map_fn(np.asarray(x, dtype=float)), dtype=float) - target

    if m == 1:
        lo, hi = box[0]
        g = lambda xs: np.array([f([x])[0] for x in xs])
        dg = lambda xs: np.array([jacobian(np.array([x]))[0, 0] for x in xs])
        pieces = _fit_1d(lambda x: g([x])[0], lo, hi)
        at = lambda order: np.concatenate([   # zeros (0) or critical points (1)
            (a + b) / 2 + (b - a) / 2 * _real_zeros(np.polynomial.chebyshev.chebder(c, order))
            for a, b, c, _ in pieces])
        zeros = at(0)
        slope = dg(zeros)
        zeros = np.sort(zeros - g(zeros) / np.where(slope != 0, slope, np.inf))
        zeros = zeros[(zeros >= lo) & (zeros <= hi)]
        zeros = zeros[np.diff(zeros, prepend=-np.inf) > 1e-12 * (hi - lo)]
        return _degree_1d(g, dg, box, zeros, at(1), target, max(p[3] for p in pieces))

    axes = [np.linspace(a, b, 5) for a, b in box]
    margin, scale = _margin_scale([np.linalg.norm(f(p)) for p in _boundary_points(box, 64)],
                                  [np.linalg.norm(f(np.array(p))) for p in product(*axes)])
    rng = np.random.default_rng(seed)
    lo, hi = box[:, 0], box[:, 1]
    starts = [np.array(pt) for pt in product(*[x[1:-1] for x in axes])]
    starts += [lo + (hi - lo) * rng.random(m) for _ in range(8 ** m)]
    # Newton runs on to a roundoff step, so the merge radius sees one point
    # per zero even on a small box
    zeros = _roots_multistart(f, jacobian, box, _ZERO * scale, starts, 60, 1e-12)
    signs = [_regular_sign(x, np.linalg.det(jacobian(x)), scale) for x in zeros]
    zeros = np.array(zeros) if zeros else np.zeros((0, m))
    return DegreeCertificate(box=box, target=target, degree=int(np.sum(signs)),
                             zeros=zeros, signs=np.array(signs, dtype=int),
                             boundary_margin=margin)


def _degree_1d(g, dg, box, zeros, touches, target, chop_tail):
    """Degree certificate of a scalar map g on the interval ``box``, from its
    zeros in the box and its critical points, where it may touch zero; g and
    its exact derivative ``dg`` take an array of points.  A zero left out is
    seen only when the sign sum misses the boundary degree, and a touch
    point left out not at all.  ``target`` and ``chop_tail`` are recorded.

    g at the two ends and three interior points gives the boundary margin
    and the scale (``_margin_scale``).  A zero where |g'| < 1e-10 times the
    scale refuses as non-regular, and so does a touch point where
    |g| <= 1e-9 times the scale and |g'| is below that.  Each zero's sign is
    the sign of g' there, and the signs must sum to the boundary degree
    (sign g(hi) - sign g(lo))/2, or zeros were missed and the call refuses.
    """
    vals = g(np.linspace(*box[0], 5))
    margin, scale = _margin_scale(np.abs(vals[[0, -1]]), np.abs(vals))
    signs = np.array([_regular_sign(x, s, scale) for x, s in zip(zeros, dg(zeros))],
                     dtype=int)
    near = touches[np.abs(g(touches)) <= _ZERO * scale]
    for x, slope in zip(near, dg(near)):
        _regular_sign(x, slope, scale)
    ends = np.sign(vals[[0, -1]])
    if signs.sum() != (ends[1] - ends[0]) / 2:
        raise ValueError(
            f"zero signs sum to {signs.sum()} but the boundary degree is "
            f"{int(ends[1] - ends[0]) // 2}: the zero search missed zeros")
    return DegreeCertificate(box=box, target=target, degree=int(signs.sum()),
                             zeros=zeros[:, None], signs=signs, boundary_margin=margin,
                             chop_tail=chop_tail)


def _margin_scale(boundary, interior):
    """The boundary margin, min |f| over the boundary points, and the
    interior scale, max(1, max |f| over 5 points per axis); a margin that is
    0, not finite, or below 1e-12 of the scale refuses."""
    margin, scale = float(np.min(boundary)), max(1.0, float(np.max(interior)))
    if margin <= 0 or not np.isfinite(margin):
        raise ValueError("map hits the target on the box boundary")
    if margin < _MARGIN * scale:
        raise ValueError(
            f"target too close to the boundary image (margin {margin:.3e})")
    return margin, scale


def _regular_sign(x, det, scale):
    """Sign of det Df = ``det`` at the zero x; raises when |det Df| is below
    1e-10 of the map's interior scale."""
    if abs(det) < _REGULAR * scale:
        raise ValueError(
            f"suspected non-regular zero at {x} (|det J| = {abs(det):.3e})")
    return int(np.sign(det))


def _boundary_points(box, samples):
    m = box.shape[0]
    if m == 1:
        return [np.array([box[0, 0]]), np.array([box[0, 1]])]
    pts = []
    per_axis = max(2, int(round(samples ** (1.0 / (m - 1)))))
    for face_dim in range(m):
        for side in (0, 1):
            axes = []
            for j in range(m):
                if j == face_dim:
                    axes.append(np.array([box[j, side]]))
                else:
                    axes.append(np.linspace(box[j, 0], box[j, 1], per_axis))
            pts.extend(np.array(pt) for pt in product(*axes))
    return pts


def degree_preservation_check(g_fn, remainder_bound, eps, kappa, box,
                              boundary_samples=64):
    """True when min |g| on the box boundary exceeds R |eps|^{kappa+1}.

    This is the boundary margin that makes the truncated polynomial and the
    full function share their degree on the box; the margin is returned
    alongside the verdict.
    """
    box = np.atleast_2d(np.asarray(box, dtype=float))
    margin = min(float(np.linalg.norm(np.atleast_1d(g_fn(p, eps))))
                 for p in _boundary_points(box, boundary_samples))
    threshold = remainder_bound * abs(eps) ** (kappa + 1)
    return margin > threshold, margin, threshold


# ---------------------------------------------------------------------------
# nested reduction and branch expansion

def nested_reduction(gs, r, sub_chart):
    """Shifted series for a second reduction pass after dividing by eps^r.

    Requires g_1..g_{r-1} to vanish identically and g_r to vanish on the
    supplied sub-chart; each is checked on 9 sub-chart samples per axis,
    to max(1e-7, its relative zero threshold times its scale at points
    displaced off the chart).  The threshold is never below 1e-7, so the
    displaced points are integrated only when a sample exceeds 1e-7.
    """
    shifted = ShiftedGSeries(gs, r)
    points = [sub_chart.embed(alpha) for alpha in sub_chart.chebyshev_grid(9)]
    # the highest order first: one plain integration per point serves them all
    for i in range(r, 0, -1):
        gs.prefetch(points, i)
        worst = max(float(np.max(np.abs(gs.value(i, z)))) for z in points)
        if worst <= 1e-7:
            continue
        # scale from points displaced off the chart
        displaced = [z + 0.1 * np.ones(gs.n) for z in points]
        gs.prefetch(displaced, i)
        scale = max(float(np.max(np.abs(gs.value(i, z)))) for z in displaced)
        if worst > max(1e-7, ZERO_DETECTION_RELATIVE * max(scale, 1.0)):
            raise ValueError(
                f"order-{i} averaged function does not vanish on the sub-chart "
                f"(max |g_{i}(z_a)| = {worst:.3e})")
    return shifted


def expand_branch(reduction, branch=None):
    """First-order expansion z(eps) = z0 + eps z1 + ... of the zero branch.

    alpha0 is the simple root of f_r inside the chart: the surrogate's zero
    of f_r nearest the smallest-epsilon branch point (or the box centre),
    then three Newton steps on the exact f_r with the surrogate's exact
    Jacobian; alpha1 follows by implicit differentiation, and the normal
    component combines the chart slope with gamma_1.
    """
    chart = reduction.chart
    r = reduction.r
    if branch is not None and branch.eps.size:
        seed_alpha = branch.a_eps[np.argmin(branch.eps)]
    else:
        seed_alpha = np.mean(chart.box, axis=1)
    # the surrogate's zero of f_r nearest the seed, then exact steps
    sur = _surrogate(reduction)
    zeros = sur.zeros_of(r)
    if not zeros.size:
        raise BranchError("f_r has no zero in the chart box")
    alpha = min(zeros, key=lambda a: np.linalg.norm(a - seed_alpha))
    alpha0, _ = _newton(lambda a: reduction.f_at(a)[r - 1], lambda a: sur.df(r, a),
                        alpha, 0.0, 3)
    J0 = sur.df(r, alpha0)
    if abs(np.linalg.det(J0)) < 1e-6 * _root_det_scale(reduction):
        raise BranchError("root of f_r is not simple; expansion unavailable")
    if r < reduction.k:
        f_next = reduction.f_at(alpha0)[r]
        alpha1 = -np.linalg.solve(J0, f_next)
    else:
        alpha1 = np.zeros(chart.m)
    beta0 = chart.beta(alpha0)
    gamma1 = (reduction.gamma_at(alpha0, k=1)[0] if chart.m < reduction.gs.n
              else np.zeros(0))
    beta1 = chart.beta_jacobian(alpha0) @ alpha1 + gamma1
    z0 = np.concatenate([alpha0, beta0])
    z1 = np.concatenate([alpha1, beta1])
    return z0, z1, alpha0, alpha1

