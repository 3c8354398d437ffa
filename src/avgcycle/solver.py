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

For a one-dimensional chart every zero of the reduced equation comes from
the colleague matrix of its Chebyshev surrogate (`_Surrogate1D`, the
eigenvalues of one small matrix per eps), and the degree certificate on a
box is the sign sum of the exact series derivative over those zeros.
`brouwer_degree` on a black-box map keeps a sign scan (`_roots_1d`).  One
damped Newton (`_newton`) confirms zeros on the exact evaluator, and one
multi-start (`_roots_multistart`) searches two and three dimensions.  In one
dimension the degree is the boundary degree (sign f(hi) - sign f(lo))/2 or
the call refuses; in two and three the multi-start can still miss a zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

from .averaging import ZERO_DETECTION_RELATIVE
from .lyapschmidt import ManifoldChart, ShiftedGSeries

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
    k: int
    chart: ManifoldChart


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
    chop_tail: float = 0.0             # bound on what a surrogate's chop discarded

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


class _Surrogate1D:
    """Chebyshev interpolants of the f_i on the chart box (m = 1).

    The grid nodes are first-kind Chebyshev points of the box, so the fit
    through all of them is the interpolant, a series on the box mapped to
    [-1, 1].  Each series is chopped after its last coefficient above 1e-12
    of the largest coefficient of any f_i; ``tail[i]`` = 2 sum |c_j| over the
    coefficients dropped from f_{i+1} is the aliasing estimate of what the
    chop discards.  For each eps, F(., eps) is the one series sum_i eps^i c_i,
    and its zeros are eigenvalues of its colleague matrix; they are cached
    per eps, so the branch, hypothesis and degree stages share them.
    Iteration runs on the surrogate and only residual confirmation touches
    the exact evaluators.
    """

    def __init__(self, reduction):
        lo, hi = reduction.chart.box[0]
        self.mid, self.half = (lo + hi) / 2, (hi - lo) / 2
        x = self._x(reduction.alphas[:, 0])
        coef = np.polynomial.chebyshev.chebfit(
            x, reduction.f_table[:, :, 0], len(x) - 1).T
        big = np.abs(coef) > _CHOP * np.max(np.abs(coef))
        # one past the last coefficient kept, per f_i
        ends = np.where(big.any(axis=1),
                        coef.shape[1] - np.argmax(big[:, ::-1], axis=1), 0)
        dropped = np.arange(coef.shape[1]) >= ends[:, None]
        self.tail = 2 * np.sum(np.abs(coef) * dropped, axis=1)
        self.coef = np.where(dropped, 0.0, coef)[:, :max(1, int(ends.max()))]
        self.k = reduction.k
        self._at = {}

    def _x(self, alpha):
        return (np.asarray(alpha, dtype=float) - self.mid) / self.half

    def at(self, eps):
        """F(., eps) as (its series on [-1, 1], the series of dF/dalpha,
        its real zeros in the chart box), cached per eps."""
        eps = float(eps)
        hit = self._at.get(eps)
        if hit is None:
            c = eps ** np.arange(1, self.k + 1) @ self.coef
            hit = self._at[eps] = (c, np.polynomial.chebyshev.chebder(c) / self.half,
                                   self.mid + self.half * _real_zeros(c))
        return hit

    def dF(self, alpha, eps):
        return np.polynomial.chebyshev.chebval(self._x(alpha), self.at(eps)[1])

    def df(self, order, alpha):
        """d f_order / d alpha at alpha."""
        cheb = np.polynomial.chebyshev
        slope = cheb.chebder(self.coef[order - 1]) / self.half
        return cheb.chebval(self._x(alpha), slope)

    def zeros_of(self, order):
        """Real zeros of f_order in the chart box."""
        return self.mid + self.half * _real_zeros(self.coef[order - 1])

    def degree(self, eps, box, r):
        """Degree certificate of g = F(., eps) / eps^r on ``box``, a sub-box
        of the chart, from the cached zeros.

        One evaluation at the two ends and three interior points gives the
        boundary margin and the scale, with the thresholds of
        ``brouwer_degree``: the margin must reach 1e-12 times the scale, and
        a zero where |g'| < 1e-10 times the scale is non-regular.  A zero the
        series touches without crossing, or a pair of zeros closer than
        roundoff (the colleague matrix returns either as a complex pair near
        the real axis or as two real zeros), shows as a critical point in the
        box where |g| <= 1e-9 times the scale, the tolerance at which
        ``brouwer_degree`` accepts a zero; that refuses too.  Each zero's sign
        is the sign of the exact derivative of the series, and the signs
        must sum to the boundary degree (sign g(hi) - sign g(lo))/2.  The
        chop tail, sum_i |eps|^(i-r) tail_i, goes into the certificate, which
        refuses unless it is below the boundary margin.
        """
        cheb = np.polynomial.chebyshev
        box = np.atleast_2d(np.asarray(box, dtype=float))
        lo, hi = box[0]
        c, dc, zeros = self.at(eps)
        c, dc = c / eps ** r, dc / eps ** r
        vals = cheb.chebval(self._x(np.linspace(lo, hi, 5)), c)
        margin = float(min(abs(vals[0]), abs(vals[-1])))
        if margin <= 0 or not np.isfinite(margin):
            raise ValueError("map hits the target on the box boundary")
        scale = max(1.0, float(np.max(np.abs(vals))))
        if margin < 1e-12 * scale:
            raise ValueError(
                f"target too close to the boundary image (margin {margin:.3e})")
        zeros = zeros[(zeros >= lo) & (zeros <= hi)]
        slopes = cheb.chebval(self._x(zeros), dc)
        for x, slope in zip(zeros, slopes):
            if abs(slope) < 1e-10 * scale:
                raise ValueError(f"suspected non-regular zero at [{x}] "
                                 f"(|det J| = {abs(slope):.3e})")
        crit = self.mid + self.half * _real_zeros(dc, *self._x(box[0]))
        for x, val in zip(crit, cheb.chebval(self._x(crit), c)):
            if abs(val) <= 1e-9 * scale:
                raise ValueError(f"suspected non-regular zero at [{x}] "
                                 f"(|g| = {abs(val):.3e} where g' = 0)")
        signs = np.sign(slopes).astype(int)
        ends = np.sign(vals[[0, -1]])
        if signs.sum() != (ends[1] - ends[0]) / 2:
            raise ValueError(
                f"zero signs sum to {signs.sum()} but the boundary degree is "
                f"{int(ends[1] - ends[0]) // 2}: the colleague matrix missed zeros")
        tail = float(sum(abs(eps) ** (i + 1 - r) * t for i, t in enumerate(self.tail)))
        return DegreeCertificate(box=box, target=np.zeros(1), degree=int(signs.sum()),
                                 zeros=zeros[:, None], signs=signs,
                                 boundary_margin=margin, chop_tail=tail)


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
    cached = getattr(reduction, "_surrogate_1d", None)
    if cached is None and reduction.chart.m == 1:
        cached = _Surrogate1D(reduction)
        reduction._surrogate_1d = cached
    return cached


def _brentq(f, a, b):
    """A zero of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method (Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4), step for step as scipy's ``brentq`` (``Zeros/brentq.c``) takes
    it: inverse quadratic or secant steps, bisection when they fall short,
    until the bracket is below xtol + rtol |x| with xtol = 1e-14 and rtol =
    4 eps, scipy's floor.  After 100 steps the last iterate is returned,
    still bracketed.  A NaN value raises ``ValueError``.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN; the zero search cannot converge")
        return fx

    xtol, rtol = 1e-14, 4 * sys.float_info.epsilon
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:   # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:              # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # in C the step is then inf or NaN, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    return xcur


def _roots_1d(f, lo, hi, samples=201):
    """Zeros of a scalar f on [lo, hi] from the sign changes over an even
    sample, each refined by ``_brentq``; a sample where f is exactly zero counts
    as a zero.  Each zero comes with the direction of its sign change: +1
    rising, -1 falling, 0 for a sampled zero that f touches without crossing.

    Also returns the dips: interior samples where |f| has a local minimum
    without a sign change, near which f may touch zero between two samples.
    """
    xs = np.linspace(lo, hi, samples)
    vals = np.array([f(x) for x in xs])
    signs = np.sign(vals)
    roots = []
    for i in range(samples):
        if vals[i] == 0.0:
            rise = signs[min(i + 1, samples - 1)] - signs[max(i - 1, 0)]
            roots.append((xs[i], int(np.sign(rise))))
        elif i + 1 < samples and vals[i] * vals[i + 1] < 0:
            # a zero of high multiplicity can outlast the iteration cap; the
            # last iterate is still bracketed, and every caller checks it
            root = _brentq(f, xs[i], xs[i + 1])
            roots.append((root, int(signs[i + 1])))
    size = np.abs(vals)
    # strict on the left, so a plateau of |f| counts once
    dips = [xs[i] for i in range(1, samples - 1)
            if signs[i - 1] == signs[i] == signs[i + 1] != 0
            and size[i] < size[i - 1] and size[i] <= size[i + 1]]
    return roots, dips


def _newton(F, J, x, tol, max_iter):
    """Damped Newton on F from x, with the Jacobian J(x).

    Each step is halved until |F| does not grow; the iteration stops once
    |F| <= tol/4 or the step is roundoff-sized (taken undamped), so tol = 0
    runs on to roundoff.  The residual
    at an accepted point is reused, so a full step costs one evaluation of F.
    A singular Jacobian raises BranchError.
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
            return x - step
        lam = 1.0
        cand = x - step
        cval = F(cand)
        while np.linalg.norm(cval) > base and lam >= 1e-4:
            lam /= 2
            cand = x - lam * step
            cval = F(cand)
        x, val = cand, cval
    return x


def _roots_multistart(F, J, box, tol, starts, max_iter, stop_tol, slack):
    """Distinct zeros of F reached by damped Newton from the starts.

    Newton stops at |F| <= stop_tol/4 (0: at a roundoff step); a zero is
    kept when |F| <= tol and it lies in the box widened by slack times its
    width; zeros closer than 1e-6 of the box diameter are merged.
    """
    lo, hi = box[:, 0], box[:, 1]
    reach = slack * (hi - lo)
    dedup = 1e-6 * float(np.linalg.norm(hi - lo))
    found = []
    for s in starts:
        try:
            root = _newton(F, J, s, stop_tol, max_iter)
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
    the reduction grid).  m = 1 runs Newton with exact residuals (surrogate
    slope as the Jacobian) from every real zero of the Chebyshev surrogate in
    the box, the eigenvalues of its colleague matrix, until the exact
    residual passes; m >= 2 uses seeded multi-start damped Newton on the
    exact evaluator.  Roots outside the closed chart box are rejected;
    per-epsilon failures are recorded and the run continues.
    """
    chart = reduction.chart
    m = chart.m
    if m > 3:
        raise BranchError("branch solving supports chart dimension <= 3")
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    roots, eps_ok, residuals, failed = [], [], [], []
    scale_grid = float(np.max(np.abs(reduction.f_table), initial=1.0))

    sur = _surrogate(reduction) if m == 1 else None
    rng = np.random.default_rng(seed)
    lo, hi = chart.box[:, 0], chart.box[:, 1]
    grid = [np.array(pt) for pt in product(*[np.linspace(a, b, 4)
                                             for a, b in chart.box])]
    last = None
    for eps in eps_grid:
        tol = 1e-10 * max(scale_grid * abs(eps), 1e-300)
        Fk_exact = lambda a: reduction.Fk(a, eps)
        try:
            if m == 1:
                zeros = sur.at(eps)[2]
                if not zeros.size:
                    raise BranchError("the surrogate has no zero inside the chart box")
                slope = lambda a: np.array([[sur.dF(a[0], eps)]])
                cands = [_newton(Fk_exact, slope, [a], tol, 8) for a in zeros]
                cands = [c for c in cands if chart.contains(c, slack=1e-9)]
                if not cands:
                    raise BranchError("all candidate roots fell outside the chart")
            else:
                starts = grid + [lo + (hi - lo) * rng.random(m)
                                 for _ in range(4 ** m + 8)]
                cands = _roots_multistart(
                    Fk_exact, lambda a: _fd_jacobian(Fk_exact, a), chart.box,
                    tol, starts, 30, tol, 1e-9)
                if not cands:
                    raise BranchError("multi-start Newton found no root in the box")
            near = last if last is not None else np.mean(chart.box, axis=1)
            pick = min(cands, key=lambda c: np.linalg.norm(c - near))
            res = float(np.linalg.norm(Fk_exact(pick)))
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
                        residual=np.array(residuals), failed=failed,
                        k=reduction.k, chart=chart)


# ---------------------------------------------------------------------------
# hypothesis checking

def _sigma_min_jacobian(reduction, alpha, eps):
    m = reduction.chart.m
    if m == 1:
        sur = _surrogate(reduction)
        return abs(sur.dF(float(alpha[0]), eps))
    J = _fd_jacobian(lambda a: reduction.Fk(a, eps), np.asarray(alpha, dtype=float),
                     1e-6)
    return float(np.min(np.linalg.svd(J, compute_uv=False)))


def _root_det_scale(reduction, order=None):
    """Natural size of |det Df_order| for simple-root tests: (f-scale over
    box width) to the chart dimension."""
    order = order or reduction.r
    width = float(np.mean(reduction.chart.box[:, 1] - reduction.chart.box[:, 0]))
    f_scale = max(float(reduction.f_scales[order - 1]), 1e-300)
    return (f_scale / width) ** reduction.chart.m


def check_hypotheses(reduction, branch, k=None):
    """Numerical evidence for the persistence hypotheses along a branch.

    (i) min |det Delta| over the chart grid, nonsingular above 1e-10; (ii)
    the detected leading order r; (iv) the exponent l from a log-log fit of
    sigma_min( d_alpha F^k ) at a_eps against eps, with P0 the worst
    constant; the fit needs branch points at two distinct eps with
    sigma_min > 0 (BranchError otherwise).
    When f_1..f_{k-1} vanish and the root of f_k is simple, l = r = k is
    reported directly (the classical-corollary fast path) and the fit is kept
    as a diagnostic, None when there are too few points for it.
    """
    k = k or reduction.k
    if branch.eps.size == 0:
        raise BranchError("branch is empty")
    min_det = reduction.min_abs_det()
    r = reduction.r
    sigmas = np.array([_sigma_min_jacobian(reduction, a, e)
                       for a, e in zip(branch.a_eps, branch.eps)])
    good = sigmas > 0
    corollary = False
    if r == k:
        # simple-root check on f_k at the smallest-eps root
        J = _fk_jacobian(reduction, branch.a_eps[np.argmin(branch.eps)], r)
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


def _fk_jacobian(reduction, alpha, order):
    m = reduction.chart.m
    if m == 1:
        return np.array([[float(_surrogate(reduction).df(order, alpha[0]))]])
    return _fd_jacobian(lambda a: reduction.f_at(a)[order - 1],
                        np.asarray(alpha, dtype=float), 1e-6)


# ---------------------------------------------------------------------------
# Brouwer degree on boxes

def brouwer_degree(map_fn, box, target=None, seed=0):
    """Degree of a map on a box as the sign sum over its regular zeros.

    The boundary is sampled first (64 points per face, the two endpoints
    in one dimension): the target must stay bounded away from the image of
    the boundary or the degree is undefined (raises).  In one dimension the
    zeros are those of the sign scan, and a zero whose Jacobian sign
    differs from the direction of its sign change raises, so the degree
    equals the boundary degree (sign f(hi) - sign f(lo))/2 or the call
    refuses.  In two and three dimensions the zeros come from seeded
    multi-start damped Newton with a deduplication radius of 1e-6 times the
    box diameter, which can still miss a zero.  A zero with near-singular
    Jacobian, |det Df| < 1e-10 times the map's interior scale, aborts
    (suspected non-regular zero); in one dimension Newton from each dip of
    |f| between the samples looks for a zero that f touches without
    crossing, so such a zero aborts too.
    """
    box = np.atleast_2d(np.asarray(box, dtype=float))
    m = box.shape[0]
    if m > 3:
        raise ValueError("degree computation supports dimension <= 3")
    target = np.zeros(m) if target is None else np.asarray(target, dtype=float)

    def f(x):
        return np.asarray(map_fn(np.asarray(x, dtype=float)), dtype=float) - target

    margin = _boundary_margin(f, box, 64)
    if margin <= 0 or not np.isfinite(margin):
        raise ValueError("map hits the target on the box boundary")
    scale = max(1.0, _interior_scale(f, box))
    if margin < 1e-12 * scale:
        raise ValueError(
            f"target too close to the boundary image (margin {margin:.3e})")

    tol, threshold = 1e-9 * scale, 1e-10 * scale
    if m == 1:
        roots, dips = _roots_1d(lambda x: f([x])[0], *box[0])
        starts = [[d] for d in dips]
    else:
        rng = np.random.default_rng(seed)
        lo, hi = box[:, 0], box[:, 1]
        starts = [np.array(pt) for pt in product(
            *[np.linspace(a, b, 5)[1:-1] for a, b in box])]
        starts += [lo + (hi - lo) * rng.random(m) for _ in range(8 ** m)]
    # Newton runs on to a roundoff step, so the merge radius sees one point
    # per zero even on a small box.  In one dimension it starts from the dips
    # of |f|, where f may touch zero between two samples; a zero found there
    # is only checked for regularity, as it leaves the boundary degree as it is
    zeros = _roots_multistart(f, lambda x: _fd_jacobian(f, x), box, tol,
                              starts, 60, 0.0, 1e-12)
    signs = [_regular_sign(f, x, threshold) for x in zeros]
    if m == 1:
        zeros = [np.array([x]) for x, _ in roots]
        signs = [_regular_sign(f, x, threshold) for x in zeros]
        for x, sign, (_, rise) in zip(zeros, signs, roots):
            if sign != rise:
                raise ValueError(
                    f"zero at {x} has Jacobian sign {sign} but its bracket "
                    f"changes sign by {rise}: the scan missed zeros")
    zeros = np.array(zeros) if zeros else np.zeros((0, m))
    signs = np.array(signs, dtype=int)
    return DegreeCertificate(box=box, target=target, degree=int(signs.sum()),
                             zeros=zeros, signs=signs, boundary_margin=margin)


def _regular_sign(f, x, threshold):
    """Sign of det Df at the zero x; raises when |det Df| < threshold."""
    detJ = float(np.linalg.det(_fd_jacobian(f, x)))
    if abs(detJ) < threshold:
        raise ValueError(
            f"suspected non-regular zero at {x} (|det J| = {abs(detJ):.3e})")
    return int(np.sign(detJ))


def _fd_jacobian(f, x, h=1e-7):
    m = len(x)
    J = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = h * max(1.0, abs(x[j]))
        J[:, j] = (f(x + e) - f(x - e)) / (2 * e[j])
    return J


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


def _boundary_margin(f, box, samples):
    return min(float(np.linalg.norm(f(p))) for p in _boundary_points(box, samples))


def _interior_scale(f, box, samples=5):
    axes = [np.linspace(a, b, samples) for a, b in box]
    return max(float(np.linalg.norm(f(np.array(pt)))) for pt in product(*axes))


def degree_preservation_check(g_fn, remainder_bound, eps, kappa, box,
                              boundary_samples=64):
    """True when min |g| on the box boundary exceeds R |eps|^{kappa+1}.

    This is the boundary margin that makes the truncated polynomial and the
    full function share their degree on the box; the margin is returned
    alongside the verdict.
    """
    box = np.atleast_2d(np.asarray(box, dtype=float))
    margin = _boundary_margin(lambda p: np.atleast_1d(g_fn(p, eps)), box,
                              boundary_samples)
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
        worst = max(float(np.max(np.abs(gs.value(i, z)))) for z in points)
        if worst <= 1e-7:
            continue
        # scale from points displaced off the chart
        scale = max(float(np.max(np.abs(gs.value(i, z + 0.1 * np.ones(gs.n)))))
                    for z in points)
        if worst > max(1e-7, ZERO_DETECTION_RELATIVE * max(scale, 1.0)):
            raise ValueError(
                f"order-{i} averaged function does not vanish on the sub-chart "
                f"(max |g_{i}(z_a)| = {worst:.3e})")
    return shifted


def expand_branch(reduction, branch=None):
    """First-order expansion z(eps) = z0 + eps z1 + ... of the zero branch.

    alpha0 is the simple root of f_r inside the chart (seeded from the
    smallest-epsilon branch point when a branch is supplied); alpha1 follows
    by implicit differentiation, and the normal component combines the chart
    slope with gamma_1.
    """
    chart = reduction.chart
    r = reduction.r
    if branch is not None and branch.eps.size:
        seed_alpha = branch.a_eps[np.argmin(branch.eps)]
    else:
        seed_alpha = np.mean(chart.box, axis=1)
    alpha = np.array(seed_alpha, dtype=float)
    if chart.m == 1:
        # the surrogate's zero of f_r nearest the seed, then exact steps
        zeros = _surrogate(reduction).zeros_of(r)
        if not zeros.size:
            raise BranchError("f_r has no zero in the chart box")
        alpha = np.array([min(zeros, key=lambda a: abs(a - alpha[0]))])
        n_exact = 3
    else:
        n_exact = 60
    alpha0 = _newton(lambda a: reduction.f_at(a)[r - 1],
                     lambda a: _fk_jacobian(reduction, a, r), alpha, 0.0, n_exact)
    J0 = _fk_jacobian(reduction, alpha0, r)
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

