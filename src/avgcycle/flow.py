"""Every integration over one period [0, T], built from one right-hand side.

The unperturbed flow, its fundamental matrix, the full perturbed flow and
the y_i hierarchy behind the averaged functions are all cuts of one
augmented system

    x' = sum_i eps^i F_i(t, x),
    Y' = A(t) Y,                  Y(0) = Id,   A = dF_0/dx,
    y_i' = A(t) y_i + B_i(t),     y_i(0) = 0,  i = 1..k,

and one private builder, ``_Plan``, turns the chosen cut into a single
generated Python function.  The derivative entries of the fields' tensor
stacks, the sums over eps^i, the products A Y and A y_i and the B_i
contractions all become one straight-line function: ``expr.regroup``
regroups the nodes by state monomial, so the factors free of the state are
multiplied first and equal monomials are formed once, and
``expr.compile_jet`` compiles them, so a subexpression shared between
fields is computed once per call.  The regrouped function equals the nodes
as written to roundoff, not bit for bit.  Each call is compact, on lists of
Python floats: it takes the values at the positions it reads (``fn.reads``;
the weights eps^i sit past the state) and returns the slopes of the slots
that move (all but ``fn.constant``).  A Chebyshev pass calls only the array
form of its own dependency level (``fn.arrays``), on numpy columns, to the
same bits, so the function itself is compiled on its first call.  It is
cached on the series by the live fields, the variational flag, the B_i
term table, the parameter values and the jet layout; eps enters through
the weights.  A field that leaves its domain raises on Python floats
(division by zero, overflow in ``**``, a ``math`` domain error), and
``_run_solver`` reports that as ``IntegrationError`` at the failing time.

The public entry points only choose the cut:

* ``integrate_unperturbed`` - x at eps = 0;
* ``fundamental_matrix``    - x and Y = dx/dz at eps = 0;
* ``integrate_full``        - x at any eps, optionally with Y = dx/dz (the
  displacement Jacobian);
* ``averaging.y_functions`` - x, Y and y_1..y_k, given a table of B_i terms.

Each returns a ``Trajectory``, the augmented state at t = 0 and t = T, all
that the pipeline reads; ``sample_orbit`` gives x at interior times,
integrated from each sample time to the next.

Every cut is integrated as a jet: ``expr.compile_jet`` lifts its nodes to
truncated Taylor polynomials in offsets db of the trailing nb coordinates,
x(0) = z + db, each slot to its own degree, and ``_JetLayout`` says where
the coefficients sit.  A plain cut is the jet in nb = 0 offsets, whose code
is the scalar code of its nodes.  The weights eps^i are constant in the
offsets, so a cut is lifted at any eps, but the variational block (Y and
the y_i) is the averaging system's, at eps = 0: Y at eps != 0 is the
degree-1 jet of x in all n offsets, whose levels 1 are Y row-major.

Every integration runs through this module's ``solve_ivp`` with one of two
steppers, chosen by ``_run_solver`` from ``fn.depth`` alone:

* a cut whose moving slots read one another without a cycle, save affine
  self-loops (``fn.depth`` of ``compile_jet`` is not None), integrated over
  its whole interval, is Chebyshev cumulative quadrature (``_chebyshev``;
  Trefethen, Approximation Theory and Approximation Practice, ch. 19;
  Greengard, SIAM J. Numer. Anal. 28, 1991).  At eps = 0 the y_i solve
  y_i' = A y_i + B_i and Y' = A Y, and every level of a jet is linear in
  its own coefficient, so a slot that reads itself often does so affinely:
  u' = a(t) u + b(t), solved in its pass by the integrating factor
  exp(integral of a), a returned by the array forms after the slopes
  (``compile_jet``).  Where F_0 vanishes, x and Y are held and each y_i
  reads only y_1..y_{i-1}: the averaging cuts are iterated integrals.
  With cyl3d's w' = w, every eps = 0 cut is a chain of such self-loops.
  depth + 1 passes at the Chebyshev-Lobatto points of [0, T] integrate a
  cut, pass L the slopes of level L alone, on the final states of the levels
  below, by one call of level L's array form (``fn.arrays``).  A stack of
  start points, as the checks and the reduction grids make, is integrated at
  once: its members' states and series sit in whole-stack arrays, on which
  each pass makes one array call and a fixed number of array operations, and
  each member is bit for bit its solo integration.  The time-only code of
  the right-hand side (``fn.clock``: the lines that read no state, such as
  sin(t)) runs once per point of each N and interval, into a table cached on
  the clock (``_clock_table``) whose columns follow the reads in each array
  call; the integrating factors of coefficients that read no state are
  cached with it.  A level is accepted on a measured certificate, the tail
  of its integrals' Chebyshev coefficients at most rtol s + atol; otherwise
  the points double, the levels carried by their series, and each pass
  evaluates all the new points.  DOP853 is the one fallback: a member takes
  it past 257 points, and at once where its level's array call raises, where
  N has no clock table, or where an integrating factor overflows or spans
  too many decades;
* every other integration - a cut with a cycle of two or more slots or a
  self-loop that is not affine, such as a nonlinear F_0 (the logistic
  x' = -x - x^2) or any cut with the perturbation live (r' = eps F_1 is
  nonlinear in r on both fixtures, so the full flow, its Jacobian and the
  orbit refinement all step DOP853) - is the explicit Runge-Kutta method
  DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5), run by
  ``_dop853``.  So is every ``sample_orbit`` segment, at any eps, through
  a partial of its own that carries the step size and slope.

The tableau ``_DOP853`` is written out here; the initial-step rule, the
step-size control and the error norm are those of scipy's DOP853.  The step
loop, stage sums and error norm included, is one function generated per
state size, set of held slots and set of read positions (``_loop``), run on
lists of Python floats.  Each stage builds only the list the right-hand
side reads: a held slot and a weight are locals bound once per integration,
and a slot that moves but that no entry reads gets no stage states, only
its new state and its error terms.

A slot is held when its compiled right-hand side entry is a literal zero
(``fn.constant`` of ``compile_jet``, lifted levels included) on the states
the plan seeds.  Some entries start at zero whatever z is: Y off its
diagonal, the y_i and every unseeded level.  ``compile_jet`` compiles the
right-hand side with the largest set of them read as zero whose entries are
then literal zeros (``fn.zero``); by uniqueness these stay zero for all t,
so the terms they would zero are left out.  x and Y at eps = 0 when F_0
vanishes are held too.  A held slot is passed as it is and adds nothing to
the error sums, so every DOP853 step is the one of the full sums, bit for
bit; the Chebyshev passes integrate only the moving slots.  Tolerances
default to 1e-10/1e-10, and both steppers honour the step budget of
``IntegratorConfig``.
"""

from __future__ import annotations

import math
import sys
from numbers import Real
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import product
from types import SimpleNamespace

import numpy as np

from .expr import Num, Var, compile_jet, level_returns, mk_add, mk_mul, regroup
from .tensor import jet_level_starts, jet_state_starts, packed_index_table

__all__ = ["IntegratorConfig", "Trajectory", "IntegrationError",
           "integrate_unperturbed", "fundamental_matrix", "integrate_full",
           "sample_orbit"]


class IntegrationError(RuntimeError):
    """Integration failed: blow-up, step exhaustion or solver breakdown."""

    def __init__(self, message, t_fail=None):
        super().__init__(message)
        self.t_fail = t_fail


@dataclass(frozen=True)
class IntegratorConfig:
    """Integrator settings: positive finite tolerances, and ``max_steps``, a
    whole number >= 1 (kept as an int), the most steps a DOP853 integration
    attempts, rejected ones included.  The attempt past the budget is not
    made: ``IntegrationError`` is raised with ``t_fail`` the time it would
    have started at, the end of the last accepted step.  A Chebyshev
    integration counts 12 right-hand side evaluations as a step, as
    DOP853's 12 stages do; it calls the clock of the right-hand side's
    time-only code at most once per evaluation, so the budget bounds those
    calls too, but ``nfev`` counts right-hand side calls alone."""

    rtol: float = 1e-10
    atol: float = 1e-10
    max_steps: int = 100_000

    def __post_init__(self):
        # a NaN tolerance fails every comparison, and so this test too
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        # a NaN, an infinite or a fractional budget never equals the count
        # of attempts, and would never stop one
        steps = self.max_steps
        if not (isinstance(steps, Real) and math.isfinite(steps)
                and steps == int(steps) >= 1):
            raise ValueError(f"max_steps must be at least 1 and whole, not {steps!r}")
        object.__setattr__(self, "max_steps", int(steps))


@dataclass
class Trajectory:
    """One integration over [0, T]: the augmented state at both ends.

    ``start`` and ``end`` are the state at t = 0 and at t = T, laid out as
    x, Y (row-major, ``has_Y``: the variational block, or the levels 1 of
    the degree-1 jet in all n offsets) and y_1..y_k, lifted by ``jet``
    (``_JetLayout``, nb = 0 for a plain state); ``xT`` and ``YT`` read x and
    Y off ``end``.  ``tolerance_bound`` is 10 (rtol s + atol), s the largest
    entry of the plain state (of x and Y, Y a jet) over the accepted
    DOP853 steps, or over the Chebyshev points of a cut whose only cycles
    are affine self-loops: read off the tolerances, an order-of-magnitude
    bound for downstream reports, not a measured error.  ``sample_orbit``
    gives x at interior times.
    """

    z: np.ndarray
    period: float
    config: IntegratorConfig
    start: np.ndarray
    end: np.ndarray
    dim: int
    has_Y: bool
    jet: object
    periodicity_defect: float
    tolerance_bound: float

    @property
    def xT(self):
        return self.end[:self.dim]

    @property
    def YT(self):
        if not self.has_Y:
            raise ValueError("trajectory carries no fundamental matrix")
        n = self.dim
        return self.end[n:n + n * n].reshape(n, n)


def _sparse(shape, rows):
    """An array of ``shape`` from one {column: value} dict per row."""
    out = np.zeros(shape)
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[i, j] = value
    return out


class _DOP853:
    """The DOP853 tableau, in the layout of scipy's ``DOP853`` class.

    ``C`` and ``A`` are the nodes and the matrix of the 12 stages, ``B``
    the weights of the 8th-order solution, ``E5`` and ``E3`` the weights of
    the 5th- and 3rd-order error estimates over the 12 stages and the slope
    at the new point.  Every value is the float64 that scipy holds.
    """

    n_stages = 12
    error_estimator_order = 7
    C = np.array([
        0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
        0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
        0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
    A = _sparse((12, 12), [
        {},
        {0: 0.05260015195876773},
        {0: 0.0197250569845379, 1: 0.0591751709536137},
        {0: 0.02958758547680685, 2: 0.08876275643042054},
        {0: 0.2413651341592667, 2: -0.8845494793282861,
         3: 0.924834003261792},
        {0: 0.037037037037037035, 3: 0.17082860872947386,
         4: 0.12546768756682242},
        {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
         5: -0.017578125},
        {0: 0.03709200011850479, 3: 0.17038392571223998,
         4: 0.10726203044637328, 5: -0.015319437748624402,
         6: 0.008273789163814023},
        {0: 0.6241109587160757, 3: -3.3608926294469414,
         4: -0.868219346841726, 5: 27.59209969944671, 6: 20.154067550477894,
         7: -43.48988418106996},
        {0: 0.47766253643826434, 3: -2.4881146199716677,
         4: -0.590290826836843, 5: 21.230051448181193,
         6: 15.279233632882423, 7: -33.28821096898486,
         8: -0.020331201708508627},
        {0: -0.9371424300859873, 3: 5.186372428844064,
         4: 1.0914373489967295, 5: -8.149787010746927,
         6: -18.52006565999696, 7: 22.739487099350505,
         8: 2.4936055526796523, 9: -3.0467644718982196},
        {0: 2.273310147516538, 3: -10.53449546673725,
         4: -2.0008720582248625, 5: -17.9589318631188, 6: 27.94888452941996,
         7: -2.8589982771350235, 8: -8.87285693353063,
         9: 12.360567175794303, 10: 0.6433927460157636},
    ])
    B = np.array([
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
        1.8915178993145003, -5.801203960010585, 0.3111643669578199,
        -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
    E3 = np.array([
        -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
        1.8915178993145003, -5.801203960010585, -0.4226823213237919,
        -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
    E5 = np.array([
        0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
        -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
        0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])


_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / (_DOP853.error_estimator_order + 1)
_DOMAIN_ERRORS = (ZeroDivisionError, OverflowError, ValueError)


def _left_domain(t, exc):
    return IntegrationError(f"right-hand side left its domain at t = {t:.6g} ({exc})",
                            t_fail=t)


def _check_returns(received, slopes, coefficients):
    """A right-hand side returns its slopes, then its self-loop coefficients:
    ``received`` values a call, or ``ValueError``."""
    if received != slopes + coefficients:
        raise ValueError(f"the right-hand side returns {received:g} values a call, not "
                         f"{slopes + coefficients}: {slopes} slopes and {coefficients} "
                         "self-loop coefficients")


def _initial_step(fun, t, y, f, t_bound, rtol, atol):
    """scipy's ``select_initial_step``, with its RMS norms on floats;
    ``fun(t, y)`` is the slope of the whole state.  A slope too steep to
    square, (v / s) ** 2 past the largest float, or not finite raises
    ``IntegrationError`` at t."""
    interval = t_bound - t
    scale = [atol + abs(v) * rtol for v in y]

    def rms(values):
        try:
            return (math.sqrt(sum((v / s) ** 2 for v, s in zip(values, scale)))
                    / len(scale) ** 0.5)
        except OverflowError as exc:
            raise IntegrationError(f"initial-step rule overflowed at t = {t:.6g} ({exc})",
                                   t_fail=t) from exc

    d0, d1 = rms(y), rms(f)
    if not math.isfinite(d1):
        raise IntegrationError("non-finite state (blow-up)", t_fail=t)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t + h0, [v + h0 * w for v, w in zip(y, f)])
    d2 = rms([b - a for a, b in zip(f, f1)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return min(100 * h0, h1, interval)


# The step loop of ``_loop``.  Local y<i> holds slot i of the state, w<i>
# of the new state, k<j>_<i> of stage j and e<p> the weight read at
# position p; ``tc`` is the time of the right-hand side call under way, so a
# domain error is reported there.
_LOOP = """\
def _run(fun, t, t_bound, y, f, h_abs, nfev, rtol, atol, max_steps, weights):
    {state} = y
{bind}
    {slope0} = f
    ts, states, attempts, tc = [t], [y], 0, t
    try:
        while t < t_bound:
            min_step = 10 * (nextafter(t, inf) - t)
            if min_step > h_abs:
                h_abs = min_step
            rejected = False
            while True:
                if h_abs < min_step:
                    return ts, states, nfev, False, h_abs, f
                if attempts == max_steps:
                    raise IntegrationError(
                        f"step budget exceeded ({{max_steps}} step attempts)", t_fail=t)
                attempts += 1
                # the size wanted before a cut to the bound
                wanted = h_abs
                t_new = t + h_abs
                if t_bound < t_new:
                    t_new = t_bound
                h = h_abs = t_new - t
{stages}
                tc = t + h
                f_new = fun(tc, [{new_reads}])
                nfev += {n_stages}
                p = q = 0.0
{norm}
                # h > 0: the integration runs forward
                error = 0.0 if p == 0 and q == 0 else h * p / sqrt((p + 0.01 * q) * {n})
                if error < 1:
                    factor = ({max_factor} if error == 0
                              else min({max_factor}, {safety} * error ** {exponent}))
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs *= max({min_factor}, {safety} * error ** {exponent})
                rejected = True
            if t_new == t_bound and wanted > h_abs:
                # a step cut short says little about the one past the bound
                h_abs = wanted
            t, y, f = t_new, y_new, f_new
            {slope0} = f
{accept}
            ts.append(t)
            states.append(y)
        return ts, states, nfev, True, h_abs, f
    except domain_errors as exc:
        raise left_domain(tc, exc) from exc
"""


def _terms(row, i):
    """Source of sum_j row[j] k_j for slot i over the nonzero row[j], a term
    per line: short lines keep the code object's location table small."""
    return "\n + ".join(f"{float(a)!r} * k{j}_{i}" for j, a in enumerate(row) if a)


@cache
def _loop(n, held, reads):
    """The DOP853 step loop for states of ``n`` slots as one generated
    function, ``held`` the slots whose right-hand side is a literal zero and
    ``reads`` the positions the right-hand side reads: state slots below n,
    weights from n on.

    ``_run(fun, t, t_bound, y, f, h_abs, nfev, rtol, atol, max_steps,
    weights)`` steps from (t, y), with proposed step size h_abs, to
    t_bound, and returns the times and states of every accepted step (the
    start included), ``nfev``, whether it reached t_bound, the step size
    proposed past the end and the slope there.  ``fun`` is called on the
    compact lists of ``compile_jet``: the values at ``reads``, the weights
    included, and it returns the slope of the moving (not held) slots alone,
    as ``f`` is given and returned.  Each stage's slope is unpacked into
    locals once, and the stage sums, the new state and the error norm of
    scipy's DOP853 are unrolled over the slots with the same expressions in
    the same order, so every step is scipy's.  A held slot and a weight are
    locals bound once and passed as they are; a moving slot that no entry
    reads gets no stage states, only its new state and its error terms.  The
    norm divides by all n slots.  Before attempt ``max_steps`` + 1 it raises
    ``IntegrationError`` with t_fail the time it would start at; a
    ``ZeroDivisionError``, ``OverflowError`` or ``ValueError`` of ``fun``
    becomes ``IntegrationError`` at the time of the failing call.
    """
    moving = [i for i in range(n) if i not in held]

    def unpack(j):
        return ", ".join(f"k{j}_{i}" for i in moving) + "," if moving else "_"

    def passed(p, moved):
        """Source of the value at read position p, ``moved(p)`` for a
        moving slot."""
        return f"e{p}" if p >= n else f"y{p}" if p in held else moved(p)

    pad = " " * 16
    stages = []
    for s in range(1, _DOP853.n_stages):
        row = _DOP853.A[s, :s]
        state = ",\n".join(passed(p, lambda i: f"y{i} + ({_terms(row, i)}) * h")
                           for p in reads)
        stages += [f"{pad}tc = t + {float(_DOP853.C[s])!r} * h",
                   f"{pad}{unpack(s)} = fun(tc, [{state}])"]
    stages += [f"{pad}w{i} = y{i} + ({_terms(_DOP853.B, i)}) * h" for i in moving]
    new = ", ".join(f"w{i}" if i in moving else f"y{i}" for i in range(n))
    stages.append(f"{pad}y_new = [{new}]")
    norm = []
    for i in moving:
        norm += [f"{pad}a = abs(y{i})", f"{pad}b = abs(w{i})",
                 f"{pad}s = atol + (a if a > b else b) * rtol"]
        for row, acc in ((_DOP853.E5, "p"), (_DOP853.E3, "q")):
            norm += [f"{pad}e = ({_terms(row, i)}) / s", f"{pad}{acc} += e * e"]
    src = _LOOP.format(
        state=", ".join(f"y{i}" for i in range(n)) + ",", slope0=unpack(0),
        bind="\n".join(f"    e{p} = weights[{p - n}]" for p in reads if p >= n),
        stages="\n".join(stages), new_reads=", ".join(passed(p, "w{}".format) for p in reads),
        norm="\n".join(norm), n=n, n_stages=_DOP853.n_stages,
        accept="\n".join(f"            y{i} = w{i}" for i in moving),
        safety=_SAFETY, min_factor=_MIN_FACTOR, max_factor=_MAX_FACTOR, exponent=_EXPONENT)
    scope = {"nextafter": math.nextafter, "inf": math.inf, "sqrt": math.sqrt,
             "IntegrationError": IntegrationError, "left_domain": _left_domain,
             "domain_errors": _DOMAIN_ERRORS}
    exec(compile(src, f"<dop853 n={n} held={len(held)} reads={len(reads)}>", "exec"), scope)
    run = scope["_run"]
    run.source = src
    return run


def _dop853(fun, t0, y0, t_bound, rtol, atol, *, reads, constant=(), weights=(),
            max_steps=math.inf, first_step=None, slope=None):
    """DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5) on lists
    of Python floats, from (t0, y0) to t_bound: the stepper ``solve_ivp``
    is given as ``method``.

    ``fun`` is a function of ``compile_jet`` or a wrapper of one, called
    the compact way: with a Python float time and the list of the values at
    its ``reads`` (positions into y0 followed by ``weights``, the eps^i of
    ``_Plan``), and returning the slope of every slot but its ``constant``
    ones, the slots where it returns a literal zero; a call made before the
    steps that returns another count raises ``ValueError``.  ``nfev``
    counts the calls.  The initial-step rule, ``min_step``, the step
    factors and the combined err5/err3 norm are those of scipy's DOP853;
    the steps are the generated loop ``_loop``, one per state size,
    ``constant`` and ``reads``.  The constant slots keep their start value,
    and every step, state and ``nfev`` is the one of the full sums on the
    whole state, bit for bit, except that a -0.0 start value stays -0.0.  A
    ``first_step`` replaces the initial-step rule and its probe, and a
    ``slope``, the whole-state slope at (t0, y0) as an earlier integration
    ended on it (``end_slope``), the first call; ``sample_orbit`` binds
    both into the partial it gives ``solve_ivp``.  Like every step, the
    first is cut to the bound.  At most ``max_steps`` steps are attempted,
    rejected ones included.  Integration runs forward.
    """
    if t_bound <= t0:
        raise ValueError("the integration runs forward")
    y = np.asarray(y0, dtype=float).tolist()
    if not all(map(math.isfinite, y)):
        raise ValueError("the initial state must be finite")
    # scipy's floor on rtol
    rtol = max(float(rtol), 100 * sys.float_info.epsilon)
    atol = float(atol)
    n, held, weights = len(y), sorted(constant), list(weights)
    m = n - len(held)

    def whole(compact):
        # the slope of every slot: zero at the held ones
        out = list(compact)
        for i in held:
            out.insert(i, 0.0)
        return out

    def full_slope(t, u):
        # a domain error is reported at t
        x = u + weights
        try:
            compact = fun(t, [x[p] for p in reads])
        except _DOMAIN_ERRORS as exc:
            raise _left_domain(t, exc) from exc
        _check_returns(len(compact), m, 0)
        return whole(compact)

    f, nfev = slope, 0
    if f is None:
        f, nfev = full_slope(t0, y), 1
    if first_step is None:
        h_abs = _initial_step(full_slope, t0, y, f, t_bound, rtol, atol)
        nfev += 1
    else:
        h_abs = float(first_step)
    moving = [i for i in range(n) if i not in constant]
    ts, states, nfev, success, h_abs, f = _loop(n, frozenset(held), tuple(reads))(
        fun, t0, t_bound, y, [f[i] for i in moving], h_abs, nfev, rtol, atol, max_steps,
        weights)
    message = ("The solver successfully reached the end of the integration interval."
               if success else "Required step size is less than spacing between numbers.")
    return SimpleNamespace(t=np.array(ts), y=np.array(states).T, nfev=nfev,
                           success=success, message=message, next_step=h_abs,
                           end_slope=whole(f))


# Chebyshev cumulative quadrature: the first N (N + 1 points), and the
# largest before an integration falls back to DOP853
_CHEB_FIRST, _CHEB_CAP = 32, 256


@cache
def _cheb_matrices(N):
    """The N + 1 Chebyshev-Lobatto points x_j = -cos(j pi / N) of [-1, 1],
    ascending, and two matrices for values f_j there: ``coef`` gives the
    Chebyshev coefficients b_0..b_{N+1} of the integral from -1 of their
    interpolant, and ``value`` turns those into the integral's values at
    the points.  The points of N are those of 2N at even j, bit for bit."""
    j = np.arange(N + 1)
    x = np.sin(np.pi * (2 * j - N) / (2 * N))
    theta = np.pi - np.pi * j / N
    # a_k = (2/N) sum'' f_j T_k(x_j), the end terms and a_0, a_N halved
    interp = 2.0 / N * np.cos(np.outer(np.arange(N + 1), theta))
    interp[:, [0, N]] /= 2
    interp[[0, N]] /= 2
    # b_m = (c_{m-1} - a_{m+1}) / 2m with c_0 = 2 a_0 and a_m = 0 past N,
    # and b_0 so that the integral vanishes at x = -1, where T_m = (-1)^m
    coef = np.zeros((N + 2, N + 1))
    coef[1:] = interp
    coef[1] += interp[0]
    coef[1:N] -= interp[2:]
    coef[1:] /= 2.0 * np.arange(1, N + 2)[:, None]
    coef[0] = -((-1.0) ** np.arange(1, N + 2)) @ coef[1:]
    value = np.cos(np.outer(theta, np.arange(N + 2)))
    return x, coef, value


@cache
def _cheb_plan(n, constant, levels, loops, reads):
    """The index arrays of ``_chebyshev``'s passes on one layout, holding no
    value: ``n`` slots, ``constant`` held, ``levels`` and ``loops`` per
    slope and the positions the right-hand side reads, a weight i at n + i;
    ``coefficients`` counts the distinct slots of ``loops``.  A stack holds
    the slots in the columns ``order``: the ``moving`` ones level by level,
    then the held ones; ``rank`` is each slot's column and ``reads`` each
    read's (a weight keeps its position).  Pass L integrates level L alone:
    its array form returns ``returns`` values (``expr.level_returns``), first
    its ``slopes`` slopes, of the columns ``block``; ``looped`` are those
    with a self-loop, of the columns ``loop_columns``, their coefficients at
    ``a``."""
    moving = [i for i in range(n) if i not in constant]
    if len(levels) != len(moving):
        raise ValueError(f"{len(moving)} moving slots need one level each, not {len(levels)}")
    if loops is not None and len(loops) != len(moving):
        raise ValueError(f"{len(moving)} moving slots need one loop entry each, "
                         f"not {len(loops)}")
    loops = loops or (None,) * len(moving)
    slots = sorted({j for j in loops if j is not None})
    moved, passes = [], []
    for take in level_returns(levels, loops):
        slopes = [k for k in take if k < len(moving)]
        looped = np.array([i for i, k in enumerate(slopes) if loops[k] is not None], dtype=int)
        passes.append(SimpleNamespace(
            returns=len(take), slopes=len(slopes),
            block=slice(len(moved), len(moved) + len(slopes)),
            looped=looped, loop_columns=len(moved) + looped,
            a=np.array([take.index(len(moving) + slots.index(loops[slopes[i]])) for i in looped],
                       dtype=int)))
        moved += slopes
    order = [moving[k] for k in moved] + sorted(constant)
    rank = np.argsort(order)
    # ``moved``: the moving slots in column order, as indices into them
    return SimpleNamespace(order=np.array(order, dtype=int), rank=rank, moving=len(moving),
                           moved=np.array(moved, dtype=int), unmoved=np.argsort(moved),
                           passes=passes, coefficients=len(slots),
                           reads=np.array([rank[p] if p < n else p for p in reads], dtype=int))


def _cheb_points(N, t0, t_bound):
    """The N + 1 Chebyshev-Lobatto points of [t0, t_bound], ends exact, read-only."""
    points = t0 + 0.5 * (t_bound - t0) * (_cheb_matrices(N)[0] + 1.0)
    points[0], points[-1] = t0, t_bound
    points.flags.writeable = False
    return points


def _clock_table(clock, t0, t_bound, N):
    """The clock table of the N + 1 ``points`` of [t0, t_bound]
    (``_cheb_points``): ``tail`` holds what ``clock(t)`` returns at each
    point, then the time, and ``factors`` the integrating factors
    ``_chebyshev`` computes from time-only coefficients.  None where the
    clock leaves its domain.  Cached on the clock, one interval at a time;
    each N evaluates the clock at all of its points."""
    tables, key = clock.tables, (t0, t_bound, N)
    if key in tables:
        return tables[key]
    if any(other[:2] != key[:2] for other in tables):
        tables.clear()
    points, table = _cheb_points(N, t0, t_bound), None
    try:
        rows = [clock(t) for t in points.tolist()]
    except _DOMAIN_ERRORS:
        rows = None
    if rows is not None:
        for row in rows:
            if len(row) != clock.width:
                raise ValueError(f"a clock table of {clock.width} columns, "
                                 f"but {len(row)} values at a point")
        rows = np.array(rows, dtype=float).reshape(N + 1, clock.width)
        table = SimpleNamespace(points=points, factors={},
                                tail=np.concatenate((rows, points[:, None]), axis=1))
    tables[key] = table
    return table


def _finished(sol):
    """``sol`` if it reached its end on a finite state, else ``IntegrationError``."""
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}", t_fail=sol.t[-1])
    if not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationError("non-finite state (blow-up)", t_fail=sol.t[-1])
    return sol


def _chebyshev(fun, t0, y0, t_bound, rtol, atol, *, reads, constant=(),
               weights=(), max_steps=math.inf, levels, arrays, loops=None, clock=None,
               time_only=False):
    """Chebyshev cumulative quadrature (Trefethen, Approximation Theory and
    Approximation Practice, ch. 19) of a right-hand side whose moving slots
    read one another without a cycle, save affine self-loops: the stepper
    ``solve_ivp`` is given as ``method`` for such a cut.

    ``levels[k]`` is the level of the k-th slope (``fn.levels`` of
    ``compile_jet``): a slope reads only moving slots of lower levels, and
    itself where ``loops[k]`` is not None (``fn.loops``): u' = a(t) u +
    b(t), a the coefficient of slot ``loops[k]``.  ``arrays[L]``, level L's
    array form (``fn.arrays``), returns per row its slopes, then their
    self-loops' coefficients (``expr.level_returns``), or ``ValueError``;
    ``fun``, the whole right-hand side, serves the ``_dop853`` fallback
    alone.  On the N + 1 Chebyshev-Lobatto points of [t0, t_bound], N = 32
    first, pass L integrates the slopes of level L alone, on the accepted
    states of the levels below it, a self-loop by its integrating factor
    E = exp(integral of a), u = E (u_0 + integral of (f - a u) / E); the
    levels above wait at their start value, or at their last series' after
    a doubling.  A level is accepted when, for each of its slots, the
    integral's Chebyshev coefficients of degree above 3N / 4, summed in
    absolute value, are at most rtol s + atol, s the slot's largest value
    over the points (for decaying coefficients that tail exceeds the ones
    past N, and a window of N / 4 cannot vanish by parity), and a
    self-loop's states are its integrating factor's u to within that bound
    (where a < 0, the roundoff of the integral of 1/E can leave u off while
    its slopes look resolved).  Otherwise N doubles, every slot carried by
    its last series, and the passes go on from the level that missed, each
    at all N + 1 points of the new N.  A ``constant`` slot keeps its start
    value.

    ``y0`` is one start state or a stack (K, n), each member its solo
    integration bit for bit.  An attempt at one N holds its members, by the
    level they start at, in whole-stack arrays: states (members, N + 1,
    columns) and series.  Pass L runs on the members live at L: one call of
    ``arrays[L]`` on all their rows (the values at the reads, the clock's
    from ``_clock_table``, the times) under ``np.errstate`` raising, each
    member its own where that raises; array operations whose
    member slices keep a solo layout; one check of finiteness and of the
    tail bound for all; one compaction where members leave.  With
    ``time_only`` the integrating factors are kept with the clock table.

    ``max_steps`` bounds each member's evaluations (rows, ``nfev``), 12 per
    step as DOP853's stages: a pass that would pass it raises
    ``IntegrationError`` at t0 without a call.  A non-finite slope or state
    is a blow-up at its first such point.  The one fallback is
    ``_dop853`` from the start state, on what is left of the budget, where
    the member's own array call raises (a domain error is then DOP853's,
    where its steps meet it, and a 0 / 0 that only a point hit is passed),
    where N has no clock table, where an integrating factor is not finite or
    its integral of a falls by more than log(rtol / eps) + 3 (1/E then spans
    too many decades to meet rtol), and past N = 256.  The result has ``t``,
    the points, ``y``, the states there, ``nfev``, ``success``, ``message``
    and ``passes`` (depth + 1).  A stack's has ``members`` and reads as one
    stacked state at t0 and t_bound; its first member that fails, or whose
    fallback does not finish, raises.
    """
    if t_bound <= t0:
        raise ValueError("the integration runs forward")
    y0 = np.asarray(y0, dtype=float)
    rtol, n = max(float(rtol), 100 * sys.float_info.epsilon), y0.shape[-1]
    plan = _cheb_plan(n, tuple(constant), tuple(levels),
                      None if loops is None else tuple(loops), tuple(reads))
    depth = len(plan.passes) - 1
    # the integrating factors of time-only coefficients are kept per N
    tabulated = time_only and plan.coefficients > 0
    width = clock.width if clock is not None else 0
    # the roundoff of the integral of 1 / E leaves the integrating factor's u
    # off by about eps e^fall, relative; the largest fall that met rtol,
    # measured for rtol 1e-12..1e-6, was log(rtol / eps) + 1 to 3
    max_fall = math.log(rtol / sys.float_info.epsilon) + 3.0
    # a member's row at a point: its slots in the plan's order, the weights,
    # the clock's values and the time; an array call ``take``s from the reads on
    ys, ext, half = y0.reshape(-1, n), n + len(weights), 0.5 * (t_bound - t0)
    ordered, take = ys[:, plan.order], np.concatenate((plan.reads,
                                                       np.arange(ext, ext + width + 1)))
    # per member: its evaluations (``top`` is at least each member's) and its
    # outcome (None: DOP853)
    finite = np.logical_and.reduce(np.isfinite(ys), axis=1)
    nfev, top = np.zeros(len(ys), dtype=int), 0
    outs = [None if ok else ValueError("the initial state must be finite")
            for ok in finite.tolist()]

    def over_budget(i, count):
        return IntegrationError(
            f"step budget exceeded ({nfev[i]} + {count} right-hand side evaluations, "
            f"12 per step of {max_steps})", t_fail=t0)

    def call(level, rows):  # arrays[level] on rows, times last; None where it raises
        try:
            return arrays[level](rows[-1], rows[:-1])
        except (FloatingPointError, *_DOMAIN_ERRORS):
            return None

    def drop(kept):
        # the live members where ``kept`` fails leave the attempt; how many stay
        nonlocal group, states, series
        mask = np.concatenate((kept, np.ones(group.size - kept.size, dtype=bool)))
        group, states, series = group[mask], states[mask], series[mask]
        return np.count_nonzero(kept)

    def integral(f):  # from t0, of f's interpolant; f's Fortran layout keeps the bits
        b, out = half * (coef @ f), np.zeros(f.shape)
        np.matmul(value[1:], b, out=out[:, 1:])
        return b, out

    # an attempt's members (``group``, ``joins[L]`` of them from level L
    # on) and their series
    group, N = np.flatnonzero(finite), _CHEB_FIRST
    series = np.zeros((group.size, 0, plan.moving))
    joins = [group.size] + [0] * depth
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while group.size and N <= _CHEB_CAP:
            _, coef, value = _cheb_matrices(N)
            table = (_clock_table(clock, t0, t_bound, N)
                     if clock is not None and (width or tabulated) else None)
            if width and table is None:
                # no array form runs without the clock's columns: all to DOP853
                break
            points = _cheb_points(N, t0, t_bound) if table is None else table.points
            # time-only factors are the table's; others are each pass's own
            cached = table.factors if tabulated and table is not None else {}
            # every slot is its last series: the levels below the member's
            # start accepted, the others provisional
            states = np.empty((group.size, N + 1, take[-1] + 1))
            states[:, :, :n], states[:, :, n:ext] = ordered[group, None], weights
            states[:, :, ext:] = points[:, None] if table is None else table.tail
            if joins[0] < group.size:
                # the series in the slots' own order, C-ordered: a product's
                # bits depend on the order and the layout of its columns
                carried = value[1:, :series.shape[1]] @ np.ascontiguousarray(
                    series[joins[0]:, :, plan.unmoved])
                states[joins[0]:, 1:, :plan.moving] += carried[:, :, plan.moved]
            series = np.concatenate((series, np.zeros((group.size, N + 2 - series.shape[1],
                                                       plan.moving))), axis=1)
            missed, live = [], 0
            for level, p in enumerate(plan.passes):
                # the live prefix: members accepted below this level or starting at it
                live += joins[level]
                if not live:
                    continue
                if top + N + 1 > 12 * max_steps:
                    within = nfev[group[:live]] + N + 1 <= 12 * max_steps
                    for i in group[:live][~within]:
                        outs[i] = over_budget(i, N + 1)
                    if not (live := drop(within)):
                        continue
                top += N + 1
                np.add.at(nfev, group[:live], N + 1)
                taken = states[:live, :, take]
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    out = call(level, taken.reshape(-1, take.size).T)
                    # where the stack's call raises, each member's own (None: DOP853)
                    each = [out] if out is not None or live == 1 else [
                        call(level, rows.T) for rows in taken]
                for values in (values for values in each if values is not None):
                    _check_returns(values.shape[1], p.slopes, p.returns - p.slopes)
                if out is None:
                    done = np.array([values is not None for values in each])
                    values = np.array([values for values in each if values is not None])
                    if not (live := drop(done)):
                        continue
                values = np.ascontiguousarray(values.reshape(live, N + 1, -1))
                view, slopes, gone = states[:live], values[:, :, :p.slopes], None
                if p.looped.size:
                    # with time-only coefficients, their factors are the table's
                    factor = cached.get(level)
                    if factor is None:
                        a = values[:, :, p.a]
                        growth = integral(a)[1]
                        E, inverse = np.exp(growth), np.exp(-growth)
                        # the largest fall of the integral of a, later below
                        # earlier: 1 / E spans that many e-folds
                        fall = (np.maximum.accumulate(growth, axis=1) - growth).max(axis=(1, 2))
                        fall[~(np.isfinite(E).all(axis=(1, 2))
                               & np.isfinite(inverse).all(axis=(1, 2)))] = math.inf
                        factor = a, E, inverse, fall
                        if tabulated:
                            cached[level] = a[:1], E[:1], inverse[:1], fall[:1]
                    a, E, inverse, fall = factor
                    if not np.logical_and.reduce(fall <= max_fall, axis=None):
                        gone = np.zeros(live, dtype=bool) | ~(fall <= max_fall)
                    # affine: the forcing does not read the slot's own state,
                    # which waits at its start or carried value
                    waiting = view[:, :, p.loop_columns]
                    forcing = slopes[:, :, p.looped] - a * waiting
                    u = E * (waiting[:, :1] + integral(inverse * forcing)[1])
                    slopes[:, :, p.looped] = a * u + forcing
                # the slopes' integral, as ``integral`` takes it, and its states
                b, held = series[:live, :, p.block], view[:, :, p.block]
                np.multiply(np.matmul(coef, slopes, out=b), half, out=b)
                np.add(value[1:] @ b, held[:, :1], out=held[:, 1:])
                # summed over every slot: a sum's bits depend on its array's
                # shape; the largest values reduce along contiguous rows
                error = np.add.reduce(np.abs(series[:live, 3 * N // 4 + 1:]), axis=1)[:, p.block]
                if p.looped.size:
                    # and a self-loop's states are its integrating factor's
                    error[:, p.looped] = np.maximum(error[:, p.looped], np.maximum.reduce(np.abs(
                        (u - view[:, :, p.loop_columns]).transpose(0, 2, 1), order="C"), axis=2))
                bound = rtol * np.maximum.reduce(np.abs(held.transpose(0, 2, 1), order="C"),
                                                 axis=2) + atol
                met = error <= bound
                # one check for all: a non-finite slope makes its integral, its
                # states, their bounds and so the bounds' sum non-finite (as an
                # overflow may); a blow-up is at the first such point
                if not math.isfinite(np.add.reduce(bound, axis=None)):
                    at = ~(np.isfinite(slopes).all(axis=2) & np.isfinite(held).all(axis=2))
                    bad = at.any(axis=1) if gone is None else at.any(axis=1) & ~gone
                    for j in np.flatnonzero(bad):
                        outs[group[j]] = IntegrationError(
                            "non-finite state (blow-up)", t_fail=float(points[np.argmax(at[j])]))
                    gone = bad if gone is None else gone | bad
                met = None if gone is None and np.logical_and.reduce(
                    met, axis=None) else np.logical_and.reduce(met, axis=1)
                accepted = met if gone is None or met is None else met & ~gone
                if level == depth:
                    out_y = states[:, :, plan.rank].transpose(0, 2, 1)
                    out_nfev = nfev[group].tolist()
                    for j in range(live) if accepted is None else np.flatnonzero(accepted):
                        outs[group[j]] = SimpleNamespace(
                            t=points, y=out_y[j], nfev=out_nfev[j], success=True,
                            message="Every level met its Chebyshev tail bound.",
                            passes=depth + 1)
                if accepted is None:
                    continue
                miss = np.flatnonzero(~met if gone is None else ~(met | gone))
                if miss.size:
                    missed.append((level, group[miss], series[miss]))
                if level == depth or not accepted.any() and live == group.size:
                    break
                live = drop(accepted)
            if not missed:
                break
            joins = [sum(len(m[1]) for m in missed if m[0] == L) for L in range(depth + 1)]
            group, series = (np.concatenate(arrays) for arrays in list(zip(*missed))[1:])
            N *= 2
    for i, out in enumerate(outs):
        if out is None:
            # the fallback attempts the steps the passes left, if any
            steps = max_steps - math.ceil(nfev[i] / 12)
            if steps < 1:
                raise over_budget(i, 12)
            out = outs[i] = _dop853(fun, t0, ys[i], t_bound, rtol, atol, reads=reads,
                                    constant=constant, weights=weights, max_steps=steps)
            out.nfev += int(nfev[i])
            if y0.ndim == 2:
                _finished(out)
        if isinstance(out, Exception):
            raise out
    return outs[0] if y0.ndim == 1 else SimpleNamespace(
        members=outs, nfev=sum(out.nfev for out in outs), success=True,
        t=np.array([t0, t_bound]),
        y=np.stack((y0.ravel(), np.concatenate([out.y[:, -1] for out in outs])), axis=1))


def solve_ivp(fun, t_span, y0, method, rtol, atol):
    """Integrate y' = fun(t, y) over ``t_span`` with the stepper ``method``
    (a partial of ``_dop853`` or ``_chebyshev`` that names what ``fun``
    reads and returns, and how ``_dop853`` takes its first step), in the
    call shape of ``scipy.integrate.solve_ivp``.

    Returns ``t`` (the start and the end of every accepted step, or the
    Chebyshev points), ``y`` (n x len(t), the state at those times),
    ``nfev``, ``success`` and ``message``; after DOP853 also ``next_step``,
    the step size proposed past the end, and ``end_slope``, the slope of
    the whole state there, and after Chebyshev ``passes``; for a stack of
    start states, ``members``, one such result each (``_chebyshev``).
    """
    t0, t_bound = map(float, t_span)
    return method(fun, t0, y0, t_bound, rtol, atol)


def _run_solver(fn, y0, t_span, config, weights=()):
    """Integrate the right-hand side ``fn`` of ``compile_jet`` (or a wrapper
    that keeps its ``reads`` and ``constant``) over ``t_span`` within the
    step budget of ``config``; ``weights`` are the values it reads past the
    state.  The stepper is ``fn.depth``'s alone: an ``fn`` whose ``depth``
    is not None takes ``_chebyshev``, its ``levels``, ``arrays``, ``loops``
    and ``clock`` in the stepper partial, and ``time_only`` where no
    self-loop coefficient reads the state (``fn.inputs`` past
    ``fn.loops``); everything else ``_dop853``.  A stack (K, n) of start
    states, one ``_chebyshev`` call or K ``_dop853`` ones, gives a list."""
    y0 = np.asarray(y0, dtype=float)
    if getattr(fn, "depth", None) is not None:
        coefficients = fn.inputs[len(fn.loops):]
        method = partial(_chebyshev, reads=fn.reads, constant=fn.constant, weights=weights,
                         max_steps=config.max_steps, levels=fn.levels, arrays=fn.arrays,
                         loops=fn.loops, clock=fn.clock, time_only=not any(coefficients))
        sol = solve_ivp(fn, t_span, y0, method=method, rtol=config.rtol, atol=config.atol)
        return sol.members if y0.ndim == 2 else _finished(sol)
    method = partial(_dop853, reads=fn.reads, constant=fn.constant, weights=weights,
                     max_steps=config.max_steps)
    sols = [_finished(solve_ivp(fn, t_span, y, method=method, rtol=config.rtol,
                                atol=config.atol))
            for y in y0.reshape(-1, y0.shape[-1])]
    return sols if y0.ndim == 2 else sols[0]


def _total(nodes):
    """Left-to-right sum of expression nodes; structural zeros drop out."""
    return reduce(mk_add, nodes, Num(0.0))


def _rhs_nodes(series, live, variational, terms):
    """Expressions of the augmented right-hand side, one per state slot.

    The state slots are ``Var`` leaves indexed into one flat list laid out
    as x, Y (row-major), y_1..y_k, followed by the weights eps^i of the live
    fields; derivative entries come straight from the fields' tensor stacks.
    """
    n = series.dim
    k = len(terms)
    tops = {0: max(k, int(variational)), **dict.fromkeys(live, 0)}
    tops.update({m: k - m for m in range(1, k + 1)})
    stacks = {m: series.tensor_stack(m, top) for m, top in tops.items()}

    def entry(m, L, row, c):
        start, _ = stacks[m]._layout[L]
        return stacks[m].entries[start + row * n + c]

    size = n + (n * n + k * n if variational else 0)
    slot = [Var(f"u{j}", "state", j) for j in range(size + len(live))]
    weights = list(zip(live, slot[size:]))
    out = [_total([entry(0, 0, 0, c)]
                  + [mk_mul(w, entry(i, 0, 0, c)) for i, w in weights])
           for c in range(n)]
    if not variational:
        return out
    # A = dF_0/dx at eps = 0, entry A[r][j] = dF_r/dx_j
    A = [[entry(0, 1, j, r) for j in range(n)] for r in range(n)]
    Y = slot[n:n + n * n]
    out += [_total(mk_mul(A[r][j], Y[j * n + c]) for j in range(n))
            for r in range(n) for c in range(n)]
    y = [slot[n + n * n + i * n:n + n * n + (i + 1) * n] for i in range(k)]
    for i, table in enumerate(terms):
        B = [[] for _ in range(n)]
        for m, L, factors, coeff in table:
            if m not in stacks or stacks[m].order_is_zero.get(L, True):
                continue
            # sum over all index tuples of the y-factor products, collected
            # per packed row (``regroup`` merges the equal products)
            vecs = [j - 1 for j, mult in factors for _ in range(mult)]
            packed = {e: r for r, e in enumerate(packed_index_table(n, L))}
            rows = {}
            for tup in product(range(n), repeat=L):
                rows.setdefault(packed[tuple(sorted(tup))], []).append(
                    reduce(mk_mul, (y[j][a] for j, a in zip(vecs, tup)), Num(1.0)))
            agg = {r: _total(prods) for r, prods in rows.items()}
            for c in range(n):
                B[c].append(mk_mul(Num(float(coeff)), _total(
                    mk_mul(agg_r, entry(m, L, r, c)) for r, agg_r in agg.items())))
        out += [_total([mk_mul(A[r][j], y[i][j]) for j in range(n)] + B[r])
                for r in range(n)]
    return out


class _Plan:
    """Right-hand side of the augmented system as one generated function.

    Which fields are live (eps^i != 0), whether the fundamental matrix Y is
    carried, and the B_i term table are fixed when the plan is built.
    ``terms[i - 1]`` lists the B_i terms as (field, L, ((j, mult), ...),
    coefficient); the y_i block needs ``variational``, and ``variational``
    needs eps = 0 (else ``ValueError``): Y at eps != 0 is the degree-1 jet
    of x in all n offsets.  The whole right-hand side, x' = F_0 + sum_i
    eps^i F_i, Y' = A Y and y_i' = A y_i + B_i, lifted to Taylor
    coefficients in ``nb`` offsets, slot s to degree ``degrees[s]``
    (default 0), is regrouped by ``expr.regroup`` (the weights count as
    coefficients) and compiled by ``expr.compile_jet`` into one
    straight-line function, so every subexpression shared between fields,
    ``sin(t)`` and ``cos(t)`` included, is computed once per call.  ``jet``
    is the state's layout, and ``start(z)`` the state the plan seeds from
    x(0) = z.  The entries that ``start`` sets to zero whatever z is are
    the candidate zero reads of ``compile_jet``, which compiles as zero
    reads those whose right-hand side is a literal zero once all of them
    read as zero (``fn.zero``), so their terms drop out.  ``fn.constant``
    lists the slots whose entry is then a literal zero: on the states the
    plan seeds, they never move, and the stepper holds them at their start
    value.

    The function and the layout are cached on the series, keyed by the
    live fields, ``variational``, the term table, the parameter values and
    the layout; the regrouped nodes are cached there too, keyed without the
    layout, so that the layouts of one cut regroup once.  The weights eps^i
    (``weights``) are read at level 0 alone, past the lifted state, so
    every nonzero eps shares one function and an in-place edit of
    ``series.params`` compiles afresh.  ``fn`` is called the compact way the
    module docstring describes.
    """

    def __init__(self, series, eps, variational, terms, nb=0, degrees=None):
        self.variational = variational
        terms = tuple(tuple(table) for table in terms or ())
        self.k = len(terms)
        self.n = n = series.dim
        size = n + (n * n + self.k * n if variational else 0)
        degrees = tuple(degrees or (0,) * size)
        if not nb:
            # without offsets there are no coefficients above level 0
            degrees = (0,) * len(degrees)
        live = tuple(i for i in range(1, series.order + 1) if eps ** i != 0.0)
        if live and variational:
            raise ValueError("the variational block is integrated at eps = 0 only")
        self.weights = [eps ** i for i in live]
        params = series.param_tuple
        key = (live, variational, terms, params, nb, degrees)
        cached = series._rhs_fns.get(key)
        if cached is None:
            self.jet = _JetLayout(nb, degrees)
            # every layout of one cut regroups the same nodes
            nodes = series._regrouped.get(key[:4])
            if nodes is None:
                nodes = series._regrouped[key[:4]] = regroup(
                    _rhs_nodes(series, live, variational, terms), params, size)
            # the entries that start at zero whatever z is: Y off its
            # diagonal, the y_i and every unseeded level
            zero = np.flatnonzero(self.start(np.ones(n)) == 0.0).tolist()
            cached = series._rhs_fns[key] = (
                compile_jet(nodes, degrees, params, nb, zero), self.jet)
        self.fn, self.jet = cached

    def start(self, z):
        """The lifted state at t = 0 from x(0) = z: Y(0) = Id, y_i(0) = 0,
        and a unit offset on each of the trailing nb coordinates of x."""
        n = self.n
        u0 = np.concatenate([z, np.eye(n).ravel() if self.variational else [],
                             np.zeros(self.k * n)])
        return self.jet.seed(u0, n - self.jet.nb)


class _JetLayout:
    """A state lifted to Taylor coefficients in ``nb`` offsets, slot s to
    degree ``degrees[s]``, laid out by ``tensor.jet_state_starts`` (the
    plain state first).  ``unpack`` turns such a state, or a stack of them,
    into a (coefficients, slots) array each, zero beyond a slot's degree.
    """

    def __init__(self, nb, degrees):
        self.nb = nb
        self.degrees = tuple(degrees)
        self._first = jet_state_starts(nb, self.degrees)
        self.length = self._first[-1]
        self.size = jet_level_starts(nb, max(self.degrees))[-1]
        # coefficients above level 0, per slot
        counts = np.diff(self._first)
        self._slots = np.repeat(np.arange(len(self.degrees)), counts)
        self._cols = np.concatenate([np.arange(1, c + 1) for c in counts])

    def seed(self, base, first):
        """The lifted initial state: the plain state ``base``, and
        d/db_j = 1 on slot first + j (x(0) = z + db when the x slots
        first..first + nb - 1 are the offset coordinates)."""
        if base.size != len(self.degrees):
            raise ValueError("the jet needs one degree per state slot")
        u = np.zeros(self.length)
        u[:base.size] = base
        for j in range(self.nb):
            if self.degrees[first + j]:
                # level 1 starts each slot's coefficients; e_j is its j-th
                u[self._first[first + j] + j] = 1.0
        return u

    def unpack(self, u):
        out = np.zeros(u.shape[:-1] + (self.size, len(self.degrees)))
        out[..., 0, :] = u[..., :len(self.degrees)]
        out[..., self._cols, self._slots] = u[..., len(self.degrees):]
        return out


def _integrate(series, z, eps, config, variational=False, terms=None,
               nb=0, degrees=None):
    """One integration of the augmented system from x(0) = z over [0, T].

    The state is lifted to truncated Taylor polynomials in offsets db of
    the trailing ``nb`` coordinates, x(0) = z + db, slot s to degree
    ``degrees[s]``; nb = 0 integrates the plain state.  A stack (K, n) of
    points z is one stacked integration, the list of their trajectories.
    """
    config = config or IntegratorConfig()
    z = np.asarray(z, dtype=float)
    n = series.dim
    plan = _Plan(series, float(eps), variational, terms, nb, degrees)
    # the degree-1 jet of x in all n offsets: its levels 1 are Y = dx/dz
    y_jet = plan.jet.nb == n and plan.jet.degrees == (1,) * n
    points = z if z.ndim == 2 else [z]
    starts = np.array([plan.start(p) for p in points])
    sols = _run_solver(plan.fn, starts if z.ndim == 2 else starts[0], (0.0, series.period),
                       config, plan.weights)
    trajectories = []
    for p, u0, sol in zip(points, starts, sols if z.ndim == 2 else [sols]):
        # a copy, so that the trajectory does not keep every step's state
        end = sol.y[:, -1].copy()
        # the largest plain-state entry over every accepted step; x and Y in
        # Y's jet
        scale = float(np.max(np.abs(sol.y if y_jet else sol.y[:len(plan.jet.degrees)])))
        trajectories.append(Trajectory(
            z=p, period=series.period, config=config, start=u0, end=end, dim=n,
            has_Y=y_jet or plan.variational, jet=plan.jet,
            periodicity_defect=float(np.linalg.norm(end[:n] - p)),
            tolerance_bound=10.0 * (config.rtol * scale + config.atol)))
    return trajectories if z.ndim == 2 else trajectories[0]


def integrate_unperturbed(series, z, config=None):
    """Integrate x' = F_0(t, x) from z over one period."""
    return _integrate(series, z, 0.0, config)


def fundamental_matrix(series, traj_or_z, config=None):
    """Integrate x and the variational matrix Y jointly; Y(0) = Id.

    Accepts either an initial condition or an existing trajectory (whose
    initial condition is reused); returns a new Trajectory carrying Y.
    """
    z = traj_or_z.z if isinstance(traj_or_z, Trajectory) else traj_or_z
    return _integrate(series, z, 0.0, config, nb=series.dim, degrees=(1,) * series.dim)


def integrate_full(series, z, eps, config=None, variational=False):
    """Integrate the full system x' = sum_i eps^i F_i(t, x) over one period.

    With ``variational=True`` the fundamental matrix of the *full* field,
    Y = dx/dz, is carried as the degree-1 jet of x in all n offsets (the
    displacement Jacobian downstream), as ``fundamental_matrix`` carries it
    at eps = 0.
    """
    n = series.dim if variational else 0
    return _integrate(series, z, eps, config, nb=n, degrees=(1,) * n)


def sample_orbit(series, z, eps, times, config=None):
    """x at each of ``times`` on the orbit of x' = sum_i eps^i F_i(t, x)
    from x(0) = z, as a (len(times), n) array.  The times are finite,
    non-negative and non-decreasing; each sample is integrated from the one
    before it (the first from t = 0), so a repeated time, or t = 0 first,
    repeats the state before it.  Every segment steps DOP853, at any eps,
    and starts from the step size the one before it proposed and from the
    slope it ended on: only the first pays the initial-step rule and the
    first evaluation."""
    config = config or IntegratorConfig()
    plan = _Plan(series, float(eps), False, None)
    fn = plan.fn
    x, t, h, f, out = np.asarray(z, dtype=float), 0.0, None, None, []
    for t_next in map(float, times):
        if not t <= t_next < math.inf:
            raise ValueError("sample times must be finite, non-negative and non-decreasing")
        if t_next > t:
            method = partial(_dop853, reads=fn.reads, constant=fn.constant,
                             weights=plan.weights, max_steps=config.max_steps,
                             first_step=h, slope=f)
            sol = _finished(solve_ivp(fn, (t, t_next), x, method=method, rtol=config.rtol,
                                      atol=config.atol))
            x, t, h, f = sol.y[:, -1], t_next, sol.next_step, sol.end_slope
        out.append(x)
    return np.array(out).reshape(len(out), series.dim)
