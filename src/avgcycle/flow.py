"""Every integration over one period [0, T], built from one right-hand side.

The unperturbed flow, its fundamental matrix, the full perturbed flow and
the y_i hierarchy behind the averaged functions are all cuts of one
augmented system

    x' = sum_i eps^i F_i(t, x),
    Y' = A(t) Y,                  Y(0) = Id,   A = sum_i eps^i dF_i/dx,
    y_i' = A(t) y_i + B_i(t),     y_i(0) = 0,  i = 1..k (at eps = 0),

and one private builder, ``_Plan``, turns the chosen cut into a single
generated Python function.  The derivative entries of the fields' tensor
stacks, the sums over eps^i, the products A Y and A y_i and the B_i
contractions all become one straight-line function: ``expr.regroup``
regroups the nodes by state monomial, so the factors free of the state are
multiplied first and equal monomials are formed once, and
``expr.compile_jet`` compiles them, so a subexpression shared between
fields is computed once per call.  The regrouped function equals the nodes
as written to roundoff, not bit for bit.  Each call takes and returns a
list of Python floats.  The function is cached on the series by the live
fields, the variational flag, the B_i term table, the parameter values and
the jet layout; eps enters as an argument.  A field that leaves its domain
raises on Python floats (division by zero, overflow in ``**``, a ``math``
domain error), and ``_run_solver`` reports that as ``IntegrationError`` at
the failing time.

The public entry points only choose the cut:

* ``integrate_unperturbed`` - x at eps = 0;
* ``fundamental_matrix``    - x and Y at eps = 0;
* ``integrate_full``        - x at any eps, optionally with its own Y (used
  by the displacement Jacobian);
* ``averaging.y_functions`` - x, Y and y_1..y_k, given a table of B_i terms.

Each returns a ``Trajectory``, the augmented state at t = 0 and t = T, all
that the pipeline reads; ``sample_orbit`` gives x at interior times,
integrated from each sample time to the next.

Every cut is integrated as a jet: ``expr.compile_jet`` lifts its nodes to
truncated Taylor polynomials in offsets db of the trailing nb coordinates,
x(0) = z + db, each slot to its own degree, and ``_JetLayout`` says where
the coefficients sit.  A plain cut is the jet in nb = 0 offsets, whose code
is the scalar code of its nodes; a lifted one runs at eps = 0 only.

Every integration is the explicit Runge-Kutta method DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, II.5), stepped by ``_FloatDOP853`` and
driven by this module's ``solve_ivp``.  The tableau ``_DOP853`` is written
out here; the initial-step rule, the step-size control and the error norm
are those of scipy's DOP853, and the stage sums are straight-line code
generated once per state size and set of constant slots, run on lists of
Python floats with the right-hand side called on lists.  A slot is constant
when its compiled right-hand side entry is a literal zero (``fn.constant``
of ``compile_jet``, lifted levels included), as x and Y are at eps = 0 when
F_0 vanishes: its stage states copy its value and it adds nothing to the
error sums, so every step is the one of the full sums, bit for bit.
Tolerances default to 1e-10/1e-10.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import product
from types import SimpleNamespace

import numpy as np

from .expr import Num, Var, compile_jet, mk_add, mk_mul, regroup
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
    """DOP853 settings: positive finite tolerances, and ``max_steps`` >= 1,
    the most steps an integration attempts, rejected ones included, before
    it stops with ``IntegrationError``."""

    rtol: float = 1e-10
    atol: float = 1e-10
    max_steps: int = 100_000

    def __post_init__(self):
        # a NaN tolerance fails every comparison, and so this test too
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class Trajectory:
    """One integration over [0, T]: the augmented state at both ends.

    ``start`` and ``end`` are the state at t = 0 and at t = T, laid out as
    x, Y (row-major, when the variational block was integrated, ``has_Y``)
    and y_1..y_k, lifted by ``jet`` (``_JetLayout``, nb = 0 for a plain
    state); ``xT`` and ``YT`` read x and Y off ``end``.  ``tolerance_bound``
    is 10 (rtol s + atol), s the largest plain-state entry over the accepted
    steps: read off the tolerances, an order-of-magnitude bound for
    downstream reports, not a measured error.  ``sample_orbit`` gives x at
    interior times.
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


def _weighted(row, i):
    """Source of sum_j row[j] k_j[i] over the nonzero row[j], a term per
    line: short lines keep the code objects' location tables small."""
    return "\n + ".join(f"{float(a)!r} * k{j}[{i}]" for j, a in enumerate(row) if a)


def _reads(row):
    return ", ".join(f"k{j}" for j, a in enumerate(row) if a)


def _error_norm(h, y, y_new, err5, err3, rtol, atol, n=None):
    """scipy's DOP853 error norm of one step from the sums err5 and err3 of
    its two embedded estimates, scaled by atol + rtol max(|y|, |y_new|).

    A stepper with constant slots passes the entries of the other slots
    alone and the full state size ``n`` (default ``len(y)``): the error sums
    of a constant slot are exact zeros, so this is the same norm."""
    p = q = 0.0
    for a, b, e5, e3 in zip(y, y_new, err5, err3):
        a, b = abs(a), abs(b)
        scale = atol + (a if a > b else b) * rtol
        e5 /= scale
        e3 /= scale
        p += e5 * e5
        q += e3 * e3
    if p == 0 and q == 0:
        return 0.0
    return abs(h) * p / math.sqrt((p + 0.01 * q) * (len(y) if n is None else n))


class _Stepper:
    """DOP853 stage sums for states of ``n`` slots as generated Python code.

    Each stage state y + h sum_j a_j k_j, the new state and each of the
    two error sums is one straight-line function of the stages it reads
    (zero coefficients are left out), compiled on its own so that no single
    source grows with all stages at once.  ``step`` is a generated driver
    that chains them through the right-hand side and returns the new state,
    its slope and the step's ``_error_norm``.  The coefficients are those
    of ``_DOP853``.

    A slot in ``constant`` has a right-hand side that is a literal zero, so
    its stage states and new state are y[i] itself and its error sums are
    left out; the norm still counts all n slots.  With no constant slot the
    code is that of the full sums.
    """

    def __init__(self, n, constant):
        self.n = n
        self.constant = constant
        self._scope = {"_error_norm": _error_norm}
        live = [i for i in range(n) if i not in constant]
        calls = [self._stage(s, _DOP853.A[s, :s], _DOP853.C[s])
                 for s in range(1, _DOP853.n_stages)]
        self._define(f"def _sy(h, y, {_reads(_DOP853.B)}):\n"
                     f"    return [{self._sums(_DOP853.B)}]\n")
        for name, row in (("_e5", _DOP853.E5), ("_e3", _DOP853.E3)):
            sums = ",\n".join(_weighted(row, i) for i in live)
            self._define(f"def {name}({_reads(row)}):\n    return [{sums}]\n")
        y, y_new, n_arg = "y", "y_new", ""
        if constant:
            self._define(f"def _live(y):\n"
                         f"    return [{', '.join(f'y[{i}]' for i in live)}]\n")
            y, y_new, n_arg = "_live(y)", "_live(y_new)", f", {n}"
        self.step = self._define(
            "def _step(fun, t, h, y, k0, rtol, atol):\n" + "".join(calls)
            + f"    y_new = _sy(h, y, {_reads(_DOP853.B)})\n"
            f"    k{_DOP853.n_stages} = fun(t + h, y_new)\n"
            f"    return (y_new, k{_DOP853.n_stages},\n"
            f"            _error_norm(h, {y}, {y_new}, _e5({_reads(_DOP853.E5)}),\n"
            f"                        _e3({_reads(_DOP853.E3)}), rtol, atol{n_arg}))\n")

    def _sums(self, row):
        return ",\n".join(f"y[{i}]" if i in self.constant
                          else f"y[{i}] + ({_weighted(row, i)}) * h"
                          for i in range(self.n))

    def _define(self, src):
        exec(src, self._scope)
        return self._scope[src[4:src.index("(")]]

    def _stage(self, s, row, c):
        """Compile stage s's state; return the driver line that evaluates
        the stage."""
        self._define(f"def _s{s}(h, y, {_reads(row)}):\n"
                     f"    return [{self._sums(row)}]\n")
        return f"    k{s} = fun(t + {float(c)!r} * h, _s{s}(h, y, {_reads(row)}))\n"


# one _Stepper per state size and set of constant slots, compiled on first use
_stepper = cache(_Stepper)


class _FloatDOP853:
    """DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5) stepped
    on lists of Python floats.

    The initial-step rule, ``min_step``, the step factors and the combined
    err5/err3 norm are those of scipy's DOP853; the arithmetic is the
    generated code of a ``_Stepper``, compiled once per state size and set
    of ``constant`` slots on first use.  ``constant`` lists the slots where
    ``fun`` returns a literal zero (``compile_jet``'s ``fn.constant``):
    they keep their start value, and every step, state and ``nfev`` is the
    one of the full sums, bit for bit, except that a -0.0 start value
    stays -0.0.  ``fun`` is called as it was passed, with a Python float
    time and a list of Python floats, and returns a list; ``nfev`` counts
    those calls.  ``step`` takes one step and returns False when the step
    size falls below ten spacings of floats at t; ``h_abs`` is the size the
    step-size control proposes for the next step (past the bound, at least
    the size the last step had before it was cut to reach it).  A
    ``first_step`` replaces the initial-step rule and its probe; like every
    step, the first is cut to the bound.  Integration runs forward.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, constant=(),
                 first_step=None):
        if t_bound <= t0:
            raise ValueError("the integration runs forward")
        self.y = np.asarray(y0, dtype=float).tolist()
        if not all(map(math.isfinite, self.y)):
            raise ValueError("the initial state must be finite")
        self.t, self.t_bound, self.n = t0, t_bound, len(self.y)
        self._rhs = fun
        # scipy's floor on rtol
        self.rtol = max(float(rtol), 100 * sys.float_info.epsilon)
        self.atol = float(atol)
        self._stepper = _stepper(self.n, frozenset(constant))
        self.f = fun(self.t, self.y)
        if first_step is None:
            self.h_abs = self._initial_step()
            self.nfev = 2   # the initial slope and the initial-step probe
        else:
            self.h_abs = float(first_step)
            self.nfev = 1

    def _initial_step(self):
        """scipy's ``select_initial_step``, with its RMS norms on floats."""
        t, y, f = self.t, self.y, self.f
        interval = self.t_bound - t
        scale = [self.atol + abs(v) * self.rtol for v in y]

        def rms(values):
            return (math.sqrt(sum((v / s) ** 2 for v, s in zip(values, scale)))
                    / len(scale) ** 0.5)

        d0, d1 = rms(y), rms(f)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = self._rhs(t + h0, [v + h0 * w for v, w in zip(y, f)])
        d2 = rms([b - a for a, b in zip(f, f1)]) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
        return min(100 * h0, h1, interval)

    def step(self):
        t, y = self.t, self.y
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False
            # the size wanted before a cut to the bound
            wanted = h_abs
            t_new = min(t + h_abs, self.t_bound)
            h = h_abs = t_new - t
            y_new, f_new, error = self._stepper.step(
                self._rhs, t, h, y, self.f, self.rtol, self.atol)
            self.nfev += _DOP853.n_stages
            if error < 1:
                factor = (_MAX_FACTOR if error == 0
                          else min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            rejected = True
        if t_new == self.t_bound:
            # a step cut short says little about the one past the bound
            h_abs = max(h_abs, wanted)
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        return True


def solve_ivp(fun, t_span, y0, method, rtol, atol, first_step=None):
    """Integrate y' = fun(t, y) over ``t_span`` with the stepper class
    ``method``, in the call shape of ``scipy.integrate.solve_ivp``.

    Returns ``t`` (the start and the end of every accepted step), ``y``
    (n x len(t), the state at those times), ``nfev``, ``success``,
    ``message`` and ``next_step``, the step size proposed past the end.
    """
    t0, t_bound = map(float, t_span)
    solver = method(fun, t0, y0, t_bound, rtol, atol, first_step=first_step)
    ts, ys = [t0], [solver.y]
    success = True
    message = "The solver successfully reached the end of the integration interval."
    while solver.t < t_bound:
        if not solver.step():
            success = False
            message = "Required step size is less than spacing between numbers."
            break
        ts.append(solver.t)
        ys.append(solver.y)
    return SimpleNamespace(t=np.array(ts), y=np.array(ys).T, nfev=solver.nfev,
                           success=success, message=message,
                           next_step=solver.h_abs)


def _run_solver(rhs, y0, t_span, config, constant, first_step=None):
    """Integrate y' = rhs(t, y) over ``t_span`` within the step budget;
    ``constant`` lists the slots where ``rhs`` returns a literal zero, and
    a ``first_step`` replaces the initial-step rule.

    The budget is in RHS evaluations: two to start (the initial slope and
    the initial-step probe), then the 12 stages of each step attempt, so
    no more than ``config.max_steps`` steps are attempted."""
    budget = 2 + config.max_steps * _DOP853.n_stages
    calls = 0

    def counted(t, u):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise IntegrationError(
                f"step budget exceeded ({config.max_steps} steps allow "
                f"{budget} RHS evaluations)", t_fail=t)
        try:
            return rhs(t, u)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise IntegrationError(
                f"right-hand side left its domain at t = {t:.6g} ({exc})",
                t_fail=t) from exc

    sol = solve_ivp(counted, t_span, y0, method=partial(_FloatDOP853, constant=constant),
                    rtol=config.rtol, atol=config.atol, first_step=first_step)
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}", t_fail=sol.t[-1])
    if not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationError("non-finite state (blow-up)", t_fail=sol.t[-1])
    return sol


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
    tops = {0: max(k, int(variational))}
    tops.update({i: int(variational) for i in live})
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
    # A = dF_0/dx + sum_i eps^i dF_i/dx, entry A[r][j] = dF_r/dx_j
    A = [[_total([entry(0, 1, j, r)]
                 + [mk_mul(w, entry(i, 1, j, r)) for i, w in weights])
          for j in range(n)] for r in range(n)]
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
    coefficient); the y_i block needs ``variational`` and eps = 0.  The
    whole right-hand side, x' = F_0 + sum_i eps^i F_i, Y' = A Y and
    y_i' = A y_i + B_i, lifted to Taylor coefficients in ``nb`` offsets,
    slot s to degree ``degrees[s]`` (default 0), is regrouped by
    ``expr.regroup`` (the weights count as coefficients) and compiled by
    ``expr.compile_jet`` into one straight-line function, so every
    subexpression shared between fields, ``sin(t)`` and ``cos(t)``
    included, is computed once per call.  ``jet`` is the state's layout,
    and ``fn.constant`` (cached with the function) the slots whose entry is
    a literal zero, which the stepper holds at their start value.

    The function is cached on the series, keyed by the live fields,
    ``variational``, the term table, the parameter values and the layout;
    the weights eps^i are passed as trailing state slots, so every nonzero
    eps shares one function and an in-place edit of ``series.params``
    compiles afresh.  ``rhs`` appends the weights; with none live, ``fn``
    is the right-hand side itself.  A call takes and returns a list of
    Python floats; where the field leaves its domain it raises
    ``ZeroDivisionError``, ``OverflowError`` or ``ValueError``, which
    ``_run_solver`` reports as ``IntegrationError``.
    """

    def __init__(self, series, eps, variational, terms, nb=0, degrees=None):
        self.variational = variational
        terms = tuple(tuple(table) for table in terms or ())
        self.k = len(terms)
        n = series.dim
        size = n + (n * n + self.k * n if variational else 0)
        self.jet = _JetLayout(nb, degrees or (0,) * size)
        live = tuple(i for i in range(1, series.order + 1) if eps ** i != 0.0)
        if live and any(self.jet.degrees):
            raise ValueError("a jet is integrated at eps = 0 only")
        self.weights = [eps ** i for i in live]
        key = (live, variational, terms, series.param_tuple,
               self.jet.nb, self.jet.degrees)
        self.fn = series._rhs_fns.get(key)
        if self.fn is None:
            nodes = regroup(_rhs_nodes(series, live, variational, terms),
                            series.param_tuple, size)
            self.fn = series._rhs_fns[key] = compile_jet(
                nodes, self.jet.degrees, series.param_tuple, self.jet.nb)

    def rhs(self, t, u):
        return self.fn(t, u + self.weights)


class _JetLayout:
    """A state lifted to Taylor coefficients in ``nb`` offsets, slot s to
    degree ``degrees[s]``, laid out by ``tensor.jet_state_starts`` (the
    plain state first).  ``unpack`` turns such a state into a
    (coefficients, slots) array, zero beyond a slot's degree.
    """

    def __init__(self, nb, degrees):
        self.nb = nb
        # without offsets there are no coefficients above level 0
        self.degrees = tuple(degrees) if nb else (0,) * len(degrees)
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
        out = np.zeros((self.size, len(self.degrees)))
        out[0] = u[:len(self.degrees)]
        out[self._cols, self._slots] = u[len(self.degrees):]
        return out


def _integrate(series, z, eps, config, variational=False, terms=None,
               nb=0, degrees=None):
    """One integration of the augmented system from x(0) = z over [0, T].

    The state is lifted to truncated Taylor polynomials in offsets db of
    the trailing ``nb`` coordinates, x(0) = z + db, slot s to degree
    ``degrees[s]``; nb = 0 integrates the plain state.
    """
    config = config or IntegratorConfig()
    z = np.asarray(z, dtype=float)
    plan = _Plan(series, float(eps), variational, terms, nb, degrees)
    n = series.dim
    u0 = np.concatenate([z, np.eye(n).ravel() if plan.variational else [],
                         np.zeros(plan.k * n)])
    size = u0.size
    u0 = plan.jet.seed(u0, n - nb)
    sol = _run_solver(plan.rhs if plan.weights else plan.fn, u0,
                      (0.0, series.period), config, plan.fn.constant)
    # a copy, so that the trajectory does not keep every step's state
    end = sol.y[:, -1].copy()
    # the largest plain-state entry over every accepted step
    scale = float(np.max(np.abs(sol.y[:size])))
    return Trajectory(z=z, period=series.period, config=config, start=u0, end=end,
                      dim=n, has_Y=plan.variational, jet=plan.jet,
                      periodicity_defect=float(np.linalg.norm(end[:n] - z)),
                      tolerance_bound=10.0 * (config.rtol * scale + config.atol))


def integrate_unperturbed(series, z, config=None):
    """Integrate x' = F_0(t, x) from z over one period."""
    return _integrate(series, z, 0.0, config)


def fundamental_matrix(series, traj_or_z, config=None):
    """Integrate x and the variational matrix Y jointly; Y(0) = Id.

    Accepts either an initial condition or an existing trajectory (whose
    initial condition is reused); returns a new Trajectory carrying Y.
    """
    z = traj_or_z.z if isinstance(traj_or_z, Trajectory) else traj_or_z
    return _integrate(series, z, 0.0, config, variational=True)


def integrate_full(series, z, eps, config=None, variational=False):
    """Integrate the full system x' = sum_i eps^i F_i(t, x) over one period.

    With ``variational=True`` the fundamental matrix of the *full* field is
    integrated alongside (initialised to the identity), which gives the
    displacement Jacobian downstream.
    """
    return _integrate(series, z, eps, config, variational)


def sample_orbit(series, z, eps, times, config=None):
    """x at each of ``times`` on the orbit of x' = sum_i eps^i F_i(t, x)
    from x(0) = z, as a (len(times), n) array.  The times are non-negative
    and non-decreasing; each sample is integrated from the one before it
    (the first from t = 0), so a repeated time, or t = 0 first, repeats the
    state before it.  Each segment starts from the step size the one before
    it proposed: only the first pays the initial-step rule."""
    config = config or IntegratorConfig()
    plan = _Plan(series, float(eps), False, None)
    x, t, h, out = np.asarray(z, dtype=float), 0.0, None, []
    for t_next in map(float, times):
        if t_next < t:
            raise ValueError("sample times must be non-negative and non-decreasing")
        if t_next > t:
            sol = _run_solver(plan.rhs if plan.weights else plan.fn, x, (t, t_next),
                              config, plan.fn.constant, h)
            x, t, h = sol.y[:, -1], t_next, sol.next_step
        out.append(x)
    return np.array(out).reshape(len(out), series.dim)
