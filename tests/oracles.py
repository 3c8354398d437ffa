"""Test-only reference paths for the partition recurrences.

The library generates every term table from the partition sets
(``tensor.recurrence_terms``, ``tensor.bifurcation_terms``) and sums them
with ``tensor.eval_terms``.  This module keeps what the tests check that
against, with its own loops so it does not share the evaluator:

* the literal order 1..5 expansions, written out by hand: one recurrence
  table (B_i of the y_i equations, and the gamma_i right-hand side with the
  g_j as fields and gamma_j as factors) and one bifurcation-function table;
* ``partition_y_integrand`` / ``explicit_y_integrand`` - B_i through
  ``SymTensor.apply`` from the generated or the literal table, the reference
  for the contraction compiled into the flow's right-hand side;
* ``y_functions_literal`` - the y_i integrated with the literal table through
  the same augmented right-hand side;
* ``y_functions_quadrature`` - y_i(T) re-derived by quadrature of the
  iterated-integral form along scipy's dense DOP853 solution;
* ``explicit_gamma`` / ``explicit_f`` - the reduction from the literal
  tables;
* ``fd_b_tensor`` - b-partials of an averaged series by Richardson-
  extrapolated central differences of its values, the reference for the
  exact partials read off the jets;
* ``with_magnitudes`` - a generated function run alongside its running
  roundoff magnitudes, the scale for comparing two codes of one
  right-hand side that differ only in how they group their operations;
* ``sym_tensor_from_dense`` / ``faa_di_bruno`` - a packed tensor from a
  dense array, and the composite-derivative formula as ``eval_terms`` on
  the S_l table;
* ``liouville_defect`` - log det Y(T) against the quadrature of the trace
  of dF_0/dx along ``flow.sample_orbit``, a check on the variational
  integration;
* ``floquet`` - the eigenvalues of D_z h at a refined orbit with the
  stability verdict of the time-T map;
* ``eval_field`` - the value of one field F_i through the interpreter.
"""

import math
import re

from fractions import Fraction
from itertools import product

import numpy as np
from scipy.integrate import solve_ivp

from avgcycle.averaging import AugmentedResult
from avgcycle.expr import evaluate, jet_partials
from avgcycle.flow import IntegrationError, IntegratorConfig, _integrate, _Plan, sample_orbit
from avgcycle.lyapschmidt import _TensorCache, _delta_scale, _solve_delta
from avgcycle.tensor import (
    MAX_ORDER, SymTensor, _terms, eval_terms, packed_index_table, partitions_S,
    recurrence_terms,
)
from avgcycle.verify import stability_classify

# Literal expansions, one table per order: (coeff, field, L, factors), where
# factors lists (j, mult) pairs.  The order factorial is folded into the
# integer coefficients of the recurrence table.
RECURRENCE_TABLE = {
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

BIFURCATION_TABLE = {
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


def literal_terms(table, i):
    """Order i of a literal table in the library's (field, L, factors,
    coefficient) layout."""
    return [(f, L, fac, c) for c, f, L, fac in table[i]]


# ---------------------------------------------------------------------------
# y_i

def _y_integrand(terms, tensors, yvals, dim=None):
    """Sum coefficient * tensor(field, L) applied to y-factors.

    ``tensors[(field, L)]`` holds SymTensor objects; identically zero ones may
    be omitted from the dict.  ``yvals[j]`` holds the y_j vectors.
    """
    out = None
    for field_idx, L, factors, coeff in terms:
        tens = tensors.get((field_idx, L))
        if tens is None:
            continue
        contrib = float(coeff) * tens.apply([(yvals[j], m) for j, m in factors])
        out = contrib if out is None else out + contrib
    if out is None:
        if dim is None and tensors:
            dim = next(iter(tensors.values())).codomain_dim
        if dim is None:
            raise ValueError("no ingredient tensors supplied")
        out = np.zeros(dim)
    return out


def partition_y_integrand(i, tensors, yvals, dim=None):
    """B_i(t) from the generated table, through SymTensor."""
    return _y_integrand(recurrence_terms(i), tensors, yvals, dim)


def explicit_y_integrand(i, tensors, yvals, dim=None):
    """B_i(t) from the literal table, through SymTensor."""
    return _y_integrand(literal_terms(RECURRENCE_TABLE, i), tensors, yvals, dim)


def y_functions_literal(series, z, k, config=None):
    """``y_functions`` with the literal recurrence table driving the same
    augmented right-hand side."""
    traj = _integrate(series, z, 0.0, config, True,
                      [literal_terms(RECURRENCE_TABLE, i) for i in range(1, k + 1)])
    return AugmentedResult(traj=traj, k=k)


def _stack_table(series, k):
    """Compiled tensor stacks and the orders each field needs: F_0 up to k,
    F_m up to k - m."""
    stacks = {}
    for m in range(0, k + 1):
        max_l = k if m == 0 else k - m
        stacks[m] = series.tensor_stack(m, max_l)
    return stacks


def stack_tensor(stack, L, flat, dim, q):
    """The order-L tensor of a symbolic stack of q components in dim
    variables, sliced out of the flat values ``flat`` of its ``eval_all``."""
    start, rows = stack._layout[L]
    entries = np.array(flat[start:start + rows * q], dtype=float).reshape(rows, q).T
    return SymTensor(L, dim, q, entries)


def _tensor_dict(stacks, flats, k, n):
    tensors = {}
    for m, stack in stacks.items():
        top = k if m == 0 else k - m
        for L in range(0, top + 1):
            if stack.order_is_zero.get(L, False):
                continue
            tensors[(m, L)] = stack_tensor(stack, L, flats[m], n, n)
    return tensors


def y_functions_quadrature(series, z, k, config=None, n_nodes=400):
    """Cross-check path: y_i(T) = Y(T) * quadrature of Y(s)^-1 B_i(s).

    Reads x, Y and the lower-order y_j at interior times from scipy's DOP853
    with dense output, run on the plan's compiled right-hand side at the
    same tolerances (so the y_j come from the ODE, but not from the
    package's stepper), and re-derives each y_i(T) by Gauss-Legendre
    quadrature of the iterated-integral form.  Reduced accuracy by
    construction; used to check the augmented path, not to replace it.
    """
    config = config or IntegratorConfig()
    n = series.dim
    plan = _Plan(series, 0.0, True, [recurrence_terms(i) for i in range(1, k + 1)])
    u0 = np.concatenate([np.asarray(z, dtype=float), np.eye(n).ravel(), np.zeros(k * n)])
    state = solve_ivp(lambda t, u: plan.fn(float(t), u.tolist()), (0.0, series.period),
                      u0, method="DOP853", rtol=config.rtol, atol=config.atol,
                      dense_output=True).sol
    stacks = _stack_table(series, k)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    half = series.period / 2.0
    ts = half * (nodes + 1.0)
    acc = np.zeros((k, n))
    for t, wgt in zip(ts, weights):
        u = state(t)
        x = u[:n].tolist()
        flats = {m: stacks[m].eval_all(float(t), x) for m in range(k + 1)}
        tensors = _tensor_dict(stacks, flats, k, n)
        Yinv = np.linalg.inv(u[n:n + n * n].reshape(n, n))
        yvals = {j: u[n + n * n + (j - 1) * n:n + n * n + j * n] for j in range(1, k + 1)}
        for i in range(1, k + 1):
            acc[i - 1] += wgt * (Yinv @ partition_y_integrand(i, tensors, yvals, dim=n))
    acc *= half
    YT = state(series.period)[n:n + n * n].reshape(n, n)
    return [YT @ acc[i - 1] for i in range(1, k + 1)]


# ---------------------------------------------------------------------------
# gamma_i and f_i

def explicit_gamma(gs, chart, alpha, k, tensors=None):
    """gamma_1..gamma_k from the literal recurrence table."""
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
        for coeff, gi, L, fac in RECURRENCE_TABLE[i]:
            tens = tensors.get(gi, L)
            factors = [(gammas[j - 1], c) for j, c in fac]
            rhs += float(coeff) * tens.apply(factors)[m:]
        gammas.append(-_solve_delta(delta, det, rhs, scale))
    return gammas


def explicit_f(gs, chart, alpha, k, tensors=None):
    """f_1..f_k from the literal tables, with the gammas they consumed."""
    m, n = chart.m, gs.n
    nb = n - m
    z = chart.embed(alpha)
    if nb == 0:
        fs = [gs.value(i, z) for i in range(k, 0, -1)][::-1]
        return fs, [np.zeros(0) for _ in range(k)]
    tensors = tensors if tensors is not None else _TensorCache(gs, z, nb)
    gammas = explicit_gamma(gs, chart, alpha, k, tensors=tensors)
    fs = []
    for i in range(1, k + 1):
        f = np.zeros(m)
        for coeff, gi, L, fac in BIFURCATION_TABLE[i]:
            tens = tensors.get(gi, L)
            factors = [(gammas[j - 1], c) for j, c in fac]
            f += float(coeff) * tens.apply(factors)[:m]
        fs.append(f)
    return fs, gammas


# ---------------------------------------------------------------------------
# finite-difference b-partials

# central difference stencils of order h^2, per derivative order
FD_STENCILS = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
}

# base steps per total derivative order; noise scales like tol/h^L, so
# higher orders use wider stencils
FD_STEPS = {1: 1e-3, 2: 1e-2, 3: 4e-2}


def _fd(fun, z, n, nb, exponents, h):
    involved = [j for j, e in enumerate(exponents) if e > 0]
    if not involved:
        return fun(z)
    stencils = [FD_STENCILS[exponents[j]] for j in involved]
    total = np.zeros(n)
    for offsets in product(*[list(s.items()) for s in stencils]):
        zp = z.copy()
        coeff = 1.0
        for (off, c), j in zip(offsets, involved):
            zp[n - nb + j] += off * h
            coeff *= c
        if coeff != 0.0:
            total += coeff * fun(zp)
    return total / h ** sum(exponents)


def fd_b_tensor(gs, i, z, L, nb):
    """Order-L b-partials of g_i from values of ``gs`` (an AveragedGSeries):
    central differences extrapolated from steps h and h/2."""
    z = np.asarray(z, dtype=float)
    n = gs.n
    if L == 0:
        return SymTensor(0, nb, n, gs.value(i, z)[:, None])
    if L > 3:
        raise ValueError("the stencils reach order 3")
    table = packed_index_table(nb, L)
    entries = np.empty((n, len(table)))
    h = FD_STEPS[L]
    fun = lambda pt: gs.value(i, pt)
    for col, multi in enumerate(table):
        expo = [0] * nb
        for j in multi:
            expo[j] += 1
        coarse = _fd(fun, z, n, nb, expo, h)
        fine = _fd(fun, z, n, nb, expo, h / 2.0)
        entries[:, col] = (4.0 * fine - coarse) / 3.0
    return SymTensor(L, nb, n, entries)


# magnitude of f(a), to first order in the magnitude m of its argument a
_CALL_MAGNITUDE = {
    "sin": "abs({v}) + abs(cos({a})) * {m}",
    "cos": "abs({v}) + abs(sin({a})) * {m}",
    "tan": "abs({v}) + (1.0 + {v} * {v}) * {m}",
    "exp": "abs({v}) * (1.0 + {m})",
    "log": "abs({v}) + {m} / abs({a})",
    "sqrt": "abs({v}) + 0.5 * {m} / abs({v})",
}


def _magnitude_of(operand):
    return "m" + operand[1:] if operand.startswith("v") else f"abs({operand})"


def _magnitude(name, rhs):
    """Source of the magnitude of the generated line ``name = rhs``."""
    if found := re.fullmatch(r"(\S+) ([-+*/]) (\S+)", rhs):
        a, op, b = found.groups()
        ma, mb = _magnitude_of(a), _magnitude_of(b)
        if op in "+-":
            return f"{ma} + {mb}"
        if op == "*":
            return f"{ma} * {mb}"
        return f"({ma} + abs({name}) * {mb}) / abs({b})"
    if found := re.fullmatch(r"-(\S+)", rhs):
        return _magnitude_of(found.group(1))
    if found := re.fullmatch(r"(\S+) \*\* (-?\d+)", rhs):
        a, k = found.group(1), int(found.group(2))
        if k >= 0:
            return f"{_magnitude_of(a)} ** {k}"
        return f"abs({name}) + abs({k} * {name} / {a}) * {_magnitude_of(a)}"
    if found := re.fullmatch(r"powf\((\S+), (\S+)\)", rhs):
        a, e = found.groups()
        return f"abs({name}) + abs({e} * {name} / {a}) * {_magnitude_of(a)}"
    if found := re.fullmatch(r"(\w+)\((\S+)\)", rhs):
        fn, a = found.groups()
        return _CALL_MAGNITUDE[fn].format(v=name, a=a, m=_magnitude_of(a))
    if rhs.startswith("x["):
        return f"abs({rhs})"
    raise ValueError(f"unexpected generated line: {name} = {rhs}")


def with_magnitudes(fn):
    """``fn`` (a function generated by ``expr.compile_jet``) as
    ``g(t, x) -> (values, magnitudes)``.

    The magnitude of a value is the sum of the absolute values of the terms
    it is computed from, line by line: |a| + |b| for a sum or difference,
    the product of the magnitudes for a product and for a power with a
    natural exponent, and to first order (the derivative times the
    argument's magnitude) for a quotient, the other powers and the
    elementary functions.  Inputs and literals are their absolute values.
    Each operation commits a relative roundoff of at most u = 2^-53, so the
    computed values differ from exact ones by a modest multiple of u times
    these magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3).
    """
    lines = fn.source.splitlines()
    out = [lines[0]]
    for line in filter(None, lines[1:-1]):
        name, rhs = re.fullmatch(r"\s+(v\d+) = (.*)", line).groups()
        out += [line, f"    m{name[1:]} = {_magnitude(name, rhs)}"]
    refs = re.fullmatch(r"\s+return \[(.*)\]", lines[-1]).group(1).split(", ")
    out.append(f"    return [{', '.join(refs)}], "
               f"[{', '.join(_magnitude_of(ref) for ref in refs)}]")
    scope = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
             "log": math.log, "sqrt": math.sqrt, "powf": math.pow}
    exec("\n".join(out) + "\n", scope)
    return scope["_fn"]


# ---------------------------------------------------------------------------
# dense tensors, the chain rule, Liouville's formula, Floquet

def sym_tensor_from_dense(dense, domain_dim=None):
    """A SymTensor from a dense array of shape (q, p, p, ..., p) (L
    trailing axes), read at the non-decreasing multi-indices."""
    dense = np.asarray(dense, dtype=float)
    q = dense.shape[0]
    L = dense.ndim - 1
    if L == 0:
        return SymTensor(0, domain_dim or 1, q, dense.reshape(q, 1))
    p = dense.shape[1]
    table = packed_index_table(p, L)
    entries = np.empty((q, len(table)))
    for k, m in enumerate(table):
        entries[:, k] = dense[(slice(None),) + m]
    return SymTensor(L, p, q, entries)


def faa_di_bruno(outer_derivs, inner_derivs, l):
    """l-th derivative of t -> u(v(t)) from derivatives of u and v.

    ``outer_derivs[L]`` is the order-L derivative tensor of u at v(t) for
    L = 0..l (order 0 unused); ``inner_derivs[j-1]`` is v^(j)(t) for j = 1..l.
    Implements the partition sum with coefficients l! / (c_1! c_2! 2!^{c_2}...).
    """
    if not 1 <= l <= MAX_ORDER:
        raise ValueError(f"l must be in 1..{MAX_ORDER}")
    if len(outer_derivs) < l + 1:
        raise ValueError("need outer derivative tensors up to order l")
    if len(inner_derivs) < l:
        raise ValueError("need inner derivatives up to order l")
    return eval_terms(_terms(0, partitions_S(l), math.factorial(l)),
                      lambda field, L: outer_derivs[L], inner_derivs)


def liouville_defect(series, traj):
    """|log det Y(T) - integral of trace dF_0/dx along the orbit|.

    200-node Gauss-Legendre quadrature of the trace along the orbit that
    ``flow.sample_orbit`` integrates to each node; a cheap independent
    consistency check on the variational integration.
    """
    n = series.dim
    jacobian = jet_partials(series.fields[0], 1, range(n), series.params,
                            series.decls.params)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    half = series.period / 2.0
    ts = half * (nodes + 1.0)
    total = 0.0
    for t, wgt, x in zip(ts, weights, sample_orbit(series, traj.z, 0.0, ts, traj.config)):
        J = jacobian(t, x)
        total += wgt * sum(J[j, j] for j in range(n))
    total *= half
    sign, logdet = np.linalg.slogdet(traj.YT)
    if sign <= 0:
        raise IntegrationError("fundamental matrix lost orientation")
    return abs(logdet - total)


def floquet(orbit):
    """Eigenvalues of D_z h at the orbit, sorted by magnitude, with the
    stability verdict of the time-T map."""
    return orbit.dh_eigenvalues, stability_classify(orbit.dh_eigenvalues)


def eval_field(series, i, t, x):
    """Value of F_i(t, x) through the interpreter ``expr.evaluate``, apart
    from the compiled code."""
    return np.array([evaluate(c, t, x, series.params) for c in series.fields[i]])
