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
  iterated-integral form;
* ``explicit_gamma`` / ``explicit_f`` - the reduction from the literal
  tables.
"""

from fractions import Fraction

import numpy as np

from avgcycle.averaging import AugmentedResult, y_functions
from avgcycle.flow import _integrate
from avgcycle.lyapschmidt import _TensorCache, _delta_scale, _solve_delta
from avgcycle.tensor import recurrence_terms

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


def _tensor_dict(stacks, flats, k):
    tensors = {}
    for m, stack in stacks.items():
        top = k if m == 0 else k - m
        for L in range(0, top + 1):
            if stack.order_is_zero.get(L, False):
                continue
            tensors[(m, L)] = stack.tensor(L, flats[m])
    return tensors


def y_functions_quadrature(series, z, k, config=None, n_nodes=400):
    """Cross-check path: y_i(T) = Y(T) * quadrature of Y(s)^-1 B_i(s).

    Consumes the dense augmented solution (so lower-order y_j come from the
    ODE) and re-derives each y_i(T) by Gauss-Legendre quadrature of the
    iterated-integral form.  Reduced accuracy by construction; used to check
    the augmented path, not to replace it.
    """
    aug = y_functions(series, z, k, config)
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
            acc[i - 1] += wgt * (Yinv @ partition_y_integrand(i, tensors, yvals, dim=n))
    acc *= half
    YT = traj.YT
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
    if nb == 0:
        fs = [gs.value(i, chart.embed(alpha)) for i in range(1, k + 1)]
        return fs, [np.zeros(0) for _ in range(k)]
    z = chart.embed(alpha)
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
