"""Integer-partition tables, the recurrence term tables built from them, and
symmetric multilinear tensor application.

The high-order recurrences are indexed by two partition families:

* ``S_l`` - l-tuples (c_1..c_l) of non-negative integers with
  c_1 + 2 c_2 + ... + l c_l = l, carrying L = c_1 + ... + c_l;
* ``S'_i`` - (i-1)-tuples with weighted sum i, carrying I' = sum c_j.

Each tuple contributes the exact rational coefficient
1 / (c_1! c_2! 2!^{c_2} ... c_l! l!^{c_l}).

This is the one module that expands the partition sums.  It turns them into
term tables of (field, L, ((j, mult), ...), coefficient), meaning
coefficient * d^L(field) applied to the symmetric product of the j-th
factors, each taken mult times:

* ``recurrence_terms(i)`` - i! [F_i + sum_{l<i} S_l terms of F_{i-l} +
  S'_i terms of F_0]; B_i of the y_i equations, and the gamma_i right-hand
  side of the reduction;
* ``bifurcation_terms(i)`` - g_i + the S_l terms of g_{i-l}, l = 1..i; the
  bifurcation function f_i before projection.

Coefficients are exact Fractions; ``eval_terms`` converts each to a float
only for its final multiply, so order-5 terms do not drift.  The flow
compiles the same tables into its generated right-hand side, and the
composite-derivative formula ``faa_di_bruno`` is ``eval_terms`` on the S_l
table.

A :class:`SymTensor` stores an order-L symmetric multilinear map packed by
non-decreasing multi-index; applying it to a symmetric product of vectors
(each with a multiplicity) sums over all index tuples, which realises the
multinomial multiplicities implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

__all__ = [
    "PartitionTerm", "partitions_S", "partitions_Sprime",
    "recurrence_terms", "bifurcation_terms", "eval_terms",
    "SymTensor", "faa_di_bruno",
]

MAX_ORDER = 5


@dataclass(frozen=True)
class PartitionTerm:
    """One tuple (c_1..c_l) with its derived order and exact coefficient."""

    counts: tuple
    order: int            # L = sum c_j (I' for the S' family)
    coefficient: Fraction

    @property
    def factors(self):
        """(j, c_j) pairs with c_j > 0: which y_j/gamma_j enter, how often."""
        return tuple((j + 1, c) for j, c in enumerate(self.counts) if c > 0)


def _coefficient(counts):
    den = 1
    for j, c in enumerate(counts, start=1):
        den *= factorial(c) * factorial(j) ** c
    return Fraction(1, den)


def _weighted_tuples(length, total):
    """All `length`-tuples of non-negative c with sum j*c_j = total, lex order."""
    out = []

    def rec(prefix, j, remaining):
        if j > length:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for c in range(remaining // j + 1):
            rec(prefix + [c], j + 1, remaining - j * c)

    rec([], 1, total)
    out.sort()
    return out


@lru_cache(maxsize=None)
def partitions_S(l):
    """The set S_l as a tuple of PartitionTerm, deterministic order."""
    if not 1 <= l <= MAX_ORDER:
        raise ValueError(f"l must be in 1..{MAX_ORDER}, got {l}")
    return tuple(PartitionTerm(c, sum(c), _coefficient(c))
                 for c in _weighted_tuples(l, l))


@lru_cache(maxsize=None)
def partitions_Sprime(i):
    """The set S'_i: (i-1)-tuples with weighted sum i."""
    if not 2 <= i <= MAX_ORDER:
        raise ValueError(f"i must be in 2..{MAX_ORDER}, got {i}")
    return tuple(PartitionTerm(c, sum(c), _coefficient(c))
                 for c in _weighted_tuples(i - 1, i))


def _terms(field, family, scale=1):
    """One partition family as table terms of ``field``, coefficients times
    ``scale``."""
    return [(field, t.order, t.factors, scale * t.coefficient) for t in family]


@lru_cache(maxsize=None)
def recurrence_terms(i):
    """i! [F_i + sum_{l=1}^{i-1} S_l terms of F_{i-l} + S'_i terms of F_0]."""
    if not 1 <= i <= MAX_ORDER:
        raise ValueError(f"i must be in 1..{MAX_ORDER}, got {i}")
    scale = factorial(i)
    terms = [(i, 0, (), Fraction(scale))]
    for l in range(1, i):
        terms += _terms(i - l, partitions_S(l), scale)
    if i >= 2:
        terms += _terms(0, partitions_Sprime(i), scale)
    return tuple(terms)


@lru_cache(maxsize=None)
def bifurcation_terms(i):
    """g_i + sum_{l=1}^{i} S_l terms of g_{i-l}."""
    if not 1 <= i <= MAX_ORDER:
        raise ValueError(f"i must be in 1..{MAX_ORDER}, got {i}")
    terms = [(i, 0, (), Fraction(1))]
    for l in range(1, i + 1):
        terms += _terms(i - l, partitions_S(l))
    return tuple(terms)


def eval_terms(terms, tensor, factors):
    """Sum of coefficient * tensor(field, L) applied to the term's factors.

    ``tensor(field, L)`` returns a SymTensor; ``factors[j - 1]`` is the j-th
    factor vector.  ``terms`` must not be empty.
    """
    total = None
    for field, L, fac, coeff in terms:
        contrib = float(coeff) * tensor(field, L).apply(
            [(factors[j - 1], mult) for j, mult in fac])
        total = contrib if total is None else total + contrib
    return total


# ---------------------------------------------------------------------------
# packed symmetric tensors

@lru_cache(maxsize=None)
def packed_index_table(p, L):
    """Lex-ordered non-decreasing multi-indices of length L over range(p)."""
    if L == 0:
        return ((),)
    out = []

    def rec(prefix, start):
        if len(prefix) == L:
            out.append(tuple(prefix))
            return
        for j in range(start, p):
            rec(prefix + (j,), j)

    rec((), 0)
    return tuple(out)


@lru_cache(maxsize=None)
def _apply_tables(p, L):
    """For summing over all p^L index tuples against packed storage:
    TUP[s][m] = m-th component of tuple s, IDX[s] = packed slot of sorted(s)."""
    packed = {m: k for k, m in enumerate(packed_index_table(p, L))}
    n_all = p ** L
    tup = np.empty((n_all, L), dtype=np.intp)
    idx = np.empty(n_all, dtype=np.intp)
    for s in range(n_all):
        digits = []
        v = s
        for _ in range(L):
            digits.append(v % p)
            v //= p
        tup[s] = digits
        idx[s] = packed[tuple(sorted(digits))]
    return tup, idx


class SymTensor:
    """Symmetric order-L multilinear map R^p x ... x R^p -> R^q.

    Entries are stored packed: ``entries[qi, k]`` is the partial derivative
    for the k-th non-decreasing multi-index.  Symmetry is a property of the
    storage itself: every permutation of a multi-index reads the same cell.
    """

    __slots__ = ("order", "domain_dim", "codomain_dim", "entries")

    def __init__(self, order, domain_dim, codomain_dim, entries):
        entries = np.asarray(entries, dtype=float)
        expect = comb(domain_dim + order - 1, order) if order > 0 else 1
        if entries.shape != (codomain_dim, expect):
            raise ValueError(
                f"packed entries must have shape ({codomain_dim}, {expect}), "
                f"got {entries.shape}")
        self.order = order
        self.domain_dim = domain_dim
        self.codomain_dim = codomain_dim
        self.entries = entries

    @classmethod
    def from_dense(cls, dense, domain_dim=None):
        """Build from a dense array of shape (q, p, p, ..., p) (L trailing axes)."""
        dense = np.asarray(dense, dtype=float)
        q = dense.shape[0]
        L = dense.ndim - 1
        if L == 0:
            return cls(0, domain_dim or 1, q, dense.reshape(q, 1))
        p = dense.shape[1]
        table = packed_index_table(p, L)
        entries = np.empty((q, len(table)))
        for k, m in enumerate(table):
            entries[:, k] = dense[(slice(None),) + m]
        return cls(L, p, q, entries)

    def entry(self, qi, multi_index):
        """Entry for any index order; sorts to the packed representative."""
        if len(multi_index) != self.order:
            raise ValueError("multi-index length must equal the tensor order")
        table = packed_index_table(self.domain_dim, self.order)
        k = table.index(tuple(sorted(multi_index)))
        return self.entries[qi, k]

    def to_dense(self):
        shape = (self.codomain_dim,) + (self.domain_dim,) * self.order
        dense = np.empty(shape)
        tup, idx = _apply_tables(self.domain_dim, self.order) if self.order else (None, None)
        if self.order == 0:
            return self.entries[:, 0].copy()
        for s in range(self.domain_dim ** self.order):
            dense[(slice(None),) + tuple(tup[s])] = self.entries[:, idx[s]]
        return dense

    def apply(self, factors):
        """Contract against a symmetric product of vectors.

        ``factors`` is a list of (vector, multiplicity) pairs whose
        multiplicities sum to the tensor order.  Returns an R^q vector; the
        result is multilinear in each distinct factor and invariant under
        permuting the factor list.
        """
        if self.order == 0:
            if factors:
                raise ValueError("order-0 tensor takes no factors")
            return self.entries[:, 0].copy()
        vecs = []
        for v, mult in factors:
            v = np.asarray(v, dtype=float)
            if v.shape != (self.domain_dim,):
                raise ValueError(
                    f"factor has dimension {v.shape}, expected ({self.domain_dim},)")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            vecs.extend([v] * mult)
        if len(vecs) != self.order:
            raise ValueError(
                f"multiplicities sum to {len(vecs)}, tensor order is {self.order}")
        tup, idx = _apply_tables(self.domain_dim, self.order)
        prods = vecs[0][tup[:, 0]]
        for m in range(1, self.order):
            prods = prods * vecs[m][tup[:, m]]
        return self.entries[:, idx] @ prods

    def __repr__(self):
        return (f"SymTensor(order={self.order}, p={self.domain_dim}, "
                f"q={self.codomain_dim})")


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
    return eval_terms(_terms(0, partitions_S(l), factorial(l)),
                      lambda field, L: outer_derivs[L], inner_derivs)
