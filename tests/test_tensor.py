import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from avgcycle.tensor import (
    SymTensor, bifurcation_terms, partitions_S, partitions_Sprime, recurrence_terms,
)
from oracles import (
    BIFURCATION_TABLE, RECURRENCE_TABLE, faa_di_bruno, literal_terms,
    sym_tensor_from_dense,
)


def test_partitions_l1():
    terms = partitions_S(1)
    assert len(terms) == 1
    assert terms[0].counts == (1,)
    assert terms[0].coefficient == 1
    assert terms[0].order == 1


def test_partitions_l3():
    got = {t.counts: t.coefficient for t in partitions_S(3)}
    assert got == {(3, 0, 0): Fraction(1, 6),
                   (1, 1, 0): Fraction(1, 2),
                   (0, 0, 1): Fraction(1, 6)}


def test_partitions_l5_count():
    # seven partitions of 5
    assert len(partitions_S(5)) == 7


def test_partitions_weighted_sum_invariant():
    for l in range(1, 6):
        for term in partitions_S(l):
            assert sum((j + 1) * c for j, c in enumerate(term.counts)) == l
            assert term.order == sum(term.counts)


def test_sprime_i2():
    terms = partitions_Sprime(2)
    assert len(terms) == 1
    assert terms[0].counts == (2,)
    assert terms[0].order == 2
    assert terms[0].coefficient == Fraction(1, 2)


def test_sprime_i3():
    got = {t.counts: t.order for t in partitions_Sprime(3)}
    assert got == {(3, 0): 3, (1, 1): 2}


def test_sprime_i5():
    want = {(5, 0, 0, 0), (3, 1, 0, 0), (1, 2, 0, 0),
            (2, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)}
    assert {t.counts for t in partitions_Sprime(5)} == want


def test_partition_range_errors():
    with pytest.raises(ValueError):
        partitions_S(0)
    with pytest.raises(ValueError):
        partitions_S(6)
    with pytest.raises(ValueError):
        partitions_Sprime(1)


def test_generated_tables_equal_literal_tables():
    # exact Fraction coefficients, same multiset of terms as the hand-written
    # expansions, for every order
    for i in range(1, 6):
        for generated, table in ((recurrence_terms(i), RECURRENCE_TABLE),
                                 (bifurcation_terms(i), BIFURCATION_TABLE)):
            assert all(isinstance(coeff, Fraction) for *_, coeff in generated)
            assert Counter(generated) == Counter(literal_terms(table, i)), i


def test_bell_numbers_via_composite_derivative():
    # u = exp, v with all derivatives 1 at a point where v = 0:
    # the l-th derivative of exp(v(t)) collapses to the Bell number B_l.
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for l in range(1, 6):
        outer = [SymTensor(L, 1, 1, np.ones((1, 1))) for L in range(l + 1)]
        inner = [np.array([1.0])] * l
        got = faa_di_bruno(outer, inner, l)
        assert got[0] == pytest.approx(bell[l], rel=1e-12)


def test_apply_matvec():
    # order 1 application is the Jacobian-vector product
    J = np.array([[1.0, 2.0], [3.0, 4.0]])
    tens = sym_tensor_from_dense(J.reshape(2, 2))
    v = np.array([1.0, -1.0])
    assert tens.apply([(v, 1)]) == pytest.approx(J @ v)


def test_apply_mixed_hessian():
    # Hessian of f(x) = x1 x2 applied to e1 . e2 gives the mixed partial 1
    H = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    tens = sym_tensor_from_dense(H)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert tens.apply([(e1, 1), (e2, 1)]) == pytest.approx([1.0])


def test_apply_matches_naive_triple_sum():
    rng = np.random.default_rng(3)
    p = 3
    dense = rng.normal(size=(p,) * 3)
    dense = (dense + dense.transpose(0, 2, 1) + dense.transpose(1, 0, 2)
             + dense.transpose(1, 2, 0) + dense.transpose(2, 0, 1)
             + dense.transpose(2, 1, 0)) / 6.0
    tens = sym_tensor_from_dense(dense[None, :, :, :])
    u, v, w = rng.normal(size=(3, p))
    naive = 0.0
    for i in range(p):
        for j in range(p):
            for k in range(p):
                naive += dense[i, j, k] * u[i] * v[j] * w[k]
    got = tens.apply([(u, 1), (v, 1), (w, 1)])
    assert abs(got[0] - naive) <= 1e-12 * max(1.0, abs(naive))


def test_apply_factor_order_invariance():
    rng = np.random.default_rng(11)
    dense = rng.normal(size=(2, 2, 2, 2))
    dense = dense + dense.transpose(0, 2, 1, 3)  # not symmetric yet; symmetrise
    sym = np.zeros_like(dense)
    import itertools
    for perm in itertools.permutations(range(1, 4)):
        sym += dense.transpose((0,) + perm)
    tens = sym_tensor_from_dense(sym / 6.0)
    u, v = rng.normal(size=(2, 2))
    a = tens.apply([(u, 2), (v, 1)])
    b = tens.apply([(v, 1), (u, 2)])
    assert a == pytest.approx(b, rel=1e-13)


def test_apply_validates_dimensions():
    tens = SymTensor(1, 2, 2, np.eye(2))
    with pytest.raises(ValueError):
        tens.apply([(np.ones(3), 1)])
    with pytest.raises(ValueError):
        tens.apply([(np.ones(2), 2)])


def test_entry_symmetric_storage():
    tens = SymTensor(2, 2, 1, np.array([[1.0, 2.0, 3.0]]))
    assert tens.entry(0, (0, 1)) == tens.entry(0, (1, 0)) == 2.0


def test_faa_di_bruno_chain_rule():
    # l = 1 reduces to Du . v'
    J = np.array([[2.0, 0.5], [-1.0, 3.0]])
    outer = [SymTensor(0, 2, 2, np.zeros((2, 1))), sym_tensor_from_dense(J)]
    vp = np.array([0.2, -0.7])
    got = faa_di_bruno(outer, [vp], 1)
    assert got == pytest.approx(J @ vp)


def test_faa_di_bruno_cube_composite():
    # u(y) = y^2, v(t) = t^3: third derivative of t^6 at t=1 is 120
    v = 1.0
    outer = [
        SymTensor(0, 1, 1, [[v ** 2]]),
        SymTensor(1, 1, 1, [[2 * v]]),
        SymTensor(2, 1, 1, [[2.0]]),
        SymTensor(3, 1, 1, [[0.0]]),
    ]
    inner = [np.array([3.0]), np.array([6.0]), np.array([6.0])]  # v', v'', v'''
    got = faa_di_bruno(outer, inner, 3)
    assert got[0] == pytest.approx(120.0, rel=1e-13)


def test_faa_di_bruno_linear_outer():
    # linear u: only the c_l = 1 partition survives, giving u'(v) . v^{(l)}
    A = np.array([[1.5, -0.5], [2.0, 0.25]])
    outer = [SymTensor(0, 2, 2, np.zeros((2, 1))), sym_tensor_from_dense(A)]
    outer += [SymTensor(L, 2, 2, np.zeros((2, packed_count(2, L)))) for L in (2,)]
    inner = [np.array([1.0, 2.0]), np.array([-3.0, 0.5])]
    got = faa_di_bruno(outer, inner, 2)
    assert got == pytest.approx(A @ inner[1])


def test_faa_di_bruno_identity_outer_returns_inner():
    n = 2
    outer = [SymTensor(0, n, n, np.zeros((n, 1))),
             sym_tensor_from_dense(np.eye(n))]
    for l in (2, 3):
        outer_l = outer + [SymTensor(L, n, n, np.zeros((n, packed_count(n, L))))
                           for L in range(2, l + 1)]
        inner = [np.arange(1, n + 1, dtype=float) * j for j in range(1, l + 1)]
        got = faa_di_bruno(outer_l, inner, l)
        assert got == pytest.approx(inner[l - 1])


def test_faa_di_bruno_insufficient_data():
    outer = [SymTensor(0, 1, 1, [[0.0]]), SymTensor(1, 1, 1, [[1.0]])]
    with pytest.raises(ValueError):
        faa_di_bruno(outer, [np.ones(1)] * 2, 2)   # missing order-2 outer
    outer.append(SymTensor(2, 1, 1, [[0.0]]))
    with pytest.raises(ValueError):
        faa_di_bruno(outer, [np.ones(1)], 2)       # missing v''
    with pytest.raises(ValueError):
        faa_di_bruno(outer, [np.ones(1)] * 2, 0)


def test_entry_index_length_checked():
    tens = SymTensor(2, 2, 1, np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        tens.entry(0, (0,))


def packed_count(p, L):
    return math.comb(p + L - 1, L)
