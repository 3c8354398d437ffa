import gc
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avgcycle import expr as expr_module
from avgcycle.expr import (
    Declarations, EvalDomainError, Expression, ExponentError, Num, ParseError,
    UndeclaredIdentifier, VectorFieldSeries, compile_jet, derivative_tensor,
    diff, evaluate, full_call, parse, regroup, to_str,
)
from avgcycle.lyapschmidt import ExprGSeries
from avgcycle.tensor import jet_level_starts, packed_index_table
from conftest import random_component, random_polynomial_series
from oracles import stack_tensor

D2 = Declarations(state=("x1", "x2"), params=("a",))
DRW = Declarations(state=("r", "w"))

F11_TEXT = ("(1/4)*(r^3 + r^2*(r*(pi*sin(4*t)+2*cos(2*t)+cos(4*t))"
            " - 3*cos(t) - cos(3*t)) - 4*sin(t))")


def test_parse_product_structure():
    node = parse("sin(t)*x1^2", Declarations(state=("x1",)))
    assert type(node).__name__ == "Mul"
    assert type(node.a).__name__ == "Call" and node.a.fn == "sin"
    assert type(node.b).__name__ == "Pow" and node.b.exponent == 2


def test_radial_field_vanishes_at_unit_radius():
    # hand evaluation: (1/4)*(1 + (0+2+1) - 3 - 1 - 0) = 0 at t=0, r=1
    node = parse(F11_TEXT, DRW)
    assert evaluate(node, 0.0, [1.0, 0.3], {}) == pytest.approx(0.0, abs=1e-15)


def test_unbalanced_paren_offset():
    with pytest.raises(ParseError) as err:
        parse("sin(t", Declarations(state=("x1",)))
    assert err.value.offset == 5


def test_undeclared_identifier_is_named():
    with pytest.raises(UndeclaredIdentifier) as err:
        parse("x1 + zz", Declarations(state=("x1",)))
    assert err.value.name == "zz"


def test_bad_exponent_rejected():
    with pytest.raises(ExponentError):
        parse("x1^x1", Declarations(state=("x1",)))


def test_abs_rejected():
    with pytest.raises(ParseError):
        parse("abs(x1)", Declarations(state=("x1",)))


def test_rational_exponent():
    node = parse("x1^(3/2)", Declarations(state=("x1",)))
    assert evaluate(node, 0.0, [4.0], {}) == pytest.approx(8.0)


def test_eval_literal_and_pi():
    assert evaluate(parse("3.5", D2), 0, [0, 0], {"a": 0}) == 3.5
    val = evaluate(parse("pi*a^3/2", D2), 0.0, [0, 0], {"a": 2.0})
    assert val == pytest.approx(4 * math.pi, rel=1e-12)


def test_eval_division_by_zero():
    node = parse("1/x1", Declarations(state=("x1",)))
    with pytest.raises(EvalDomainError):
        evaluate(node, 0.0, [0.0], {})


def test_eval_log_domain():
    node = parse("log(x1)", Declarations(state=("x1",)))
    with pytest.raises(EvalDomainError):
        evaluate(node, 0.0, [-1.0], {})
    with pytest.raises(EvalDomainError):
        evaluate(node, 0.0, [0.0], {})


def scalar_code(nodes, params=()):
    """The scalar code of ``nodes``: their jet in no offsets."""
    return compile_jet(nodes, (0,) * len(nodes), params, 0)


def test_compiled_matches_interpreted():
    decls = Declarations(state=("x1", "x2"), params=("a",))
    node = parse("exp(0.1*x1)*sin(t + x2) + a/(1 + x1^2) + sqrt(1 + x2^2)", decls)
    rng = np.random.default_rng(0)
    for _ in range(25):
        t, x1, x2, a = rng.uniform(-2, 2, size=4)
        fn = scalar_code([node], (a,))
        assert full_call(fn, t, [x1, x2])[0] == pytest.approx(
            evaluate(node, t, [x1, x2], {"a": a}), rel=1e-14)


# --- compiled stacks against the interpreter ---------------------------------

def _flat_entries(components, max_order, wrt):
    """The packed entries of a tensor stack, rebuilt the way ``_TensorStack``
    lays them out: order by order, row by row, component by component."""
    cache = {}
    per_order = [[list(components)]]
    for L in range(1, max_order + 1):
        parent = {m: r for r, m in enumerate(packed_index_table(len(wrt), L - 1))}
        per_order.append([[diff(e, wrt[m[0]], cache) for e in per_order[L - 1][parent[m[1:]]]]
                          for m in packed_index_table(len(wrt), L)])
    return [e for rows in per_order for row in rows for e in row]


def _assert_stacks_exact(series, rng, n_points):
    # every stack the integrators build: F_0 up to order k, F_m up to k - m,
    # and each F_m with its Jacobian
    k = series.order
    for m in range(k + 1):
        max_order = max(k - m, 1)
        stack = series.tensor_stack(m, max_order)
        flat = _flat_entries(series.fields[m], max_order, tuple(range(series.dim)))
        for _ in range(n_points):
            t = rng.uniform(0.0, series.period)
            x = rng.uniform(0.3, 2.0, size=series.dim) * rng.choice([-1.0, 1.0], series.dim)
            got = np.array(stack.eval_all(t, x))
            want = np.array([evaluate(e, t, x, series.params) for e in flat])
            assert np.array_equal(got, want), (m, t, x)


@pytest.mark.parametrize("name", ["cyl3d_series", "mb_series"])
def test_fixture_stacks_equal_interpreter_exactly(request, name):
    # CSE and constant folding must not move a single bit
    _assert_stacks_exact(request.getfixturevalue(name), np.random.default_rng(3), 40)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_stacks_equal_interpreter_exactly(n):
    rng = np.random.default_rng(20 + n)
    _assert_stacks_exact(random_polynomial_series(rng, n, 3), rng, 20)


def _assignments(fn):
    """The right-hand sides of the generated code: one per value computed
    (the names are reused, so the locals no longer count them); a clock's
    branch and the unpacking of its tabulated values are left out."""
    assignment = re.compile(r"\s+v\d+ = (.*)").fullmatch
    return [m.group(1) for m in map(assignment, fn.source.splitlines()[1:-1]) if m]


def test_structural_cse_merges_separately_parsed_copies():
    decls = Declarations(state=("x1",))
    nodes = [parse("sin(t)*cos(t)", decls), parse("sin(t)*cos(t)", decls)]
    assert nodes[0] is not nodes[1]
    fn = scalar_code(nodes)
    # one sin, one cos, one multiply
    rhs = _assignments(fn)
    assert len(rhs) == 3
    assert [sum(op in r for r in rhs) for op in ("sin(", "cos(", " * ")] == [1, 1, 1]
    assert full_call(fn, 0.4, [0.0]) == [math.sin(0.4) * math.cos(0.4)] * 2


def test_parameter_subtree_compiles_to_literal():
    decls = Declarations(state=("x1",), params=("a0", "omega"))
    node = parse("a0^2/omega", decls)
    fn = scalar_code([node], (1.5, 0.7))
    assert _assignments(fn) == []
    assert full_call(fn, 0.0, [0.0])[0] == evaluate(node, 0.0, [0.0], {"a0": 1.5, "omega": 0.7})


def test_negative_parameter_squared_is_positive():
    decls = Declarations(state=("x1",), params=("a0",))
    fn = scalar_code([parse("a0^2", decls), parse("a0^2*x1", decls)], (-1.0,))
    assert full_call(fn, 0.0, np.array([3.0])) == [1.0, 3.0]


def test_stack_cache_follows_in_place_parameter_edit():
    series = VectorFieldSeries.from_strings(("x1",), [["a*x1"], ["0"]], 1.0,
                                            params={"a": 2.0})
    assert series.tensor_stack(0, 0).eval_all(0.0, np.array([1.0])) == [2.0]
    series.params["a"] = 3.0
    assert series.tensor_stack(0, 0).eval_all(0.0, np.array([1.0])) == [3.0]


def test_zero_parameter_divisor_raises_at_evaluation():
    # folding 1/c with c = 0 fails, so the division is compiled as it stands
    # and the domain error surfaces when the stack is evaluated
    series = VectorFieldSeries.from_strings(("x",), [["0"], ["x/c"]], 1.0,
                                            params={"c": 0.0})
    series.tensor_stack(1, 2)
    with np.errstate(divide="ignore"), pytest.raises(
            EvalDomainError, match=r"division by zero in subexpression 'x / c'"):
        derivative_tensor(series.fields[1], 0.0, [1.5], 1, series.params,
                          decls=series.decls)


def test_zero_parameter_divisor_raises_at_order_zero():
    # the field value itself is evaluated on Python floats, so the zero
    # divisor raises instead of returning inf with a numpy warning
    series = VectorFieldSeries.from_strings(("x",), [["0"], ["x/c"]], 1.0,
                                            params={"c": 0.0})
    with pytest.raises(EvalDomainError,
                       match=r"division by zero in subexpression 'x / c'"):
        derivative_tensor(series.fields[1], 0.0, np.array([1.5]), 0,
                          series.params, decls=series.decls)


# --- round trip ------------------------------------------------------------

_leaf = st.sampled_from(["x1", "x2", "a", "t", "pi", "2", "0.5", "3"])


@st.composite
def _expr_text(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        return draw(_leaf)
    kind = draw(st.integers(0, 6))
    lhs = draw(_expr_text(depth=depth + 1))
    rhs = draw(_expr_text(depth=depth + 1))
    if kind == 0:
        return f"({lhs} + {rhs})"
    if kind == 1:
        return f"({lhs} - {rhs})"
    if kind == 2:
        return f"({lhs} * {rhs})"
    if kind == 3:
        return f"({lhs} / ({rhs} + 10))"
    if kind == 4:
        return f"({lhs})^{draw(st.integers(0, 3))}"
    if kind == 5:
        return f"-({lhs})"
    fn = draw(st.sampled_from(["sin", "cos", "exp"]))
    return f"{fn}({lhs})"


@given(_expr_text())
@example("exp((exp((3 + 3)) + exp((3 + 3))))")     # overflows
@settings(max_examples=120, deadline=None)
def test_print_parse_round_trip(text):
    # the reparsed expression has the original's values, and where the
    # original leaves its domain it raises the same error
    node = parse(text, D2)
    back = parse(to_str(node), D2)
    rng = np.random.default_rng(7)
    for _ in range(3):
        t, x1, x2, a = rng.uniform(-1.5, 1.5, size=4)
        try:
            v1 = evaluate(node, t, [x1, x2], {"a": a})
        except EvalDomainError as exc:
            with pytest.raises(EvalDomainError) as again:
                evaluate(back, t, [x1, x2], {"a": a})
            assert str(again.value) == str(exc)
            continue
        v2 = evaluate(back, t, [x1, x2], {"a": a})
        assert v2 == pytest.approx(v1, rel=1e-12, abs=1e-12)


# --- derivative tensors -----------------------------------------------------

def _fd_tensor(components, t, x, order, params, h=1e-3):
    """5-point central finite differences, iterated per order (test oracle)."""
    x = np.asarray(x, dtype=float)

    def value(pt):
        return np.array([evaluate(c, t, pt, params) for c in components])

    def deriv(fun, i):
        def new(pt):
            e = np.zeros_like(pt)
            e[i] = 1.0
            return (-fun(pt + 2 * h * e) + 8 * fun(pt + h * e)
                    - 8 * fun(pt - h * e) + fun(pt - 2 * h * e)) / (12 * h)
        return new

    q = len(components)
    n = len(x)
    out = np.empty((q,) + (n,) * order)
    for idx in np.ndindex(*(n,) * order):
        fun = value
        for i in idx:
            fun = deriv(fun, i)
        out[(slice(None),) + idx] = fun(x)
    return out


def test_tensor_single_entry_square():
    decls = Declarations(state=("x1",))
    tens = derivative_tensor([parse("x1^2", decls)], 0.0, [1.7], 2, {}, decls=decls)
    assert tens.entry(0, (0, 0)) == pytest.approx(2.0, rel=1e-14)


def test_tensor_order_zero_is_value():
    decls = Declarations(state=("x1", "x2"))
    comps = [parse("x1*x2 + sin(t)", decls), parse("x2^3", decls)]
    tens = derivative_tensor(comps, 0.5, [1.0, 2.0], 0, {}, decls=decls)
    want = [1.0 * 2.0 + math.sin(0.5), 8.0]
    assert tens.entries[:, 0] == pytest.approx(want, rel=1e-14)


def test_tensor_matches_finite_differences_polynomial():
    # the oracle step grows with the order: an h too small for the order
    # makes the *stencil* noise exceed the comparison tolerance
    decls = Declarations(state=("x1", "x2", "x3"))
    comps = [parse("x1^4 + x1*x2^2*x3 - 2*x3^2", decls),
             parse("x1^2*x2^2 + x3^4", decls),
             parse("x1*x2*x3 + x2^4", decls)]
    pt = np.array([0.7, -0.4, 0.9])
    steps = {1: 1e-3, 2: 1e-3, 3: 4e-3, 4: 1.5e-2}
    for order in range(1, 5):
        tens = derivative_tensor(comps, 0.0, pt, order, {}, decls=decls)
        fd = _fd_tensor(comps, 0.0, pt, order, {}, h=steps[order])
        dense = tens.to_dense()
        scale = max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(dense - fd)) / scale < 1e-6


def test_tensor_linearity():
    decls = Declarations(state=("x1", "x2"))
    f = [parse("sin(x1)*x2", decls), parse("exp(0.3*x2)", decls)]
    g = [parse("x1^3 - x2", decls), parse("cos(x1*x2)", decls)]
    combo = [parse(f"2.5*({to_str(a)}) - 0.75*({to_str(b)})", decls)
             for a, b in zip(f, g)]
    pt = [0.3, -0.8]
    for order in (1, 2, 3):
        tf = derivative_tensor(f, 0.0, pt, order, {}, decls=decls)
        tg = derivative_tensor(g, 0.0, pt, order, {}, decls=decls)
        tc = derivative_tensor(combo, 0.0, pt, order, {}, decls=decls)
        want = 2.5 * tf.entries - 0.75 * tg.entries
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(tc.entries - want)) / scale < 1e-12


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_mixed_partials_commute(seed):
    # Schwarz symmetry is structural: both orders read the same packed cell
    rng = np.random.default_rng(seed)
    decls = Declarations(state=("x1", "x2"))
    node = parse("sin(x1*x2) + exp(0.2*x1)*x2^3", decls)
    pt = rng.uniform(-1, 1, size=2)
    tens = derivative_tensor([node], 0.0, pt, 2, {}, decls=decls)
    assert tens.entry(0, (0, 1)) == tens.entry(0, (1, 0))


def test_elementary_function_derivatives():
    decls = Declarations(state=("x1",))
    cases = [("tan(x1)", lambda x: 1 + math.tan(x) ** 2),
             ("log(x1)", lambda x: 1 / x),
             ("sqrt(x1)", lambda x: 0.5 / math.sqrt(x)),
             ("exp(2*x1)", lambda x: 2 * math.exp(2 * x))]
    for text, want in cases:
        tens = derivative_tensor([parse(text, decls)], 0.0, [0.8], 1, {}, decls=decls)
        assert tens.entry(0, (0,)) == pytest.approx(want(0.8), rel=1e-12)


def test_derivative_singularity_reported():
    from avgcycle.expr import EvalDomainError
    decls = Declarations(state=("x1",))
    node = parse("sqrt(x1)", decls)
    # the field value is fine at 0 but its derivative is singular there
    with pytest.raises((EvalDomainError, ZeroDivisionError)):
        derivative_tensor([node], 0.0, [0.0], 1, {}, decls=decls)


def _symbolic_tensor(comps, decls, params, t, x, L, wrt):
    """Oracle: the order-L tensor in ``wrt`` sliced from the symbolic stack
    over all coordinates, evaluated by its compiled ``eval_all``."""
    n = len(decls.state)
    series = VectorFieldSeries(decls=decls, period=1.0, order=1,
                               fields=[comps, [Num(0.0)] * n], params=params)
    stack = series.tensor_stack(0, L)
    full = stack_tensor(stack, L, stack.eval_all(t, list(x)), n, n)
    cols = [packed_index_table(n, L).index(tuple(sorted(wrt[j] for j in m)))
            for m in packed_index_table(len(wrt), L)]
    return full.entries[:, cols]


@pytest.mark.parametrize("seed", range(12))
def test_jet_partials_match_symbolic_stacks(seed):
    # derivative_tensor and ExprGSeries.b_tensor read their partials off a
    # compiled jet; the symbolic stacks the right-hand side is built from
    # must agree with them
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    names = tuple(f"x{i + 1}" for i in range(n))
    params = {"a": float(rng.uniform(0.5, 1.5))}
    texts = [[random_component(rng, names) for _ in range(n)] for _ in range(2)]
    gs = ExprGSeries(texts, state=names, params=params)
    x = rng.uniform(-1.0, 1.0, size=n)
    for L in range(6):
        wrt = tuple(int(j) for j in rng.permutation(n)[:rng.integers(1, n + 1)])
        want = _symbolic_tensor(gs.gs[0], gs.decls, params, 0.0, x, L, wrt)
        got = derivative_tensor(gs.gs[0], 0.0, x, L, params, decls=gs.decls, wrt=wrt)
        assert got.entries.shape == want.shape
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(got.entries - want)) <= 1e-12 * scale, (L, wrt)
        nb = int(rng.integers(1, n + 1))
        trailing = tuple(range(n - nb, n))
        want = _symbolic_tensor(gs.gs[1], gs.decls, params, 0.0, x, L, trailing)
        got = gs.b_tensor(1, x, L, nb).entries
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, (L, nb)


# --- Taylor lift (jet transport) ---------------------------------------------

# every lifted operation: + - * /, Neg, integer and rational powers, and
# each elementary function, with time-only and parameter subexpressions
JET_OPS = ["x1 + x2", "x1 - a*x2", "-x1*x2", "x1*x2", "x1/x2", "x1^4", "x2^-3",
           "x1^(3/2)", "x2^(-2/3)", "exp(x1*x2)", "log(x1 + x2)", "sqrt(x1*x2)",
           "sin(x1*x2)", "cos(x1 - x2)", "tan(x1*x2)", "x1^2*sin(t)/(a + x2^2)"]


def _jet_state(z, D, nb):
    """x = z + db in the ``compile_jet`` layout: slots x1, x2 to degree D,
    the offsets db on the trailing nb of them."""
    x = list(z)
    for j in range(2):
        for L in range(1, D + 1):
            for multi in packed_index_table(nb, L):
                x.append(1.0 if L == 1 and multi == (j - (2 - nb),) else 0.0)
    return x


@pytest.mark.parametrize("nb", [1, 2])
@pytest.mark.parametrize("text", JET_OPS)
def test_jet_coefficients_equal_interpreter_derivatives(text, nb):
    node = parse(text, D2)
    D = 4
    fn = compile_jet([node, Num(0.0)], (D, D), (0.7,), nb)
    starts = jet_level_starts(nb, D)
    rng = np.random.default_rng(7)
    for _ in range(4):
        z = rng.uniform(0.3, 1.2, size=2)
        t = rng.uniform(0.0, 6.0)
        out = full_call(fn, t, _jet_state(z, D, nb))
        assert out[0] == evaluate(node, t, z, {"a": 0.7})
        for L in range(1, D + 1):
            for multi in packed_index_table(nb, L):
                flat = jet_level_starts(nb, L)[L] + packed_index_table(nb, L).index(multi)
                beta_factorial = math.prod(math.factorial(multi.count(j)) for j in range(nb))
                deriv, cache = node, {}
                for j in multi:
                    deriv = diff(deriv, 2 - nb + j, cache)
                want = evaluate(deriv, t, z, {"a": 0.7}) / beta_factorial
                got = out[2 + flat - 1]
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (multi, got, want)


def test_jet_keeps_time_only_subexpressions_scalar():
    decls = Declarations(state=("x1",))
    node = parse("sin(t)*cos(t)*x1 + exp(t)", decls)
    src = compile_jet([node], (3,), nb=1).source
    # sin(t), cos(t) and exp(t) are computed once, by the scalar code
    for fn in ("sin(t)", "cos(t)", "exp(t)"):
        assert src.count(fn) == 1


def test_jet_leaving_its_domain_raises_like_the_scalar_code():
    log_fn = compile_jet([parse("log(x1)", D2), Num(0.0)], (2, 2), (0.7,), 2)
    with pytest.raises(ValueError):
        full_call(log_fn, 0.0, _jet_state([-0.5, 1.0], 2, 2))
    # sqrt is fine at 0, its derivative is not
    sqrt_node = parse("sqrt(x1)", D2)
    assert full_call(scalar_code([sqrt_node], (0.7,)), 0.0, [0.0, 1.0]) == [0.0]
    sqrt_fn = compile_jet([sqrt_node, Num(0.0)], (2, 2), (0.7,), 2)
    with pytest.raises(ZeroDivisionError):
        full_call(sqrt_fn, 0.0, _jet_state([0.0, 1.0], 2, 2))


def test_regroup_multiplies_the_state_last():
    decls = Declarations(state=("r", "w"), params=("a", "b"))

    def regrouped(text, params=(-1.0, 1.0), state_slots=2):
        return to_str(regroup([parse(text, decls)], params, state_slots)[0])

    # parameters fold into the literals, the factors free of the state are
    # multiplied first, and terms with equal state monomials are merged
    assert (regrouped("2*a*r*sin(t)*cos(t)/b^2 - r*w*sin(t)*cos(t) + w*r*cos(t)")
            == "-2 * sin(t) * cos(t) * r + (-(sin(t) * cos(t)) + cos(t)) * r * w")
    # slots at or past state_slots are coefficients, like the eps weights
    assert regrouped("w*r + 3*r*w", state_slots=1) == "4 * w * r"
    # terms that cancel exactly are dropped when they cannot raise, or when
    # what can raise in them (sin(t), r^2) is formed by a term that stays
    assert regrouped("r*w - w*r + 2*r") == "2 * r"
    assert regrouped("r*w*sin(t) - w*r*sin(t) + 2*r*sin(t)") == "2 * sin(t) * r"
    assert regrouped("r^2*w - w*r^2 + 3*r^2") == "3 * r^2"
    # nothing is cancelled across a division bar, and nothing is expanded
    assert regrouped("r*w/r + 2*r*w/r*sin(t)") == "(1 + 2 * sin(t)) * r * w / r"
    # nor is a power that can overflow, or a function, that no term keeps
    for text in ("w/r - w/r + r", "(r + w)*(r - w)", "r^2 - r^2 + w",
                 "r*w*sin(t) - w*r*sin(t) + 2*r", "w + 3*r^2 + sin(r) - sin(r)"):
        node = parse(text, decls)
        assert regroup([node], (1.0, 1.0), 2)[0] is node


def test_regroup_holds_every_node_it_keys():
    # Inner sums whose regrouping is rejected (it would cost an operation)
    # and that regroup to one structure: the second result repeats the
    # first one's structure, so nothing but the pass holds its nodes.  A
    # keyed node that was freed would hand its id, and its key, to the
    # next node allocated there.
    decls = Declarations(state=("r", "w"), params=("a",))
    texts = ["(r*w*sin(t) + r*w*cos(t)*r)*(w + 3)",
             "(r*w*cos(t)*r + w*r*sin(t))*(w + 5)",
             "(w*r*cos(t)*r + w*r*sin(t))*(r + 7)",
             "r*r*cos(t) + 2*r*r + 3*r*w + (r*w*sin(t) + r*w*cos(t)*r)*r"]
    written = [parse(text, decls) for text in texts]
    pass_ = expr_module._Regrouper((0.5,), 2)
    out = [pass_.canon(nd) for nd in written]
    assert to_str(out[0]) == "(r * w * sin(t) + r * w * cos(t) * r) * (3 + w)"
    live = {id(o): o for o in gc.get_objects() if isinstance(o, Expression)}
    for i, (k, _) in pass_.keys.items():
        assert i in live and to_str(live[i]) == to_str(pass_.rep[k])
    # and through ``regroup``, equal to the nodes as written to roundoff
    regrouped = regroup(written, (0.5,), 2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        t, x = rng.uniform(0.0, 6.3), rng.uniform(-2.0, 2.0, 2)
        for a, b in zip(regrouped, written):
            va, vb = evaluate(a, t, x, {"a": 0.5}), evaluate(b, t, x, {"a": 0.5})
            assert va == pytest.approx(vb, rel=1e-13, abs=1e-13)


def test_vector_field_series_validation():
    with pytest.raises(ValueError):
        VectorFieldSeries.from_strings(("x1",), [["0"], ["x1", "x1"]], 1.0)
    with pytest.raises(ValueError):
        VectorFieldSeries.from_strings(("x1",), [["0"], ["x1"]], -1.0)
    vfs = VectorFieldSeries.from_strings(("r", "w"), [["0", "w"], ["r", "0"]], 2 * math.pi)
    assert vfs.dim == 2 and vfs.order == 1
