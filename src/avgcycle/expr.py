"""Expression DSL: parsing, evaluation and exact differentiation of vector fields.

The smooth right-hand sides of a perturbed system are carried as small
expression trees over state variables, a time symbol and named parameters.
Keeping them symbolic lets every derivative tensor (up to order 5) be exact up
to roundoff, which matters because the high-order recurrences multiply fifth
derivatives together and would amplify finite-difference noise.

Grammar (EBNF, informal)::

    expr     = term { ("+" | "-") term }
    term     = unary { ("*" | "/") unary }
    unary    = "-" unary | power
    power    = atom [ "^" exponent ]
    exponent = ["-"] (INT | DECIMAL | "(" ["-"] INT "/" INT ")")
    atom     = NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

``^`` binds tightest and requires a constant integer or rational exponent so
that expressions stay globally smooth and closed under differentiation.
Recognised functions: sin, cos, tan, exp, log, sqrt.  ``pi`` is a constant.
Identifiers are ASCII letters/digits/underscore, not starting with a digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .tensor import SymTensor, packed_index_table

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")

__all__ = [
    "Expression", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "Call", "Pi", "Declarations", "VectorFieldSeries",
    "ParseError", "UndeclaredIdentifier", "ExponentError", "EvalDomainError",
    "parse", "evaluate", "to_str", "diff", "derivative_tensor", "compile_stack",
]


# ---------------------------------------------------------------------------
# errors

class ParseError(ValueError):
    """Syntax error; ``offset`` is the byte offset into the source text."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UndeclaredIdentifier(ParseError):
    def __init__(self, name, offset):
        ParseError.__init__(self, f"undeclared identifier '{name}'", offset)
        self.name = name


class ExponentError(ParseError):
    def __init__(self, offset):
        ParseError.__init__(
            self, "exponent must be a constant integer or rational", offset)


class EvalDomainError(ArithmeticError):
    """Evaluation hit a singularity; carries the offending subexpression."""

    def __init__(self, message, node):
        super().__init__(f"{message} in subexpression '{to_str(node)}'")
        self.node = node


# ---------------------------------------------------------------------------
# AST nodes

class Expression:
    __slots__ = ()

    def __repr__(self):
        return f"{type(self).__name__}({to_str(self)!r})"


class Num(Expression):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)


class Pi(Expression):
    __slots__ = ()


class Var(Expression):
    """Reference to a state variable (kind='state'), time or a parameter."""

    __slots__ = ("name", "kind", "index")

    def __init__(self, name, kind, index=-1):
        self.name = name
        self.kind = kind      # 'state' | 'time' | 'param'
        self.index = index    # state slot or parameter slot


class Neg(Expression):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class _Bin(Expression):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class Add(_Bin):
    __slots__ = ()


class Sub(_Bin):
    __slots__ = ()


class Mul(_Bin):
    __slots__ = ()


class Div(_Bin):
    __slots__ = ()


class Pow(Expression):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = Fraction(exponent)


class Call(Expression):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        self.fn = fn
        self.arg = arg


# ---------------------------------------------------------------------------
# declarations

@dataclass(frozen=True)
class Declarations:
    """Names an expression may reference: state variables, time, parameters."""

    state: tuple[str, ...]
    params: tuple[str, ...] = ()
    time: str = "t"

    def __post_init__(self):
        names = list(self.state) + list(self.params) + [self.time]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate declaration among {names}")

    def resolve(self, name, offset):
        if name == self.time:
            return Var(name, "time")
        if name in self.state:
            return Var(name, "state", self.state.index(name))
        if name in self.params:
            return Var(name, "param", self.params.index(name))
        raise UndeclaredIdentifier(name, offset)


# ---------------------------------------------------------------------------
# tokenizer / parser

_OPS = set("+-*/^()")


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            toks.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ParseError(f"bad numeric literal '{lit}'", i)
            toks.append(("num", lit, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, toks, decls):
        self.toks = toks
        self.pos = 0
        self.decls = decls

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected '{kind}', found '{tok[1] or 'end of input'}'", tok[2])
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.parse_unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            exponent = self.parse_exponent()
            return Pow(base, exponent)
        return base

    def parse_exponent(self):
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        tok = self.peek()
        if tok[0] == "num":
            self.next()
            return sign * _literal_fraction(tok)
        if tok[0] == "(":
            self.next()
            if self.peek()[0] == "-":
                self.next()
                sign = -sign
            p = self.expect("num")
            num = _literal_fraction(p)
            if self.peek()[0] == "/":
                self.next()
                q = self.expect("num")
                den = _literal_fraction(q)
                if den == 0:
                    raise ExponentError(q[2])
                num = num / den
            self.expect(")")
            return sign * num
        raise ExponentError(tok[2])

    def parse_atom(self):
        tok = self.next()
        kind, text, off = tok
        if kind == "num":
            return Num(float(text))
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "ident":
            if self.peek()[0] == "(":
                if text == "abs":
                    raise ParseError("'abs' is not supported (non-smooth)", off)
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{text}'", off)
                self.next()
                arg = self.parse_expr()
                self.expect(")")
                return Call(text, arg)
            if text == "pi":
                return Pi()
            return self.decls.resolve(text, off)
        raise ParseError(f"unexpected token '{text or 'end of input'}'", off)


def _literal_fraction(tok):
    try:
        return Fraction(tok[1])
    except ValueError:
        raise ExponentError(tok[2])


def parse(text, decls):
    """Parse ``text`` against ``decls`` and return the expression tree."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text), decls)
    node = parser.parse_expr()
    end = parser.next()
    if end[0] != "end":
        raise ParseError(f"unexpected token '{end[1]}'", end[2])
    return node


# ---------------------------------------------------------------------------
# printing

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}


def _prec(node):
    return _PREC.get(type(node), 5)


def to_str(node):
    """Render a tree back to parseable text (round-trip safe)."""
    if isinstance(node, Num):
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            return repr(int(v))
        return repr(v)
    if isinstance(node, Pi):
        return "pi"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = to_str(node.a)
        if _prec(node.a) <= _PREC[Neg]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, (Add, Sub, Mul, Div)):
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(node)]
        p = _PREC[type(node)]
        left = to_str(node.a)
        if _prec(node.a) < p:
            left = f"({left})"
        right = to_str(node.b)
        # -, / are left associative: parenthesise an equal-precedence rhs
        if _prec(node.b) < p or (op in "-/" and _prec(node.b) == p):
            right = f"({right})"
        return f"{left} {op} {right}"
    if isinstance(node, Pow):
        base = to_str(node.base)
        if _prec(node.base) <= _PREC[Pow]:
            base = f"({base})"
        e = node.exponent
        if e.denominator == 1:
            suffix = str(e.numerator) if e >= 0 else f"(-{-e.numerator})"
        else:
            suffix = f"({e.numerator}/{e.denominator})"
        return f"{base}^{suffix}"
    if isinstance(node, Call):
        return f"{node.fn}({to_str(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# interpreted evaluation (careful path, precise domain errors)

def evaluate(node, t, x, params):
    """Evaluate at time ``t``, state vector ``x``, parameter mapping ``params``.

    Raises :class:`EvalDomainError` naming the subexpression when the value
    leaves the smooth domain (log of a non-positive number, division by zero,
    fractional power of a negative base).
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Pi):
        return math.pi
    if isinstance(node, Var):
        if node.kind == "time":
            return float(t)
        if node.kind == "state":
            return float(x[node.index])
        return float(params[node.name])
    if isinstance(node, Neg):
        return -evaluate(node.a, t, x, params)
    if isinstance(node, Add):
        return evaluate(node.a, t, x, params) + evaluate(node.b, t, x, params)
    if isinstance(node, Sub):
        return evaluate(node.a, t, x, params) - evaluate(node.b, t, x, params)
    if isinstance(node, Mul):
        return evaluate(node.a, t, x, params) * evaluate(node.b, t, x, params)
    if isinstance(node, Div):
        den = evaluate(node.b, t, x, params)
        if den == 0.0:
            raise EvalDomainError("division by zero", node)
        return evaluate(node.a, t, x, params) / den
    if isinstance(node, Pow):
        base = evaluate(node.base, t, x, params)
        e = node.exponent
        if e.denominator == 1:
            if base == 0.0 and e < 0:
                raise EvalDomainError("zero raised to a negative power", node)
            return base ** int(e)
        if base < 0.0:
            raise EvalDomainError("fractional power of a negative base", node)
        if base == 0.0 and e < 0:
            raise EvalDomainError("zero raised to a negative power", node)
        return base ** float(e)
    if isinstance(node, Call):
        arg = evaluate(node.arg, t, x, params)
        if node.fn == "log":
            if arg <= 0.0:
                raise EvalDomainError("log of a non-positive number", node)
            return math.log(arg)
        if node.fn == "sqrt":
            if arg < 0.0:
                raise EvalDomainError("sqrt of a negative number", node)
            return math.sqrt(arg)
        try:
            return getattr(math, node.fn)(arg)
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(str(exc), node)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# simplifying constructors (used by the differentiator)

def _num(v):
    return Num(v)


def _is_num(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def mk_neg(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def mk_add(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def mk_sub(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return mk_neg(b)
    return Sub(a, b)


def mk_mul(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a, -1.0):
        return mk_neg(b)
    if _is_num(b, -1.0):
        return mk_neg(a)
    return Mul(a, b)


def mk_div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def mk_pow(base, exponent):
    e = Fraction(exponent)
    if e == 0:
        return Num(1.0)
    if e == 1:
        return base
    if _is_num(base):
        if base.value >= 0 or e.denominator == 1:
            return Num(base.value ** float(e) if e.denominator > 1
                       else base.value ** int(e))
    return Pow(base, e)


# ---------------------------------------------------------------------------
# differentiation

def diff(node, var_index, _cache=None):
    """Exact derivative with respect to state variable ``var_index``.

    Subtree results are memoised by object identity, which only keeps the
    recursion linear in the size of the shared tree.  Equal subexpressions
    built separately (the same ``sin(t)`` in two components, or in two
    derivative orders) are merged later by the compiler's structural CSE.
    """
    if _cache is None:
        _cache = {}
    key = (id(node), var_index)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    out = _diff(node, var_index, _cache)
    _cache[key] = out
    return out


def _diff(node, i, cache):
    if isinstance(node, (Num, Pi)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if (node.kind == "state" and node.index == i) else Num(0.0)
    if isinstance(node, Neg):
        return mk_neg(diff(node.a, i, cache))
    if isinstance(node, Add):
        return mk_add(diff(node.a, i, cache), diff(node.b, i, cache))
    if isinstance(node, Sub):
        return mk_sub(diff(node.a, i, cache), diff(node.b, i, cache))
    if isinstance(node, Mul):
        return mk_add(mk_mul(diff(node.a, i, cache), node.b),
                      mk_mul(node.a, diff(node.b, i, cache)))
    if isinstance(node, Div):
        da = diff(node.a, i, cache)
        db = diff(node.b, i, cache)
        if _is_num(db, 0.0):
            return mk_div(da, node.b)
        return mk_div(mk_sub(mk_mul(da, node.b), mk_mul(node.a, db)),
                      mk_pow(node.b, 2))
    if isinstance(node, Pow):
        db = diff(node.base, i, cache)
        if _is_num(db, 0.0):
            return Num(0.0)
        e = node.exponent
        return mk_mul(mk_mul(Num(float(e)), mk_pow(node.base, e - 1)), db)
    if isinstance(node, Call):
        da = diff(node.arg, i, cache)
        if _is_num(da, 0.0):
            return Num(0.0)
        a = node.arg
        outer = {
            "sin": lambda: Call("cos", a),
            "cos": lambda: mk_neg(Call("sin", a)),
            "tan": lambda: mk_add(Num(1.0), mk_pow(Call("tan", a), 2)),
            "exp": lambda: node,
            "log": lambda: mk_div(Num(1.0), a),
            "sqrt": lambda: mk_div(Num(0.5), node),
        }[node.fn]()
        return mk_mul(outer, da)
    raise TypeError(f"not an expression node: {node!r}")


def is_zero_expr(node):
    return _is_num(node, 0.0)


def tree_stats(node):
    """(depth, node count) of an expression tree; both are always finite."""
    if isinstance(node, (Num, Pi, Var)):
        return 1, 1
    if isinstance(node, Neg):
        d, c = tree_stats(node.a)
        return d + 1, c + 1
    if isinstance(node, (Add, Sub, Mul, Div)):
        da, ca = tree_stats(node.a)
        db, cb = tree_stats(node.b)
        return max(da, db) + 1, ca + cb + 1
    if isinstance(node, Pow):
        d, c = tree_stats(node.base)
        return d + 1, c + 1
    if isinstance(node, Call):
        d, c = tree_stats(node.arg)
        return d + 1, c + 1
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# compilation to plain Python (fast path used by the integrators)
#
# A stack of expressions compiles to one straight-line function ``f(t, x)``
# returning the list of their values.  Three rewrites make it cheap without
# changing a single bit of any value:
#
# * structural CSE (local value numbering): every operation is keyed on its
#   right-hand text, e.g. ``"v3 * v5"`` or ``"sin(t)"``, whose operands are
#   themselves value numbers, so a subexpression that recurs anywhere in the
#   stack - including the time-only ones like ``sin(t)`` - is computed once
#   per call.  Operands are never reassociated or reordered, so each value
#   is produced by the same IEEE operations as a naive evaluation;
# * constant folding: parameters are baked in as literals, and a subtree
#   whose leaves are all literals, ``pi`` or parameters is evaluated once at
#   compile time by the interpreter, which performs the same operations as
#   the emitted code.  A fold that raises or overflows is emitted unchanged,
#   so the error surfaces at evaluation time;
# * unit factors: ``a * 1.0``, ``1.0 * a`` and ``a / 1.0`` are ``a`` itself
#   (folding ``/omega^k`` with ``omega = 1`` leaves many of them).

_SAFE_GLOBALS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
    "powf": math.pow, "inf": math.inf, "nan": math.nan,
}

_BIN_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _literal(value):
    """(text, value) of a constant operand; negative literals are
    parenthesised so that ``(-1.0) ** 2`` keeps its meaning."""
    text = repr(value)
    return (f"({text})" if text.startswith("-") else text), value


def _fold(node, values):
    """Value of ``node`` applied to the constant operands ``values``, or None
    when the interpreter raises or the result is not finite."""
    kids = [Num(v) for v in values]
    if isinstance(node, Neg):
        shallow = Neg(kids[0])
    elif isinstance(node, _Bin):
        shallow = type(node)(kids[0], kids[1])
    elif isinstance(node, Pow):
        shallow = Pow(kids[0], node.exponent)
    else:
        shallow = Call(node.fn, kids[0])
    try:
        value = evaluate(shallow, 0.0, (), {})
    except (ArithmeticError, ValueError):
        return None
    return value if math.isfinite(value) else None


class _Emitter:
    """Post-order emitter of one stack with structural CSE and folding."""

    def __init__(self, params):
        self.params = params
        self.lines = []
        self.numbers = {}     # right-hand text -> value name
        self.memo = {}        # id(node) -> (ref, constant or None)

    def ref(self, node):
        # the identity memo only spares re-walking shared subtrees; values
        # are numbered by their right-hand text in ``_emit``
        out = self.memo.get(id(node))
        if out is None:
            out = self.memo[id(node)] = self._emit(node)
        return out

    def _emit(self, node):
        if isinstance(node, Num):
            return _literal(node.value)
        if isinstance(node, Pi):
            return _literal(math.pi)
        if isinstance(node, Var):
            if node.kind == "param":
                return _literal(float(self.params[node.index]))
            if node.kind == "time":
                return "t", None
            return self._number(f"x[{node.index}]"), None
        if isinstance(node, Neg):
            children, form = (node.a,), "-{0}"
        elif isinstance(node, _Bin):
            children, form = (node.a, node.b), f"{{0}} {_BIN_OPS[type(node)]} {{1}}"
        elif isinstance(node, Pow):
            e = node.exponent
            children = (node.base,)
            form = (f"{{0}} ** {int(e)}" if e.denominator == 1
                    else f"powf({{0}}, {float(e)!r})")
        elif isinstance(node, Call):
            children, form = (node.arg,), f"{node.fn}({{0}})"
        else:
            raise TypeError(f"not an expression node: {node!r}")
        refs, values = zip(*(self.ref(c) for c in children))
        if None not in values:
            value = _fold(node, values)
            if value is not None:
                return _literal(value)
        if isinstance(node, (Mul, Div)) and values[1] == 1.0:
            return refs[0], values[0]
        if isinstance(node, Mul) and values[0] == 1.0:
            return refs[1], values[1]
        return self._number(form.format(*refs)), None

    def _number(self, rhs):
        """Name of the value ``rhs``; emitted on its first occurrence."""
        name = self.numbers.get(rhs)
        if name is None:
            name = self.numbers[rhs] = f"v{len(self.numbers) + 1}"
            self.lines.append(f"    {name} = {rhs}")
        return name


def compile_stack(nodes, params=()):
    """Compile expressions into one function ``f(t, x)`` returning the list
    of their values; its generated text is kept as ``f.source``.

    ``params`` holds the parameter values in declaration order; they are
    baked into the code, so a new binding needs a new compilation.  Called
    with Python floats, the function raises ``ZeroDivisionError``,
    ``OverflowError`` or ``ValueError`` where a value leaves its domain.
    """
    emitter = _Emitter(params)
    refs = [emitter.ref(nd)[0] for nd in nodes]
    src = "def _fn(t, x):\n"
    src += "\n".join(emitter.lines)
    src += f"\n    return [{', '.join(refs)}]\n"
    scope = dict(_SAFE_GLOBALS)
    exec(src, scope)
    fn = scope["_fn"]
    fn.source = src
    return fn


# ---------------------------------------------------------------------------
# vector field series

@dataclass
class VectorFieldSeries:
    """The fields F_0..F_k of a T-periodic standard-form system.

    ``fields[i]`` holds the n component expressions of the order-i field; the
    full right-hand side at a given eps is ``sum_i eps^i * F_i(t, x)``.  All
    components share one declaration set and one parameter binding.
    """

    decls: Declarations
    period: float
    order: int
    fields: list
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if self.order < 1:
            raise ValueError("order k must be >= 1")
        if not self.period > 0:
            raise ValueError("period must be positive")
        if len(self.fields) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} fields F_0..F_{self.order}, got {len(self.fields)}")
        for i, comps in enumerate(self.fields):
            if len(comps) != n:
                raise ValueError(f"field F_{i} has {len(comps)} components, expected {n}")
        for name in self.decls.params:
            if name not in self.params:
                raise ValueError(f"parameter '{name}' has no bound value")
        self._stacks = {}
        self._rhs_fns = {}    # compiled augmented right-hand sides (flow._Plan)
        self.tree_depth, self.node_count = 0, 0
        for comps in self.fields:
            for comp in comps:
                d, c = tree_stats(comp)
                self.tree_depth = max(self.tree_depth, d)
                self.node_count += c

    @property
    def dim(self):
        return len(self.decls.state)

    @property
    def param_tuple(self):
        return tuple(float(self.params[name]) for name in self.decls.params)

    @classmethod
    def from_strings(cls, state, field_strings, period, params=None, time="t"):
        """Build a series from component strings: ``field_strings[i]`` lists
        the n components of F_i."""
        params = dict(params or {})
        decls = Declarations(state=tuple(state), params=tuple(sorted(params)), time=time)
        fields = [[parse(s, decls) for s in comps] for comps in field_strings]
        return cls(decls=decls, period=float(period),
                   order=len(field_strings) - 1, fields=fields, params=params)

    def eval_field(self, i, t, x):
        """Value of F_i(t, x) via the careful interpreted path."""
        return np.array([evaluate(c, t, x, self.params) for c in self.fields[i]])

    def tensor_stack(self, i, max_order, wrt=None):
        """Compiled evaluator for the derivative tensors of F_i up to
        ``max_order``; cached per (i, max_order, wrt, parameter values), so
        an in-place edit of ``params`` compiles afresh."""
        wrt = tuple(range(self.dim)) if wrt is None else tuple(wrt)
        params = self.param_tuple
        key = (i, max_order, wrt, params)
        stack = self._stacks.get(key)
        if stack is None:
            stack = _TensorStack(self.fields[i], self.dim, max_order, wrt, params)
            self._stacks[key] = stack
        return stack


# ---------------------------------------------------------------------------
# derivative tensors

class _TensorStack:
    """All packed derivative entries of one vector field up to a max order.

    Derivatives are taken with respect to the state variables listed in
    ``wrt`` (the packed index runs over positions in that list).  Identically
    zero orders are flagged so callers can skip whole tensors.  ``entries``
    holds the flat entry expressions; they are compiled, with the parameter
    values ``params`` (declaration order) baked in, on the first
    ``eval_all``, so a caller that only reads the expressions compiles
    nothing.
    """

    def __init__(self, components, dim, max_order, wrt, params=()):
        self.q = len(components)
        self.p = len(wrt)
        self.max_order = max_order
        self.wrt = wrt
        cache = {}
        # per_order[L][e] is a list of q expressions for packed multi-index e
        per_order = {0: [list(components)]}
        for L in range(1, max_order + 1):
            idxs = packed_index_table(self.p, L)
            prev_idxs = packed_index_table(self.p, L - 1)
            pos = {m: k for k, m in enumerate(prev_idxs)}
            rows = []
            for m in idxs:
                parent = pos[m[1:]]
                first = wrt[m[0]]
                rows.append([diff(e, first, cache) for e in per_order[L - 1][parent]])
            per_order[L] = rows
        self.order_is_zero = {}
        flat = []
        self._layout = {}
        for L in range(0, max_order + 1):
            rows = per_order[L]
            self.order_is_zero[L] = all(is_zero_expr(e) for row in rows for e in row)
            start = len(flat)
            for row in rows:
                flat.extend(row)
            self._layout[L] = (start, len(rows))
        self.entries = flat
        self._params = params
        self._fn = None

    def eval_all(self, t, x):
        """Return raw flat list of all entries at (t, x)."""
        if self._fn is None:
            self._fn = compile_stack(self.entries, self._params)
        return self._fn(t, x)

    def tensor_at(self, t, x, params):
        """Top-order tensor at (t, x), evaluated on Python floats so that a
        singular point raises ``EvalDomainError``; ``params`` is the
        parameter mapping the interpreter re-runs the field with to name
        the failing subexpression."""
        x = np.asarray(x, dtype=float).tolist()
        try:
            flat = self.eval_all(float(t), x)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            # re-run interpreted for a precise report; if the field itself is
            # fine, the singularity sits in a derivative expression
            for comp in self.entries[:self.q]:
                evaluate(comp, t, x, params)
            raise EvalDomainError(
                f"derivative expression hit a singularity ({exc})",
                self.entries[0])
        return self.tensor(self.max_order, flat)

    def tensor(self, L, flat_values):
        """Slice order-L entries out of ``flat_values`` into a SymTensor."""
        start, rows = self._layout[L]
        raw = flat_values[start:start + rows * self.q]
        entries = np.array(raw, dtype=float).reshape(rows, self.q).T
        return SymTensor(order=L, domain_dim=self.p, codomain_dim=self.q,
                         entries=entries)


def derivative_tensor(field_components, t, x, order, params, decls=None, wrt=None):
    """Order-``order`` symmetric derivative tensor of a field at (t, x).

    ``field_components`` is a list of Expression; derivatives are taken with
    respect to the state variables (all of them, or the subset ``wrt``).
    Order 0 returns the plain field value wrapped as a rank-0 tensor.
    """
    if order < 0 or order > 5:
        raise ValueError("derivative order must be in 0..5")
    x = np.asarray(x, dtype=float)
    dim = len(x)
    wrt = tuple(range(dim)) if wrt is None else tuple(wrt)
    if isinstance(params, dict):
        if decls is not None:
            p = tuple(float(params[name]) for name in decls.params)
        else:
            p = tuple(params[k] for k in sorted(params))
    else:
        p = tuple(params)
    stack = _TensorStack(list(field_components), dim, order, wrt, p)
    return stack.tensor_at(t, x, params if isinstance(params, dict) else {})
