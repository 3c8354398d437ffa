"""Expression DSL: parsing, evaluation and exact differentiation of vector fields.

The smooth right-hand sides of a perturbed system are carried as small
expression trees over state variables, a time symbol and named parameters.
Keeping them symbolic lets every derivative tensor (up to order 5) be exact up
to roundoff, which matters because the high-order recurrences multiply fifth
derivatives together and would amplify finite-difference noise.

Expressions take one path from text to numbers: ``parse`` builds the tree,
and a compiled function evaluates it.  Every derivative value is read off a
compiled jet (``jet_partials``: the truncated Taylor lift of ``compile_jet``
with unit seeds on the differentiation coordinates).  Derivatives are built
symbolically (``diff``) only as pieces of the fused right-hand side that
``flow`` compiles, through ``VectorFieldSeries.tensor_stack``.  The
interpreter ``evaluate`` folds constants at compile time and names the
subexpression behind a domain error.

The values compiled code computes take the same floating-point operations
as the interpreter on the nodes it is given, so the two agree bit for bit.
The right-hand sides ``flow`` integrates are first regrouped by state
monomial (``regroup``): the factors free of the state are multiplied first
and terms with equal state monomials are merged, which keeps Taylor jets
from carrying work that does not depend on the state.  Those agree with the
nodes as written to roundoff only.

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
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from .tensor import (SymTensor, jet_level_starts, jet_splits, jet_state_starts,
                     level_partials, packed_index_table)

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")

__all__ = [
    "Expression", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "Call", "Pi", "Declarations", "VectorFieldSeries",
    "ParseError", "UndeclaredIdentifier", "ExponentError", "EvalDomainError",
    "parse", "evaluate", "to_str", "diff", "derivative_tensor", "compile_jet",
    "jet_partials", "regroup",
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


# ---------------------------------------------------------------------------
# regrouping by state monomial (the right-hand sides ``flow`` integrates)
#
# The parser multiplies left to right, so ``2*a*r*sin(t)*cos(t)`` lifts r at
# its first factor, and in a jet every later factor costs a product of
# Taylor polynomials.  ``regroup`` rewrites each sum of products as
#
#     sum over state monomials M of (sum of c * T) * M,
#
# c a literal (parameters and constants folded), T a product of the factors
# free of the state (time functions, and the slots at or past
# ``state_slots``, the eps weights), M a product and quotient of the state
# factors.  Terms whose M are structurally equal (equal keys, by
# hash-consing) share one M, and terms with equal M and T add their
# literals.  The groups, and the T within a coefficient, are emitted in
# the order of their keys, one order for the whole stack, so equal sub-sums
# in different components come out equal for the compiler's CSE.  A product
# of sums is never expanded: a state factor that is a sum is regrouped on
# its own.  No factor is cancelled between numerator and denominator, and
# terms that cancel exactly are dropped only when they divide by nothing
# and each of their factors that can raise (a function, or a power other
# than 0 and 1, which on floats can overflow) is still formed by a term
# that stays, so every domain error the written node raises is still
# raised (``r*w/r`` still divides by r, ``r^2 - r^2 + w`` still squares
# r).  A node handed to ``regroup`` is left exactly as written unless
# regrouping saves an operation on the state; a factor inside it is
# regrouped unless that costs one, which keeps the shared factors in one
# form.  A node whose folded literal is not finite, or whose terms cancel
# otherwise, is left as written too.  The result equals the written node to
# roundoff, not bit for bit.


class _Keep(Exception):
    """Regrouping this node would fold a non-finite literal or cancel terms
    that can raise."""


class _Regrouper:
    def __init__(self, params, state_slots):
        self.params = params
        self.state_slots = state_slots
        self.ids = {}         # structure -> key
        self.keys = {}        # id(node) -> (key, node); holding the node
                              # keeps its id from going to another node
        self.rep = []         # key -> a node with that structure
        self.state = []       # key -> whether a state slot lies beneath
        self.const = []       # key -> folded constant, or None
        self.total = []       # key -> never raises: only sums, products
                              # and the powers 0 and 1
        self.done = {}        # key -> regrouped node

    def key(self, node):
        """Structural key by hash-consing: equal trees get equal keys."""
        hit = self.keys.get(id(node))
        if hit is not None:
            return hit[0]
        kids = [self.key(c) for c in _children(node)]
        if isinstance(node, Num):
            shape = ("num", node.value)
        elif isinstance(node, Var):
            shape = ("var", node.kind, node.index)
        elif isinstance(node, Pow):
            shape = ("pow", node.exponent)
        elif isinstance(node, Call):
            shape = ("call", node.fn)
        else:
            shape = (type(node).__name__,)
        shape += tuple(kids)
        k = self.ids.get(shape)
        if k is None:
            k = self.ids[shape] = len(self.rep)
            self.rep.append(node)
            if isinstance(node, Var):
                self.state.append(node.kind == "state"
                                  and node.index < self.state_slots)
                self.const.append(float(self.params[node.index])
                                  if node.kind == "param" else None)
            else:
                self.state.append(any(self.state[c] for c in kids))
                self.const.append(self._constant(node, kids))
            self.total.append(all(self.total[c] for c in kids) and _total_op(node))
        self.keys[id(node)] = k, node
        return k

    def _constant(self, node, kids):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Pi):
            return math.pi
        values = [self.const[c] for c in kids]
        return None if None in values else _fold(node, values)

    def is_state(self, node):
        return self.state[self.key(node)]

    def cost(self, node):
        """Distinct operations on the state in ``node``."""
        seen, stack = set(), [node]
        while stack:
            nd = stack.pop()
            k = self.key(nd)
            if k not in seen and self.state[k] and not isinstance(nd, Var):
                seen.add(k)
                stack.extend(_children(nd))
        return len(seen)

    def canon(self, node):
        k = self.key(node)
        out = self.done.get(k)
        if out is None:
            out = self.done[k] = self._canon(node)
            self.done.setdefault(self.key(out), out)
        return out

    def _canon(self, node):
        if isinstance(node, Pow):
            base = self.canon(node.base)
            return node if base is node.base else Pow(base, node.exponent)
        if isinstance(node, Call):
            arg = self.canon(node.arg)
            return node if arg is node.arg else Call(node.fn, arg)
        if not isinstance(node, (Neg, _Bin)):
            return node
        try:
            new = self._regroup(node)
        except _Keep:
            return node
        return new if self.cost(new) <= self.cost(node) else node

    # -- flattening

    def _terms(self, node, sign, out):
        if isinstance(node, Neg):
            self._terms(node.a, -sign, out)
        elif isinstance(node, (Add, Sub)):
            self._terms(node.a, sign, out)
            self._terms(node.b, sign if isinstance(node, Add) else -sign, out)
        else:
            out.append((sign, node))
        return out

    def _factors(self, node, num, den, sign, below=False):
        """Spread the product ``node`` over ``num`` and ``den`` (``below``:
        it divides); returns the sign.  A quotient below a division bar
        stays whole, so a zero in its denominator still raises."""
        if isinstance(node, Neg):
            return self._factors(node.a, num, den, -sign, below)
        if isinstance(node, Mul):
            sign = self._factors(node.a, num, den, sign, below)
            return self._factors(node.b, num, den, sign, below)
        if isinstance(node, Div) and not below:
            sign = self._factors(node.a, num, den, sign)
            return self._factors(node.b, num, den, sign, True)
        if self.is_state(node):
            node = self.canon(node)
            if isinstance(node, (Neg, Mul)) or (isinstance(node, Div) and not below):
                # a factor that regrouped to a single term joins this one
                return self._factors(node, num, den, sign, below)
        (den if below else num).append(node)
        return sign

    # -- regrouping

    def _regroup(self, node):
        groups = {}    # monomial -> {time factors -> literal}
        for sign, term in self._terms(node, 1.0, []):
            num, den = [], []
            c = self._factors(term, num, den, sign)
            buckets = ([], [], [], [])   # time num, time den, state num, state den
            for factors, below in ((num, 0), (den, 1)):
                for f in factors:
                    k = self.key(f)
                    value = self.const[k]
                    if value is None:
                        buckets[2 * self.state[k] + below].append(k)
                    elif not below:
                        c *= value
                    elif value == 0.0:
                        raise _Keep
                    else:
                        c /= value
            tn, td, sn, sd = (tuple(sorted(b)) for b in buckets)
            coeffs = groups.setdefault((sn, sd), {})
            coeffs[tn, td] = coeffs.get((tn, td), 0.0) + c
        pieces = []
        risky, formed = set(), set()   # factors of cancelled terms that can
                                       # raise; factors the result forms
        for (sn, sd), coeffs in sorted(groups.items()):
            parts = []
            for (tn, td), c in sorted(coeffs.items()):
                if not math.isfinite(c):
                    raise _Keep
                if c == 0.0:
                    if td or sd:
                        raise _Keep
                    risky.update(k for k in tn + sn if not self.total[k])
                    continue
                formed.update(tn + td + sn + sd)
                literal = None if abs(c) == 1.0 else Num(abs(c))
                parts.append((c < 0.0, literal, self._quotient(tn, td)))
            if len(parts) == 1:
                negative, literal, time = parts[0]
                coef = None if literal is None and time is None else _times(literal, time)
            elif parts:
                negative, coef = False, _chain(parts)
            else:
                continue
            pieces.append((negative, coef, self._quotient(sn, sd)))
        if not risky <= formed:
            # terms that cancel exactly go only if what can raise in them
            # is still formed by a term that stays
            raise _Keep
        return _chain(pieces) if pieces else Num(0.0)

    def _product(self, keys):
        return reduce(Mul, (self.rep[k] for k in keys)) if keys else None

    def _quotient(self, num, den):
        top, bottom = self._product(num), self._product(den)
        if bottom is None:
            return top
        return Div(Num(1.0) if top is None else top, bottom)


def _total_op(node):
    """Whether ``node`` never raises on Python floats: ``**`` can overflow
    (``r ** 2`` at r = 1e200) and each ``math`` function raises somewhere
    (``sin(inf)``, ``exp(1e3)``, ``log(0)``), so only sums, products and the
    powers 0 and 1 qualify."""
    if isinstance(node, Pow):
        return node.exponent in (0, 1)
    return not isinstance(node, (Div, Call))


def _times(a, b):
    """a b, either of which may be None (a unit factor)."""
    if a is None or b is None:
        return Num(1.0) if a is None and b is None else (b if a is None else a)
    if isinstance(b, Div) and _is_num(b.a, 1.0):
        return Div(a, b.b)
    return Mul(a, b)


def _negated(coef):
    """-coef for a coefficient (None: 1), the sign on its leftmost factor."""
    if coef is None:
        return Num(-1.0)
    if isinstance(coef, Num):
        return Num(-coef.value)
    if isinstance(coef, (Mul, Div)):
        return type(coef)(_negated(coef.a), coef.b)
    return Neg(coef)


def _chain(pieces):
    """Left-to-right sum of the signed products (negative, coef, rest),
    ``coef`` free of the state; either factor may be None (a unit).  A
    leading minus goes on the coefficient, where it costs no operation on
    the state."""
    negative, coef, rest = pieces[0]
    if negative and coef is None and rest is not None:
        rest = Neg(rest)
    elif negative:
        coef = _negated(coef)
    node = _times(coef, rest)
    for negative, coef, rest in pieces[1:]:
        node = (Sub if negative else Add)(node, _times(coef, rest))
    return node


def regroup(nodes, params, state_slots):
    """The ``nodes`` regrouped by state monomial (see above), for
    ``compile_jet``.  ``params`` are the parameter values in declaration
    order; state slots at or past ``state_slots`` count as coefficients.
    Equal to the nodes to roundoff: ``compile_jet`` of the result is not
    bit for bit the compiled nodes."""
    pass_ = _Regrouper(tuple(params), state_slots)
    out = []
    for nd in nodes:
        new = pass_.canon(nd) if pass_.is_state(nd) else nd
        out.append(new if pass_.cost(new) < pass_.cost(nd) else nd)
    return out


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


# ---------------------------------------------------------------------------
# truncated Taylor arithmetic (jet transport)
#
# ``compile_jet`` lifts a stack to truncated Taylor polynomials in nb offsets
# (the coefficient rules of Griewank & Walther, Evaluating Derivatives, ch.
# 13).  Level 0 of a node is its value, emitted by ``_Emitter`` as the same
# text, so it shares the scalar code's numbering, folding and CSE.  Level
# L >= 1 lists the node's |beta| = L coefficients in ``tensor.jet_splits``
# order and is computed on demand, so only levels some output reads are
# emitted.  The nonlinear rules are the univariate ones in Euler-operator
# form (|gamma| and |beta| in place of j and k), which hold for any number of
# offsets.  A node with no state slot beneath it - a time-only or constant
# subexpression - stays scalar: its levels are structural zeros, which drop
# out of every sum at compile time.  ``jet_partials`` seeds the offsets as
# constants instead of state coefficients (a unit offset on each
# differentiation coordinate), so the same rules fold into straight-line code
# for the partial derivatives of the nodes themselves.

_ZERO = _literal(0.0)
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv}


def _children(node):
    if isinstance(node, Neg):
        return (node.a,)
    if isinstance(node, _Bin):
        return (node.a, node.b)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


class _JetEmitter(_Emitter):
    """Emitter of the Taylor lift of one stack; state slot j carries the
    coefficients up to level ``degrees[j]``.  With ``seeds``, the state
    slots carry no coefficients: slot ``seeds[j]`` is its value plus the
    offset db_j, and every other slot is constant in the offsets."""

    def __init__(self, params, nb, degrees, seeds=None):
        super().__init__(params)
        self.nb = nb
        self.degrees = degrees
        self.seeds = seeds
        self.levels = {}      # (node id or derived key, level) -> coefficients
        self.live = {}        # id(node) -> whether a state slot lies beneath
        self.starts = jet_state_starts(nb, degrees)

    def count(self, L):
        return len(packed_index_table(self.nb, L))

    # -- (ref, constant) arithmetic: folds constants, drops structural zeros
    #    and unit factors

    def op(self, a, sym, b):
        (ra, va), (rb, vb) = a, b
        if (sym == "*" and (va == 0.0 or vb == 0.0)) or (sym == "/" and va == 0.0):
            return _ZERO
        if (sym in "+-" and vb == 0.0) or (sym in "*/" and vb == 1.0):
            return a
        if (sym == "+" and va == 0.0) or (sym == "*" and va == 1.0):
            return b
        if sym == "-" and va == 0.0:
            return self.neg(b)
        if va is not None and vb is not None and (sym != "/" or vb != 0.0):
            value = _FOLD[sym](va, vb)
            if math.isfinite(value):
                return _literal(value)
        return self._number(f"{ra} {sym} {rb}"), None

    def neg(self, a):
        ref, value = a
        if value is not None:
            return _literal(-value)
        return self._number(f"-{ref}"), None

    def conv(self, A, B, L, weight=None):
        """Per level-L coefficient beta, the sum over its splits
        beta = gamma + delta of weight(|gamma|) A_gamma B_delta, where A(l)
        and B(l) give level l; a split of weight 0 is skipped unread."""
        out = []
        for pairs in jet_splits(self.nb, L):
            total = _ZERO
            for (lg, pg), (ld, pd) in pairs:
                w = 1.0 if weight is None else weight(lg)
                if w == 0.0:
                    continue
                term = self.op(A(lg)[pg], "*", B(ld)[pd])
                if w != 1.0:
                    term = self.op(_literal(w), "*", term)
                total = self.op(total, "+", term)
            out.append(total)
        return out

    # -- levels

    def cached(self, key, L, lift):
        hit = self.levels.get((key, L))
        if hit is None:
            hit = self.levels[key, L] = lift()
        return hit

    def coef(self, node, L):
        return [self.ref(node)] if L == 0 else self.level(node, L)

    def level(self, node, L):
        if not self.is_live(node):
            return [_ZERO] * self.count(L)
        return self.cached(id(node), L, lambda: self._lift(node, L))

    def is_live(self, node):
        hit = self.live.get(id(node))
        if hit is None:
            if isinstance(node, Var):
                hit = node.kind == "state" and (self.seeds is None
                                                or node.index in self.seeds)
            else:
                hit = any(self.is_live(c) for c in _children(node))
            self.live[id(node)] = hit
        return hit

    def _lift(self, node, L):
        A = lambda l: self.coef(_children(node)[0], l)
        F = lambda l: self.coef(node, l)
        if isinstance(node, Var) and self.seeds is not None:
            # a unit offset: level 1 is e_j, higher levels vanish
            j = self.seeds.index(node.index)
            return [_literal(1.0) if L == 1 and p == j else _ZERO
                    for p in range(self.count(L))]
        if isinstance(node, Var):
            if L > self.degrees[node.index]:
                raise ValueError(f"state slot {node.index} carries degree "
                                 f"{self.degrees[node.index]}, not {L}")
            start = self.starts[node.index] + jet_level_starts(self.nb, L)[L] - 1
            return [(self._number(f"x[{start + p}]"), None) for p in range(self.count(L))]
        if isinstance(node, Neg):
            return [self.neg(c) for c in self.level(node.a, L)]
        if isinstance(node, (Add, Sub)):
            sym = _BIN_OPS[type(node)]
            return [self.op(a, sym, b)
                    for a, b in zip(self.level(node.a, L), self.level(node.b, L))]
        if isinstance(node, Mul):
            return self.conv(A, lambda l: self.coef(node.b, l), L)
        if isinstance(node, Div):
            # b c = a:  c_beta = (a_beta - sum_{gamma != 0} b_gamma c_delta) / b_0
            rest = self.conv(lambda l: self.coef(node.b, l), F, L, lambda lg: float(lg > 0))
            return self._solve(self.level(node.a, L), rest, self.ref(node.b))
        if isinstance(node, Pow):
            e = node.exponent
            if e == 0:
                return [_ZERO] * self.count(L)
            if e.denominator == 1 and e > 0:
                return self.power(node.base, int(e), L)
            if e.denominator == 1:
                # c = 1 / a^m:  c_beta = -c_0 sum_{gamma != 0} (a^m)_gamma c_delta
                m = -int(e)
                rest = self.conv(lambda l: self.power_coef(node.base, m, l), F, L,
                                 lambda lg: float(lg > 0))
                return [self.neg(self.op(self.ref(node), "*", s)) for s in rest]
            # a E(p) = r p E(a), with E the Euler operator
            r = float(e)
            rest = self.conv(A, F, L, lambda lg: (r + 1.0) * lg / L - 1.0 if lg else 0.0)
            a0 = self.ref(node.base)
            return [self.op(s, "/", a0) for s in rest]
        if isinstance(node, Call):
            grow = lambda lg: lg / L
            if node.fn == "exp":
                return self.conv(A, F, L, grow)
            if node.fn in ("sin", "cos"):
                return self.trig(node.fn, node.arg, L)
            if node.fn == "tan":
                # E(tan a) = (1 + tan^2 a) E(a)
                return self.conv(A, lambda l: self.sec2(node, l), L, grow)
            if node.fn == "log":
                # a E(l) = E(a)
                rest = self.conv(A, F, L, lambda lg: (L - lg) / L if 0 < lg < L else 0.0)
                return self._solve(self.level(node.arg, L), rest, self.ref(node.arg))
            if node.fn == "sqrt":
                # s^2 = a:  2 s_0 s_beta = a_beta - sum_{0 < |gamma| < L} s_gamma s_delta
                rest = self.conv(F, F, L, lambda lg: float(0 < lg < L))
                twice = self.op(_literal(2.0), "*", self.ref(node))
                return self._solve(self.level(node.arg, L), rest, twice)
        raise TypeError(f"not an expression node: {node!r}")

    def _solve(self, lhs, rest, pivot):
        return [self.op(self.op(a, "-", s), "/", pivot) for a, s in zip(lhs, rest)]

    def power_coef(self, base, m, L):
        """Level L of base^m for a positive integer m; level 0 is the same
        text the scalar code emits for ``base ** m``."""
        if m == 1:
            return self.coef(base, L)
        if L == 0:
            return [(self._number(f"{self.ref(base)[0]} ** {m}"), None)]
        return self.power(base, m, L)

    def power(self, base, m, L):
        """base^m = base * base^(m-1): products only, so no division by the
        base value (which may be zero where the power is smooth)."""
        if m == 1:
            return self.level(base, L)
        return self.cached(("pow", id(base), m), L, lambda: self.conv(
            lambda l: self.coef(base, l), lambda l: self.power_coef(base, m - 1, l), L))

    def trig(self, fn, arg, L):
        """Level L of sin(arg) or cos(arg), each lifted from the other:
        E(sin a) = cos a E(a), E(cos a) = -sin a E(a)."""
        if L == 0:
            return [(self._number(f"{fn}({self.ref(arg)[0]})"), None)]
        other, sign = ("cos", 1.0) if fn == "sin" else ("sin", -1.0)
        return self.cached((fn, id(arg)), L, lambda: self.conv(
            lambda l: self.coef(arg, l), lambda l: self.trig(other, arg, l), L,
            lambda lg: sign * lg / L))

    def sec2(self, node, L):
        """Level L of 1 + tan^2, for the tan node ``node``."""
        F = lambda l: self.coef(node, l)
        if L == 0:
            t0 = self.ref(node)
            return [self.op(_literal(1.0), "+", self.op(t0, "*", t0))]
        return self.cached(("sec2", id(node)), L, lambda: self.conv(F, F, L))


def compile_jet(nodes, degrees, params=(), nb=1):
    """Compile the truncated Taylor lift of ``nodes`` in ``nb`` offsets into
    one function ``f(t, x)``; ``f.source`` keeps its text.

    ``nodes[j]`` is the right-hand side of state slot j, and ``degrees[j]``
    is both the degree slot j carries and the degree to which ``nodes[j]``
    is lifted, so ``f`` is the right-hand side of the jet of u' = nodes(t, u).
    ``x`` (and the returned list) is laid out by ``tensor.jet_state_starts``:
    the value of every slot, then slot by slot its levels 1..degrees[j],
    each in ``tensor.jet_splits`` order.  With nb = 0 the function is the
    scalar code of the nodes: their values, with parameters baked in.
    Called with Python floats, it raises ``ZeroDivisionError``,
    ``OverflowError`` or ``ValueError`` where a value leaves its domain,
    and likewise where a recurrence divides by a zero value.
    ``f.constant`` lists the positions of the returned list that are a
    literal zero, levels included: the state entries that never move.
    """
    emitter = _JetEmitter(params, nb, tuple(degrees))
    outs = [emitter.ref(nd) for nd in nodes]
    for nd, d in zip(nodes, degrees):
        for L in range(1, d + 1):
            outs += emitter.level(nd, L)
    fn = _assemble(emitter, [ref for ref, _ in outs])
    fn.constant = tuple(i for i, (_, value) in enumerate(outs) if value == 0.0)
    return fn


def _assemble(emitter, refs):
    src = "def _fn(t, x):\n"
    src += "\n".join(emitter.lines)
    src += f"\n    return [{', '.join(refs)}]\n"
    scope = dict(_SAFE_GLOBALS)
    exec(src, scope)
    fn = scope["_fn"]
    fn.source = src
    return fn


def jet_partials(nodes, L, wrt, params, names):
    """Compile the order-L partial derivatives of ``nodes`` in the state
    coordinates ``wrt`` into ``f(t, x)``, which returns them as a
    (len(nodes), len(packed_index_table(len(wrt), L))) array, packed.

    The nodes are lifted to Taylor polynomials in offsets of the ``wrt``
    coordinates, seeded as constants, so ``f`` computes their level-L
    coefficients alone; L = 0 gives the values.  ``params`` maps each
    parameter name to its value, and ``names`` lists the parameters in
    declaration order; the values are baked into the code.  Where the
    compiled code leaves its domain, the nodes are re-run through
    ``evaluate`` so that :class:`EvalDomainError` names the failing
    subexpression; if the nodes themselves are fine, the singularity sits
    in a derivative.
    """
    nodes, wrt = list(nodes), tuple(wrt)
    emitter = _JetEmitter(tuple(float(params[name]) for name in names),
                          len(wrt), (), wrt)
    fn = _assemble(emitter, [ref for nd in nodes for ref, _ in emitter.coef(nd, L)])
    shape = (len(nodes), emitter.count(L))

    def partials(t, x):
        x = np.asarray(x, dtype=float).tolist()
        try:
            flat = fn(float(t), x)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            for node in nodes:
                evaluate(node, t, x, params)
            raise EvalDomainError(
                f"derivative expression hit a singularity ({exc})", nodes[0])
        return level_partials(np.array(flat, dtype=float).reshape(shape), len(wrt), L)

    return partials


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

    def tensor_stack(self, i, max_order):
        """Symbolic derivative entries of F_i up to ``max_order``; cached per
        (i, max_order, parameter values), so an in-place edit of ``params``
        compiles afresh."""
        params = self.param_tuple
        key = (i, max_order, params)
        stack = self._stacks.get(key)
        if stack is None:
            stack = _TensorStack(self.fields[i], self.dim, max_order, params)
            self._stacks[key] = stack
        return stack


# ---------------------------------------------------------------------------
# derivative tensors

class _TensorStack:
    """All packed derivative entries of one vector field up to a max order,
    as expressions: the pieces ``flow._rhs_nodes`` splices into the fused
    right-hand side.

    ``entries`` holds the flat entry expressions, order by order, row by row
    (packed multi-index), component by component; ``_layout[L]`` is the
    (start, rows) of order L.  Identically zero orders are flagged so
    callers can skip whole tensors.  ``eval_all`` compiles the entries, with
    the parameter values ``params`` (declaration order) baked in, on its
    first call, so a caller that only reads the expressions compiles
    nothing.
    """

    def __init__(self, components, dim, max_order, params=()):
        cache = {}
        # per_order[L][e] is a list of q expressions for packed multi-index e
        per_order = {0: [list(components)]}
        for L in range(1, max_order + 1):
            idxs = packed_index_table(dim, L)
            prev_idxs = packed_index_table(dim, L - 1)
            pos = {m: k for k, m in enumerate(prev_idxs)}
            rows = []
            for m in idxs:
                parent = pos[m[1:]]
                rows.append([diff(e, m[0], cache) for e in per_order[L - 1][parent]])
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
            self._fn = compile_jet(self.entries, (0,) * len(self.entries),
                                   self._params, 0)
        return self._fn(t, x)


def derivative_tensor(field_components, t, x, order, params, decls=None, wrt=None):
    """Order-``order`` symmetric derivative tensor of a field at (t, x).

    ``field_components`` is a list of Expression; derivatives are taken with
    respect to the state variables (all of them, or the subset ``wrt``).
    ``params`` maps parameter names to values, declared in the order of
    ``decls`` (sorted by name without it).  Order 0 returns the plain field
    value wrapped as a rank-0 tensor.
    """
    if order < 0 or order > 5:
        raise ValueError("derivative order must be in 0..5")
    x = np.asarray(x, dtype=float)
    wrt = tuple(range(len(x))) if wrt is None else tuple(wrt)
    names = decls.params if decls is not None else tuple(sorted(params))
    partials = jet_partials(field_components, order, wrt, params, names)
    return SymTensor(order=order, domain_dim=len(wrt),
                     codomain_dim=len(field_components), entries=partials(t, x))
