"""Holomorphic expression ASTs: parsing, printing and jet evaluation.

Grammar (EBNF):

    expr   := term (("+"|"-") term)* ;
    term   := factor (("*"|"/") factor)* ;
    factor := ("-")? power ;
    power  := atom ("^" factor)? ;
    atom   := number | "i" | "pi" | ident | ident "(" expr ")" | "(" expr ")" ;

Recognised functions: exp, ln, sqrt.  `i` and `pi` are reserved constants.
There is no implicit multiplication.  Variable names are declared per parse,
so the same letter can mean different things in different contexts.  The
parser reads expr and term as one precedence-climbing loop over `_BINARY`,
the operator table that the printer and the evaluator read too.

The checks read a one-variable expression's value and derivatives, at one
point or at many, through one path: `eval_jet1_rows`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

from .errors import ArityMismatch, ParseError
from .jet import Jet, valid_indices


# --- AST ------------------------------------------------------------------

class Node:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Node):
    value: complex


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Neg(Node):
    x: Node


@dataclass(frozen=True)
class Add(Node):
    a: Node
    b: Node


@dataclass(frozen=True)
class Sub(Node):
    a: Node
    b: Node


@dataclass(frozen=True)
class Mul(Node):
    a: Node
    b: Node


@dataclass(frozen=True)
class Div(Node):
    a: Node
    b: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: Node


@dataclass(frozen=True)
class Call(Node):
    fn: str  # exp | ln | sqrt
    arg: Node


@dataclass(frozen=True)
class Expr:
    """Parsed expression plus its declared (ordered) variable set.

    An Expr holds only point-independent state: its compiled evaluator
    (see `evaluate`), which keeps the jets of its variable-free subtrees,
    is built on the first evaluation and lives and dies with the Expr.  It
    takes no part in comparison or hashing.  A value at a point is kept,
    if at all, by the caller that holds the point.
    """

    root: Node
    variables: tuple[str, ...]
    _run: object = field(default=None, init=False, repr=False, compare=False)

    def __str__(self) -> str:
        return pretty(self.root)

    def __getstate__(self):
        # the evaluator is made of compiled functions, which do not pickle;
        # an unpickled Expr compiles its own on first use
        return {"root": self.root, "variables": self.variables}

    def _evaluator(self):
        run = self._run
        if run is None:
            run = _compiled(self.root)
            object.__setattr__(self, "_run", run)
        return run


FUNCTIONS = ("exp", "ln", "sqrt")
CONSTANTS = {"i": 1j, "pi": complex(math.pi)}


@dataclass(frozen=True)
class _Operator:
    symbol: str
    prec: int
    node: type
    printed: str
    apply: object  # the jet operation


#: the binary operators by symbol, read by the parser, `pretty` and the
#: evaluator; each level is left-associative
_BINARY = {op.symbol: op for op in (
    _Operator("+", 1, Add, " + ", operator.add), _Operator("-", 1, Sub, " - ", operator.sub),
    _Operator("*", 2, Mul, "*", operator.mul), _Operator("/", 2, Div, "/", operator.truediv))}
_OPERATOR_OF = {op.node: op for op in _BINARY.values()}


# --- parser ---------------------------------------------------------------

#: digits, an optional fraction and an optional exponent; the mantissa and
#: the exponent's marker and digits are groups, to name a malformed part
_NUMBER = re.compile(r"(?=[\d.])(\d*\.?\d*)(?:([eE])[+-]?(\d*))?")
_NAME = re.compile(r"\w*")  # str.isalnum() or "_"


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.pos = 0
        self.variables = variables

    def error(self, msg: str, pos: int | None = None):
        raise ParseError(self.pos if pos is None else pos, msg)

    def peek(self) -> str:
        """The next character after the whitespace, which it skips; "" at the end."""
        t = self.text
        while self.pos < len(t) and t[self.pos].isspace():
            self.pos += 1
        return t[self.pos:self.pos + 1]

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            self.error(f"expected {ch!r}")

    def parse(self) -> Node:
        node = self.expr()
        if self.peek():
            self.error("unexpected trailing input")
        return node

    def expr(self, min_prec: int = 1) -> Node:
        """Factors joined by binary operators of precedence min_prec and up,
        by precedence climbing: a right operand takes those that bind tighter."""
        node = self.factor()
        while (op := _BINARY.get(self.peek())) and op.prec >= min_prec:
            self.pos += 1
            node = op.node(node, self.expr(op.prec + 1))
        return node

    def factor(self) -> Node:
        return Neg(self.power()) if self.accept("-") else self.power()

    def power(self) -> Node:
        base = self.atom()
        return Pow(base, self.factor()) if self.accept("^") else base

    def atom(self) -> Node:
        ch, start, t = self.peek(), self.pos, self.text
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if number := _NUMBER.match(t, start):
            if number[3] == "":
                self.error("malformed number", number.start(2))
            if number[1] == ".":
                self.error("malformed number", start)
            self.pos = number.end()
            value = float(number[0])
            if math.isinf(value):
                self.error("number out of range", start)
            return Const(complex(value))
        if ch.isalpha() or ch == "_":
            self.pos = _NAME.match(t, start).end()
            name = t[start:self.pos]
            if name in CONSTANTS:
                return Const(CONSTANTS[name])
            if name in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(name, arg)
            if name in self.variables:
                return Var(name)
            self.error(f"unknown identifier {name!r}", start)
        self.error(f"unexpected character {ch!r}" if ch else "unexpected end of input")


def parse(text: str, variables: list[str] | tuple[str, ...]) -> Expr:
    """Parse `text` over the declared variable names."""
    if not text:
        raise ParseError(0, "empty input")
    return Expr(_Parser(text, tuple(variables)).parse(), tuple(variables))


# --- printing -------------------------------------------------------------

_PREC = {Neg: 3, Pow: 4}


def _fmt_const(v: complex) -> str:
    if v == 1j:
        return "i"
    if v.imag == 0:
        r = v.real
        return repr(int(r)) if r.is_integer() and abs(r) < 1e15 else repr(r)
    if v.real == 0:
        im = v.imag
        ims = repr(int(im)) if im.is_integer() and abs(im) < 1e15 else repr(im)
        return f"{ims}*i" if im >= 0 else f"(-{ims.lstrip('-')}*i)"
    real = _fmt_const(complex(v.real))
    im = _fmt_const(complex(0, v.imag))
    return f"({real} + {im})" if v.imag >= 0 else f"({real} - {_fmt_const(complex(0, -v.imag))})"


def pretty(node: Node, parent_prec: int = 0) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({pretty(node.arg)})"
    if isinstance(node, Const):
        s = _fmt_const(node.value)
        # a negative number or an exponent form binds like a sum, k*i like a product
        prec = 1 if s.startswith("-") or "e-" in s else 2 if s.endswith("*i") else parent_prec
    elif isinstance(node, Neg):
        prec = _PREC[Neg]
        s = f"-{pretty(node.x, prec)}"
    elif isinstance(node, Pow):
        prec = _PREC[Pow]
        s = f"{pretty(node.base, prec + 1)}^{pretty(node.exponent, prec)}"
    else:
        op = _OPERATOR_OF[type(node)]
        prec = op.prec
        s = f"{pretty(node.a, prec)}{op.printed}{pretty(node.b, prec + 1)}"
    return f"({s})" if prec < parent_prec else s


# --- structural helpers ---------------------------------------------------

def _rebuild(node: Node, leaf) -> Node:
    """node with every Const and Var replaced by leaf(it), and every other
    node rebuilt around its rebuilt children."""
    if isinstance(node, (Const, Var)):
        return leaf(node)
    return type(node)(**{name: _rebuild(child, leaf) if isinstance(child, Node) else child
                         for name, child in vars(node).items()})


def mentions(e: Expr, name: str) -> bool:
    """Whether the expression reads the variable `name`."""

    def walk(node: Node) -> bool:
        if isinstance(node, Var):
            return node.name == name
        return any(walk(child) for child in vars(node).values() if isinstance(child, Node))

    return walk(e.root)


def conjugate(e: Expr) -> Expr:
    """Conjugate-partner expression: every constant replaced by its conjugate.

    Evaluating the result at conj(w) gives conj(e(w)) for the principal
    branches, which is the conjugate-analytic partner used for bar-fields.
    """
    return Expr(_rebuild(e.root, lambda leaf: Const(leaf.value.conjugate())
                         if isinstance(leaf, Const) else leaf), e.variables)


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace variables by sub-expressions; result uses the replacements' variables."""
    new_vars: list[str] = []
    for sub in mapping.values():
        for v in sub.variables:
            if v not in new_vars:
                new_vars.append(v)
    for v in e.variables:
        if v not in mapping and v not in new_vars:
            new_vars.append(v)

    def leaf(node: Node) -> Node:
        if isinstance(node, Var) and node.name in mapping:
            return mapping[node.name].root
        return node

    return Expr(_rebuild(e.root, leaf), tuple(new_vars))


# --- evaluation -----------------------------------------------------------
# An expression is compiled once into nested functions (env, template) -> Jet
# that apply the same jet operations, in the same order, as a walk of the
# tree.  Each variable-free subtree, such as the coefficient (0.5 + -0.3*i),
# is evaluated once per (nvars, order) and its jet kept.

_CALLS = {"exp": operator.methodcaller("exp"), "ln": operator.methodcaller("log"),
          "sqrt": operator.methodcaller("sqrt")}


def _remembered(fn):
    """fn, of a variable-free subtree, run once per (nvars, order); later
    calls hand back the same immutable jet.  A run that raises keeps
    nothing."""
    jets: dict = {}

    def lookup(env, t):
        key = (t.nvars, t.order)
        jet = jets.get(key)
        if jet is None:
            jet = jets[key] = fn(env, t)
        return jet

    return lookup


def _operands(*compiled):
    """The functions of a node's operands and whether all are variable-free.

    A node with only variable-free operands is variable-free itself and is
    remembered whole, higher up; otherwise each variable-free operand is a
    largest such subtree and is remembered here.
    """
    if all(const for _, const in compiled):
        return [fn for fn, _ in compiled], True
    return [_remembered(fn) if const else fn for fn, const in compiled], False


def _compile(node: Node):
    """(fn, const): fn(env, template) is node's jet; const says node reads
    no variable.  Methods and operators are looked up on the jets at call
    time, as a tree walk does."""
    if isinstance(node, Const):
        v = node.value
        return (lambda env, t: Jet.constant(v, t.nvars, t.order)), True
    if isinstance(node, Var):
        name = node.name
        return (lambda env, t: env[name]), False
    if isinstance(node, Neg):
        fx, const = _compile(node.x)
        return (lambda env, t: -fx(env, t)), const
    if op := _OPERATOR_OF.get(type(node)):
        apply = op.apply
        (fa, fb), const = _operands(_compile(node.a), _compile(node.b))
        return (lambda env, t: apply(fa(env, t), fb(env, t))), const
    if isinstance(node, Pow):
        exponent = node.exponent
        if isinstance(exponent, Const) or (isinstance(exponent, Neg)
                                           and isinstance(exponent.x, Const)):
            p = exponent.value if isinstance(exponent, Const) else -exponent.x.value
            fb, const = _compile(node.base)
            return (lambda env, t: fb(env, t).cpow(p)), const
        (fb, fe), const = _operands(_compile(node.base), _compile(exponent))

        def power(env, t):
            radix = fb(env, t)
            return (fe(env, t) * radix.log()).exp()

        return power, const
    if isinstance(node, Call):
        call = _CALLS[node.fn]
        fa, const = _compile(node.arg)
        return (lambda env, t: call(fa(env, t))), const
    raise TypeError(node)


def _compiled(root: Node):
    fn, const = _compile(root)
    return _remembered(fn) if const else fn


def evaluate(e: Expr, env: dict[str, Jet]) -> Jet:
    """Evaluate with jet-valued variables; all env jets must share nvars and
    order, and stacked ones their depth.

    The result is bit for bit that of applying the jet operations node by
    node, but each variable-free subtree is computed once per (nvars,
    order) of the env jets and remembered by the Expr.
    """
    template = next(iter(env.values()))
    return e._evaluator()(env, template)


def evaluate_value(e: Expr, env: dict[str, complex]) -> complex:
    """The complex value at env's values, from order-0 jets; for spot values and oracles."""
    jenv = {k: Jet.constant(v, 1, 0) for k, v in env.items()}
    if not jenv:
        jenv = {"_": Jet.constant(0.0, 1, 0)}
    return evaluate(e, jenv).value


def eval_jet1(e: Expr, at: complex, order: int) -> Jet:
    """Univariate jet of a single-variable expression at a point, or a
    stacked one from a tuple of points (`Jet.variable`)."""
    if len(e.variables) != 1:
        raise ArityMismatch(f"expected 1 variable, declared {e.variables}")
    return evaluate(e, {e.variables[0]: Jet.variable(0, at, 1, order)})


def eval_jet1_rows(e: Expr, at: list[complex], order: int) -> list[list[complex]]:
    """Each entry's (f, f', ..., f^(order)) of a single-variable expression:
    one `eval_jet1` for one entry, else one stacked evaluation with a row
    per entry, repeats included, read with one `tolist`.  Row r is bit for
    bit the value and partials of ``eval_jet1(e, at[r], order)``, each
    derivative its coefficient times k!, as `Jet.partial` takes it.  A
    variable-free expression's one unstacked jet serves every entry.
    Nothing is remembered.
    """
    if not at:
        return []
    jet = eval_jet1(e, at[0] if len(at) == 1 else tuple(at), order)
    rows = [[c[0]] + [ck * math.factorial(k) for k, ck in enumerate(c) if k]
            for c in jet.read(valid_indices(1, order))]
    return rows if jet.depth else rows * len(at)
