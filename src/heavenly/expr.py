"""Holomorphic expression ASTs: parsing, printing and jet evaluation.

Grammar (EBNF):

    expr   := term (("+"|"-") term)* ;
    term   := factor (("*"|"/") factor)* ;
    factor := ("-")? power ;
    power  := atom ("^" factor)? ;
    atom   := number | "i" | "pi" | ident | ident "(" expr ("," expr)* ")"
            | "(" expr ")" ;

Recognised functions: exp, ln, sqrt.  `i` and `pi` are reserved constants.
There is no implicit multiplication.  Variable names are declared per parse,
so the same letter can mean different things in different contexts.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field

from .errors import ArityMismatch, ParseError
from .jet import Jet


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


# --- parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.pos = 0
        self.variables = variables

    def error(self, msg: str, pos: int | None = None):
        raise ParseError(self.pos if pos is None else pos, msg)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

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
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            if self.accept("+"):
                node = Add(node, self.term())
            elif self.accept("-"):
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            if self.accept("*"):
                node = Mul(node, self.factor())
            elif self.accept("/"):
                node = Div(node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        if self.accept("-"):
            return Neg(self.power())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.accept("^"):
            return Pow(base, self.factor())
        return base

    def atom(self) -> Node:
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        self.error(f"unexpected character {ch!r}")

    def number(self) -> Node:
        self.skip_ws()
        start = self.pos
        t = self.text
        while self.pos < len(t) and t[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(t) and t[self.pos] == ".":
            self.pos += 1
            while self.pos < len(t) and t[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(t) and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(t) and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(t) and t[self.pos].isdigit():
                while self.pos < len(t) and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.error("malformed number", mark)
        lit = t[start:self.pos]
        try:
            return Const(complex(float(lit)))
        except ValueError:
            self.error("malformed number", start)

    def identifier(self) -> Node:
        self.skip_ws()
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
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


def parse(text: str, variables: list[str] | tuple[str, ...]) -> Expr:
    """Parse `text` over the declared variable names."""
    if not text:
        raise ParseError(0, "empty input")
    return Expr(_Parser(text, tuple(variables)).parse(), tuple(variables))


# --- printing -------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}


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
    re = _fmt_const(complex(v.real))
    im = _fmt_const(complex(0, v.imag))
    return f"({re} + {im})" if v.imag >= 0 else f"({re} - {_fmt_const(complex(0, -v.imag))})"


def pretty(node: Node, parent_prec: int = 0) -> str:
    if isinstance(node, Const):
        s = _fmt_const(node.value)
        if (s.startswith("-") or "e-" in s) and parent_prec > 1:
            return f"({s})"
        return s
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({pretty(node.arg)})"
    prec = _PREC[type(node)]
    if isinstance(node, Neg):
        s = f"-{pretty(node.x, prec)}"
    elif isinstance(node, Add):
        s = f"{pretty(node.a, prec)} + {pretty(node.b, prec + 1)}"
    elif isinstance(node, Sub):
        s = f"{pretty(node.a, prec)} - {pretty(node.b, prec + 1)}"
    elif isinstance(node, Mul):
        s = f"{pretty(node.a, prec)}*{pretty(node.b, prec + 1)}"
    elif isinstance(node, Div):
        s = f"{pretty(node.a, prec)}/{pretty(node.b, prec + 1)}"
    elif isinstance(node, Pow):
        s = f"{pretty(node.base, prec + 1)}^{pretty(node.exponent, prec)}"
    else:  # pragma: no cover
        raise TypeError(node)
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

_bits = struct.Struct("<dd").pack  # a complex's bits: 0.0 and -0.0 differ

_BINARY = ((Add, operator.add), (Sub, operator.sub), (Mul, operator.mul),
           (Div, operator.truediv))
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
    for cls, op in _BINARY:
        if isinstance(node, cls):
            (fa, fb), const = _operands(_compile(node.a), _compile(node.b))
            return (lambda env, t: op(fa(env, t), fb(env, t))), const
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
    """Plain complex evaluation (cmath); used for spot values and oracles."""
    jenv = {k: Jet.constant(v, 1, 0) for k, v in env.items()}
    if not jenv:
        jenv = {"_": Jet.constant(0.0, 1, 0)}
    return evaluate(e, jenv).value


def eval_jet1(e: Expr, at: complex, order: int) -> Jet:
    """Univariate jet of a single-variable expression at a point."""
    if len(e.variables) != 1:
        raise ArityMismatch(f"expected 1 variable, declared {e.variables}")
    return evaluate(e, {e.variables[0]: Jet.variable(0, at, 1, order)})


def eval_jet1_rows(e: Expr, at: list[complex], order: int) -> list[Jet]:
    """Univariate jets of a single-variable expression at several points,
    from one stacked evaluation over their distinct values (told apart by
    their bits): entry r is bit for bit ``eval_jet1(e, at[r], order)``.

    A variable-free expression evaluates to one unstacked jet, which serves
    every entry.  Nothing is remembered.
    """
    if len(e.variables) != 1:
        raise ArityMismatch(f"expected 1 variable, declared {e.variables}")
    keys = [_bits(w.real, w.imag) for w in map(complex, at)]
    distinct = dict(zip(keys, at))
    if not distinct:
        return []
    jet = evaluate(e, {e.variables[0]: Jet.variable(0, tuple(distinct.values()), 1, order)})
    rows = dict(zip(distinct, jet.rows() if jet.depth else [jet] * len(distinct)))
    return [rows[key] for key in keys]
