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

import cmath
import math
from dataclasses import dataclass

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
    """Parsed expression plus its declared (ordered) variable set."""

    root: Node
    variables: tuple[str, ...]

    def __str__(self) -> str:
        return pretty(self.root)


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

def map_constants(node: Node, fn) -> Node:
    if isinstance(node, Const):
        return Const(fn(node.value))
    if isinstance(node, (Var,)):
        return node
    if isinstance(node, Neg):
        return Neg(map_constants(node.x, fn))
    if isinstance(node, Add):
        return Add(map_constants(node.a, fn), map_constants(node.b, fn))
    if isinstance(node, Sub):
        return Sub(map_constants(node.a, fn), map_constants(node.b, fn))
    if isinstance(node, Mul):
        return Mul(map_constants(node.a, fn), map_constants(node.b, fn))
    if isinstance(node, Div):
        return Div(map_constants(node.a, fn), map_constants(node.b, fn))
    if isinstance(node, Pow):
        return Pow(map_constants(node.base, fn), map_constants(node.exponent, fn))
    if isinstance(node, Call):
        return Call(node.fn, map_constants(node.arg, fn))
    raise TypeError(node)


def mentions(e: Expr, name: str) -> bool:
    """Whether the expression reads the variable `name`."""

    def walk(node: Node) -> bool:
        if isinstance(node, Var):
            return node.name == name
        return any(walk(child) for child in vars(node).values() if isinstance(child, Node))

    return walk(e.root)


def conjugate(e: Expr) -> Expr:
    """Conjugate-partner expression: all constants conjugated.

    Evaluating the result at conj(w) gives conj(e(w)) for the principal
    branches, which is the conjugate-analytic partner used for bar-fields.
    """
    return Expr(map_constants(e.root, lambda v: v.conjugate()), e.variables)


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

    def walk(node: Node) -> Node:
        if isinstance(node, Var) and node.name in mapping:
            return mapping[node.name].root
        if isinstance(node, (Const, Var)):
            return node
        if isinstance(node, Neg):
            return Neg(walk(node.x))
        if isinstance(node, Add):
            return Add(walk(node.a), walk(node.b))
        if isinstance(node, Sub):
            return Sub(walk(node.a), walk(node.b))
        if isinstance(node, Mul):
            return Mul(walk(node.a), walk(node.b))
        if isinstance(node, Div):
            return Div(walk(node.a), walk(node.b))
        if isinstance(node, Pow):
            return Pow(walk(node.base), walk(node.exponent))
        if isinstance(node, Call):
            return Call(node.fn, walk(node.arg))
        raise TypeError(node)

    return Expr(walk(e.root), tuple(new_vars))


# --- evaluation -----------------------------------------------------------

def _eval_node(node: Node, env: dict[str, Jet], template: Jet) -> Jet:
    if isinstance(node, Const):
        return Jet.constant(node.value, template.nvars, template.order, template.base)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval_node(node.x, env, template)
    if isinstance(node, Add):
        return _eval_node(node.a, env, template) + _eval_node(node.b, env, template)
    if isinstance(node, Sub):
        return _eval_node(node.a, env, template) - _eval_node(node.b, env, template)
    if isinstance(node, Mul):
        return _eval_node(node.a, env, template) * _eval_node(node.b, env, template)
    if isinstance(node, Div):
        return _eval_node(node.a, env, template) / _eval_node(node.b, env, template)
    if isinstance(node, Pow):
        base = _eval_node(node.base, env, template)
        if isinstance(node.exponent, Const):
            return base.cpow(node.exponent.value)
        if isinstance(node.exponent, Neg) and isinstance(node.exponent.x, Const):
            return base.cpow(-node.exponent.x.value)
        exponent = _eval_node(node.exponent, env, template)
        return (exponent * base.log()).exp()
    if isinstance(node, Call):
        arg = _eval_node(node.arg, env, template)
        return {"exp": Jet.exp, "ln": Jet.log, "sqrt": Jet.sqrt}[node.fn](arg)
    raise TypeError(node)


def evaluate(e: Expr, env: dict[str, Jet]) -> Jet:
    """Evaluate with jet-valued variables; all env jets must share shape/base."""
    template = next(iter(env.values()))
    return _eval_node(e.root, env, template)


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
    v = e.variables[0]
    return evaluate(e, {v: Jet.variable(0, at, 1, order, base=(at,))})


def bar_eval(e: Expr, at_zbar: complex, order: int) -> Jet:
    """Jet of the conjugate-analytic partner at zbar: conj(e(conj(zbar)))."""
    inner = eval_jet1(e, at_zbar.conjugate(), order)
    return inner.conjugated()


def eval_jetN(e: Expr, at: list[complex], order: int) -> Jet:
    """Multivariate jet over all declared variables (arity up to 3)."""
    if len(at) != len(e.variables):
        raise ArityMismatch(
            f"{len(e.variables)} variables declared, {len(at)} points given")
    n = len(at)
    base = tuple(complex(w) for w in at)
    env = {name: Jet.variable(i, at[i], n, order, base=base)
           for i, name in enumerate(e.variables)}
    return evaluate(e, env)
