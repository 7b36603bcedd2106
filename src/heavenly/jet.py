"""Truncated multivariate Taylor arithmetic over complex scalars.

A Jet stores the Taylor coefficients (partial derivatives divided by
multi-index factorials) of a complex-valued function of up to three
variables at a base point.  All operations are pure and truncate at the
jet's total order, so arithmetic on jets of exact functions yields exact
derivatives up to roundoff.

The three-variable specialisation used by the solution fields orders the
variables as (z, zbar, t); z and zbar are treated as formally independent
(Wirtinger calculus) and physical evaluation fixes zbar = conj(z).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    BaseMismatch,
    BranchCutViolation,
    DivisionBySingularJet,
    DomainError,
    OrderExceeded,
)

#: threshold below which a constant term counts as a genuine singularity
SINGULAR_EPS = 1e-12


@lru_cache(maxsize=None)
def valid_indices(nvars: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices with nvars components and total degree <= order."""
    if nvars == 1:
        return tuple((k,) for k in range(order + 1))
    out = []
    for head in range(order + 1):
        for tail in valid_indices(nvars - 1, order - head):
            out.append((head,) + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def _mul_table(nvars: int, order: int):
    """Flat-index triples (ia, ib, itarget) for truncated convolution."""
    shape = (order + 1,) * nvars
    ia, ib, it = [], [], []
    idxs = valid_indices(nvars, order)
    for a in idxs:
        for b in idxs:
            t = tuple(x + y for x, y in zip(a, b))
            if sum(t) <= order:
                ia.append(np.ravel_multi_index(a, shape))
                ib.append(np.ravel_multi_index(b, shape))
                it.append(np.ravel_multi_index(t, shape))
    return np.array(ia), np.array(ib), np.array(it)


def _read_only(*arrays) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _derivative_table(nvars: int, order: int, var: int):
    """Gather for d/d(var) of an order-`order` jet.

    Returns (target, source, weight): flat slots of the order-1 result, the
    flat slots of the operand they read, and the integer factor
    alpha[var] + 1 that turns a Taylor coefficient into one of the
    derivative.  Slots not listed (total degree above order - 1) stay zero.
    """
    src_shape = (order + 1,) * nvars
    dst_shape = (order,) * nvars
    tgt, src, w = [], [], []
    for a in valid_indices(nvars, order - 1):
        up = tuple(x + 1 if i == var else x for i, x in enumerate(a))
        tgt.append(np.ravel_multi_index(a, dst_shape))
        src.append(np.ravel_multi_index(up, src_shape))
        w.append(up[var])
    return _read_only(np.array(tgt, dtype=np.intp), np.array(src, dtype=np.intp),
                      np.array(w, dtype=np.int64))


@lru_cache(maxsize=None)
def _truncation_table(nvars: int, order: int, new_order: int):
    """Gather for truncating an order-`order` jet to `new_order`: flat slots of
    the result and the flat slots of the operand they copy."""
    src_shape = (order + 1,) * nvars
    dst_shape = (new_order + 1,) * nvars
    idxs = valid_indices(nvars, new_order)
    tgt = [np.ravel_multi_index(a, dst_shape) for a in idxs]
    src = [np.ravel_multi_index(a, src_shape) for a in idxs]
    return _read_only(np.array(tgt, dtype=np.intp), np.array(src, dtype=np.intp))


def _on_branch_cut(w: complex) -> bool:
    return w.imag == 0.0 and w.real <= 0.0


@dataclass(frozen=True)
class Jet:
    """Dense truncated Taylor expansion at a base point.

    coeffs[alpha] is the partial derivative of multi-index alpha divided by
    alpha!.  Entries with total degree above `order` are kept zero.
    """

    coeffs: np.ndarray
    base: tuple[complex, ...] = field(default=())

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", arr)
        arr.setflags(write=False)

    # -- structure ---------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.coeffs.ndim

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def value(self) -> complex:
        return complex(self.coeffs[(0,) * self.nvars])

    @classmethod
    def constant(cls, value: complex, nvars: int, order: int,
                 base: tuple[complex, ...] = ()) -> "Jet":
        c = np.zeros((order + 1,) * nvars, dtype=complex)
        c[(0,) * nvars] = value
        return cls(c, base)

    @classmethod
    def variable(cls, i: int, value: complex, nvars: int, order: int,
                 base: tuple[complex, ...] = ()) -> "Jet":
        """Seed jet of the i-th variable: value + one unit of its own direction."""
        c = np.zeros((order + 1,) * nvars, dtype=complex)
        c[(0,) * nvars] = value
        if order >= 1:
            idx = tuple(1 if k == i else 0 for k in range(nvars))
            c[idx] = 1.0
        return cls(c, base)

    def _lift(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.constant(complex(other), self.nvars, self.order, self.base)

    def _check(self, other: "Jet") -> None:
        if other.coeffs.shape != self.coeffs.shape:
            raise BaseMismatch(
                f"jet orders differ: {self.coeffs.shape} vs {other.coeffs.shape}")
        if self.base and other.base and self.base != other.base:
            raise BaseMismatch(f"base points differ: {self.base} vs {other.base}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        return Jet(self.coeffs + other.coeffs, self.base or other.base)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coeffs, self.base)

    def __sub__(self, other):
        other = self._lift(other)
        self._check(other)
        return Jet(self.coeffs - other.coeffs, self.base or other.base)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs * complex(other), self.base)
        self._check(other)
        ia, ib, it = _mul_table(self.nvars, self.order)
        out = np.zeros(self.coeffs.size, dtype=complex)
        np.add.at(out, it, self.coeffs.ravel()[ia] * other.coeffs.ravel()[ib])
        return Jet(out.reshape(self.coeffs.shape), self.base or other.base)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs / complex(other), self.base)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self._lift(other) * self.reciprocal()

    def reciprocal(self) -> "Jet":
        b0 = self.value
        if abs(b0) < SINGULAR_EPS:
            raise DivisionBySingularJet(f"constant term {b0} below {SINGULAR_EPS}")
        r = (self / b0) - 1.0  # nilpotent part
        acc = Jet.constant(1.0, self.nvars, self.order, self.base)
        term = Jet.constant(1.0, self.nvars, self.order, self.base)
        for _ in range(self.order):
            term = term * r
            acc = acc - term if _ % 2 == 0 else acc + term
        return acc / b0

    # -- analytic functions ------------------------------------------------

    def _compose_series(self, series: list[complex]) -> "Jet":
        """Sum series[m] * h^m where h = self minus its constant term."""
        h = self - self.value
        acc = Jet.constant(series[0], self.nvars, self.order, self.base)
        power = Jet.constant(1.0, self.nvars, self.order, self.base)
        for m in range(1, min(len(series), self.order + 1)):
            power = power * h
            acc = acc + series[m] * power
        return acc

    def exp(self) -> "Jet":
        e0 = cmath.exp(self.value)
        series = [e0 / math.factorial(m) for m in range(self.order + 1)]
        return self._compose_series(series)

    def log(self) -> "Jet":
        a0 = self.value
        if abs(a0) < SINGULAR_EPS:
            raise DomainError(f"ln of jet with constant term {a0}")
        if _on_branch_cut(a0):
            raise BranchCutViolation(f"ln constant term {a0} on the negative real axis")
        series = [cmath.log(a0)]
        for m in range(1, self.order + 1):
            series.append((-1) ** (m + 1) / (m * a0 ** m))
        return self._compose_series(series)

    def sqrt(self) -> "Jet":
        return self.cpow(0.5)

    def cpow(self, p: complex) -> "Jet":
        """Principal-branch power; exact repeated product for small integer p."""
        if isinstance(p, complex) and p.imag == 0:
            p = p.real
        if isinstance(p, (int, float)) and float(p).is_integer() and abs(p) <= self.order + 4:
            n = int(p)
            acc = Jet.constant(1.0, self.nvars, self.order, self.base)
            for _ in range(abs(n)):
                acc = acc * self
            return acc.reciprocal() if n < 0 else acc
        a0 = self.value
        if abs(a0) < SINGULAR_EPS:
            raise DomainError(f"power of jet with constant term {a0}")
        if _on_branch_cut(a0):
            raise BranchCutViolation(f"pow constant term {a0} on the negative real axis")
        # binomial series: a0^p * prod_{j<m}(p-j)/m! * h^m / a0^m
        lead = cmath.exp(p * cmath.log(a0))
        series = [lead]
        coef = lead
        for m in range(1, self.order + 1):
            coef = coef * (p - (m - 1)) / m / a0
            series.append(coef)
        return self._compose_series(series)

    # -- coefficient access ------------------------------------------------

    def coefficient(self, idx: tuple[int, ...]) -> complex:
        if sum(idx) > self.order:
            raise OrderExceeded(f"index {idx} exceeds jet order {self.order}")
        return complex(self.coeffs[idx])

    def partial(self, idx: tuple[int, ...]) -> complex:
        """Value of the partial derivative for the given multi-index."""
        fact = 1
        for k in idx:
            fact *= math.factorial(k)
        return self.coefficient(idx) * fact

    def derivative(self, var: int) -> "Jet":
        """Jet of the partial derivative in one variable; order drops by one.

        One gather from a cached table (`_derivative_table`, per nvars,
        order and var): each coefficient of total degree <= order - 1 reads
        the operand's coefficient one step up in `var` and multiplies it by
        that step's int64 weight.  That is the complex-by-int64 multiply of
        scaling the whole array by its weights, so the values, signed zeros
        included, are those of the array-wide form.  Every other slot is +0.
        """
        if self.order < 1:
            raise OrderExceeded("cannot differentiate an order-0 jet")
        k = self.order
        tgt, src, w = _derivative_table(self.nvars, k, var)
        out = np.zeros(k ** self.nvars, dtype=complex)
        out[tgt] = self.coeffs.ravel()[src] * w
        return Jet(out.reshape((k,) * self.nvars), self.base)

    def truncated(self, order: int) -> "Jet":
        """Copy truncated to a lower total order.

        One gather from a cached table (`_truncation_table`, per nvars and
        both orders) copies the coefficients of total degree <= order; every
        other slot of the result is +0.
        """
        if order > self.order:
            raise OrderExceeded(f"cannot extend order {self.order} to {order}")
        tgt, src = _truncation_table(self.nvars, self.order, order)
        out = np.zeros((order + 1) ** self.nvars, dtype=complex)
        out[tgt] = self.coeffs.ravel()[src]
        return Jet(out.reshape((order + 1,) * self.nvars), self.base)

    def conjugated(self) -> "Jet":
        """Coefficient-wise conjugate (jet of the conjugate-partner function)."""
        return Jet(np.conj(self.coeffs), tuple(w.conjugate() for w in self.base))


def compose_series(series: list[complex], inner: Jet) -> Jet:
    """Univariate Taylor coefficients composed with a jet of zero constant term."""
    if abs(inner.value) > 1e-9:
        raise DomainError("composition requires vanishing constant term")
    acc = Jet.constant(series[0], inner.nvars, inner.order, inner.base)
    power = Jet.constant(1.0, inner.nvars, inner.order, inner.base)
    for m in range(1, len(series)):
        if m > inner.order:
            break
        power = power * inner
        acc = acc + series[m] * power
    return acc


def compose3(outer: Jet, dx: Jet, dy: Jet, dz: Jet) -> Jet:
    """Three-variable composition: sum c_{ijk} dx^i dy^j dz^k.

    The inner jets must have vanishing constant terms and live in the target
    variables; the result is the outer function expanded at the new point.
    """
    order = dx.order
    base = dx.base
    nv = dx.nvars
    xp = [Jet.constant(1.0, nv, order, base)]
    yp = [Jet.constant(1.0, nv, order, base)]
    zp = [Jet.constant(1.0, nv, order, base)]
    for _ in range(outer.order):
        xp.append(xp[-1] * dx)
        yp.append(yp[-1] * dy)
        zp.append(zp[-1] * dz)
    acc = Jet.constant(0.0, nv, order, base)
    for (i, j, k) in valid_indices(3, outer.order):
        c = outer.coeffs[i, j, k]
        if c != 0:
            acc = acc + c * (xp[i] * yp[j] * zp[k])
    return acc
