"""Truncated multivariate Taylor arithmetic over complex scalars.

A Jet stores the Taylor coefficients (partial derivatives divided by
multi-index factorials) of a complex-valued function of up to three
variables at a point.  The point itself is the caller's: a jet holds only
the coefficients.  All operations are pure and truncate at the jet's total
order, so arithmetic on jets of exact functions yields exact derivatives up
to roundoff.  Each coefficient of a result is computed from the operands'
coefficients of no higher total degree, in the same sequence at every
order, so truncation commutes with every operation: a result truncated to
a lower order equals the result of the truncated operands.

The three-variable specialisation used by the solution fields orders the
variables as (z, zbar, t); z and zbar are treated as formally independent
(Wirtinger calculus) and physical evaluation fixes zbar = conj(z).
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import (
    BranchCutViolation,
    DivisionBySingularJet,
    DomainError,
    OrderExceeded,
    ShapeMismatch,
)

#: threshold below which a constant term counts as a genuine singularity
SINGULAR_EPS = 1e-12
#: the largest integer exponent that `Jet.cpow` takes as a repeated product
PRODUCT_POWERS = 8
#: the most points one stacked pass holds: the rows of every stacked jet a
#: pass builds (`sweeps.in_sweeps`)
PASS_POINTS = 16

_COMPLEX = np.dtype(complex)


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


def _index_array(nvars: int, order: int) -> np.ndarray:
    """`valid_indices` as an array with one multi-index per row."""
    return np.array(valid_indices(nvars, order), dtype=np.intp).reshape(-1, nvars)


def _flat(idx: np.ndarray, side: int) -> np.ndarray:
    """Flat slots of idx's rows in an array of side coefficients per variable."""
    return np.ravel_multi_index(tuple(idx.T), (side,) * idx.shape[1])


@lru_cache(maxsize=None)
def _mul_slots(nvars: int, order: int):
    """Flat-index triples (ia, ib, itarget) of truncated convolution on one
    row: every pair of valid indices a, b whose sum is valid, a-major."""
    idx = _index_array(nvars, order)
    sums = idx[:, None] + idx[None, :]
    a, b = np.nonzero(sums.sum(axis=2) <= order)
    slots = _flat(idx, order + 1)
    return slots[a], slots[b], _flat(sums[a, b], order + 1)


@lru_cache(maxsize=None)
def _mul_table(nvars: int, order: int, depth: int):
    """`_mul_slots` over `depth` stacked rows.

    Returns (ia, ib, ia_rows, ib_rows, it_rows): the operand slots tiled per
    row for an unstacked operand, then shifted by each row's offset for a
    stacked one, and the shifted target slots.  One flat 1-D scatter over
    all rows keeps `np.add.at` on its fast path; a 2-D index does not.
    """
    ia, ib, it = _mul_slots(nvars, order)
    size = (order + 1) ** nvars
    return _read_only(_rows(ia, depth), _rows(ib, depth),
                      _rows(ia, depth, size), _rows(ib, depth, size),
                      _rows(it, depth, size))


def _read_only(*arrays) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _rows(slots: np.ndarray, depth: int, row_size: int = 0) -> np.ndarray:
    """A table's column repeated once per stacked row, row r shifted by
    r * row_size: flat slots of a stack when row_size is the size of one row,
    the same slots (or weights) for every row when it is 0."""
    return np.tile(slots, depth) + np.repeat(row_size * np.arange(depth), len(slots))


@lru_cache(maxsize=None)
def _derivative_table(nvars: int, order: int, var: int, depth: int):
    """Gather for d/d(var) of an order-`order` jet, over `depth` stacked rows.

    Returns (target, source, weight): flat slots of the order-1 result, the
    flat slots of the operand they read, and the integer factor
    alpha[var] + 1 that turns a Taylor coefficient into one of the
    derivative.  Slots not listed (total degree above order - 1) stay zero.
    """
    idx = _index_array(nvars, order - 1)
    up = idx.copy()
    up[:, var] += 1
    return _read_only(_rows(_flat(idx, order), depth, order ** nvars),
                      _rows(_flat(up, order + 1), depth, (order + 1) ** nvars),
                      _rows(up[:, var].astype(np.int64), depth))


@lru_cache(maxsize=None)
def _truncation_table(nvars: int, order: int, new_order: int, depth: int):
    """Gather for truncating an order-`order` jet to `new_order`, over
    `depth` stacked rows: flat slots of the result and the flat slots of the
    operand they copy."""
    idx = _index_array(nvars, new_order)
    return _read_only(_rows(_flat(idx, new_order + 1), depth, (new_order + 1) ** nvars),
                      _rows(_flat(idx, order + 1), depth, (order + 1) ** nvars))


@lru_cache(maxsize=None)
def _read_slots(indices: tuple, nvars: int, order: int) -> np.ndarray:
    """`Jet.read`'s flat slots of indices in one row of a jet."""
    for idx in indices:
        if sum(idx) > order:
            raise OrderExceeded(f"index {idx} exceeds jet order {order}")
    return _read_only(_flat(np.array(indices, dtype=np.intp).reshape(-1, nvars), order + 1))[0]


def _on_branch_cut(w: complex) -> bool:
    return w.imag == 0.0 and w.real <= 0.0


def row_values(value) -> tuple:
    """A jet's `value` as a tuple over its rows (one entry when unstacked);
    also a point coordinate of a stacked pass or of one point."""
    return value if type(value) is tuple else (value,)


def _off_the_cut(a0: complex, what: str, name: str) -> complex:
    """a0, the constant term of one row of the operand of a logarithm or a
    power; raises where it is singular or on the branch cut."""
    if abs(a0) < SINGULAR_EPS:
        raise DomainError(f"{what} of jet with constant term {a0}")
    if _on_branch_cut(a0):
        raise BranchCutViolation(f"{name} constant term {a0} on the negative real axis")
    return a0


@lru_cache(maxsize=None)
def _recurrence_table(nvars: int, order: int, depth: int):
    """`_mul_slots` by target degree, for `Jet._recurrence` over `depth`
    stacked rows.

    A pair (ia, ib, it) of degree k = 1..order has a target of degree k and
    an ia side of degree j >= 1, weighted j/k; per degree, first for every
    row the pairs whose ib side has degree >= 1, then for every row those
    that read the ib side's constant term, each set a-major, as in
    `_mul_slots`.  A target's constant-term pair is its last pair there, so
    each target sums its pairs in the same sequence at every order and in
    any number of variables.  Returns (gather, weights, steps): the flat
    ia slots of all pairs, degree after degree; their weights, per exponent
    p, (p + 1) j/k - 1 for log (p = 0) and the reciprocal (p = -1) and j/k
    under None, for exp and every other power; and per whether the
    constant-term pairs are left out (index 1) or not (index 0), one
    (ib, it, lo, hi) per degree with pairs: their flat ib and target slots
    and their bounds in gather.
    """
    ia, ib, it = _mul_slots(nvars, order)
    size = (order + 1) ** nvars
    degree = np.indices((order + 1,) * nvars).sum(axis=0).ravel()  # of every slot
    da, db, dt = degree[ia], degree[ib], degree[it]
    gather, frac, steps, inner = [], [], [], []
    lo = 0
    for k in range(1, order + 1):
        at = dt == k
        parts = np.flatnonzero(at & (da > 0) & (db > 0)), np.flatnonzero(at & (db == 0))
        gather += [_rows(ia[s], depth, size) for s in parts]
        frac += [_rows(da[s] / k, depth) for s in parts]
        b_rows = np.concatenate([_rows(ib[s], depth, size) for s in parts])
        t_rows = np.concatenate([_rows(it[s], depth, size) for s in parts])
        mid = depth * len(parts[0])
        steps.append(_read_only(b_rows, t_rows) + (lo, lo + len(b_rows)))
        if mid:
            inner.append(_read_only(b_rows[:mid], t_rows[:mid]) + (lo, lo + mid))
        lo += len(b_rows)
    frac = np.concatenate(frac)
    weights = {None: frac, **{p: frac * (p + 1) - 1 for p in (0, -1)}}
    _read_only(*weights.values())
    return (_read_only(np.concatenate(gather))[0], MappingProxyType(weights),
            (tuple(steps), tuple(inner)))


class Jet:
    """Dense truncated Taylor expansion at a point the caller keeps.

    coeffs[alpha] is the partial derivative of multi-index alpha divided by
    alpha!.  Entries with total degree above `order` are kept zero.

    A stacked jet holds `depth` jets of one shape as rows of a leading
    axis: coeffs has shape (depth,) + (order + 1,) * nvars.  Every operation
    works row by row through the same tables, ufuncs and scalar formulas as
    on one jet, so each row is bit for bit the unstacked result; `value` is
    then a tuple, one complex per row.  A stacked jet combines with a
    stacked jet of equal depth or with an unstacked one, which acts on every
    row (``coef * g``: every row of g times coef).  A tuple of scalars, one
    per row, is a scalar operand of ``+ - * /`` (``g - g.value``), and
    `constant` and `variable` build a stack from one such tuple.  The
    analytic functions and `reciprocal` start each row from that row's
    constant term and raise for the first row that the unstacked function
    raises for; `compose_series` takes a tuple of one coefficient per row
    for a term of its series.  `rows` hands the rows back as unstacked
    jets and `read` their coefficients as lists; `coefficient` and
    `partial` take unstacked jets only.  depth is 0 for an unstacked jet.

    A Jet is immutable: a slot class whose attributes cannot be assigned,
    holding a read-only coeffs array, so jets (and their arrays) can be
    shared freely.  nvars and order are stored at construction, which
    checks the shape: 1 to 3 variables, one length for every variable axis,
    and a leading axis of length depth for a stacked jet.  Jets compare and
    hash by identity.  `__post_init__` runs once for every constructed Jet,
    whichever constructor made it.

    A scalar operand of ``+`` and ``-``, on either side, is not lifted to
    a constant jet: one path (`_shifted`), for one scalar or a tuple, adds
    (or subtracts from) +0.0 in every slot and then sets the constant term,
    which gives the lifted form's bits, signed zeros included.  ``*`` and
    ``/`` by a scalar or a tuple take one path too (`_scaled`), and
    `constant` and `variable` one seed builder.
    """

    __slots__ = ("coeffs", "depth", "nvars", "order")

    def __init__(self, coeffs, *, depth: int = 0):
        if type(coeffs) is not np.ndarray or coeffs.dtype is not _COMPLEX:
            # the kernels build their results through _jet; this converts outside input
            coeffs = np.asarray(coeffs, dtype=complex)
        depth = operator.index(depth)  # an int: 2.0 raises TypeError
        shape = coeffs.shape
        axes = shape[1:] if depth else shape
        if (not 1 <= len(axes) <= 3 or len(set(axes)) != 1 or axes[0] < 1
                or (depth and shape[0] != depth)):
            raise ShapeMismatch(
                f"coeffs of shape {shape} are not "
                + (f"{depth} stacked jets" if depth else "one jet")
                + " in 1 to 3 variables with one length per variable axis")
        _set_coeffs(self, coeffs)
        _set_depth(self, depth)
        _set_nvars(self, len(axes))
        _set_order(self, axes[0] - 1)
        self.__post_init__()

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Jet")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Jet")

    def __repr__(self) -> str:
        return f"Jet(coeffs={self.coeffs!r}, depth={self.depth!r})"

    def __reduce__(self):
        return (_jet, (self.coeffs, self.depth, self.nvars, self.order))

    # -- structure ---------------------------------------------------------

    @property
    def value(self) -> complex | tuple[complex, ...]:
        if self.depth:
            return tuple(self.coeffs[(slice(None),) + (0,) * self.nvars].tolist())
        return complex(self.coeffs[(0,) * self.nvars])

    @classmethod
    def constant(cls, value, nvars: int, order: int) -> "Jet":
        """Constant jet of one value, or a stack of them from a tuple of one
        value per row."""
        return _seed(value, None, nvars, order)

    @classmethod
    def variable(cls, i: int, value, nvars: int, order: int) -> "Jet":
        """Seed jet of the i-th variable: value + one unit of its own direction
        (a stack of seeds from a tuple of one value per row)."""
        return _seed(value, i, nvars, order)

    @classmethod
    def stack(cls, jets) -> "Jet":
        """Unstacked jets of one shape as the rows of a stacked jet."""
        first = jets[0]
        for j in jets:
            if j.depth:
                raise ShapeMismatch("cannot stack a stacked jet")
            first._check(j)
        return _jet(np.stack([j.coeffs for j in jets]), len(jets), first.nvars, first.order)

    def rows(self) -> list["Jet"]:
        """The rows of a stacked jet as unstacked jets, `stack`'s inverse."""
        if not self.depth:
            raise ShapeMismatch("an unstacked jet has no rows")
        return [_jet(c, 0, self.nvars, self.order) for c in self.coeffs]

    def _check(self, other: "Jet") -> None:
        # equal depths, or one unstacked operand acting on every row; then
        # the shapes agree when nvars and order do
        if (self.nvars != other.nvars or self.order != other.order
                or (self.depth != other.depth and self.depth and other.depth)):
            raise ShapeMismatch(
                f"jet shapes differ: {self.coeffs.shape} (depth {self.depth}) "
                f"vs {other.coeffs.shape} (depth {other.depth})")

    def _like(self, coeffs: np.ndarray) -> "Jet":
        """A jet of this one's shape and depth holding fresh coeffs."""
        return _jet(coeffs, self.depth, self.nvars, self.order)

    def _operand(self, other):
        """A scalar operand: the coeffs it acts on, the scalar as a complex,
        and the result's depth.  For a tuple of scalars, one per row, the
        scalar is an array over the rows and an unstacked jet's coeffs are
        broadcast to every row."""
        if type(other) is not tuple:
            return self.coeffs, complex(other), self.depth
        depth = len(other)
        if not depth or (self.depth and self.depth != depth):
            raise ShapeMismatch(f"{depth} row scalars for a jet of depth {self.depth}")
        a = self.coeffs
        if not self.depth:
            a = np.broadcast_to(a, (depth,) + a.shape)
        return a, np.array(other, dtype=complex), depth

    def _shifted(self, other, op) -> "Jet":
        """op(self, other) for a scalar operand other of ``+`` or ``-``
        (other - self for `__rsub__`), as with other lifted to a constant
        jet: op runs on every slot with the lifted constant's +0.0 (so a
        -0.0 can become +0.0), then on the constant term with other."""
        zero = _CONSTANT_SLOT[self.nvars]
        a, c, depth = self._operand(other)
        out = op(a, 0.0)
        out[zero] = op(a[zero], c)
        return _jet(out, depth, self.nvars, self.order)

    def _scaled(self, other, ufunc) -> "Jet":
        """Every row's coefficients times (or divided by) a scalar operand,
        or that row's own from a tuple, whose axes broadcast over the row:
        each row runs the loop of ``coeffs * c`` on one jet."""
        a, c, depth = self._operand(other)
        if type(other) is tuple:
            c = c.reshape((depth,) + (1,) * self.nvars)
        return _jet(ufunc(a, c), depth, self.nvars, self.order)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self._shifted(other, operator.add)
        self._check(other)
        return _jet(self.coeffs + other.coeffs, self.depth or other.depth,
                    self.nvars, self.order)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self._shifted(other, operator.sub)
        self._check(other)
        return _jet(self.coeffs - other.coeffs, self.depth or other.depth,
                    self.nvars, self.order)

    def __rsub__(self, other):
        return self._shifted(other, lambda a, c: c - a)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._scaled(other, np.multiply)
        self._check(other)
        # every row through the one-jet table, as one flat scatter; an
        # unstacked operand is gathered once per row (tiled, not broadcast,
        # so the multiply runs the loop the one-jet form runs)
        depth = self.depth or other.depth
        shaped = other if other.depth else self  # the stacked operand, if any
        ia, ib, ia_rows, ib_rows, it = _mul_table(self.nvars, self.order, depth or 1)
        out = np.zeros(shaped.coeffs.size, dtype=complex)
        np.add.at(out, it, self.coeffs.take(ia_rows if self.depth else ia)
                  * other.coeffs.take(ib_rows if other.depth else ib))
        return _jet(out.reshape(shaped.coeffs.shape), depth, self.nvars, self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self._scaled(other, np.true_divide)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        if type(other) is not tuple:
            other = complex(other)
        return Jet.constant(other, self.nvars, self.order) * self.reciprocal()

    def reciprocal(self) -> "Jet":
        """1/self, degree by degree: with a = self / a0, b_0 = 1/a0 and
        b_k = -sum_{j=1..k} a_j b_{k-j} (`_recurrence`, p = -1)."""
        b0 = row_values(self.value)
        for b in b0:
            if abs(b) < SINGULAR_EPS:
                raise DivisionBySingularJet(f"constant term {b} below {SINGULAR_EPS}")
        return self._recurrence([1 / b for b in b0], -1)

    # -- analytic functions ------------------------------------------------

    def exp(self) -> "Jet":
        """e^self, degree by degree: b_0 = e^{a_0} and
        b_k = sum_{j=1..k} (j/k) a_j b_{k-j} (`_recurrence`)."""
        return self._recurrence([cmath.exp(v) for v in row_values(self.value)])

    def log(self) -> "Jet":
        """Principal-branch logarithm, degree by degree: with a = self / a0,
        b_0 = ln a0 and b_k = a_k - sum_{j=1..k-1} (1 - j/k) a_j b_{k-j}
        (`_recurrence`, p = 0, without the terms j = k).  Raises DomainError
        for a constant term below SINGULAR_EPS and BranchCutViolation for
        one on the negative real axis."""
        b0 = [cmath.log(_off_the_cut(v, "ln", "ln")) for v in row_values(self.value)]
        return self._recurrence(b0, 0, log=True)

    def sqrt(self) -> "Jet":
        return self.cpow(0.5)

    def cpow(self, p: complex) -> "Jet":
        """Principal-branch power; exact repeated product for an integer p of
        size at most PRODUCT_POWERS, at every order, so that the power of a
        truncated jet is the truncated power.  Any other p goes degree by
        degree: with a = self / a0, b_0 = e^{p ln a0} and
        b_k = sum_{j=1..k} ((p + 1) j/k - 1) a_j b_{k-j} (`_recurrence`),
        with the errors of `log`."""
        if isinstance(p, complex) and p.imag == 0:
            p = p.real
        if isinstance(p, (int, float)) and float(p).is_integer() and abs(p) <= PRODUCT_POWERS:
            n = int(p)
            acc = self if n else Jet.constant(1.0, self.nvars, self.order)
            for _ in range(abs(n) - 1):
                acc = acc * self
            return acc.reciprocal() if n < 0 else acc
        b0 = [cmath.exp(p * cmath.log(_off_the_cut(v, "power", "pow")))
              for v in row_values(self.value)]
        return self._recurrence(b0, p)

    def _recurrence(self, b0: list, p=None, log: bool = False) -> "Jet":
        """The jet b of exp (p None), a power (p), or log (p = 0, log True)
        of self, from b0, the constant term of each row of b.

        With the Euler operator E, which multiplies a homogeneous part of
        degree k by k, b = a^p gives a E b = p b E a, b = e^a gives
        E b = b E a and b = ln a gives a E b = E a; their parts of degree k
        solve for b_k from the parts of lower degree (Griewank and Walther,
        Evaluating Derivatives, 2nd ed., 13.2).  For a power and log, a is
        self divided by its constant term, row by row, so that a_0 = 1; for
        exp it is self.  Degree k = 1..order is one gather-multiply-scatter
        over `_recurrence_table`: each pair (a_j, b_{k-j}) adds its weight
        times a_j times b_{k-j} to b_k, whose slots start at zero, or at a_k
        for log, which leaves out the pairs that read b_0.  The weights are
        j/k for exp and (p + 1) j/k - 1 otherwise.  Degree k reads degrees
        up to k only, in the same sequence at every order, and every row
        runs the same elementwise operations, so truncation commutes and
        each row of a stack is bit for bit the unstacked result.
        """
        n, order, depth = self.nvars, self.order, self.depth
        if not order:
            return _jet(np.array(b0, dtype=complex).reshape(self.coeffs.shape), depth, n, 0)
        gather, weights, steps = _recurrence_table(n, order, depth or 1)
        a = self.coeffs.reshape(depth or 1, -1)
        if p is not None:  # each row over its constant term
            a = a / a[:, :1]
        w = weights.get(p)
        aw = a.take(gather) * (weights[None] * (p + 1) - 1 if w is None else w)
        if log:  # b_k starts at +0 + a_k, as a scatter into zeros would
            b = a
            b += 0.0
        else:
            b = np.zeros(a.shape, dtype=complex)
        b[:, 0] = b0
        flat = b.reshape(-1)
        for ib, it, lo, hi in steps[log]:
            np.add.at(flat, it, aw[lo:hi] * flat.take(ib))
        return _jet(b.reshape(self.coeffs.shape), depth, n, order)

    # -- coefficient access ------------------------------------------------

    def read(self, indices: tuple[tuple[int, ...], ...]) -> list[list[complex]]:
        """The coefficients at indices, multi-indices of total degree at most
        the order (else OrderExceeded), as one list per row (one for an
        unstacked jet), from one gather of cached flat slots and one `tolist`."""
        slots = _read_slots(indices, self.nvars, self.order)
        return self.coeffs.reshape(self.depth or 1, -1).take(slots, axis=1).tolist()

    def coefficient(self, idx: tuple[int, ...]) -> complex:
        """The coefficient at idx of an unstacked jet: `read`'s one-index case."""
        if self.depth:
            raise ShapeMismatch("a stacked jet has one coefficient per row: use read")
        return self.read((idx,))[0][0]

    def partial(self, idx: tuple[int, ...]) -> complex:
        """Value of the partial derivative for the given multi-index."""
        fact = 1
        for k in idx:
            fact *= math.factorial(k)
        return self.coefficient(idx) * fact

    def derivative(self, var: int) -> "Jet":
        """Jet of the partial derivative in one variable; order drops by one.

        One gather from a cached table (`_derivative_table`, per nvars,
        order and var, laid out over the rows of a stack): each coefficient
        of total degree <= order - 1 reads the operand's coefficient one
        step up in `var` and multiplies it by that step's int64 weight.
        That is the complex-by-int64 multiply of scaling the whole array by
        its weights, so the values, signed zeros included, are those of the
        array-wide form.  Every other slot is +0.
        """
        if self.order < 1:
            raise OrderExceeded("cannot differentiate an order-0 jet")
        k, n, depth = self.order, self.nvars, self.depth
        tgt, src, w = _derivative_table(n, k, var, depth or 1)
        out = np.zeros((depth or 1) * k ** n, dtype=complex)
        out[tgt] = self.coeffs.take(src) * w
        return _jet(out.reshape(self.coeffs.shape[:-n] + (k,) * n), depth, n, k - 1)

    def truncated(self, order: int) -> "Jet":
        """Copy truncated to a lower total order.

        One gather from a cached table (`_truncation_table`, per nvars and
        both orders, laid out over the rows of a stack) copies the
        coefficients of total degree <= order; every other slot of the
        result is +0.
        """
        if order > self.order:
            raise OrderExceeded(f"cannot extend order {self.order} to {order}")
        n, depth = self.nvars, self.depth
        tgt, src = _truncation_table(n, self.order, order, depth or 1)
        out = np.zeros((depth or 1) * (order + 1) ** n, dtype=complex)
        out[tgt] = self.coeffs.take(src)
        return _jet(out.reshape(self.coeffs.shape[:-n] + (order + 1,) * n), depth, n, order)


#: the constant term of every row: coeffs[..., 0, ..., 0], per nvars
_CONSTANT_SLOT = {n: (Ellipsis,) + (0,) * n for n in (1, 2, 3)}
#: per nvars and for one jet (0) or a stack (1), a seed's constant and unit slots
_SEED_SLOTS = {n: tuple(tuple((slice(None),) * stacked + tuple(int(k == i) for k in range(n))
                              for i in (None, *range(n))) for stacked in (0, 1))
               for n in (1, 2, 3)}

_set_coeffs = Jet.coeffs.__set__
_set_depth = Jet.depth.__set__
_set_nvars = Jet.nvars.__set__
_set_order = Jet.order.__set__
_new = object.__new__


def _seed(value, var: int | None, nvars: int, order: int) -> Jet:
    """`Jet.constant` (var None) or `Jet.variable` of value, or of each of a
    tuple of values as the rows of one stack."""
    rows = (len(value),) if type(value) is tuple else ()
    if rows == (0,):
        raise ShapeMismatch("a stack needs at least one row")
    slots = _SEED_SLOTS[nvars][len(rows)]
    c = np.zeros(rows + (order + 1,) * nvars, dtype=complex)
    c[slots[0]] = value
    if var is not None and order >= 1:
        c[slots[var + 1]] = 1.0
    return _jet(c, len(value) if rows else 0, nvars, order)


def _jet(coeffs: np.ndarray, depth: int, nvars: int, order: int) -> Jet:
    """Jet from a fresh complex array whose nvars and order the caller knows:
    `Jet(coeffs, depth=depth)` without the dtype check and shape reads.  The
    slots are set through their descriptors, which `Jet.__setattr__` does
    not guard."""
    jet = _new(Jet)
    _set_coeffs(jet, coeffs)
    _set_depth(jet, depth)
    _set_nvars(jet, nvars)
    _set_order(jet, order)
    jet.__post_init__()
    return jet


def compose_series(series: list, inner: Jet) -> Jet:
    """Univariate Taylor coefficients composed with a jet of zero constant
    term: the sum of series[m] * inner^m up to the jet's order, with the
    powers started from the operand, not from a unit jet.  For a stacked
    inner jet each series[m] may be a tuple of one coefficient per row."""
    for h0 in row_values(inner.value):
        if abs(h0) > 1e-9:
            raise DomainError("composition requires vanishing constant term")
    n = min(len(series), inner.order + 1)
    if n <= 1:
        value = series[0]
        if inner.depth and type(value) is not tuple:
            value = (value,) * inner.depth  # one constant row per row of inner
        return Jet.constant(value, inner.nvars, inner.order)
    power = inner
    acc = series[1] * inner + series[0]
    for m in range(2, n):
        power = power * inner
        acc = acc + series[m] * power
    return acc


def series_derivative(e1: Jet) -> Jet:
    """Univariate jet of e' from e's univariate jet e1, one order higher.

    Its coefficients are (k + 1) e_{k+1}.  Above order 0 the constant term
    also gets 0j times each coefficient of degree 1 and up, which is what
    composing that series with z - z0 adds to it: a zero real or imaginary
    part of e' then has the sign it has in the composed series, and a
    logarithm of e' on its branch cut keeps its branch."""
    d = e1.derivative(0)
    if not d.order:
        return d
    zero = 0j * d.coeffs[..., 1]
    for k in range(2, d.order + 1):  # in turn: a sum from +0 would drop a -0
        zero = zero + 0j * d.coeffs[..., k]
    return d + (tuple(zero.tolist()) if d.depth else complex(zero))


@lru_cache(maxsize=None)
def _axis_slots(order: int) -> tuple[np.ndarray, ...]:
    """Per variable of a three-variable jet, the flat slots of one row's
    coefficients of degree 1 to order in that variable alone."""
    strides = [(order + 1) ** (2 - axis) for axis in range(3)]
    return _read_only(*(stride * np.arange(1, order + 1) for stride in strides))


def on_axes(*pieces) -> Jet:
    """The three-variable jet of a sum of univariate jets: pieces[i] (None
    for none) is a function of variable i alone, placed on that variable's
    axis.

    The pieces share one order; stacked ones share their depth, and an
    unstacked piece acts on every row.  The constant terms are summed from
    left to right, and every slot off the axes is +0, so for one or two
    pieces the result is, slot for slot, the sum of the pieces' jets in
    three variables (zeros aside, whose sign a logarithm of the result
    drops).  One cached scatter per piece."""
    placed = [(axis, p) for axis, p in enumerate(pieces) if p is not None]
    order, depth = placed[0][1].order, 0
    for _, p in placed:
        if p.nvars != 1 or p.order != order or (depth and p.depth and p.depth != depth):
            raise ShapeMismatch(f"on_axes takes univariate jets of one order and depth, "
                                f"got {p.coeffs.shape} (depth {p.depth})")
        depth = depth or p.depth
    slots = _axis_slots(order)
    out = np.zeros((depth or 1, (order + 1) ** 3), dtype=complex)
    constant = None
    for axis, p in placed:
        out[:, slots[axis]] = p.coeffs[..., 1:]
        c0 = p.coeffs[..., 0]
        constant = c0 if constant is None else constant + c0
    out[:, 0] = constant
    return _jet(out.reshape(((depth,) if depth else ()) + (order + 1,) * 3), depth, 3, order)


def swapped_conjugate(j: Jet) -> Jet:
    """The three-variable jet of conj(f(y, x, t)) from the jet j of
    f(x, y, t): every coefficient conjugated, with the first two variables
    swapped (c_{ijk} -> conj(c_{jik})).  One copy of j's coefficients."""
    if j.nvars != 3:
        raise ShapeMismatch(f"swapped_conjugate takes a three-variable jet, got {j.nvars}")
    rows = j.coeffs.reshape((j.depth or 1,) + j.coeffs.shape[-3:])
    out = np.conjugate(rows.swapaxes(1, 2), order="C")
    return _jet(out.reshape(j.coeffs.shape), j.depth, 3, j.order)


@lru_cache(maxsize=None)
def _compose3_table(order: int):
    """Gathers of `compose3` at one order, over its (term, slot) pairs.

    A term c_{ijk} dx^i dy^j dz^k (every multi-index but the constant, in
    `valid_indices` order) has a slot for each valid index that is zero in
    the variables the term does not read; the pairs run term by term.  The
    power d^m of variable v is row v * order + m - 1 of the stacked powers,
    each order + 1 coefficients long.  Returns (factors, pairs, terms,
    targets): per number of factors (1, 2, 3), an array with one row per
    factor, in variable order, of the flat power slot each pair with that
    many factors reads; the permutation that puts those pairs, concatenated
    in that order, back in term order; and per pair the flat slot of its
    term's outer coefficient and of its target.
    """
    idx = _index_array(3, order)
    term, slot = np.nonzero(~((idx[1:, None] == 0) & (idx[None, :] != 0)).any(axis=2))
    term += 1
    read = idx[term] != 0  # per pair, the variables its term reads
    power = (np.arange(3) * order + idx[term] - 1) * (order + 1) + idx[slot]
    count = read.sum(axis=1)
    factors = (power[count == k][read[count == k]].reshape(-1, k).T for k in (1, 2, 3))
    return (_read_only(*factors),
            *_read_only(np.argsort(np.argsort(count, kind="stable")),
                        _flat(idx[term], order + 1), _flat(idx[slot], order + 1)))


def compose3(outer: Jet, dx: Jet, dy: Jet, dz: Jet) -> Jet:
    """Three-variable composition: sum c_{ijk} dx^i dy^j dz^k, where dx, dy
    and dz are univariate jets of the outer jet's order, in z, zbar and t.

    The result is the outer function expanded at the new point, a jet in
    (z, zbar, t).  Each inner jet must have a vanishing constant term
    (DomainError otherwise, as in `compose_series`).  Its powers are taken
    in its own variable, starting from the operand (order - 1 univariate
    products each), and a term's coefficients are outer products of its
    powers, gathered per (term, slot) pair from a cached table.  A product
    of two or three powers gets +0.0 added, as the scatter of a product of
    three-variable jets adds it, so its zeros are +0.0 (between the two
    multiplies of three powers that would change no bit).  The terms are summed in `valid_indices` order by one scatter,
    which skips every term whose outer coefficient is zero, row by row, as
    a sum that never added it would: adding a zero term would turn a -0.0
    constant term into +0.0.  So the result is, bit for bit, the
    composition with the inner jets placed on their axes (`on_axes`) as
    three-variable jets.  A stacked jet composes row by row, and an
    unstacked one acts on every row.
    """
    order, depth = outer.order, outer.depth
    for d in (dx, dy, dz):
        if outer.nvars != 3 or d.nvars != 1 or d.order != order or (
                depth and d.depth and d.depth != depth):
            raise ShapeMismatch(f"compose3 takes univariate inner jets of the outer jet's "
                                f"order and depth, got {d.coeffs.shape} (depth {d.depth})")
        depth = depth or d.depth
        for h0 in row_values(d.value):
            if abs(h0) > 1e-9:
                raise DomainError("composition requires vanishing constant term")
    rows, size = depth or 1, (order + 1) ** 3
    outer_rows = outer.coeffs.reshape(-1, size)
    out = np.zeros(rows * size + 1, dtype=complex)  # the last slot takes the skipped terms
    out[:-1:size] = outer_rows[:, 0]
    if order:
        w = np.empty((rows, 3 * order, order + 1), dtype=complex)  # the powers, per row
        for axis, d in enumerate((dx, dy, dz)):
            p = d
            w[:, axis * order] = p.coeffs
            for m in range(1, order):
                p = p * d
                w[:, axis * order + m] = p.coeffs
        w = w.reshape(rows, -1)
        ((one,), (a2, b2), (a3, b3, c3)), pairs, term_slots, target_slots = \
            _compose3_table(order)
        two = w.take(a2, axis=1) * w.take(b2, axis=1)
        two += 0.0
        three = w.take(a3, axis=1) * w.take(b3, axis=1)
        three *= w.take(c3, axis=1)
        three += 0.0
        terms = np.concatenate((w.take(one, axis=1), two, three), axis=1).take(pairs, axis=1)
        coef = outer_rows.take(term_slots, axis=1)
        terms *= coef
        targets = target_slots + size * np.arange(rows)[:, None] if depth else target_slots
        live = coef != 0
        if not live.all():
            targets = np.where(live, targets, rows * size)
        np.add.at(out, np.broadcast_to(targets, terms.shape).ravel(), terms.ravel())
    return _jet(out[:-1].reshape(((depth,) if depth else ()) + (order + 1,) * 3), depth, 3, order)
