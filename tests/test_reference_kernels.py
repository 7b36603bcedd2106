"""The gather kernels of Jet, its scalar operands and expression evaluation
against the array-reshaping, lifted-constant and tree-walking versions they
replace, kept here as references, the per-axis compose3 and the field
builders' univariate pieces against the three-variable composition and
builders they replace, and stacked jets against the same kernels applied
one row at a time: results must agree bit for bit, signed zeros included.
The commutators' bracket identities on the order-3 u-jet are checked
against one operator applied to one jet at a time on an order-4 one, and
the resolving checks' scalar identities against the projected operators
applied as jet operators (`RefProj`), to within a few roundoffs of the
terms that cancel there.  The
Jacobi conditions are also checked against the cyclic sum of commutators
expanded with the structure equations, and the jet operators against the
Jacobi identity of vector fields.  The kernels' index tables are checked
against element-by-element builds, and x2_apply against the version that
built every prolongation coefficient for every target."""

import cmath
import itertools
import math
import operator
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

from reference_calculus import (RefCalculus, assert_calculus_matches_reference,
                                 assert_within_roundoffs, invariant_values, ref_invariants)
from test_bundle import FAMILIES, build, stacked_build

from heavenly import expr as ex
from heavenly import fields, resolving, symmetry
from heavenly.cli import _perturbed
from heavenly.errors import (DivisionBySingularJet, DomainError, EtaVanishes, FVanishes,
                              HeavenlyError, OrderExceeded, ShapeMismatch)
from heavenly.fields import MAX_ORDER, Point
from heavenly.invariants import (COMMUTATOR_PAIRS, COMMUTATOR_TARGETS, ETA_TOL, JetCalculus,
                                 commutator_residual, invariants_at, swept_invariants)
from heavenly.jet import (PASS_POINTS, Jet, _compose3_table, _derivative_table, _mul_table,
                          _recurrence_table, _rows, _truncation_table, compose3,
                          compose_series, on_axes, row_values, valid_indices)
from heavenly.resolving import (PROJ_ORDER, RVARS, ResolvingPoint, ResolvingResiduals, _applied,
                                _first_order, _pair, _Proj, _structure, ansatz_functions,
                                checked_pairs, jacobi_residual, resolving_residuals)

PHI_TEXTS = ("1", "2", "xi", "xi*theta", "exp(-xi)")


# --- references -------------------------------------------------------------

def _ref_overflow_mask(nvars, order):
    shape = (order + 1,) * nvars
    mask = np.zeros(shape, dtype=bool)
    mask[np.indices(shape).sum(axis=0) > order] = True
    return mask


def ref_derivative(jet, var):
    n, k = jet.nvars, jet.order
    src = np.moveaxis(jet.coeffs, var, 0)
    weights = np.arange(1, k + 1).reshape((k,) + (1,) * (n - 1))
    out = np.moveaxis(src[1:, ...] * weights, 0, var)
    slices = tuple(slice(0, k) for _ in range(n))
    out = np.ascontiguousarray(out[slices])
    out[_ref_overflow_mask(n, k - 1)] = 0.0
    return Jet(out)


def ref_truncated(jet, order):
    slices = tuple(slice(0, order + 1) for _ in range(jet.nvars))
    out = jet.coeffs[slices].copy()
    out[_ref_overflow_mask(jet.nvars, order)] = 0.0
    return Jet(out)


class RefProj(_Proj):
    """A one-point projection with the projected operators as jet
    operators, the reference for the scalar identities of
    `resolving._applied`: `apply` gives (delta g, Y g, Ybar g) from g's
    three partials, each coefficient truncated to the result's order."""

    def __init__(self, rf, p, order):
        super().__init__(rf, p, order)
        # delta's middle coefficient kappa*rho - ut^2 as an exact jet
        self.heav_coeff = p.kappa * self.seed["rho"] - self.seed["ut"] * self.seed["ut"]

    def apply(self, g):
        m = g.order - 1
        heav, tau, lam, lamb = (j.truncated(m) for j in
                                (self.heav_coeff, self.tauj, self.lamj, self.lambj))
        g_t, g_ut, g_rho = g.derivative(0), g.derivative(1), g.derivative(2)
        return (g_t + heav * g_ut + tau * g_rho,
                g_ut + lam * g_rho,
                g_ut + lamb * g_rho)


def ref_apply(proj, op, g):
    m = g.order - 1
    if op == "delta":
        return (ref_derivative(g, 0)
                + ref_truncated(proj.heav_coeff, m) * ref_derivative(g, 1)
                + ref_truncated(proj.tauj, m) * ref_derivative(g, 2))
    coef = proj.lamj if op == "Y" else proj.lambj
    return ref_derivative(g, 1) + ref_truncated(coef, m) * ref_derivative(g, 2)


def ref_resolving_residuals(rf, p):
    # a fresh order-2 projection, every operator applied to one jet at a time
    proj = RefProj(rf, p, order=2)
    F = proj.Fj.value
    if abs(F) < resolving.F_EPS:
        raise FVanishes(f"F = {F} at {p}")
    lam, lamb, tau = proj.lamj.value, proj.lambj.value, proj.tauj.value
    ut, rho, kappa = p.ut, p.rho, p.kappa
    dF, dlam, dlamb, dtau = (ref_apply(proj, "delta", g).value
                             for g in (proj.Fj, proj.lamj, proj.lambj, proj.tauj))
    Ytau, Ylamb = (ref_apply(proj, "Y", g).value for g in (proj.tauj, proj.lambj))
    Ybtau, Yblam = (ref_apply(proj, "Ybar", g).value for g in (proj.tauj, proj.lamj))
    r1 = dF - (kappa * (lam + lamb) - 5 * ut) * F
    r2 = dlam - Ytau - 2 * ut * lam + kappa * lam * lam
    r2b = dlamb - Ybtau - 2 * ut * lamb + kappa * lamb * lamb
    r3 = F * (Ylamb - Yblam) - (ut * rho + tau) * (lam - lamb)
    r4 = (F * (Ylamb + Yblam) + (ut * rho + tau) * (lam + lamb)
          - 2 * kappa * (dtau + 2 * F + 4 * ut * tau
                         + kappa * rho * rho + 2 * ut * ut * rho))
    return ResolvingResiduals(r1=r1, r2=r2, r2_bar=r2b, r3=r3, r4=r4)


def structure_functions(proj, kappa):
    """a, a_bar and c of the structure equations, as jets of the projection."""
    ut = proj.seed["ut"]
    return (2 * ut - kappa * proj.lamj, 2 * ut - kappa * proj.lambj,
            (ut * proj.seed["rho"] + proj.tauj) / proj.Fj)


def ref_structure_jacobi(rf, p):
    # a fresh order-2 projection, every operator applied to one jet at a time
    proj = RefProj(rf, p, order=2)
    if abs(proj.Fj.value) < resolving.F_EPS:
        raise FVanishes(f"F = {proj.Fj.value} at {p}")
    a, a_bar, c = structure_functions(proj, p.kappa)
    dc = ref_apply(proj, "delta", c).value
    Yba = ref_apply(proj, "Ybar", a).value
    Yab = ref_apply(proj, "Y", a_bar).value
    return (dc - c.value * a_bar.value + Yba, dc - a.value * c.value + Yab)


#: positions of delta, Y and Ybar in `RefProj.apply`'s result
OPS = {"delta": 0, "Y": 1, "Ybar": 2}


def ref_jacobi_residual(rf, p):
    """[delta,[Y,Ybar]] + [Y,[Ybar,delta]] + [Ybar,[delta,Y]] on t, ut and
    rho, each commutator expanded into 18 words of `RefProj.apply` on an
    order-3 projection: the Jacobi identity of vector fields, which holds
    for any coefficients, so it reads roundoff wherever apply builds the
    operators as vector fields."""
    proj = RefProj(rf, p, order=3)

    def apply(op, g):
        return proj.apply(g)[OPS[op]]

    def commutator(a, b, g):
        return apply(a, apply(b, g)) - apply(b, apply(a, g))

    def nested(a, b, c, g):
        inner = lambda h: commutator(b, c, h)
        return apply(a, inner(g)) - inner(apply(a, g))

    out = []
    for name in RVARS:
        g = proj.seed[name]
        total = (nested("delta", "Y", "Ybar", g)
                 + nested("Y", "Ybar", "delta", g)
                 + nested("Ybar", "delta", "Y", g))
        out.append(total.value)
    return tuple(out)


# --- derivative and truncated -------------------------------------------------

def random_jet(rng, nvars, order):
    """Random complex coefficients, every slot filled (above the order too),
    with +-0.0 planted in the real and imaginary parts."""
    shape = (order + 1,) * nvars
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    for part in (re, im):
        part[rng.random(shape) < 0.25] = -0.0
        part[rng.random(shape) < 0.1] = 0.0
    return Jet(re + 1j * im)


def kernel_cases():
    rng = np.random.default_rng(2024)
    for nvars in (1, 2, 3):
        for order in range(6):
            for _ in range(40):
                yield nvars, order, random_jet(rng, nvars, order)


def test_gather_kernels_match_reference_bytes():
    cases = 0
    for nvars, order, jet in kernel_cases():
        for var in range(nvars if order >= 1 else 0):
            new, ref = jet.derivative(var), ref_derivative(jet, var)
            assert new.coeffs.shape == ref.coeffs.shape
            assert new.coeffs.tobytes() == ref.coeffs.tobytes(), (nvars, order, var)
            cases += 1
        for lower in range(order + 1):
            new, ref = jet.truncated(lower), ref_truncated(jet, lower)
            assert new.coeffs.shape == ref.coeffs.shape
            assert new.coeffs.tobytes() == ref.coeffs.tobytes(), (nvars, order, lower)
            cases += 1
    assert cases == 3720


def test_gather_kernels_ignore_memory_layout():
    rng = np.random.default_rng(7)
    jet = random_jet(rng, 3, 4)
    fortran = Jet(np.asfortranarray(jet.coeffs))
    for var in range(3):
        assert fortran.derivative(var).coeffs.tobytes() == ref_derivative(jet, var).coeffs.tobytes()
    assert fortran.truncated(2).coeffs.tobytes() == ref_truncated(jet, 2).coeffs.tobytes()


# --- index tables -------------------------------------------------------------
# The tables the kernels gather and scatter with, built one element at a
# time as before they were built from index arrays.  np.add.at sums in
# table order, so every array must match element for element.

def ref_mul_table(nvars, order, depth):
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
    ia, ib, it = np.array(ia), np.array(ib), np.array(it)
    size = (order + 1) ** nvars
    return (_rows(ia, depth), _rows(ib, depth), _rows(ia, depth, size), _rows(ib, depth, size),
            _rows(it, depth, size))


def ref_derivative_table(nvars, order, var, depth):
    src_shape = (order + 1,) * nvars
    dst_shape = (order,) * nvars
    tgt, src, w = [], [], []
    for a in valid_indices(nvars, order - 1):
        up = tuple(x + 1 if i == var else x for i, x in enumerate(a))
        tgt.append(np.ravel_multi_index(a, dst_shape))
        src.append(np.ravel_multi_index(up, src_shape))
        w.append(up[var])
    tgt, src = np.array(tgt, dtype=np.intp), np.array(src, dtype=np.intp)
    return (_rows(tgt, depth, order ** nvars), _rows(src, depth, (order + 1) ** nvars),
            _rows(np.array(w, dtype=np.int64), depth))


def ref_truncation_table(nvars, order, new_order, depth):
    src_shape = (order + 1,) * nvars
    dst_shape = (new_order + 1,) * nvars
    idxs = valid_indices(nvars, new_order)
    tgt = np.array([np.ravel_multi_index(a, dst_shape) for a in idxs], dtype=np.intp)
    src = np.array([np.ravel_multi_index(a, src_shape) for a in idxs], dtype=np.intp)
    return _rows(tgt, depth, (new_order + 1) ** nvars), _rows(src, depth, (order + 1) ** nvars)


def ref_compose3_table(order):
    shape = (order + 1,) * 3
    factors = ([], [], [])
    pairs, terms, targets = [], [], []
    for term in valid_indices(3, order)[1:]:
        powers = [(axis, m) for axis, m in enumerate(term) if m]
        same = factors[len(powers) - 1]
        for slot in valid_indices(3, order):
            if any(slot[axis] for axis in range(3) if not term[axis]):
                continue
            pairs.append((len(powers) - 1, len(same)))
            same.append([(axis * order + m - 1) * (order + 1) + slot[axis] for axis, m in powers])
            terms.append(np.ravel_multi_index(term, shape))
            targets.append(np.ravel_multi_index(slot, shape))
    starts = np.cumsum([0] + [len(same) for same in factors])
    return (tuple(np.array(same, dtype=np.intp).reshape(-1, k + 1).T
                  for k, same in enumerate(factors)),
            np.array([starts[k] + i for k, i in pairs], dtype=np.intp),
            np.array(terms, dtype=np.intp), np.array(targets, dtype=np.intp))


def ref_recurrence_table(nvars, order, depth):
    shape = (order + 1,) * nvars
    size = (order + 1) ** nvars
    gather, frac, steps, inner = [], [], [], []
    for k in range(1, order + 1):
        parts = ([], [])  # pairs reading b of degree >= 1, then b's constant term
        for a in valid_indices(nvars, order):
            for b in valid_indices(nvars, order):
                t = tuple(x + y for x, y in zip(a, b))
                if sum(t) == k and sum(a):
                    parts[sum(b) == 0].append((np.ravel_multi_index(a, shape),
                                               np.ravel_multi_index(b, shape),
                                               np.ravel_multi_index(t, shape), sum(a) / k))
        lo, b_rows, t_rows = len(gather), [], []
        for part in parts:
            for r in range(depth):
                for ia, ib, it, f in part:
                    gather.append(ia + r * size)
                    frac.append(f)
                    b_rows.append(ib + r * size)
                    t_rows.append(it + r * size)
        b_rows, t_rows = np.array(b_rows, dtype=np.intp), np.array(t_rows, dtype=np.intp)
        steps.append((b_rows, t_rows, lo, len(gather)))
        mid = depth * len(parts[0])
        if mid:
            inner.append((b_rows[:mid], t_rows[:mid], lo, lo + mid))
    return np.array(gather, dtype=np.intp), np.array(frac), (tuple(steps), tuple(inner))


def assert_same_arrays(got, want):
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_arrays(g, w)
        return
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)
    assert not got.flags.writeable


def test_index_tables_match_element_by_element_builds():
    cases = 0
    for nvars, order, depth in itertools.product((1, 2, 3), range(5), (1, 3, 16)):
        assert_same_arrays(_mul_table(nvars, order, depth), ref_mul_table(nvars, order, depth))
        for var in range(nvars):
            assert_same_arrays(_derivative_table(nvars, order, var, depth),
                               ref_derivative_table(nvars, order, var, depth))
        for new_order in range(order + 1):
            assert_same_arrays(_truncation_table(nvars, order, new_order, depth),
                               ref_truncation_table(nvars, order, new_order, depth))
        cases += 1
    for order in range(5):
        assert_same_arrays(_compose3_table(order), ref_compose3_table(order))
    for nvars, order, depth in itertools.product((1, 2, 3), range(1, 5), (1, 3, 16)):
        gather, weights, steps = _recurrence_table(nvars, order, depth)
        want_gather, want_frac, want_steps = ref_recurrence_table(nvars, order, depth)
        assert_same_arrays(gather, want_gather)
        assert list(weights) == [None, 0, -1]
        with pytest.raises(TypeError):  # the cache hands every caller one mapping
            weights[1] = want_frac
        for p, w in weights.items():
            assert_same_arrays(w, want_frac if p is None else want_frac * (p + 1) - 1)
        assert [len(s) for s in steps] == [len(s) for s in want_steps] == [order, order - 1]
        for got, want in zip(itertools.chain(*steps), itertools.chain(*want_steps)):
            assert_same_arrays(got[:2], want[:2])
            assert got[2:] == want[2:]
        cases += 1
    assert cases == 45 + 36


# --- stacked jets -------------------------------------------------------------

def assert_rows(stacked, rows):
    assert stacked.depth == len(rows)
    assert stacked.coeffs.shape == (len(rows),) + rows[0].coeffs.shape
    for r, row in enumerate(rows):
        assert stacked.coeffs[r].tobytes() == row.coeffs.tobytes(), r


def test_stacked_kernels_match_rows():
    rng = np.random.default_rng(11)
    cases = 0
    for nvars in (1, 2, 3):
        for order in range(6):
            for depth in (1, 2, 3, 4):
                A = [random_jet(rng, nvars, order) for _ in range(depth)]
                B = [random_jet(rng, nvars, order) for _ in range(depth)]
                c = random_jet(rng, nvars, order)
                SA, SB = Jet.stack(A), Jet.stack(B)
                assert SA.nvars == nvars and SA.order == order
                assert SA.value == tuple(a.value for a in A)
                checks = [
                    (SA * SB, [a * b for a, b in zip(A, B)]),
                    (c * SB, [c * b for b in B]),  # unstacked coefficient first
                    (SA * c, [a * c for a in A]),
                    (SA + SB, [a + b for a, b in zip(A, B)]),
                    (SA - SB, [a - b for a, b in zip(A, B)]),
                    (c - SB, [c - b for b in B]),
                    (SA + c, [a + c for a in A]),
                    (SA + 2.5, [a + 2.5 for a in A]),
                    (1 - SA, [1 - a for a in A]),
                    (-SA, [-a for a in A]),
                    (SA * (0.3 - 2j), [a * (0.3 - 2j) for a in A]),
                    (-1.5 * SA, [-1.5 * a for a in A]),
                    (SA / (0.3 - 2j), [a / (0.3 - 2j) for a in A]),
                ]
                checks += [(SA.derivative(v), [a.derivative(v) for a in A])
                           for v in range(nvars if order >= 1 else 0)]
                checks += [(SA.truncated(m), [a.truncated(m) for a in A])
                           for m in range(order + 1)]
                for stacked, rows in checks:
                    assert_rows(stacked, rows)
                    cases += 1
    assert cases == 1308


def test_stacks_across_points_match_rows():
    # a jet holds no point, so rows seeded at different points share a stack
    rng = random.Random(4)
    cases = 0
    for nvars in (1, 2, 3):
        for order in range(1, 5):
            for npoints in (2, 3):
                points = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(nvars)]
                          for _ in range(npoints)]
                rows = [[Jet.variable(i, at[i], nvars, order) for i in range(nvars)]
                        for at in points]
                x, y = [r[0] for r in rows], [r[-1] for r in rows]
                X, Y = Jet.stack(x), Jet.stack(y)
                f = [a * b - a + 0.5 for a, b in zip(x, y)]
                F = X * Y - X + 0.5
                checks = [(X * Y, [a * b for a, b in zip(x, y)]),
                          (X + Y, [a + b for a, b in zip(x, y)]),
                          (X - Y, [a - b for a, b in zip(x, y)]),
                          (F, f)]
                checks += [(F.derivative(v), [g.derivative(v) for g in f]) for v in range(nvars)]
                checks += [(F.truncated(m), [g.truncated(m) for g in f]) for m in range(order + 1)]
                for stacked, unstacked in checks:
                    assert_rows(stacked, unstacked)
                    cases += 1
    assert cases == 228


def test_stacked_shapes_must_agree():
    rng = np.random.default_rng(5)
    two = Jet.stack([random_jet(rng, 3, 2) for _ in range(2)])
    three = Jet.stack([random_jet(rng, 3, 2) for _ in range(3)])
    with pytest.raises(ShapeMismatch):
        two + three
    with pytest.raises(ShapeMismatch):
        two * three
    with pytest.raises(ShapeMismatch):
        two * random_jet(rng, 3, 3)
    with pytest.raises(ShapeMismatch):
        Jet.stack([random_jet(rng, 3, 2), random_jet(rng, 2, 2)])
    with pytest.raises(ShapeMismatch):
        Jet.stack([two])
    # five order-4 rows in 2 variables have the shape (5, 5, 5) of one
    # order-4 jet in 3 variables; the recorded depth tells them apart
    rows = Jet.stack([Jet(random_jet(rng, 2, 4).coeffs) for _ in range(5)])
    solo = Jet(random_jet(rng, 3, 4).coeffs)
    assert rows.coeffs.shape == solo.coeffs.shape
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ShapeMismatch):
            op(rows, solo)
        with pytest.raises(ShapeMismatch):
            op(solo, rows)


def test_unstacked_jets_keep_their_shape():
    jet = Jet.variable(1, 0.5, 3, 4)
    assert jet.depth == 0 and jet.coeffs.shape == (5, 5, 5)
    for out in (jet * jet, jet + 1, jet.derivative(0), jet.truncated(2)):
        assert out.depth == 0 and out.coeffs.ndim == 3


def test_kernel_errors_unchanged():
    jet = Jet.constant(1.0, 3, 0)
    with pytest.raises(OrderExceeded):
        jet.derivative(0)
    with pytest.raises(OrderExceeded):
        jet.truncated(1)


# --- stacked analytic functions --------------------------------------------------
# The analytic functions, reciprocal and compose_series take per-row constant
# terms and series, and a tuple of one scalar per row is an operand of
# + - * /; the unstacked kernel applied to each row is the reference.

def valid_jet(rng, nvars, order, value):
    """Random valid-slot coefficients with +-0.0 planted, and the given
    constant term."""
    c = random_jet(rng, nvars, order).truncated(order).coeffs.copy()
    c[(0,) * nvars] = value
    return Jet(c)


def row_value(rng):
    """A constant term off the branch cut, now and then with a signed zero part."""
    v = complex(rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0))
    return rng.choice([v, complex(v.real, -0.0), complex(v.real, 0.0),
                       complex(-0.0, abs(v.imag) + 0.1)])


def row_scalar(rng):
    return rng.choice([complex(rng.standard_normal(), rng.standard_normal()),
                       complex(-0.0, rng.standard_normal()), complex(rng.standard_normal(), -0.0),
                       complex(-0.0, -0.0), 0j, 2.5])


ROW_KERNELS = {
    "exp": Jet.exp,
    "log": Jet.log,
    "sqrt": Jet.sqrt,
    "reciprocal": Jet.reciprocal,
    "cpow fractional": lambda j: j.cpow(0.37 + 0.2j),
    "cpow -2": lambda j: j.cpow(-2),
    "cpow 3": lambda j: j.cpow(3),
    "scalar / jet": lambda j: (1.5 - 0.5j) / j,
}

DEPTHS = (1, 2, 5, 13)


def stacked_cases(seed):
    rng = np.random.default_rng(seed)
    for nvars in (1, 2, 3):
        for order in range(5):
            for depth in DEPTHS:
                yield rng, nvars, order, [valid_jet(rng, nvars, order, row_value(rng))
                                          for _ in range(depth)]


def test_stacked_analytic_functions_match_rows():
    cases = 0
    for _rng, _nvars, _order, rows in stacked_cases(41):
        stack = Jet.stack(rows)
        for name, kernel in ROW_KERNELS.items():
            assert_rows(kernel(stack), [kernel(row) for row in rows])
            cases += 1
    assert cases == 3 * 5 * len(DEPTHS) * len(ROW_KERNELS)


def test_compose_series_with_per_row_series_matches_rows():
    cases = 0
    for rng, _nvars, order, rows in stacked_cases(42):
        stack = Jet.stack(rows)
        series = [[row_scalar(rng) for _ in range(order + 2)] for _ in rows]
        per_row = [tuple(col) for col in zip(*series)]
        assert_rows(compose_series(per_row, stack - stack.value),
                    [compose_series(s, row - row.value) for s, row in zip(series, rows)])
        # row_series runs a scalar formula per row and transposes it
        formula = lambda a0, order: [a0 ** m / (m + 1) for m in range(order + 1)]
        assert row_series(formula, stack.value, order) == \
            [tuple(col) for col in zip(*(formula(row.value, order) for row in rows))]
        cases += 1
    assert cases == 3 * 5 * len(DEPTHS)


def test_per_row_scalars_match_rows():
    cases = 0
    for rng, nvars, order, rows in stacked_cases(43):
        stack = Jet.stack(rows)
        c = tuple(row_scalar(rng) for _ in rows)
        nonzero = tuple(row_value(rng) for _ in rows)
        solo = valid_jet(rng, nvars, order, row_value(rng))
        checks = [
            (stack + c, [row + v for row, v in zip(rows, c)]),
            (c + stack, [v + row for row, v in zip(rows, c)]),
            (stack - c, [row - v for row, v in zip(rows, c)]),
            (c - stack, [v - row for row, v in zip(rows, c)]),
            (stack * c, [row * v for row, v in zip(rows, c)]),
            (c * stack, [v * row for row, v in zip(rows, c)]),
            (stack / nonzero, [row / v for row, v in zip(rows, nonzero)]),
            (nonzero / stack, [v / row for row, v in zip(rows, nonzero)]),
            # an unstacked jet acts on every row of the tuple
            (solo + c, [solo + v for v in c]),
            (c - solo, [v - solo for v in c]),
            (solo * c, [solo * v for v in c]),
            (solo / nonzero, [solo / v for v in nonzero]),
            (Jet.constant(c, nvars, order), [Jet.constant(v, nvars, order) for v in c]),
            (Jet.variable(nvars - 1, c, nvars, order),
             [Jet.variable(nvars - 1, v, nvars, order) for v in c]),
        ]
        for stacked, unstacked in checks:
            assert_rows(stacked, unstacked)
            cases += 1
    assert cases == 3 * 5 * len(DEPTHS) * 14


def placed(dx, dy, dz):
    """Univariate inner jets of compose3 placed on their axes: the inner
    jets of the three-variable composition."""
    return on_axes(dx), on_axes(None, dy), on_axes(None, None, dz)


def test_stacked_compose3_matches_rows():
    # each row of the outer jet has its own zero coefficients, whose terms
    # that row skips: adding a zero term would turn a -0.0 constant term
    # into +0.0
    rng = np.random.default_rng(46)
    cases = 0
    for order in range(5):
        for depth in DEPTHS:
            outers = []
            for _ in range(depth):
                c = random_jet(rng, 3, order).truncated(order).coeffs.copy()
                c[rng.random(c.shape) < 0.4] = 0.0
                c[0, 0, 0] = rng.choice([complex(-0.0, -0.0), complex(-0.0, 1.5), 0.5 + 0j])
                outers.append(Jet(c))
            inner = [[valid_jet(rng, 1, order, rng.choice([0j, -0j])) for _ in outers]
                     for _ in range(3)]
            outer = Jet.stack(outers)
            rows = [compose3(o, *(rows[r] for rows in inner)) for r, o in enumerate(outers)]
            assert_rows(compose3(outer, *(Jet.stack(rows) for rows in inner)), rows)
            # each row is the three-variable composition's
            assert_rows(Jet.stack([ref_compose3(o, *placed(*(rows[r] for rows in inner)))
                                   for r, o in enumerate(outers)]), rows)
            # unstacked inner jets act on every row
            assert_rows(compose3(outer, *(rows[0] for rows in inner)),
                        [compose3(o, *(rows[0] for rows in inner)) for o in outers])
            cases += 1
    assert cases == 5 * len(DEPTHS)


SIGNED_ZEROS = (complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))


def test_compose3_keeps_the_signs_of_zero_constant_terms():
    # one live term of one, two or three powers on a constant term that is
    # a signed zero: the sign each zero product adds to it shows
    cases = 0
    for term in ((1, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1), (2, 0, 1)):
        for c in (-1 + 1j, 1 - 1j):
            for c0 in SIGNED_ZEROS:
                outer = np.zeros((4, 4, 4), dtype=complex)
                outer[0, 0, 0], outer[term] = c0, c
                for zeros in itertools.product(SIGNED_ZEROS, repeat=3):
                    inner = [Jet(np.array([z, 1.0, 0.5, 0.0], dtype=complex)) for z in zeros]
                    new = compose3(Jet(outer), *inner)
                    ref = ref_compose3(Jet(outer), *placed(*inner))
                    assert new.coeffs.tobytes() == ref.coeffs.tobytes(), (term, c, c0, zeros)
                    cases += 1
    assert cases == 5 * 2 * 4 * 64


def test_compose3_inner_jets_need_vanishing_constant_terms():
    outer = Jet(np.ones((3, 3, 3)) + 0j).truncated(2)
    h = Jet.variable(0, 0.0, 1, 2)
    for c in (1e-6, 1e-3j, -0.5):
        for args in ((h + c, h, h), (h, h + c, h), (h, h, h + c)):
            with pytest.raises(DomainError, match="composition requires vanishing constant term"):
                compose3(outer, *args)
    # a stack raises for the one row whose constant term does not vanish
    rows = Jet.stack([h, h + 1e-6, h])
    with pytest.raises(DomainError, match="composition requires vanishing constant term"):
        compose3(outer, h, rows, h)
    # compose_series' tolerance: a constant term within 1e-9 of zero passes
    compose3(outer, h + 1e-10, h, h)
    with pytest.raises(ShapeMismatch):  # inner jets in three variables
        compose3(outer, *placed(h, h, h))


# constant terms that make an unstacked kernel raise: a zero, a point of the
# branch cut, a tiny value and an overflowing exponential
BAD_VALUES = (0j, complex(-1.5, 0.0), complex(-0.0, 0.0), 1e-13 + 0j, 800 + 0j)


def test_a_bad_row_raises_what_the_row_raises():
    rng = random.Random(44)
    raised = set()
    for _rng, _nvars, _order, rows in stacked_cases(45):
        at = rng.randrange(len(rows))
        bad = rng.choice(BAD_VALUES)
        c = rows[at].coeffs.copy()
        c[(0,) * rows[at].nvars] = bad
        rows = rows[:at] + [Jet(c)] + rows[at + 1:]
        stack = Jet.stack(rows)
        for kernel in ROW_KERNELS.values():
            assert outcome(lambda: kernel(stack)) == outcome(
                lambda: Jet.stack([kernel(row) for row in rows]))
            raised.add(outcome(lambda: kernel(stack))[0])
        h = stack - stack.value
        assert outcome(lambda: compose_series([1.0, 2.0], h + 0.5)) == \
            outcome(lambda: compose_series([1.0, 2.0], rows[0] - rows[0].value + 0.5))
    assert {cls.__name__ for cls in raised if isinstance(cls, type)} >= {
        "DomainError", "BranchCutViolation", "DivisionBySingularJet", "OverflowError"}


def test_per_row_operands_must_fit_the_stack():
    stack = Jet.stack([Jet.variable(0, v, 1, 2) for v in (1.0, 2.0, 3.0)])
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ShapeMismatch):
            op(stack, (1.0, 2.0))
        with pytest.raises(ShapeMismatch):
            op(stack, ())
    with pytest.raises(ShapeMismatch):
        Jet.constant((), 1, 2)
    with pytest.raises(ShapeMismatch):
        Jet.variable(0, 1.0, 1, 2).rows()
    assert [row.value for row in stack.rows()] == [1.0, 2.0, 3.0]


# --- power series -------------------------------------------------------------
# compose_series, compose3 and the integer powers start their powers from
# the operand; the references start from a unit jet and spend one table
# multiply on 1 * h.  That multiply turns a -0.0 coefficient into +0.0, so
# the two agree in value (==), not in the sign of zeros.  exp, log, the
# other powers and the reciprocal are degree recurrences; their reference
# sums each coefficient one term at a time, and must agree bit for bit.
# The series kernels they replace are kept as references of value.

def row_series(formula, value, order, *args):
    """formula(a0, order, *args), a list of univariate series coefficients
    at the constant term a0: for one constant term that list, for a tuple of
    one per row the list of per-row tuples, term by term, that
    `compose_series` takes.  Each row runs the scalar formula on its own
    value, and a formula that raises raises for the first such row."""
    if type(value) is not tuple:
        return formula(value, order, *args)
    return list(zip(*(formula(a0, order, *args) for a0 in value)))


def exp_series(a0, order):
    e0 = cmath.exp(a0)
    return [e0 / math.factorial(m) for m in range(order + 1)]


def log_series(a0, order):
    series = [cmath.log(a0)]
    for m in range(1, order + 1):
        series.append((-1) ** (m + 1) / (m * a0 ** m))
    return series


def pow_series(a0, order, p):
    # binomial series: a0^p * prod_{j<m}(p-j)/m! * h^m / a0^m
    lead = cmath.exp(p * cmath.log(a0))
    series = [lead]
    coef = lead
    for m in range(1, order + 1):
        coef = coef * (p - (m - 1)) / m / a0
        series.append(coef)
    return series


def series_exp(jet):
    """The series kernels the recurrences replace: each row's univariate
    series composed with the jet less its constant term, the powers
    started from the operand.  They run no domain check."""
    return compose_series(row_series(exp_series, jet.value, jet.order), jet - jet.value)


def series_log(jet):
    return compose_series(row_series(log_series, jet.value, jet.order), jet - jet.value)


def series_cpow(jet, p):
    return compose_series(row_series(pow_series, jet.value, jet.order, p), jet - jet.value)


def series_reciprocal(jet):
    """1/jet as the alternating series 1 - r + r^2 - ... in r = (jet - a0)/a0."""
    b0 = jet.value
    if not jet.order:
        return Jet.constant(1.0, jet.nvars, 0) / b0
    term = r = (jet - b0) / b0
    acc = 1.0 - r
    for m in range(1, jet.order):
        term = term * r
        acc = acc - term if m % 2 == 0 else acc + term
    return acc / b0


def ref_compose_series(series, inner):
    acc = Jet.constant(series[0], inner.nvars, inner.order)
    power = Jet.constant(1.0, inner.nvars, inner.order)
    for m in range(1, min(len(series), inner.order + 1)):
        power = power * inner
        acc = acc + series[m] * power
    return acc


def ref_recurrence(jet, kind, p=None):
    """exp, log, jet^p or 1/jet (kind "exp", "log", "pow", "reciprocal"),
    one coefficient at a time: per row, per degree k, per target index t of
    degree k, the sum from +0 (plus a_t for log) of the terms (a_s w) b_{t-s}
    over the indices s <= t of degree >= 1 in `valid_indices` order, a the
    row (exp) or the row over its constant term, w = |s|/k (exp) or
    (p + 1)|s|/k - 1 (p = 0 for log, -1 for the reciprocal); log leaves out
    s = t.  The terms are array products, as the kernel's are: numpy's
    complex multiply loop may fuse a multiply and an add, which its scalar
    multiply does not."""
    p = {"log": 0, "reciprocal": -1}.get(kind, p)
    n, order = jet.nvars, jet.order
    shape = (order + 1,) * n
    flat = lambda idx: np.ravel_multi_index(idx, shape)
    out = []
    for row in (jet.coeffs.reshape((-1,) + shape) if jet.depth else [jet.coeffs]):
        a0 = complex(row[(0,) * n])
        b = np.zeros(shape, dtype=complex)
        b[(0,) * n] = {"exp": lambda: cmath.exp(a0), "log": lambda: cmath.log(a0),
                       "pow": lambda: cmath.exp(p * cmath.log(a0)),
                       "reciprocal": lambda: 1 / a0}[kind]()
        a = (row if kind == "exp" else row / row[(0,) * n]).ravel()
        for k in range(1, order + 1):
            for t in valid_indices(n, order):
                if sum(t) != k:
                    continue
                s_, rest = [], []
                for i in valid_indices(n, order):
                    r = tuple(x - y for x, y in zip(t, i))
                    if sum(i) and min(r) >= 0 and (kind != "log" or sum(r)):
                        s_.append(flat(i))
                        rest.append(flat(r))
                frac = np.array([sum(np.unravel_index(i, shape)) / k for i in s_])
                w = frac if kind == "exp" else frac * (p + 1) - 1
                terms = (a[np.array(s_, dtype=np.intp)] * w) * b.ravel()[np.array(rest, dtype=np.intp)]
                acc = np.complex128(0.0)
                if kind == "log":
                    acc = acc + a[flat(t)]
                for term in terms:
                    acc = acc + term
                b[t] = acc
        out.append(b)
    return Jet(np.stack(out), depth=jet.depth) if jet.depth else Jet(out[0])


def ref_integer_power(jet, n):
    acc = Jet.constant(1.0, jet.nvars, jet.order)
    for _ in range(abs(n)):
        acc = acc * jet
    return acc.reciprocal() if n < 0 else acc  # the reciprocal's reference: ref_recurrence


def series_cases():
    """Random jets with valid slots only (the kernels keep the others zero)
    and a constant term off the branch cut."""
    rng = np.random.default_rng(99)
    for nvars, order, jet in kernel_cases():
        c = jet.truncated(order).coeffs.copy()
        c[(0,) * nvars] = 1.5 + 0.5j
        yield Jet(c), rng.standard_normal(order + 2) + 0j


def unit_start_compose3(outer, dx, dy, dz):
    nv, order = dx.nvars, dx.order
    xp = [Jet.constant(1.0, nv, order)]
    yp = [Jet.constant(1.0, nv, order)]
    zp = [Jet.constant(1.0, nv, order)]
    for _ in range(outer.order):
        xp.append(xp[-1] * dx)
        yp.append(yp[-1] * dy)
        zp.append(zp[-1] * dz)
    acc = Jet.constant(0.0, nv, order)
    for (i, j, k) in valid_indices(3, outer.order):
        c = outer.coeffs[i, j, k]
        if c != 0:
            acc = acc + c * (xp[i] * yp[j] * zp[k])
    return acc


def ref_compose3(outer, dx, dy, dz):
    """The general three-variable composition that the per-axis compose3
    replaces: inner jets in (z, zbar, t), powers started from the operand,
    each term a product of its non-trivial powers, and a term whose outer
    coefficient is zero (row by row) skipped."""
    powers = []
    for d in (dx, dy, dz):
        p = [None, d]
        for _ in range(2, outer.order + 1):
            p.append(p[-1] * d)
        powers.append(p)
    acc = Jet.constant(outer.value, dx.nvars, dx.order)
    rows = (slice(None),) if outer.depth else ()
    for idx in valid_indices(3, outer.order)[1:]:
        c = outer.coeffs[rows + idx]
        live = c != 0
        if live.any() if outer.depth else live:
            term = None
            for p, m in zip(powers, idx):
                if m:
                    term = p[m] if term is None else term * p[m]
            if not outer.depth:
                acc = acc + c * term
                continue
            new = acc + term * tuple(c.tolist())
            if not live.all():
                new = acc._like(np.where(live.reshape((-1,) + (1,) * acc.nvars),
                                         new.coeffs, acc.coeffs))
            acc = new
    return acc


def compose3_cases():
    """An outer jet in 3 variables with valid slots only, some of them zero,
    and three univariate inner jets of the case's order with zero constant
    terms (the first the case's jet less its value, where it is univariate)."""
    rng = np.random.default_rng(123)
    for jet, _series in series_cases():
        outer = random_jet(rng, 3, jet.order).truncated(jet.order).coeffs.copy()
        outer[rng.random(outer.shape) < 0.2] = 0.0
        inner = [jet - jet.value] if jet.nvars == 1 else []
        while len(inner) < 3:
            c = random_jet(rng, 1, jet.order).truncated(jet.order).coeffs.copy()
            c[0] = 0.0
            inner.append(Jet(c))
        yield Jet(outer), inner


def test_series_kernels_match_unit_start_values():
    for jet, series in series_cases():
        h = jet - jet.value
        pairs = [(compose_series(list(series), h), ref_compose_series(list(series), h))]
        pairs += [(jet.cpow(n), ref_integer_power(jet, n)) for n in (-2, -1, 0, 1, 2, 3)]
        for new, ref in pairs:
            assert new.coeffs.shape == ref.coeffs.shape
            assert np.array_equal(new.coeffs, ref.coeffs)
    cases = 0
    for outer, inner in compose3_cases():
        new = compose3(outer, *inner)
        ref = ref_compose3(outer, *placed(*inner))
        assert new.coeffs.shape == ref.coeffs.shape
        assert new.coeffs.tobytes() == ref.coeffs.tobytes()
        assert np.array_equal(new.coeffs, unit_start_compose3(outer, *placed(*inner)).coeffs)
        cases += 1
    assert cases == 720


def test_series_kernels_multiply_no_unit_jet(monkeypatch):
    units = [Jet.constant(1.0, nvars, 4).coeffs for nvars in (1, 3)]
    products = []  # per jet-by-jet product: whether an operand is a unit jet
    mul = Jet.__mul__

    def counted(self, other):
        if isinstance(other, Jet):
            products.append(any(np.array_equal(j.coeffs, unit)
                                for j in (self, other) for unit in units))
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    jet = Jet.variable(0, 1.5 + 0.5j, 3, 4)
    # the degree recurrences multiply no jets; cpow(4)'s powers jet^2,
    # jet^3 and jet^4 cost one product each
    for kernel in (Jet.exp, Jet.log, Jet.sqrt, Jet.reciprocal):
        products.clear()
        kernel(jet)
        assert products == [], kernel
    products.clear()
    jet.cpow(4)
    assert len(products) == 3 and not any(products)
    inner = [s - s.value for s in (Jet.variable(0, 0.5 + 0.1j * i, 1, 4) for i in range(3))]
    outer = Jet(np.where(_ref_overflow_mask(3, 4), 0.0, 1.0 + 0.5j))  # all 35 slots
    products.clear()
    compose3(outer, *inner)
    # powers 2..4 of each univariate inner jet: 9 products, and the 34
    # terms are gathered from them, against 35 products in three variables
    # when a term with two or three powers multiplies them, and 82 when
    # every power and term starts from a unit jet
    assert len(products) == 9 and not any(products)
    products.clear()
    ref_compose3(outer, *placed(*inner))
    assert len(products) == 35 and not any(products)


#: the degree recurrences, as (kernel, `ref_recurrence` kind, exponent)
RECURRENCES = {
    "exp": (Jet.exp, "exp", None),
    "log": (Jet.log, "log", None),
    "sqrt": (Jet.sqrt, "pow", 0.5),
    "cpow 1/3": (lambda j: j.cpow(1 / 3), "pow", 1 / 3),
    "cpow -0.5+0.2i": (lambda j: j.cpow(-0.5 + 0.2j), "pow", -0.5 + 0.2j),
    "reciprocal": (Jet.reciprocal, "reciprocal", None),
}


def test_recurrences_match_one_term_at_a_time():
    # random jets with +-0.0 planted, unstacked and as 3 rows
    rng = np.random.default_rng(47)
    cases = 0
    for nvars, order, depth in itertools.product((1, 2, 3), range(5), (0, 3)):
        rows = [valid_jet(rng, nvars, order, row_value(rng)) for _ in range(depth or 1)]
        jet = Jet.stack(rows) if depth else rows[0]
        for name, (kernel, kind, p) in RECURRENCES.items():
            new, ref = kernel(jet), ref_recurrence(jet, kind, p)
            assert (new.depth, new.coeffs.shape) == (ref.depth, ref.coeffs.shape)
            assert new.coeffs.tobytes() == ref.coeffs.tobytes(), (name, nvars, order, depth)
            cases += 1
    assert cases == 3 * 5 * 2 * len(RECURRENCES)


#: the bound on a recurrence's distance from the series kernel it replaces,
#: in units of EPS times the larger of 1 and the largest coefficient (5.0
#: seen, for cpow(-0.5 + 0.2i))
SERIES_ROUNDOFFS = 16


def test_recurrences_match_the_series_kernels_they_replace():
    old = {"exp": series_exp, "log": series_log, "reciprocal": series_reciprocal}
    cases = 0
    for jet, _series in series_cases():
        for name, (kernel, kind, p) in RECURRENCES.items():
            want = (old[name] if name in old else lambda j: series_cpow(j, p))(jet).coeffs
            scale = max(1.0, np.abs(want).max())
            assert np.abs(kernel(jet).coeffs - want).max() <= SERIES_ROUNDOFFS * EPS * scale, name
            cases += 1
    assert cases == 720 * len(RECURRENCES)


# --- scalar operands -----------------------------------------------------------
# jet + c, c + jet, jet - c and c - jet no longer lift c to a constant jet;
# the lifted forms are the references.

def lifted(c, jet):
    return Jet.constant(complex(c), jet.nvars, jet.order)


SCALARS = (2.5, -0.0, 0.0, complex(-0.0, -0.0), complex(1.5, -0.0), -3,
           np.float64(-0.0), np.complex128(0.25 - 1j))


def test_scalar_operands_match_lifted_constants():
    rng = np.random.default_rng(3)
    cases = 0
    for nvars in (1, 2, 3):
        for order in range(6):
            for depth in (0, 1, 3):
                for _ in range(3):
                    rows = [random_jet(rng, nvars, order) for _ in range(depth or 1)]
                    jet = Jet.stack(rows) if depth else rows[0]
                    for c in SCALARS:
                        pairs = [(jet + c, jet + lifted(c, jet)), (c + jet, lifted(c, jet) + jet),
                                 (jet - c, jet - lifted(c, jet)), (c - jet, lifted(c, jet) - jet)]
                        for new, ref in pairs:
                            assert (new.depth, new.nvars, new.order) == \
                                (ref.depth, ref.nvars, ref.order)
                            assert new.coeffs.shape == ref.coeffs.shape
                            assert new.coeffs.tobytes() == ref.coeffs.tobytes(), (nvars, order, depth, c)
                            cases += 1
    assert cases == 5184


# --- expression evaluation --------------------------------------------------------
# `evaluate` runs a compiled expression whose variable-free subtrees, and
# whose values on recent one-variable seeds, the Expr remembers; the tree
# walk it replaced is the reference.

def ref_eval_node(node, env, template):
    if isinstance(node, ex.Const):
        return Jet.constant(node.value, template.nvars, template.order)
    if isinstance(node, ex.Var):
        return env[node.name]
    if isinstance(node, ex.Neg):
        return -ref_eval_node(node.x, env, template)
    if isinstance(node, ex.Add):
        return ref_eval_node(node.a, env, template) + ref_eval_node(node.b, env, template)
    if isinstance(node, ex.Sub):
        return ref_eval_node(node.a, env, template) - ref_eval_node(node.b, env, template)
    if isinstance(node, ex.Mul):
        return ref_eval_node(node.a, env, template) * ref_eval_node(node.b, env, template)
    if isinstance(node, ex.Div):
        return ref_eval_node(node.a, env, template) / ref_eval_node(node.b, env, template)
    if isinstance(node, ex.Pow):
        base = ref_eval_node(node.base, env, template)
        if isinstance(node.exponent, ex.Const):
            return base.cpow(node.exponent.value)
        if isinstance(node.exponent, ex.Neg) and isinstance(node.exponent.x, ex.Const):
            return base.cpow(-node.exponent.x.value)
        exponent = ref_eval_node(node.exponent, env, template)
        return (exponent * base.log()).exp()
    if isinstance(node, ex.Call):
        arg = ref_eval_node(node.arg, env, template)
        return {"exp": Jet.exp, "ln": Jet.log, "sqrt": Jet.sqrt}[node.fn](arg)
    raise TypeError(node)


def ref_evaluate(e, env):
    return ref_eval_node(e.root, env, next(iter(env.values())))


def random_text(rng, names, depth=3):
    """Random expression text over `names`: numbers (zeros included),
    i, pi, the four operations, negation, constant and variable powers and
    the three functions."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(list(names) * 3 + ["2", "0", "0.5", "1.5e-1", "i", "pi"])
    a = random_text(rng, names, depth - 1)
    kind = rng.randrange(7)
    if kind < 4:
        b = random_text(rng, names, depth - 1)
        return f"({a} {'+-*/'[kind]} {b})"
    if kind == 4:
        return f"-({a})"
    if kind == 5:
        exponent = rng.choice(["2", "3", "-1", "-2", "0.5", "(1 + i)", "(2 * " + names[0] + ")"])
        return f"({a})^{exponent}"
    return f"{rng.choice(['exp', 'ln', 'sqrt'])}({a} + 2)"


def outcome(fn):
    """A result's depth, shape and bytes, or the exception it raised."""
    try:
        jet = fn()
    except Exception as err:  # both sides must raise the same error
        return type(err), str(err)
    return jet.depth, jet.coeffs.shape, jet.coeffs.tobytes()


# repeated seed values, == pairs among them that differ in a zero's sign
SEED_POOL = (complex(1.2, 0.0), complex(1.2, -0.0), complex(-0.0, 0.7), complex(0.0, 0.7),
             0.3 + 0.4j, -1.1 - 0.2j)


def test_expression_evaluation_matches_tree_walk():
    rng = random.Random(8)

    def draw():
        nvars = rng.randrange(1, 4)
        return rng.choice(SEED_POOL), nvars, rng.randrange(nvars), rng.randrange(5)

    cases = 0
    for _ in range(60):
        e = ex.parse(random_text(rng, ("z",)), ("z",))
        pool = [draw() for _ in range(4)]  # repeated seeds; every third one is fresh
        for k in range(30):
            at, nvars, var, order = rng.choice(pool) if k % 3 else draw()
            seed = Jet.variable(var, at, nvars, order)
            if nvars == 1:  # eval_jet1
                new = outcome(lambda: ex.eval_jet1(e, at, order))
            else:  # one variable of a multivariable seed
                new = outcome(lambda: ex.evaluate(e, {"z": seed}))
            ref = outcome(lambda: ref_evaluate(e, {"z": seed}))
            assert new == ref, (str(e), at, nvars, var, order)
            cases += 1
    assert cases == 1800


def test_multivariable_evaluation_matches_tree_walk():
    rng = random.Random(9)
    cases = 0
    for _ in range(60):
        e = ex.parse(random_text(rng, ("z", "w")), ("z", "w"))
        for k in range(10):
            at = [rng.choice(SEED_POOL) for _ in range(2)]
            order = rng.randrange(5)
            env = {name: Jet.variable(i, at[i], 2, order) for i, name in enumerate("zw")}
            if k % 2:  # stacked seeds: constant subtrees stay unstacked jets
                env = {name: Jet.stack([jet, jet]) for name, jet in env.items()}
            assert outcome(lambda: ex.evaluate(e, env)) == outcome(lambda: ref_evaluate(e, env))
            cases += 1
    assert cases == 600


def test_remembered_jets_come_back_whole(monkeypatch):
    # a variable-free subtree, whole or inside a product, is handed back
    # itself on any seed of the same (nvars, order)
    e = ex.parse("(0.5 + -0.3*i)*z^2 + z", ("z",))
    assert not ex.eval_jet1(e, 0.5 + 0.5j, 2).coeffs.flags.writeable
    constant = ex.parse("exp(1 + i)", ("z",))
    jets = [ex.evaluate(constant, {"z": Jet.variable(0, at, 1, 3)}) for at in (1 + 0j, 2 + 0j)]
    assert jets[0] is jets[1] and not jets[0].coeffs.flags.writeable
    assert ex.evaluate(constant, {"z": Jet.variable(0, 1 + 0j, 1, 2)}) is not jets[0]
    factors = []
    mul = Jet.__mul__
    monkeypatch.setattr(Jet, "__mul__", lambda a, b: factors.append(a) or mul(a, b))
    for at in (0.1 + 0j, 0.2 + 0j):
        ex.eval_jet1(e, at, 2)
    c1, c2 = [a for a in factors if a.value == 0.5 - 0.3j]  # (0.5 + -0.3*i)
    assert c2 is c1 and not c1.coeffs.flags.writeable
    # an evaluation that raises is not remembered and raises again
    pole = ex.parse("z + 1/(1 - 1)", ("z",))
    for _ in range(2):
        with pytest.raises(DivisionBySingularJet):
            ex.evaluate(pole, {"z": Jet.variable(0, 1 + 0j, 1, 3)})


def test_raising_evaluation_raises_again():
    # a pole, a branch point and a variable-free subtree that raises
    for text, at in (("1/(z - 2)", 2.0 + 0j), ("ln(z - 1)", 1.0 + 0j),
                     ("z + ln(1 - 1)", 0.5 + 0j)):
        e = ex.parse(text, ("z",))
        with pytest.raises(Exception) as expected:
            ref_evaluate(e, {"z": Jet.variable(0, at, 1, 2)})
        for _ in range(3):
            with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
                ex.eval_jet1(e, at, 2)


def test_constants_equal_under_eq_never_share_an_entry():
    # 2+0j == 2-0j, so Exprs built on them are == and hash alike; with
    # seeds at -0.0 imaginary parts the sign shows in the result's bits
    z = ex.Var("z")
    plus, minus = complex(2.0, 0.0), complex(2.0, -0.0)
    exprs = [ex.Expr(ex.Add(z, ex.Const(c)), ("z",)) for c in (plus, minus)]
    exprs += [ex.Expr(ex.Const(c), ("z",)) for c in (plus, minus)]
    assert exprs[0] == exprs[1] and exprs[2] == exprs[3]
    seen = set()
    for _ in range(2):
        for e in exprs:
            for at in (complex(1.0, -0.0), complex(1.0, 0.0)):
                new = ex.eval_jet1(e, at, 2)
                ref = ref_evaluate(e, {"z": Jet.variable(0, at, 1, 2)})
                assert new.coeffs.tobytes() == ref.coeffs.tobytes(), (e, at)
                seen.add(new.coeffs.tobytes())
    assert len(seen) == 4


def closure_dicts(fn, seen=None):
    """Every dict reachable from fn's closure cells, through nested
    functions and the dicts' values."""
    seen = set() if seen is None else seen
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, dict):
            found.append(value)
        elif callable(value) and hasattr(value, "__closure__"):
            found += closure_dicts(value, seen)
    return found


def test_an_expression_keeps_nothing_per_point():
    # after many points, an Expr holds its tree, its variables and its
    # compiled evaluator, whose only stores are the variable-free
    # subtrees' jets under (nvars, order)
    e = ex.parse("(0.5 + -0.3*i)*z^2 + exp(1 + i)", ("z",))
    for k in range(1000):
        ex.eval_jet1(e, complex(k, 1), 2)
    assert set(vars(e)) == {"root", "variables", "_run"}
    stores = closure_dicts(e._run)
    assert len(stores) == 2 and [list(d) for d in stores] == [[(1, 2)]] * 2


# --- field builders ---------------------------------------------------------------
# A family builds each piece that depends on one variable (b(z), c(z) and
# c'(z), a(z), A(z), phi(z) and phi'(z), their zbar partners, the
# polynomials in t and their logarithms) as a univariate jet and places it
# on its axis where it meets a piece in another variable; the pushforward
# composes with univariate inner jets.  The three-variable builders they
# replace are the references: every u-jet must agree bit for bit, and a
# point that raises must raise the same error with the same message.

def ref_seeds(z0, zb0, t0, order):
    return (Jet.variable(0, z0, 3, order), Jet.variable(1, zb0, 3, order),
            Jet.variable(2, t0, 3, order))


def ref_expr_at(e, seed):
    """Holomorphic expression of one variable on a seed jet from `ref_seeds`."""
    return ex.evaluate(e, {e.variables[0]: seed})


def ref_derivative_series(z0, order, e):
    uni = ex.eval_jet1(e, z0, order + 1)
    return [(k + 1) * uni.coefficient((k + 1,)) for k in range(order + 1)]


def ref_expr_deriv_at(e, seed):
    """Jet of e' on a seed jet: its Taylor series at each row's point,
    composed with the seed less its value."""
    z0 = seed.value
    return compose_series(row_series(ref_derivative_series, z0, seed.order, e), seed - z0)


def ref_two_logs(b, bbar, Z, Zb, T):
    tb = T + ref_expr_at(b, Z)
    tbb = T + ref_expr_at(bbar, Zb)
    fields._check_nonzero(tb, "t + b(z)")
    fields._check_nonzero(tbb, "t + bbar(zbar)")
    return fields._ln(tb, "t + b(z)") + fields._ln(tbb, "t + bbar(zbar)")


def ref_conformal_log(kappa, Z, Zb):
    arg, what = (Z + Zb, "z + zbar") if kappa == 1 else (Z * Zb + 1.0, "z*zbar + 1")
    fields._check_nonzero(arg, what)
    return fields._ln(arg, what)


def ref_liouville_gamma(c, cbar, kappa, Z, Zb, name):
    ln, negated, negative_real = fields._ln, fields._negated, fields._negative_real
    cj, cbj = ref_expr_at(c, Z), ref_expr_at(cbar, Zb)
    cd, cbd = ref_expr_deriv_at(c, Z), ref_expr_deriv_at(cbar, Zb)
    if kappa == 1:
        denom = cj + cbj
        fields._check_nonzero(denom, f"{name}(z) + {name}bar(zbar)")
    else:
        denom = cj * cbj + 1.0
        fields._check_nonzero(denom, f"{name}(z)*{name}bar(zbar) + 1")
    try:
        return ln(cd, f"{name}'") + ln(cbd, f"{name}bar'") - 2.0 * ln(denom, "Liouville denominator")
    except DomainError:
        both = [negative_real(v) and negative_real(vb)
                for v, vb in zip(row_values(cd.value), row_values(cbd.value))]
        below = [negative_real(v) for v in row_values(denom.value)]
        if not (any(both) or any(below)):
            raise
    return (ln(negated(cd, both), f"{name}'") + ln(negated(cbd, both), f"{name}bar'")
            - 2.0 * ln(negated(denom, below), "Liouville denominator"))


def ref_builder(fld):
    """The three-variable builder (z0, zb0, t0, order) -> u-jet of a field
    from `make_solution` or `conformal_pushforward`."""
    params, kappa, ln, bar = fld.params, fld.kappa, fields._ln, ex.conjugate
    if fld.family == "pushforward":
        inner, phi = ref_builder(params["inner"]), params["phi"]
        phibar = bar(phi)

        def build(z0, zb0, t0, order):
            Z, Zb, T = ref_seeds(z0, zb0, t0, order)
            pj, pbj = ref_expr_at(phi, Z), ref_expr_at(phibar, Zb)
            pd, pbd = ref_expr_deriv_at(phi, Z), ref_expr_deriv_at(phibar, Zb)
            fields._check_map(Z.value, pd)
            w0, wb0 = pj.value, pbj.value
            composed = ref_compose3(inner(w0, wb0, t0, order), pj - w0, pbj - wb0, T - T.value)
            try:
                return composed + ln(pd, "phi'") + ln(pbd, "phibar'")
            except DomainError:  # ln(phi' phibar') is real where both are negative real
                both = [fields._negative_real(v) and fields._negative_real(vb)
                        for v, vb in zip(row_values(pd.value), row_values(pbd.value))]
                if not any(both):
                    raise
            negated = fields._negated
            return composed + ln(negated(pd, both), "phi'") + ln(negated(pbd, both), "phibar'")

        return build

    def build(z0, zb0, t0, order):
        Z, Zb, T = ref_seeds(z0, zb0, t0, order)
        if fld.family == "f0":
            arg = T * T + params["C"]
            for v in row_values(arg.value):
                if v.real <= 0:
                    raise DomainError("t^2 + C must be positive")
            return ln(arg, "t^2 + C") - 2.0 * ref_conformal_log(kappa, Z, Zb)
        if fld.family == "f0general":
            l, a = params["l"], params["a"]
            alpha = ln(l * T * T + params["C1"] * T + params["C2"], "l*t^2 + C1*t + C2")
            return alpha + (ref_liouville_gamma(a, bar(a), kappa, Z, Zb, "a") - math.log(l))
        if fld.family == "noninv":
            b = params["b"]
            return ref_two_logs(b, bar(b), Z, Zb, T) - 2.0 * ref_conformal_log(kappa, Z, Zb)
        if fld.family == "general_noninv":
            b, c = params["b"], params["c"]
            return (ref_two_logs(b, bar(b), Z, Zb, T)
                    + ref_liouville_gamma(c, bar(c), kappa, Z, Zb, "c"))
        if fld.family == "confinv":
            f, A, a = params["f"], params["A"], params["a"]
            xi = 1j * (ref_expr_at(A, Z) - ref_expr_at(bar(A), Zb))
            fj = ex.evaluate(f, {"xi": xi, "t": T})
            aj, abj = ref_expr_at(a, Z), ref_expr_at(bar(a), Zb)
            fields._check_nonzero(aj, "a(z)")
            fields._check_nonzero(abj, "abar(zbar)")
            return ln(fj, "f(xi, t)") - ln(aj, "a(z)") - ln(abj, "abar(zbar)")
        return ref_liouville_gamma(params["c"], bar(params["c"]), kappa, Z, Zb, "c")

    return build


def z_expr(text):
    return ex.parse(text, ("z",))


#: fields beyond grid-suite's: the README's orbit, the CLI's real-branch
#: orbits (a' = 2z, c + cbar and c' negative real on parts of the grid),
#: Liouville parameters whose c' is negative real with signed zero parts,
#: and a pole, a critical point of phi and a constant b
EXTRA_FIELDS = (
    ("readme orbit", "f0", {"C": 1.0}, "2*z"),
    ("f0general orbit", "f0general", {"l": 1.0, "C1": 0.5, "C2": 1.0, "a": "z^2 + 1"}, "2*z"),
    ("general_noninv orbit", "general_noninv", {"b": "z^2", "c": "z^2"}, "z^2/2 + z"),
    ("liouville z^2", "liouville", {"c": "z^2"}, None),
    ("liouville -z", "liouville", {"c": "-z"}, None),
    ("liouville -z - (1+i)z^2/2", "liouville", {"c": "-z - (1+i)*z^2/2"}, None),
    ("liouville -exp(z) pushed by i*z", "liouville", {"c": "-exp(z)"}, "i*z"),
    ("noninv pole", "noninv", {"b": "1/(z - 1) - 2.5"}, None),
    ("noninv pushed by z^2", "noninv", {"b": "z^2 + i"}, "z^2"),
    ("noninv constant b", "noninv", {"b": "2"}, "z^2/2 + z"),
    ("confinv", "confinv", {"f": "exp(-xi)*(t^2 + 1)", "A": "ln(z) + z", "a": "1/(1 + 1/z)"}, None),
)


def builder_cases():
    for kappa in (1, -1):
        for family, *_ in FAMILIES:
            yield pytest.param(lambda family=family, kappa=kappa: build(family, kappa),
                               id=f"{family}-{kappa}")
        for name, family, params, phi in EXTRA_FIELDS:
            def field(family=family, params=params, phi=phi, kappa=kappa):
                fld = fields.make_solution(family, {
                    k: (ex.parse(v, ("xi", "t") if k == "f" else ("z",)) if isinstance(v, str) else v)
                    for k, v in params.items()}, kappa)
                return fields.conformal_pushforward(fld, z_expr(phi)) if phi else fld
            yield pytest.param(field, id=f"{name}-{kappa}")


def builder_points(kappa):
    """grid-suite's points, 16 in all with points outside some domains: the
    images under z -> -z, real z of both signs and signed zero parts (the
    real-branch rows of the Liouville logarithm), the critical point z = 0
    of z^2, the pole z = 1 and t = -0.0."""
    pts = grid_suite_points(kappa) + [
        Point(1.0, -1.5 + 0j), Point(1.0, complex(-0.7, -0.0)), Point(-0.0, complex(0.9, 0.0)),
        Point(1.0, 0.3 + 1.2j), Point(0.8, 0j), Point(1.1, 1 + 0j), Point(1.0, -0.4 - 1.1j),
        Point(0.6, complex(-0.0, 0.5))]
    return pts[:PASS_POINTS]


@pytest.mark.parametrize("make", builder_cases())
def test_field_builders_match_three_variable_builders(make):
    fld = make()
    ref = ref_builder(fld)
    pts = builder_points(fld.kappa)
    assert len(pts) == PASS_POINTS
    on_slice = lambda p: (p.z, p.z.conjugate(), p.t)
    raised = built = 0
    for order in range(5):  # order 4 too, past MAX_ORDER
        good = []
        for p in pts:
            for at in (on_slice(p), (p.z, 0.7 * p.z + 0.1, p.t)):  # and one point off the slice
                got = outcome(lambda: fld.jet_at(*at, order))
                assert got == outcome(lambda: ref(*at, order)), (p, at, order)
                raised += type(got[0]) is type
                built += type(got[0]) is not type
            if type(outcome(lambda: fld.jet_at(*on_slice(p), order))[0]) is not type:
                good.append(p)
        # one stacked pass over all points (it raises where some point
        # raises), and one over the points that build
        for chunk in (pts, good):
            if chunk:
                stacked = tuple(zip(*map(on_slice, chunk)))
                assert outcome(lambda: stacked_build(fld, chunk, order)) == \
                    outcome(lambda: ref(*stacked, order)), (chunk, order)
    assert built


def test_field_builders_cover_the_liouville_real_branch(monkeypatch):
    # the builders compared above take the real branch of ln c' and of the
    # denominator, and raise where the domain ends
    rows = []
    negated = fields._negated
    monkeypatch.setattr(fields, "_negated", lambda j, flags: rows.append(any(flags)) or
                        negated(j, flags))
    for case in builder_cases():
        fld = case.values[0]()
        for p in builder_points(fld.kappa):
            try:
                fld.jet_at(p.z, p.z.conjugate(), p.t, 2)
            except HeavenlyError:
                pass
    assert any(rows)


#: jets a fresh order-MAX_ORDER (3) build makes per grid-suite field and
#: kappa, and at the three-variable builders: a piece costs at most one
#: scatter more; on the slice the two-logarithm families build no jet of
#: bbar and one transposed conjugate of ln(t + b(z))
FRESH_BUILD_JETS = {
    # family: ((kappa = +1, kappa = -1), three-variable builders, pieces)
    "f0": ((11, 12), (10, 11), 1),
    "f0general": ((29, 32), (48, 49), 4),
    "noninv": ((14, 15), (17, 18), 2),
    "general_noninv": ((26, 29), (45, 46), 6),
    "confinv": ((20, 20), (17, 17), 4),
    "liouville": ((17, 20), (34, 35), 4),
    "pushforward": ((45, 46), (111, 112), 8),
}


@pytest.mark.parametrize("family", list(FRESH_BUILD_JETS))
def test_fresh_build_jet_counts(monkeypatch, family):
    counts, parent, pieces = FRESH_BUILD_JETS[family]
    built = []
    post_init = Jet.__post_init__
    monkeypatch.setattr(Jet, "__post_init__", lambda self: built.append(1) or post_init(self))
    for kappa, want, before in zip((1, -1), counts, parent):
        fld = build(family, kappa)
        for p in grid_suite_points(kappa)[:2]:  # the first compiles the expressions
            del built[:]
            fld.jet_at(p.z, p.z.conjugate(), p.t, MAX_ORDER)
        assert len(built) == want
        assert want <= before + pieces


# --- Jacobi residual ------------------------------------------------------------

def admissible_points(kappa, n, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        p = ResolvingPoint(rng.uniform(-2, 2), rng.uniform(-1, 1),
                           kappa * rng.uniform(0.55, 2.0), kappa)
        if p.discriminant > 1e-6:
            out.append(p)
    return out


def bracket(brackets, i, j):
    """[X_i, X_j] as {k: coefficient jet of X_k}, from the structure
    equations in brackets (i < j); X_i are delta, Y and Ybar in OPS order."""
    if i == j:
        return {}
    if (i, j) in brackets:
        return brackets[i, j]
    return {k: -f for k, f in brackets[j, i].items()}


def expanded_cyclic_sum(rf, p):
    """[delta,[Y,Ybar]] + [Y,[Ybar,delta]] + [Ybar,[delta,Y]] as the values of
    its coefficients of delta, Y and Ybar, every bracket replaced by the
    structure equations [delta,Y] = aY, [delta,Ybar] = a_bar Ybar and
    [Y,Ybar] = c(Y - Ybar), and [X, f Z] = (X f) Z + f [X, Z], on a fresh
    order-2 projection."""
    proj = RefProj(rf, p, order=2)
    a, a_bar, c = structure_functions(proj, p.kappa)
    brackets = {(0, 1): {1: a}, (0, 2): {2: a_bar}, (1, 2): {1: c, 2: -c}}
    total = [0j, 0j, 0j]
    for i, (j, k) in ((0, (1, 2)), (1, (2, 0)), (2, (0, 1))):
        for m, f in bracket(brackets, j, k).items():
            total[m] += proj.apply(f)[i].value
            for n, h in bracket(brackets, i, m).items():
                total[n] += f.value * h.value
    return total


@pytest.mark.parametrize("text", PHI_TEXTS)
@pytest.mark.parametrize("kappa", (1, -1))
def test_jacobi_residual_matches_expanded_commutators(text, kappa):
    # the cyclic sum is J1 Y - J2 Ybar: this pins the signs of J1 and J2,
    # on perturbed copies where both read far above roundoff
    largest = 0.0
    for spec in (None, "tau:+0.1", "lambda:+0.3"):
        rf = ansatz_functions(ex.parse(text, ("xi", "theta")), kappa)
        if spec:
            rf = _perturbed(rf, spec)
        for p in admissible_points(kappa, 4, seed=31 + kappa):
            J1, J2 = jacobi_residual(rf, p)
            on_delta, on_Y, on_Ybar = expanded_cyclic_sum(rf, p)
            assert on_delta == 0
            assert abs(on_Y - J1) <= 1e-12 * (1 + abs(J1))
            assert abs(on_Ybar + J2) <= 1e-12 * (1 + abs(J2))
            largest = max(largest, abs(J1), abs(J2))
    assert largest > 1e-3


@pytest.mark.parametrize("text", ("xi*theta", "exp(-xi)"))
@pytest.mark.parametrize("spec", (None, "tau:+0.1", "lambda:+0.3", "F:+1"))
def test_projected_operators_satisfy_the_vector_field_jacobi_identity(text, spec):
    # nested commutators of any three vector fields satisfy the Jacobi
    # identity, solution or not: a check of `RefProj.apply`, not of the system
    for kappa in (1, -1):
        rf = ansatz_functions(ex.parse(text, ("xi", "theta")), kappa)
        if spec:
            rf = _perturbed(rf, spec)
        for p in admissible_points(kappa, 4, seed=31 + kappa):
            assert max(abs(v) for v in ref_jacobi_residual(rf, p)) < 1e-13


def count_builds_and_partials(monkeypatch):
    """The point (or points) of each `_Proj` built, and the variable of
    each `Jet.derivative` call."""
    builds, partials = [], []
    init, derivative = _Proj.__init__, Jet.derivative

    def counted_init(self, rf, p, order):
        builds.append(repr(p))
        init(self, rf, p, order)

    def counted_derivative(self, var):
        partials.append(var)
        return derivative(self, var)

    monkeypatch.setattr(_Proj, "__init__", counted_init)
    monkeypatch.setattr(Jet, "derivative", counted_derivative)
    return builds, partials


@pytest.mark.parametrize("jacobi_first", (False, True))
def test_both_resolving_checks_build_one_projection_and_no_partial(monkeypatch, jacobi_first):
    rf = ansatz_functions(ex.parse("xi*theta", ("xi", "theta")), 1)
    p = ResolvingPoint(1.0, 0.8, 0.4, 1)
    builds, partials = count_builds_and_partials(monkeypatch)
    checks = (resolving_residuals, jacobi_residual)
    for check in checks[::-1] if jacobi_first else checks:
        check(rf, p)
    # one order-1 projection, whose values and first partials both checks
    # read as coefficients: no operator is applied to a jet
    assert builds == [repr(p)]
    assert partials == []
    assert resolving.PROJ_ORDER == 1
    # a sweep builds one projection of all its points, and its checks none
    points = admissible_points(1, PASS_POINTS, seed=3)
    del builds[:]
    rf.store.fill(points, lambda: checked_pairs(rf, points))
    for q in points:
        for check in checks:
            check(rf, q)
    assert builds == [repr(points)]
    assert partials == []


def test_both_resolving_checks_build_at_most_35_jets(monkeypatch):
    rf = ansatz_functions(ex.parse("xi*theta", ("xi", "theta")), 1)
    resolving_residuals(rf, ResolvingPoint(0.5, 0.3, 0.9, 1))  # compiles the functions
    built = []
    post_init = Jet.__post_init__
    monkeypatch.setattr(Jet, "__post_init__", lambda self: built.append(1) or post_init(self))
    p = ResolvingPoint(1.0, 0.8, 0.4, 1)
    resolving_residuals(rf, p)
    jacobi_residual(rf, p)
    # the projection alone: 35 (20 for phi = 1)
    assert len(built) <= 35


class Tracked:
    """A value with the sum of the moduli of the terms it was computed from:
    + and - add the operands' sums, * multiplies them, and a / b gives
    (A + |a/b| B) / |b| for sums A and B.  A computation that rounds each
    operation once is within a few EPS of that sum of its exact value."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus=None):
        self.value = value
        self.modulus = abs(value) if modulus is None else modulus

    @staticmethod
    def of(x):
        return x if isinstance(x, Tracked) else Tracked(x)

    def __add__(self, other):
        other = Tracked.of(other)
        return Tracked(self.value + other.value, self.modulus + other.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tracked.of(other)
        return Tracked(self.value - other.value, self.modulus + other.modulus)

    def __rsub__(self, other):
        return Tracked.of(other) - self

    def __neg__(self):
        return Tracked(-self.value, self.modulus)

    def __mul__(self, other):
        other = Tracked.of(other)
        return Tracked(self.value * other.value, self.modulus * other.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tracked.of(other)
        q = self.value / other.value
        return Tracked(q, (self.modulus + abs(q) * other.modulus) / abs(other.value))


def function_rows(proj):
    """[value, d/dt, d/dut, d/drho] of F, lambda, lambda_bar and tau at
    proj's one point."""
    return [_first_order(j, 1)[0] for j in (proj.Fj, proj.lamj, proj.lambj, proj.tauj)]


def tracked(p, rows):
    """p and rows with every coordinate and entry a Tracked value, for the
    scalar identities to sum the moduli of their terms."""
    return (SimpleNamespace(ut=Tracked(p.ut), rho=Tracked(p.rho), kappa=p.kappa),
            [[Tracked(v) for v in row] for row in rows])


def pair_sizes(rf, p):
    """Per value of R1-R4, J1 and J2 at p, the sum of the moduli of the
    terms that cancel in it."""
    tp, trows = tracked(p, function_rows(_Proj(rf, p, PROJ_ORDER)))
    res, jac = _pair(tp, *trows)
    return [v.modulus for v in (*res.as_dict().values(), *jac)]


#: the bound on a scalar identity's distance from the jet operators, in
#: units of EPS times the sum of the moduli of the terms that cancel
RESOLVING_ROUNDOFFS = 4


def assert_within_roundoff(new, ref, sizes, where):
    assert len(new) == len(ref) == len(sizes)
    for value, want, size in zip(new, ref, sizes):
        assert abs(value - want) <= RESOLVING_ROUNDOFFS * EPS * size, (where, value, want)


@pytest.mark.parametrize("order", (1, 2, 3))
@pytest.mark.parametrize("kappa", (1, -1))
def test_scalar_identities_match_the_jet_operators(order, kappa):
    # delta, Y and Ybar of F, lambda, lambda_bar, tau, a, a_bar and c, and
    # the values and gradients of a, a_bar and c, against the jet operators
    # and jets on a projection of each order
    compared = 0
    for text in PHI_TEXTS:
        for spec in (None, "tau:+0.1", "lambda:+0.3"):
            rf = ansatz_functions(ex.parse(text, ("xi", "theta")), kappa)
            if spec:
                rf = _perturbed(rf, spec)
            for p in admissible_points(kappa, 4, seed=59 + kappa):
                proj = RefProj(rf, p, order)
                if abs(proj.Fj.value) < resolving.F_EPS:
                    continue  # phi = xi*theta crosses zero
                rows = function_rows(proj)
                tp, trows = tracked(p, rows)
                structure, sizes = _structure(p, *rows), _structure(tp, *trows)
                jets = structure_functions(proj, kappa)
                for new, jet, size in zip(structure, jets, sizes):
                    assert_within_roundoff(new, _first_order(jet, 1)[0],
                                           [t.modulus for t in size], (p, "gradient"))
                for jet, g, tg in zip((proj.Fj, proj.lamj, proj.lambj, proj.tauj, *jets),
                                      [*rows, *structure], [*trows, *sizes]):
                    assert_within_roundoff(_applied(p, *rows[1:], g),
                                           [op.value for op in proj.apply(jet)],
                                           [t.modulus for t in _applied(tp, *trows[1:], tg)],
                                           (p, "operators"))
                    compared += 1
    assert compared >= 7 * 4 * 3 * 4


def checked_values(fn):
    """A check's values, or the type of the HeavenlyError it raised."""
    try:
        return list(fn())
    except HeavenlyError as err:
        return type(err)


def bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


def assert_pair_matches(new, ref, rf, p, c_moves=False):
    """R1-R4, J1 and J2 at p against the jet reference.  R1-R4 run the
    reference's operations in its order, so any reordering shows in their
    bits; so do J1 and J2 where c vanishes.  Where c does not (c_moves: a
    perturbed tau), c's gradient comes from the chain rule instead of a jet
    quotient, and J1 and J2 are within a few roundoffs of the reference."""
    assert bits(new[:5]) == bits(ref[:5]), p
    if c_moves:
        assert_within_roundoff(new[5:], ref[5:], pair_sizes(rf, p)[5:], p)
    else:
        assert bits(new[5:]) == bits(ref[5:]), p


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("text, spec", [(text, spec) for text in ("xi*theta", "exp(-xi)", "ln(theta)")
                                        for spec in ("tau:+0.1", "lambda:+0.3", "F:+1")]
                         + [("ln(theta)", None)])
def test_both_checks_match_references_per_point_and_in_sweeps(text, spec, kappa):
    # a perturbed copy puts R1-R4 far above roundoff, where any reordering
    # of the operations would show; ln(theta) raises where theta < 0.  Each
    # point alone matches the jet operators (`assert_pair_matches`), and a
    # sweep gives each point's own bits
    rf = ansatz_functions(ex.parse(text, ("xi", "theta")), kappa)
    if spec:
        rf = _perturbed(rf, spec)

    def checks(p):
        return [*resolving_residuals(rf, p).as_dict().values(), *jacobi_residual(rf, p)]

    def references(p):
        return [*ref_resolving_residuals(rf, p).as_dict().values(), *ref_structure_jacobi(rf, p)]

    largest, swept, wanted = 0.0, [], []
    for p in admissible_points(kappa, 256, seed=43 + kappa):
        if len(swept) == PASS_POINTS:
            break
        wanted.append((p, checked_values(lambda: references(p))))
        if isinstance(wanted[-1][1], list):
            swept.append(p)
            largest = max(largest, *map(abs, wanted[-1][1][:5]))
    assert len(swept) == PASS_POINTS
    if spec:
        assert largest > 1e-3
    else:
        assert len(wanted) > PASS_POINTS  # some points raised
    alone = {}
    for p, ref in wanted:  # each point alone
        new = checked_values(lambda: checks(p))
        if isinstance(ref, list):
            assert_pair_matches(new, ref, rf, p, c_moves=spec == "tau:+0.1")
            alone[repr(p)] = bits(new)
        else:
            assert new == ref
    rf.store.fill(swept, lambda: checked_pairs(rf, swept))
    assert all(rf.store.stored(p, "pair") is not None for p in swept)
    for p in swept:  # the same points from one sweep
        assert bits(checks(p)) == alone[repr(p)]


@pytest.mark.parametrize("text", PHI_TEXTS)
@pytest.mark.parametrize("kappa", (1, -1))
def test_resolving_residuals_match_order_2_reference(text, kappa):
    # the residuals read one order-1 projection, bit for bit the jet
    # operators on an order-2 one
    rf = ansatz_functions(ex.parse(text, ("xi", "theta")), kappa)
    checked = 0
    for p in admissible_points(kappa, 4, seed=37 + kappa):
        try:
            ref = ref_resolving_residuals(rf, p)
        except FVanishes:
            with pytest.raises(FVanishes):
                resolving_residuals(rf, p)
            continue
        assert bits(resolving_residuals(rf, p).as_dict().values()) == \
            bits(ref.as_dict().values())
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("text", PHI_TEXTS)
@pytest.mark.parametrize("kappa", (1, -1))
def test_f_constant_term_is_the_same_at_every_order(text, kappa):
    # both checks read F's constant term from one order-1 projection
    rf = ansatz_functions(ex.parse(text, ("xi", "theta")), kappa)
    for p in admissible_points(kappa, 25, seed=53 + kappa):
        values = [_Proj(rf, p, order).Fj.value for order in range(5)]
        assert len({(v.real.hex(), v.imag.hex()) for v in values}) == 1


@pytest.mark.parametrize("text, excluded", (("0", "all"), ("3e-13", "some"), ("1e-11", "none")))
def test_f_vanishes_exclusion_unchanged(text, excluded):
    # F = phi rho^3 with rho in [0.55, 2]: 3e-13 * rho^3 straddles the
    # F = 0 threshold 1e-12
    rf = ansatz_functions(ex.parse(text, ("xi", "theta")), 1)
    raised = 0
    for p in admissible_points(1, 30, seed=17):
        try:
            ref = [*ref_resolving_residuals(rf, p).as_dict().values(), *ref_structure_jacobi(rf, p)]
        except FVanishes:
            raised += 1
            with pytest.raises(FVanishes):
                jacobi_residual(rf, p)
            with pytest.raises(FVanishes):
                resolving_residuals(rf, p)
            continue
        assert_pair_matches([*resolving_residuals(rf, p).as_dict().values(),
                             *jacobi_residual(rf, p)], ref, rf, p)
    assert excluded == ("all" if raised == 30 else "some" if raised else "none")


# --- commutator residuals ---------------------------------------------------------

def ref_commutator_residual(pair, target, fld, p):
    """apply(a, applied(b, X)) - apply(b, applied(a, X)) minus the
    right-hand side, one operator application at a time: the expansion
    through second derivatives of X that the commutators were computed by
    before the bracket identities.  Returns the residual and the sum of
    the moduli of the terms that cancel in it: both compositions on the
    moduli of their leaf jets, and each term of each right-hand-side
    coefficient times its operator on those moduli."""
    calc = RefCalculus(fld, p)
    u_t, rho, eta, sigma, sigma_bar, tau = ref_invariants(calc)
    if abs(eta) < ETA_TOL:
        raise EtaVanishes("eta = 0: the commutator right-hand sides are undefined")
    kappa = fld.kappa
    a, b = pair
    dt_eta, d_eta, db_eta = (calc.applied(op, "Eta").value for op in ("delta", "Delta", "DeltaBar"))
    # each right-hand side as {operator: the terms of its coefficient}
    rhs_terms = {
        ("delta", "Delta"): {"Delta": [kappa * sigma_bar / eta, -3 * u_t]},
        ("delta", "DeltaBar"): {"DeltaBar": [kappa * sigma / eta, -3 * u_t]},
        ("Delta", "DeltaBar"): {"DeltaBar": [d_eta / eta, -(u_t * rho), -tau],
                                "Delta": [-(db_eta / eta), u_t * rho, tau]},
        ("delta", "Y"): {"Y": [kappa * (sigma_bar / eta), -3 * u_t, -(dt_eta / eta)]},
        ("delta", "Ybar"): {"Ybar": [kappa * (sigma / eta), -3 * u_t, -(dt_eta / eta)]},
        ("Y", "Ybar"): {"Y": [u_t * rho / eta, tau / eta],
                        "Ybar": [-(u_t * rho / eta), -(tau / eta)]},
    }[pair]
    terms = RefCalculus(fld, p, of_terms=True)
    both = [(c.apply(a, c.applied(b, target)).value, c.apply(b, c.applied(a, target)).value)
            for c in (calc, terms)]
    rhs = sum(sum(ts) * calc.applied(op, target).value for op, ts in rhs_terms.items())
    rhs_size = sum(sum(map(abs, ts)) * abs(terms.applied(op, target).value)
                   for op, ts in rhs_terms.items())
    (ab, ba), (ab_size, ba_size) = both
    return ab - ba - rhs, abs(ab_size) + abs(ba_size) + rhs_size


def value_or_error(fn):
    """("value", what fn returns), or the type and message of what it raised."""
    try:
        return "value", fn()
    except HeavenlyError as err:
        return "raised", type(err).__name__, str(err)


def outcome_bits(fn):
    """A value and its float hex, or the type and message of what it raised."""
    try:
        v = fn()
    except HeavenlyError as err:
        return "raised", type(err).__name__, str(err)
    return v, v.real.hex(), v.imag.hex()


def grid_suite_points(kappa):
    """Points of grid-suite's box (Im z of the sign of kappa), and for
    kappa = +1 their images under z -> -z, outside some families' domains."""
    pts = [Point(t, complex(x, kappa * y)) for t in (0.55, 1.45)
           for x in (1.05, 1.95) for y in (0.3, 0.7)]
    return pts + ([Point(p.t, -p.z) for p in pts[:2]] if kappa == 1 else [])


#: grid-suite's absolute commutator gate (`GridSuite.gates` in
#: perfbench/workloads.py), which the known defects fail
COMMUTATOR_GATE = 1e-7
#: grid-suite's inputs that hit known defects: (family, kappa, t, z); the
#: commutator residuals there read 1e-6 to 2e2, roundoff of terms up to 2e10
KNOWN_DEFECT_INPUTS = (("pushforward", 1, 1.8951, -0.0451 + 0.0088j),
                       ("noninv", 1, -0.0015, 0.6407 - 0.6168j),
                       ("general_noninv", 1, -0.797, 1.0018 - 0.4971j),
                       ("noninv", -1, 0.6964, -0.5143 - 0.9128j))


def commutator_cases():
    for kappa in (1, -1):
        for family, *_ in FAMILIES:
            yield pytest.param(family, kappa, grid_suite_points(kappa), id=f"{family}-{kappa}")
    for family, kappa, t, z in KNOWN_DEFECT_INPUTS:
        yield pytest.param(family, kappa, [Point(t, z)], id=f"defect-{family}-{kappa}")


#: the bound on a commutator's distance from its reference, in units of
#: EPS times the sum of the moduli of the terms that cancel in the reference
COMMUTATOR_ROUNDOFFS = 4
EPS = np.finfo(float).eps

#: the families whose eta does not vanish on grid-suite's box
ETA_NONZERO = ("noninv", "general_noninv", "pushforward")


@pytest.mark.parametrize("family, kappa, pts", commutator_cases())
def test_commutators_match_one_application_at_a_time(family, kappa, pts):
    # the bracket identities on the order-3 jet against the expansion on an
    # order-4 one: the same exclusions, and values within a few roundoffs of
    # the terms that cancel in the expansion
    fld = build(family, kappa)
    values, raised = [], set()
    for p in pts:
        for pair in COMMUTATOR_PAIRS:
            for target in COMMUTATOR_TARGETS:
                want = value_or_error(lambda: ref_commutator_residual(pair, target, fld, p))
                got = value_or_error(lambda: commutator_residual(pair, target, fld, p))
                if want[0] == "raised":
                    assert got == want, (p, pair, target)
                    raised.add(want[1])
                    continue
                (ref, size), value = want[1], got[1]
                assert abs(value - ref) <= COMMUTATOR_ROUNDOFFS * EPS * size, (p, pair, target)
                values.append(abs(ref))
    if len(pts) == 1 and family == "pushforward":
        # next to phi's critical point eta = 1.76e-13 is below ETA_TOL, the
        # threshold of 1/eta: every pair is an EtaVanishes exclusion
        assert not values and raised == {"EtaVanishes"}
        return
    assert bool(values) == (family in ETA_NONZERO)  # elsewhere every call raised
    if len(pts) == 1:  # the other known defects, which the gate fails
        assert max(values) > COMMUTATOR_GATE


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_swept_invariants_match_one_application_at_a_time(family, kappa):
    # the sweep's scalars on the order-3 u-jet against one order-4 operator
    # application at a time, within a few roundoffs of the terms each value
    # is made of, and bit for bit against invariants_at at each point alone
    pts = [p for p in grid_suite_points(kappa) if p.z.real > 0]
    fld = build(family, kappa)
    hexes = lambda values: [None if v is None else (complex(v).real.hex(), complex(v).imag.hex())
                            for v in values]
    for p, values in zip(pts, swept_invariants(fld, pts)):
        s = values["invariants"]
        assert values["u"].order == MAX_ORDER
        assert_within_roundoffs(invariant_values(s), ref_invariants(RefCalculus(fld, p)),
                                ref_invariants(RefCalculus(fld, p, of_terms=True)), p)
        alone = invariants_at(build(family, kappa), p)
        assert hexes(vars(s).values()) == hexes(vars(alone).values())


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_calculus_scalars_match_the_jet_products(family, kappa):
    # each point's values and first partials of E, a, abar, eta, rho and U_t
    # from one stacked calculus: those of the point's own calculus bit for
    # bit, and within a few roundoffs of the terms of the reference's jets
    pts = [p for p in grid_suite_points(kappa) if p.z.real > 0]
    swept = JetCalculus(build(family, kappa), pts)
    for p, q in zip(pts, swept.points):
        alone = JetCalculus(build(family, kappa), p).points[0]
        assert {k: bits(v) for k, v in q.items()} == {k: bits(v) for k, v in alone.items()}
        assert_calculus_matches_reference(build(family, kappa), p, q)


# --- second prolongation ------------------------------------------------------

def ref_x2_apply(a, target, field, p, flip=False):
    """x2_apply as it was when every target read every partial and built
    every prolongation coefficient; flip turns the sign of the first term
    of the d_u coefficient -(a' + abar')."""
    if target not in ("T", "Ut", "Utt", "Rho", "Eta", "Uz"):
        raise ValueError(f"unsupported x2 target {target!r}")
    J = fields.eval_u(field, p, 3)
    j = ex.eval_jet1(a, p.z, 3)
    av = [j.partial((k,)) for k in range(4)]
    abv = [v.conjugate() for v in av]
    a0, a1, a2, a3 = av
    ab0, ab1, ab2, ab3 = abv
    u = J.value
    u_z = J.partial((1, 0, 0))
    u_zb = J.partial((0, 1, 0))
    u_zz = J.partial((2, 0, 0))
    u_zbzb = J.partial((0, 2, 0))
    u_zt = J.partial((1, 0, 1))
    u_zbt = J.partial((0, 1, 1))
    u_zzb = J.partial((1, 1, 0))
    c_u = -((-a1 if flip else a1) + ab1)
    c_uz = -(a2 + a1 * u_z)
    c_uzb = -(ab2 + ab1 * u_zb)
    c_uzz = -(a3 + a2 * u_z + 2 * a1 * u_zz)
    c_uzbzb = -(ab3 + ab2 * u_zb + 2 * ab1 * u_zbzb)
    c_uzt = -a1 * u_zt
    c_uzbt = -ab1 * u_zbt
    c_uzzb = -(a1 + ab1) * u_zzb
    del c_uzb, c_uzz, c_uzbzb  # built, never read
    if target in ("T", "Ut", "Utt"):
        return 0j
    if target == "Rho":
        emu = cmath.exp(-u)
        return c_u * (-emu * u_zzb) + c_uzzb * emu
    if target == "Eta":
        emu = cmath.exp(-u)
        return (c_u * (-emu * u_zt * u_zbt)
                + c_uzt * emu * u_zbt + c_uzbt * emu * u_zt)
    return c_uz


#: the six targets and one x2_apply does not know
X2_TARGETS = ("T", "Ut", "Utt", "Rho", "Eta", "Uz", "Uzz")


#: points where c + cbar = 0 for c = exp(z), and t + b(z) = 0 for b = z^2 - i
X2_EDGE_POINTS = [Point(1.0, complex(0.5, math.pi / 2)), Point(1.0, cmath.sqrt(-1 + 1j))]
#: (family, kappa) of the grid-suite fields defined on the whole slice
WHOLE_SLICE_DOMAINS = {("f0", -1), ("liouville", -1)}


def x2_bits(fn):
    """outcome_bits, with the ValueError of an unknown target as an outcome."""
    try:
        return outcome_bits(fn)
    except ValueError as err:
        return "raised", type(err).__name__, str(err)


def grid_suite_generators(seed=41):
    """The four cubic generators a(z) grid-suite draws at this seed."""
    rng = random.Random(f"{seed}:generators")
    out = []
    for _ in range(4):
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        out.append(z_expr(" + ".join(f"({c.real:.6f} + {c.imag:.6f}*i)*z^{k}" if k
                                     else f"({c.real:.6f} + {c.imag:.6f}*i)"
                                     for k, c in enumerate(coeffs))))
    return out


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_x2_matches_the_every_coefficient_reference(family, kappa):
    fld = build(family, kappa)
    outcomes = set()
    for p in builder_points(kappa) + X2_EDGE_POINTS:  # inside and outside the domain
        for a in grid_suite_generators():
            for target in X2_TARGETS:
                want = x2_bits(lambda: ref_x2_apply(a, target, fld, p))
                assert x2_bits(lambda: symmetry.x2_apply(a, target, fld, p)) == want, \
                    (p, target)
                outcomes.add(want[1] if want[0] == "raised" else target)
    assert {"T", "Rho", "Eta", "Uz", "ValueError"} <= outcomes
    raised = outcomes - {"T", "Ut", "Utt", "Rho", "Eta", "Uz", "ValueError"}
    assert raised or (family, kappa) in WHOLE_SLICE_DOMAINS


def test_x2_on_u_z_is_pinned():
    fld = fields.make_solution("noninv", {"b": z_expr("z^2 + i")}, 1)
    got = symmetry.x2_apply(z_expr("z^2"), "Uz", fld, Point(1.0, 1.2 + 0.3j))
    assert got == pytest.approx(-2.0804 + 0.7971j, abs=1e-4)


@pytest.mark.parametrize("family", ETA_NONZERO)
def test_x2_on_rho_and_eta_fails_with_a_flipped_u_coefficient(family):
    for kappa in (1, -1):
        fld = build(family, kappa)
        pts = [p for p in grid_suite_points(kappa) if p.z.real > 0]
        for target in ("Rho", "Eta"):
            flipped = [abs(ref_x2_apply(a, target, fld, p, flip=True))
                       for p in pts for a in grid_suite_generators()]
            kept = [abs(symmetry.x2_apply(a, target, fld, p))
                    for p in pts for a in grid_suite_generators()]
            assert min(flipped) > 1e-3, (kappa, target)
            assert max(kept) <= 1e-14, (kappa, target)
