import cmath
import copy
import gc
import math
import pickle

import numpy as np
import pytest

from heavenly import expr as ex
from heavenly.errors import (BranchCutViolation, DivisionBySingularJet,
                             DomainError, OrderExceeded, ShapeMismatch)
from heavenly.jet import Jet, compose3, compose_series, on_axes, swapped_conjugate

from test_reference_kernels import row_series

POINT = (0.3 + 0.1j, 0.3 - 0.1j, 1.2 + 0j)


def seeds(order=4):
    return tuple(Jet.variable(i, POINT[i], 3, order) for i in range(3))


def test_polynomial_partials_are_exact():
    z, zb, t = seeds()
    p = z * z * zb + 3.0 * t - z * t * t
    z0, zb0, t0 = POINT
    assert p.value == pytest.approx(z0 * z0 * zb0 + 3 * t0 - z0 * t0 * t0)
    assert p.partial((1, 0, 0)) == pytest.approx(2 * z0 * zb0 - t0 * t0)
    assert p.partial((1, 1, 0)) == pytest.approx(2 * z0)
    assert p.partial((1, 0, 2)) == pytest.approx(-2.0)
    assert p.partial((0, 0, 1)) == pytest.approx(3.0 - 2 * z0 * t0)


def test_product_rule_via_derivative():
    z, zb, t = seeds()
    f = z * z + t
    g = zb * t
    lhs = (f * g).derivative(2)
    rhs = f.derivative(2) * g.truncated(3) + f.truncated(3) * g.derivative(2)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-14)


def test_exp_log_roundtrip():
    z, zb, t = seeds()
    f = 0.5 * z + zb * t + 1.7
    back = f.exp().log()
    np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-12)


def test_exp_matches_analytic_value():
    z, _, _ = seeds()
    e = z.exp()
    assert e.value == pytest.approx(cmath.exp(POINT[0]))
    # coefficient of z^k is exp(z0)/k!
    for k in range(5):
        assert e.coefficient((k, 0, 0)) == pytest.approx(
            cmath.exp(POINT[0]) / math.factorial(k))


def test_sqrt_squares_back():
    z, zb, t = seeds()
    f = z * zb + 2.0 + t
    r = f.sqrt()
    np.testing.assert_allclose((r * r).coeffs, f.coeffs, atol=1e-12)


def test_reciprocal_and_division():
    z, zb, t = seeds()
    f = 1.0 + z + zb * t
    one = f * f.reciprocal()
    ident = Jet.constant(1.0, 3, 4)
    np.testing.assert_allclose(one.coeffs, ident.coeffs, atol=1e-13)
    g = (z + t) / f
    np.testing.assert_allclose((g * f).coeffs, (z + t).coeffs, atol=1e-13)


def test_division_by_singular_jet_raises():
    z, _, _ = seeds()
    zero = z - POINT[0]
    with pytest.raises(DivisionBySingularJet):
        (z * z).__truediv__(zero)


def test_cpow_integer_exponents():
    z, _, _ = seeds()
    f = z + 0.5
    np.testing.assert_allclose(f.cpow(3).coeffs, (f * f * f).coeffs,
                               atol=1e-14)
    np.testing.assert_allclose(f.cpow(-2).coeffs,
                               (f * f).reciprocal().coeffs, atol=1e-12)
    # complex-typed but integral exponent takes the same path, even for a
    # negative real constant term
    neg = Jet.constant(-0.4, 3, 4) + (z - POINT[0])
    np.testing.assert_allclose(neg.cpow(complex(3)).coeffs,
                               (neg * neg * neg).coeffs, atol=1e-14)


def test_cpow_fractional_matches_exp_log():
    z, _, _ = seeds()
    f = z + 1.5
    direct = f.cpow(0.37)
    via = (0.37 * f.log()).exp()
    np.testing.assert_allclose(direct.coeffs, via.coeffs, atol=1e-12)


def test_an_exp_or_power_that_overflows_names_its_operand():
    big = Jet.variable(0, (1000.0, 1.0), 1, 2)  # stacked: one row overflows
    with pytest.raises(OverflowError, match=r"^exp of jet with constant term \(1000\+0j\) overflows$"):
        big.exp()
    with pytest.raises(OverflowError, match=r"^power of jet with constant term \(1e\+300\+0j\) overflows$"):
        Jet.constant(1e300, 1, 2).cpow(2.5)


def test_branch_cut_and_domain_errors():
    neg = Jet.constant(-1.0, 3, 4)
    with pytest.raises(BranchCutViolation):
        neg.log()
    with pytest.raises(BranchCutViolation):
        neg.cpow(0.5)
    tiny = Jet.constant(0.0, 3, 4)
    with pytest.raises(DomainError):
        tiny.log()


def test_derivative_drops_order():
    z, zb, t = seeds()
    f = z * zb * t
    d = f.derivative(2)
    assert d.order == 3
    assert d.value == pytest.approx(POINT[0] * POINT[1])
    with pytest.raises(OrderExceeded):
        f.partial((0, 0, 5))


def test_read_gives_each_row_its_coefficients():
    z, zb, t = seeds(2)
    f = z * zb + t * t * 3.0
    indices = ((0, 0, 0), (1, 1, 0), (0, 0, 2), (1, 0, 0))
    want = [f.coefficient(idx) for idx in indices]
    assert f.read(indices) == [want]
    stack = Jet.stack([f, f * 2.0])
    assert stack.read(indices) == [want, [2.0 * c for c in want]]
    assert stack.read(()) == [[], []]
    with pytest.raises(OrderExceeded):
        f.read(((0, 0, 0), (2, 1, 0)))
    with pytest.raises(ShapeMismatch):
        stack.coefficient((0, 0, 0))


def test_on_axes_takes_pieces_of_one_order():
    with pytest.raises(ShapeMismatch):
        on_axes(Jet.variable(0, 1.0, 1, 3), Jet.variable(0, 2.0, 1, 2))


def test_compose_series_geometric():
    z, _, _ = seeds()
    h = z - POINT[0]
    # 1/(1-h) = sum h^k
    geo = compose_series([1.0] * 5, h)
    direct = (Jet.constant(1.0, 3, 4) - h).reciprocal()
    np.testing.assert_allclose(geo.coeffs, direct.coeffs, atol=1e-14)


def test_compose_series_of_a_stacked_order_0_jet_is_stacked():
    h = Jet.constant(0.0, 1, 0)
    out = compose_series([1.0, 2.0], Jet.stack([h, h]))
    assert (out.depth, out.coeffs.shape) == (2, (2, 1))
    assert out.value == (1.0, 1.0)


def test_compose3_shifts_expansion_point():
    from test_reference_kernels import placed, ref_compose3
    inner_point = (0.6 + 0.2j, 0.6 - 0.2j, 1.44 + 0j)
    iz = Jet.variable(0, inner_point[0], 3, 4)
    izb = Jet.variable(1, inner_point[1], 3, 4)
    it = Jet.variable(2, inner_point[2], 3, 4)
    inner = iz * izb + it
    # substitute z -> 2z, zbar -> 2zbar, t -> t^2 around the outer point,
    # each a univariate jet in its own variable
    z, zb, t = (Jet.variable(0, v, 1, 4) for v in POINT)
    moves = (2.0 * z - inner_point[0], 2.0 * zb - inner_point[1], t * t - inner_point[2])
    out = compose3(inner, *moves)
    z0, zb0, t0 = POINT
    assert out.value == pytest.approx(4 * z0 * zb0 + t0 * t0)
    assert out.partial((1, 0, 0)) == pytest.approx(4 * zb0)
    assert out.partial((0, 0, 1)) == pytest.approx(2 * t0)
    assert out.partial((0, 0, 2)) == pytest.approx(2.0)
    # bit for bit the three-variable composition of the moves on their axes
    assert out.coeffs.tobytes() == ref_compose3(inner, *placed(*moves)).coeffs.tobytes()


def test_jets_compare_by_identity():
    a = Jet.variable(0, 1.0, 3, 2)
    b = Jet.variable(0, 1.0, 3, 2)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_repr_rebuilds_the_jet():
    for j in (Jet.constant(2.0, 1, 0), Jet.variable(0, (1.0, 2.0), 1, 1)):
        again = eval(repr(j), {"Jet": Jet, "array": np.array})
        assert (again.depth, again.nvars, again.order) == (j.depth, j.nvars, j.order)
        assert again.coeffs.tobytes() == j.coeffs.tobytes()


# --- the immutability and construction contract ------------------------------

def kernel_results():
    """One result of every jet kernel and constructor, with its name."""
    z, zb, t = seeds(3)
    f = z * zb + 2.0 - t
    g = f + 0.5j
    yield "Jet()", Jet(np.ones((2, 2, 2)))
    yield "constant", Jet.constant(1.5, 3, 3)
    yield "variable", z
    yield "stack", Jet.stack([f, g])
    yield "add", f + g
    yield "add scalar", f + 1.0
    yield "radd scalar", 1.0 + f
    yield "sub", f - g
    yield "sub scalar", f - 1.0
    yield "rsub scalar", 1.0 - f
    yield "neg", -f
    yield "mul", f * g
    yield "mul scalar", 2.0 * f
    yield "div", f / g
    yield "div scalar", f / 2.0
    yield "rdiv scalar", 2.0 / g
    yield "reciprocal", g.reciprocal()
    yield "exp", f.exp()
    yield "log", g.log()
    yield "sqrt", g.sqrt()
    yield "cpow int", g.cpow(-2)
    yield "cpow fractional", g.cpow(0.3)
    yield "derivative", f.derivative(1)
    yield "truncated", f.truncated(1)
    yield "stacked mul", Jet.stack([f, g]) * f
    yield "compose_series", compose_series([1.0, 2.0, 3.0, 4.0], z - POINT[0])
    yield "compose3", compose3(Jet.variable(0, 0.5, 3, 2) * Jet.variable(2, 1.0, 3, 2),
                               *(Jet.variable(0, v, 1, 2) - v for v in POINT))
    yield "on_axes", on_axes(Jet.variable(0, POINT[0], 1, 3), None, Jet.variable(0, 1.0, 1, 3))
    yield "swapped_conjugate", swapped_conjugate(Jet.stack([f, g]))


def test_swapped_conjugate_conjugates_and_swaps_z_and_zbar():
    # c_ijk -> conj(c_jik), row by row, for one jet and a stack
    z, zb, t = seeds(3)
    f = z * z * zb + 0.5j * zb * t + (1 - 2j) * z
    for jet in (f, Jet.stack([f, f.exp()])):
        got = swapped_conjugate(jet)
        assert (got.depth, got.nvars, got.order) == (jet.depth, 3, 3)
        assert got.coeffs.flags.c_contiguous
        rows = jet.coeffs.reshape((-1, 4, 4, 4))
        for r, row in enumerate(got.coeffs.reshape((-1, 4, 4, 4))):
            for i, j, k in np.ndindex(4, 4, 4):
                assert row[i, j, k] == rows[r, j, i, k].conjugate()
        assert swapped_conjugate(got).coeffs.tobytes() == jet.coeffs.tobytes()
    with pytest.raises(ShapeMismatch):
        swapped_conjugate(Jet.variable(0, 1.0, 1, 2))


@pytest.mark.parametrize("name", ["coeffs", "depth", "nvars", "order", "other"])
def test_jet_attributes_cannot_be_assigned(name):
    jet = Jet.variable(0, 1.0, 3, 2)
    with pytest.raises(AttributeError):
        setattr(jet, name, 0)
    if name != "other":
        with pytest.raises(AttributeError):
            delattr(jet, name)


def test_a_point_argument_fails_loudly():
    # a jet holds no point; one passed by position must raise, not be read
    # as a depth or an order
    c = np.zeros(3, dtype=complex)
    with pytest.raises(TypeError):
        Jet(c, (1 + 0j,))
    with pytest.raises(TypeError):
        Jet.constant(1.0, 1, 2, (1 + 0j,))
    with pytest.raises(TypeError):
        Jet.variable(0, 1.0, 1, 2, (1 + 0j,))
    with pytest.raises(TypeError):
        ex.eval_jet1(ex.parse("z", ("z",)), 1.0, 2, (1 + 0j,))


@pytest.mark.parametrize("shape, depth", [
    ((2, 3), 0),  # variable axes of two lengths
    ((2, 3), 5),  # a leading axis of 2 rows recorded as depth 5
    ((3, 3), 2),
    ((2, 2, 2, 2), 0),  # four variables
    ((3, 2, 2, 2, 2), 3),  # four variables per row
    ((), 0),  # no variable
    ((3,), 3),
    ((0,), 0),  # no coefficient
])
def test_constructor_rejects_a_shape_that_is_no_jet(shape, depth):
    with pytest.raises(ShapeMismatch):
        Jet(np.ones(shape), depth=depth)


def test_constructor_takes_an_integer_depth():
    with pytest.raises(TypeError):
        Jet(np.ones((2, 3)), depth=2.0)
    assert Jet(np.ones((2, 3)), depth=np.int64(2)).depth == 2


def test_constructor_reads_nvars_and_order_from_the_shape():
    for shape, depth, nvars, order in (((2, 3), 2, 1, 2), ((4, 4), 0, 2, 3),
                                       ((5, 2, 2, 2), 5, 3, 1), ((1, 1, 1), 0, 3, 0)):
        jet = Jet(np.ones(shape), depth=depth)
        assert (jet.depth, jet.nvars, jet.order) == (depth, nvars, order)
        assert (jet * jet).coeffs.shape == shape


def test_copies_and_pickles_keep_depth():
    z, zb, t = seeds(2)
    for jet in (z * zb, Jet.stack([z, zb, t]), Jet.stack([z * zb]) * t):
        for copied in (copy.copy(jet), copy.deepcopy(jet), pickle.loads(pickle.dumps(jet))):
            assert type(copied) is Jet
            assert (copied.depth, copied.nvars, copied.order) == (jet.depth, 3, 2)
            assert copied.coeffs.shape == jet.coeffs.shape
            assert copied.coeffs.tobytes() == jet.coeffs.tobytes()
            assert not copied.coeffs.flags.writeable
            assert (copied * t).coeffs.tobytes() == (jet * t).coeffs.tobytes()


def test_every_kernel_result_is_read_only():
    checked = 0
    for name, jet in kernel_results():
        assert isinstance(jet, Jet), name
        assert not jet.coeffs.flags.writeable, name
        with pytest.raises(ValueError):
            jet.coeffs[(0,) * jet.coeffs.ndim] = 7.0
        checked += 1
    assert checked == 29


def test_post_init_runs_once_per_jet(monkeypatch):
    # every Jet, whichever constructor made it, must pass __post_init__
    # exactly once: the benchmark's tracer counts Jet allocations there.
    # A Jet that dies without having passed it, or passes it twice, is a
    # fault; Jets alive before the test are left out
    gc.collect()
    earlier = {id(o) for o in gc.get_objects() if type(o) is Jet}
    alive, faults, calls = set(), [], []
    post_init = Jet.__post_init__

    def counted(self):
        if id(self) in alive:
            faults.append("twice")
        alive.add(id(self))
        calls.append(1)
        post_init(self)

    def finalised(self):
        if id(self) in earlier:
            earlier.discard(id(self))
        elif id(self) not in alive:
            faults.append("never")
        alive.discard(id(self))

    monkeypatch.setattr(Jet, "__post_init__", counted)
    monkeypatch.setattr(Jet, "__del__", finalised, raising=False)
    results = list(kernel_results())
    assert len(calls) > len(results)  # the analytic functions make intermediates
    del results
    gc.collect()
    assert faults == [] and alive == set()


# --- truncation commutes with every operation ---------------------------------
# Each coefficient of a result is computed from the operands' coefficients of
# no higher degree, in the same sequence at every order, so truncating a
# result gives the result of the truncated operands.  The field jets rely on
# it: a point's lower-order u-jets are truncations of its order-4 jet.

def truncation_cases():
    """Random jets with valid slots only and a constant term off the branch
    cut, one per (nvars, order) and stacked as two rows, each with a second
    operand and an inner jet of zero constant term."""
    rng = np.random.default_rng(2024)

    def draw(nvars, order, value):
        c = rng.standard_normal((order + 1,) * nvars) + 1j * rng.standard_normal(
            (order + 1,) * nvars)
        c[(0,) * nvars] = value
        return Jet(c).truncated(order)

    for nvars in (1, 2, 3):
        for order in range(5):
            for depth in (0, 2):
                def jet(value):
                    if not depth:
                        return draw(nvars, order, value)
                    return Jet.stack([draw(nvars, order, value * (1 + 0.3j * r))
                                      for r in range(depth)])
                yield jet(1.3 + 0.4j), jet(0.8 - 0.6j), jet(0.0)


UNARY = {
    "neg": lambda j: -j,
    "reciprocal": Jet.reciprocal,
    "exp": Jet.exp,
    "log": Jet.log,
    "sqrt": lambda j: j.cpow(0.5),
    **{f"cpow {n}": (lambda j, n=n: j.cpow(n)) for n in (-3, -2, -1, 0, 1, 2, 3, 5, 8)},
    "compose_series": lambda h: compose_series(
        row_series(lambda a0, order: [a0 + 0.7, -1.1 + 0.2j, 0.4, 2.0, -0.3j, 0.9], h.value,
                   h.order), h),
    "compose_series, one series": lambda h: compose_series([0.7, -1.1 + 0.2j, 0.4, 2.0, -0.3j],
                                                           h),
    "scalar ops": lambda j: (2.0 - j) * (0.5 + 1j) / (1.5 - 0.5j) + 3.0,
}
BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def assert_commutes(f, operands, order):
    for k in range(order + 1):
        whole = f(*operands).truncated(k)
        cut = f(*(j.truncated(k) for j in operands))
        assert whole.coeffs.shape == cut.coeffs.shape
        assert np.array_equal(whole.coeffs, cut.coeffs), k


def test_truncation_commutes_with_every_operation():
    cases = 0
    for a, b, h in truncation_cases():
        for name, f in UNARY.items():
            assert_commutes(f, (h if name.startswith("compose_series") else a,), a.order)
        for f in BINARY.values():
            assert_commutes(f, (a, b), a.order)
        for var in range(a.nvars):
            for k in range(1, a.order + 1):
                assert np.array_equal(a.derivative(var).truncated(k - 1).coeffs,
                                      a.truncated(k).derivative(var).coeffs)
        cases += 1
    assert cases == 30


def test_truncation_commutes_with_compose3():
    from test_reference_kernels import placed, ref_compose3
    rng = np.random.default_rng(77)
    cases = 0
    for _a, b, h in truncation_cases():
        if b.nvars != 1:
            continue
        # univariate inner jets with zero constant terms, stacked or not
        dx, dy, dz = h, (b - b.value) * (0.5 - 1j), h * h + (b - b.value)
        outer = Jet(rng.standard_normal((b.order + 1,) * 3) + 0j).truncated(b.order)
        assert_commutes(compose3, (outer, dx, dy, dz), b.order)
        out = compose3(outer, dx, dy, dz)
        if not b.depth:  # the three-variable composition of the inner jets on their axes
            assert out.coeffs.tobytes() == ref_compose3(outer, *placed(dx, dy, dz)).coeffs.tobytes()
        else:  # the unstacked outer jet composes with each row of the inner jets
            for r, inner in enumerate(zip(dx.rows(), dy.rows(), dz.rows())):
                assert out.coeffs[r].tobytes() == compose3(outer, *inner).coeffs.tobytes()
        cases += 1
    assert cases == 10


# --- the degree recurrences: identities and errors -----------------------------

EPS = np.finfo(float).eps
#: the bound on a round trip's distance from the identity, in units of EPS
#: times the operand's largest coefficient (2.8 seen, for the power)
ROUNDTRIP_ROUNDOFFS = 4


def roundtrip_jets():
    """Seeded jets with a constant term of real part in [1, 2] and the other
    coefficients of size about 1/4, unstacked and as 3 rows, in 1 to 3
    variables at orders 0 to 4."""
    rng = np.random.default_rng(31)

    def draw(nvars, order):
        c = 0.25 * (rng.standard_normal((order + 1,) * nvars)
                    + 1j * rng.standard_normal((order + 1,) * nvars))
        c[(0,) * nvars] = complex(rng.uniform(1, 2), rng.uniform(-1, 1))
        return Jet(c).truncated(order)

    for nvars in (1, 2, 3):
        for order in range(5):
            for depth in (0, 3):
                rows = [draw(nvars, order) for _ in range(depth or 1)]
                yield Jet.stack(rows) if depth else rows[0]


def test_recurrences_invert_each_other():
    p = 0.37 + 0.2j
    cases = 0
    for a in roundtrip_jets():
        one = Jet.constant(1.0, a.nvars, a.order)
        bound = ROUNDTRIP_ROUNDOFFS * EPS * np.abs(a.coeffs).max()
        for got, want in ((a.log().exp(), a), (a.exp().log(), a), (a * a.reciprocal(), one),
                          (a.cpow(p).cpow(1 / p), a)):
            assert np.abs(got.coeffs - want.coeffs).max() <= bound, (a.nvars, a.order, a.depth)
            cases += 1
    assert cases == 3 * 5 * 2 * 4


#: per kernel, its error at a zero constant term and at one on the branch
#: cut (None where it has none there)
KERNEL_ERRORS = {
    "log": (Jet.log, (DomainError, "ln of jet with constant term 0j"),
            (BranchCutViolation, "ln constant term (-1.5+0j) on the negative real axis")),
    "sqrt": (Jet.sqrt, (DomainError, "power of jet with constant term 0j"),
             (BranchCutViolation, "pow constant term (-1.5+0j) on the negative real axis")),
    "cpow": (lambda j: j.cpow(0.37 + 0.2j), (DomainError, "power of jet with constant term 0j"),
             (BranchCutViolation, "pow constant term (-1.5+0j) on the negative real axis")),
    "reciprocal": (Jet.reciprocal, (DivisionBySingularJet, "constant term 0j below 1e-12"), None),
    "exp": (Jet.exp, None, None),
}


@pytest.mark.parametrize("name", list(KERNEL_ERRORS))
def test_kernel_errors_at_zero_and_on_the_cut(name):
    kernel, at_zero, on_cut = KERNEL_ERRORS[name]
    good = Jet.variable(0, 1.2 + 0.3j, 3, 3) * Jet.variable(2, 0.5, 3, 3)
    for a0, error in ((0j, at_zero), (-1.5 + 0j, on_cut)):
        bad = good - good.value + a0
        # unstacked, and a stack whose first bad row is the second of three
        for jet in (bad, Jet.stack([good, bad, bad + 1e-3j])):
            if error is None:
                assert isinstance(kernel(jet), Jet)
                continue
            with pytest.raises(error[0]) as raised:
                kernel(jet)
            assert type(raised.value) is error[0] and str(raised.value) == error[1]
