import cmath
import math

import numpy as np
import pytest

from heavenly.errors import (BranchCutViolation, DivisionBySingularJet,
                             DomainError, OrderExceeded)
from heavenly.jet import Jet, compose3, compose_series

BASE = (0.3 + 0.1j, 0.3 - 0.1j, 1.2 + 0j)


def seeds(order=4):
    return tuple(Jet.variable(i, BASE[i], 3, order, BASE) for i in range(3))


def test_polynomial_partials_are_exact():
    z, zb, t = seeds()
    p = z * z * zb + 3.0 * t - z * t * t
    z0, zb0, t0 = BASE
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
    assert e.value == pytest.approx(cmath.exp(BASE[0]))
    # coefficient of z^k is exp(z0)/k!
    for k in range(5):
        assert e.coefficient((k, 0, 0)) == pytest.approx(
            cmath.exp(BASE[0]) / math.factorial(k))


def test_sqrt_squares_back():
    z, zb, t = seeds()
    f = z * zb + 2.0 + t
    r = f.sqrt()
    np.testing.assert_allclose((r * r).coeffs, f.coeffs, atol=1e-12)


def test_reciprocal_and_division():
    z, zb, t = seeds()
    f = 1.0 + z + zb * t
    one = f * f.reciprocal()
    ident = Jet.constant(1.0, 3, 4, BASE)
    np.testing.assert_allclose(one.coeffs, ident.coeffs, atol=1e-13)
    g = (z + t) / f
    np.testing.assert_allclose((g * f).coeffs, (z + t).coeffs, atol=1e-13)


def test_division_by_singular_jet_raises():
    z, _, _ = seeds()
    zero = z - BASE[0]
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
    neg = Jet.constant(-0.4, 3, 4, BASE) + (z - BASE[0])
    np.testing.assert_allclose(neg.cpow(complex(3)).coeffs,
                               (neg * neg * neg).coeffs, atol=1e-14)


def test_cpow_fractional_matches_exp_log():
    z, _, _ = seeds()
    f = z + 1.5
    direct = f.cpow(0.37)
    via = (0.37 * f.log()).exp()
    np.testing.assert_allclose(direct.coeffs, via.coeffs, atol=1e-12)


def test_branch_cut_and_domain_errors():
    neg = Jet.constant(-1.0, 3, 4, BASE)
    with pytest.raises(BranchCutViolation):
        neg.log()
    with pytest.raises(BranchCutViolation):
        neg.cpow(0.5)
    tiny = Jet.constant(0.0, 3, 4, BASE)
    with pytest.raises(DomainError):
        tiny.log()


def test_derivative_drops_order():
    z, zb, t = seeds()
    f = z * zb * t
    d = f.derivative(2)
    assert d.order == 3
    assert d.value == pytest.approx(BASE[0] * BASE[1])
    with pytest.raises(OrderExceeded):
        f.partial((0, 0, 5))


def test_conjugated_swaps_slice():
    z, zb, _ = seeds()
    f = (1 + 2j) * z + zb * zb
    c = f.conjugated()
    assert c.value == pytest.approx(f.value.conjugate())
    assert c.coefficient((1, 0, 0)) == pytest.approx(
        f.coefficient((1, 0, 0)).conjugate())


def test_compose_series_geometric():
    z, _, _ = seeds()
    h = z - BASE[0]
    # 1/(1-h) = sum h^k
    geo = compose_series([1.0] * 5, h)
    direct = (Jet.constant(1.0, 3, 4, BASE) - h).reciprocal()
    np.testing.assert_allclose(geo.coeffs, direct.coeffs, atol=1e-14)


def test_compose3_shifts_expansion_point():
    z, zb, t = seeds()
    inner_base = (0.6 + 0.2j, 0.6 - 0.2j, 1.44 + 0j)
    iz = Jet.variable(0, inner_base[0], 3, 4, inner_base)
    izb = Jet.variable(1, inner_base[1], 3, 4, inner_base)
    it = Jet.variable(2, inner_base[2], 3, 4, inner_base)
    inner = iz * izb + it
    # substitute z -> 2z, zbar -> 2zbar, t -> t^2 around the outer base
    out = compose3(inner, 2.0 * z - inner_base[0], 2.0 * zb - inner_base[1],
                   t * t - inner_base[2])
    z0, zb0, t0 = BASE
    assert out.value == pytest.approx(4 * z0 * zb0 + t0 * t0)
    assert out.partial((1, 0, 0)) == pytest.approx(4 * zb0)
    assert out.partial((0, 0, 1)) == pytest.approx(2 * t0)
    assert out.partial((0, 0, 2)) == pytest.approx(2.0)


def test_jets_compare_by_identity():
    a = Jet.variable(0, 1.0, 3, 2)
    b = Jet.variable(0, 1.0, 3, 2)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
