"""Families that are parameter choices of other families build the same
u-jets, coefficient for coefficient, and f0general's domain exclusions
carry the keys of the other Liouville families."""

import numpy as np
import pytest

from heavenly import expr as ex
from heavenly.errors import DomainError
from heavenly.fields import _READ, MAX_ORDER, ROW_LEN, Point, make_solution, u_row

Z = ex.parse("z", ("z",))
POINTS = [Point(t, complex(x, y)) for t in (0.6, 1.3) for x in (0.7, 1.6)
          for y in (-0.4, 0.3)] + [Point(1.0, complex(1.2, 0.0))]


def assert_same_jets(left, right):
    # orders 0-4 as the builders make them (jet_at has no ceiling), and up
    # to MAX_ORDER the rows u_row serves: an order-k reader's entries are
    # the prefix of the order-MAX_ORDER row, bit for bit those of the jet
    # built at order k
    for order in range(5):
        for p in POINTS:
            at = (p.z, p.z.conjugate(), p.t, order)
            a, b = left.jet_at(*at), right.jet_at(*at)
            assert np.array_equal(a.coeffs, b.coeffs), (p, order)
            if order <= MAX_ORDER:
                n = ROW_LEN[order]
                rows = [u_row(left, p, order)[:n], u_row(right, p, order)[:n]]
                assert np.array_equal(*rows), (p, order)
                for row, jet in zip(rows, (a, b)):
                    assert hex_row(row) == hex_row(jet.coefficient(idx) for idx in _READ[:n])


def hex_row(row):
    return [(c.real.hex(), c.imag.hex()) for c in row]


@pytest.mark.parametrize("kappa", (1, -1))
def test_f0_is_f0general_with_a_equal_to_z(kappa):
    for C in (1.0, 0.25):
        assert_same_jets(
            make_solution("f0", {"C": C}, kappa),
            make_solution("f0general", {"l": 1.0, "C1": 0.0, "C2": C, "a": Z}, kappa))


@pytest.mark.parametrize("kappa", (1, -1))
def test_noninv_is_general_noninv_with_c_equal_to_z(kappa):
    for text in ("z^2 + i", "exp(z) + 2*i"):
        b = ex.parse(text, ("z",))
        assert_same_jets(make_solution("noninv", {"b": b}, kappa),
                         make_solution("general_noninv", {"b": b, "c": Z}, kappa))


def test_f0general_exclusion_keys_name_the_vanishing_denominator():
    params = {"l": 1.0, "C1": 0.0, "C2": 1.0, "a": Z}
    # kappa = 1: a + abar = z + zbar vanishes on the imaginary axis
    with pytest.raises(DomainError, match=r"^a\(z\) \+ abar\(zbar\) vanishes"):
        u_row(make_solution("f0general", params, 1), Point(1.0, 0.5j), 2)
    # kappa = -1: a*abar + 1 = |a|^2 + 1 on the physical slice, so it
    # vanishes only off it
    with pytest.raises(DomainError, match=r"^a\(z\)\*abar\(zbar\) \+ 1 vanishes"):
        make_solution("f0general", params, -1).jet_at(1.0, -1.0, 1.0, 2)
