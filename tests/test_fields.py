import cmath
import math

import pytest

from heavenly import expr as ex
from heavenly.errors import DomainError, FamilyParamMismatch, SingularMap
from heavenly.fields import (Point, conformal_pushforward, eval_u,
                             make_solution)
from heavenly.invariants import liouville_residual
from oracle import fd_first_partials, fd_second_partials

Z0 = 0.9 + 0.3j
T0 = 1.3


def test_f0_plus_matches_closed_form():
    fld = make_solution("f0", {"C": 1.0}, 1)
    z, zb = Z0, Z0.conjugate()
    want = math.log(T0 * T0 + 1.0) - 2 * cmath.log(z + zb)
    assert fld.jet_at(z, zb, T0, 0).value == pytest.approx(want)


def test_f0_minus_matches_closed_form():
    fld = make_solution("f0", {"C": 0.5}, -1)
    z, zb = Z0, Z0.conjugate()
    want = math.log(T0 * T0 + 0.5) - 2 * cmath.log(z * zb + 1)
    assert fld.jet_at(z, zb, T0, 0).value == pytest.approx(want)


def test_noninv_matches_closed_form():
    b = ex.parse("z^2 + i", ("z",))
    fld = make_solution("noninv", {"b": b}, 1)
    z, zb = Z0, Z0.conjugate()
    bz = z * z + 1j
    bbz = bz.conjugate()  # bbar(zbar) = conj(b(z)) on the physical slice
    want = cmath.log(T0 + bz) + cmath.log(T0 + bbz) - 2 * cmath.log(z + zb)
    assert fld.jet_at(z, zb, T0, 0).value == pytest.approx(want)


def test_general_noninv_reduces_to_noninv_for_c_equals_z():
    b = ex.parse("z^2 + i", ("z",))
    c = ex.parse("z", ("z",))
    gen = make_solution("general_noninv", {"b": b, "c": c}, 1)
    plain = make_solution("noninv", {"b": b}, 1)
    z, zb = Z0, Z0.conjugate()
    assert gen.jet_at(z, zb, T0, 0).value == pytest.approx(plain.jet_at(z, zb, T0, 0).value)


def test_f0general_reduces_to_f0():
    # l=1, C1=0, C2=C and a=z reproduce the simple time-log family
    a = ex.parse("z", ("z",))
    gen = make_solution("f0general", {"l": 1.0, "C1": 0.0, "C2": 1.0, "a": a}, 1)
    plain = make_solution("f0", {"C": 1.0}, 1)
    z, zb = Z0, Z0.conjugate()
    assert gen.jet_at(z, zb, T0, 0).value == pytest.approx(plain.jet_at(z, zb, T0, 0).value)


def test_f0general_requires_positive_l():
    a = ex.parse("z", ("z",))
    with pytest.raises(FamilyParamMismatch):
        make_solution("f0general", {"l": -1.0, "C1": 0.0, "C2": 1.0, "a": a}, 1)


@pytest.mark.parametrize("family,params,kappa", [
    ("noninv", {"b": "z^2 + i"}, 1),
    ("noninv", {"b": "exp(z) - 2*i"}, -1),
    ("f0", {"C": 1.0}, 1),
    ("general_noninv", {"b": "z^2 + i", "c": "z^2"}, 1),
])
def test_jet_partials_match_finite_differences(family, params, kappa):
    parsed = {k: (ex.parse(v, ("z",)) if isinstance(v, str) else v)
              for k, v in params.items()}
    fld = make_solution(family, parsed, kappa)
    z0, zb0 = Z0, 0.8 - 0.35j  # deliberately off the physical slice
    J = fld.jet_at(z0, zb0, T0, 2)
    u_z, u_zb, u_t = fd_first_partials(fld, z0, zb0, T0)
    assert J.partial((1, 0, 0)) == pytest.approx(u_z, abs=1e-8)
    assert J.partial((0, 1, 0)) == pytest.approx(u_zb, abs=1e-8)
    assert J.partial((0, 0, 1)) == pytest.approx(u_t, abs=1e-8)
    u_zz, u_zbzb, u_tt, u_zzb, u_zt, u_zbt = fd_second_partials(
        fld, z0, zb0, T0)
    assert J.partial((2, 0, 0)) == pytest.approx(u_zz, abs=1e-6)
    assert J.partial((0, 2, 0)) == pytest.approx(u_zbzb, abs=1e-6)
    assert J.partial((0, 0, 2)) == pytest.approx(u_tt, abs=1e-6)
    assert J.partial((1, 1, 0)) == pytest.approx(u_zzb, abs=1e-6)
    assert J.partial((1, 0, 1)) == pytest.approx(u_zt, abs=1e-6)
    assert J.partial((0, 1, 1)) == pytest.approx(u_zbt, abs=1e-6)


def test_liouville_family_value():
    c = ex.parse("z^2", ("z",))
    fld = make_solution("liouville", {"c": c}, 1)
    z, zb = Z0, Z0.conjugate()
    want = (cmath.log(2 * z) + cmath.log(2 * zb)
            - 2 * cmath.log(z * z + zb * zb))
    assert fld.jet_at(z, zb, T0, 0).value == pytest.approx(want)


def test_domain_errors():
    fld = make_solution("f0", {"C": -4.0}, 1)
    with pytest.raises(DomainError):
        fld.jet_at(Z0, Z0.conjugate(), 1.0, 0).value  # t^2 + C < 0
    with pytest.raises(DomainError):
        fld2 = make_solution("f0", {"C": 1.0}, 1)
        fld2.jet_at(0.5j, -0.5j, 1.0, 0).value  # z + zbar = 0
    b = ex.parse("0 - z", ("z",))
    noninv = make_solution("noninv", {"b": b}, 1)
    with pytest.raises(DomainError):
        noninv.jet_at(1.0 + 0j, 1.0 + 0j, 1.0, 0).value  # t + b(z) = 0


def test_unknown_family_and_missing_params():
    with pytest.raises(FamilyParamMismatch):
        make_solution("nope", {}, 1)
    with pytest.raises(FamilyParamMismatch):
        make_solution("noninv", {}, 1)
    with pytest.raises(FamilyParamMismatch):
        make_solution("f0", {"C": 1.0}, 2)


def test_eval_u_rejects_order_beyond_engine():
    fld = make_solution("f0", {"C": 1.0}, 1)
    with pytest.raises(FamilyParamMismatch):
        eval_u(fld, Point(T0, Z0), 5)


def test_pushforward_identity_map():
    b = ex.parse("z^2 + i", ("z",))
    fld = make_solution("noninv", {"b": b}, 1)
    pushed = conformal_pushforward(fld, ex.parse("z", ("z",)))
    z, zb = Z0, Z0.conjugate()
    assert pushed.jet_at(z, zb, T0, 0).value == pytest.approx(fld.jet_at(z, zb, T0, 0).value)


def test_pushforward_scaling_map():
    fld = make_solution("f0", {"C": 1.0}, 1)
    pushed = conformal_pushforward(fld, ex.parse("2*z", ("z",)))
    z, zb = Z0, Z0.conjugate()
    want = fld.jet_at(2 * z, 2 * zb, T0, 0).value + math.log(4.0)
    assert pushed.jet_at(z, zb, T0, 0).value == pytest.approx(want)


def test_pushforward_singular_map_rejected():
    fld = make_solution("f0", {"C": 1.0}, 1)
    pushed = conformal_pushforward(fld, ex.parse("1", ("z",)))
    with pytest.raises(SingularMap):
        pushed.jet_at(Z0, Z0.conjugate(), T0, 0).value


@pytest.mark.parametrize("kappa", (1, -1))
def test_liouville_logs_take_the_real_branch_row_by_row(kappa):
    # c = z^2: c' = 2z and cbar' are negative real for real z < 0, and for
    # kappa = 1 the denominator c + cbar = 2 Re z^2 is negative where
    # |Im z| > |Re z|; gamma = ln(|c'|^2 / denominator^2) is real there
    fld = make_solution("liouville", {"c": ex.parse("z^2", ("z",))}, kappa)
    pts = [Point(1.0, -1.5 + 0j), Point(1.0, 0.3 + 1.2j), Point(1.0, 0.9 + 0.3j),
           Point(1.0, -0.4 - 1.1j), Point(1.0, -0.7 - 0.0j)]
    for order in range(5):
        for p, row in zip(pts, fld.jets_at(pts, order).rows()):
            alone = fld.jet_at(p.z, p.z.conjugate(), p.t, order)
            assert row.coeffs.tobytes() == alone.coeffs.tobytes()
    for p in pts:
        z = p.z
        denom = 2 * (z * z).real if kappa == 1 else abs(z * z) ** 2 + 1
        gamma = fld.jet_at(z, z.conjugate(), p.t, 0).value
        assert abs(gamma.imag) < 1e-15  # no i*pi left from a logarithm
        assert gamma.real == pytest.approx(math.log(abs(2 * z) ** 2 / denom ** 2), rel=1e-14)
        assert abs(liouville_residual(fld, p)) < 1e-12
