import cmath
import math

import numpy as np
import pytest

from heavenly import expr as ex
from heavenly.errors import DomainError, FamilyParamMismatch, SingularMap
from heavenly.fields import MAX_ORDER, Point, conformal_pushforward, make_solution, u_row
from heavenly.invariants import liouville_residual
from heavenly import fields
from heavenly.jet import Jet
from oracle import fd_first_partials, fd_second_partials
from test_bundle import FAMILIES, build, outcome, points, stacked_build
from test_reference_kernels import builder_points, ref_builder

Z0 = 0.9 + 0.3j
T0 = 1.3


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family", ("noninv", "general_noninv"))
def test_a_stacked_z_with_one_shared_zbar_is_off_the_slice(family, kappa):
    # two rows of z against one zbar = conj(z1): the build evaluates bbar,
    # and each row is bit for bit the lone build at (z_r, conj(z1))
    fld = build(family, kappa)
    z1, z2 = Z0, 1.2 - 0.4j
    rows = fld.jet_at((z1, z2), z1.conjugate(), T0, 3).rows()
    for row, z in zip(rows, (z1, z2)):
        assert row.coeffs.tobytes() == fld.jet_at(z, z1.conjugate(), T0, 3).coeffs.tobytes()


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


def test_an_error_of_the_build_in_a_log_is_not_an_exclusion(monkeypatch):
    # a logarithm's domain errors exclude the point; any other error that
    # Jet.log raises is a fault of the build and ends the run
    def broken(self):
        raise TypeError("broken log")

    monkeypatch.setattr(Jet, "log", broken)
    noninv = make_solution("noninv", {"b": ex.parse("z^2 + i", ("z",))}, 1)
    with pytest.raises(TypeError, match="broken log"):
        noninv.jet_at(Z0, Z0.conjugate(), 1.0, 1)


def test_unknown_family_and_missing_params():
    with pytest.raises(FamilyParamMismatch):
        make_solution("nope", {}, 1)
    with pytest.raises(FamilyParamMismatch):
        make_solution("noninv", {}, 1)
    with pytest.raises(FamilyParamMismatch):
        make_solution("f0", {"C": 1.0}, 2)


def test_u_row_rejects_order_beyond_engine():
    fld = make_solution("f0", {"C": 1.0}, 1)
    with pytest.raises(FamilyParamMismatch):
        u_row(fld, Point(T0, Z0), MAX_ORDER + 1)
    with pytest.raises(FamilyParamMismatch):
        fld.jets_at([Point(T0, Z0)], MAX_ORDER + 1)


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
    for order in range(5):  # order 4 too, past MAX_ORDER
        for p, row in zip(pts, stacked_build(fld, pts, order).rows()):
            alone = fld.jet_at(p.z, p.z.conjugate(), p.t, order)
            assert row.coeffs.tobytes() == alone.coeffs.tobytes()
    for p in pts:
        z = p.z
        denom = 2 * (z * z).real if kappa == 1 else abs(z * z) ** 2 + 1
        gamma = fld.jet_at(z, z.conjugate(), p.t, 0).value
        assert abs(gamma.imag) < 1e-15  # no i*pi left from a logarithm
        assert gamma.real == pytest.approx(math.log(abs(2 * z) ** 2 / denom ** 2), rel=1e-14)
        assert abs(liouville_residual(fld, p)) < 1e-12


# --- u is real on the physical slice ---------------------------------------------
# With zbar = conj(z), u is real, so its Taylor coefficients in the formally
# independent (z, zbar, t) satisfy c_{ijk} = conj(c_{jik}).

#: the bound on |c_{ijk} - conj(c_{jik})|, relative to max(1, max |c|)
REALITY_BOUND = 1e-14


def reality_gap(jet):
    """max |c_{ijk} - conj(c_{jik})| over max(1, max |c|) of a u-jet."""
    c = jet.coeffs
    return np.abs(c - np.swapaxes(c, 0, 1).conj()).max() / max(1.0, np.abs(c).max())


def on_slice_jets(make):
    """The order-MAX_ORDER u-jets of each family and kappa at test_bundle's
    points, from make(field), a builder (z0, zb0, t0, order) -> jet."""
    for kappa in (1, -1):
        for family, *_ in FAMILIES:
            builder = make(build(family, kappa))
            for p in points(kappa):
                yield family, kappa, builder(p.z, p.z.conjugate(), p.t, MAX_ORDER)


@pytest.mark.parametrize("make", [lambda fld: fld.jet_at, ref_builder],
                         ids=["builders", "three-variable builders"])
def test_u_jets_are_real_on_the_slice(make):
    gaps = [(family, kappa, reality_gap(jet)) for family, kappa, jet in on_slice_jets(make)]
    assert len(gaps) == 2 * len(FAMILIES) * 3
    assert max(gap for *_, gap in gaps) <= REALITY_BOUND, max(gaps, key=lambda g: g[2])


def keeps_its_constants(monkeypatch):
    # a partner built from its expression without conjugating its constants:
    # ln(zbar^2 + i) is no conjugate partner of ln(z^2 + i)
    monkeypatch.setattr(fields, "_bar", lambda e: e)


def not_conjugated(monkeypatch):
    monkeypatch.setattr(fields, "swapped_conjugate", lambda j: Jet(
        np.swapaxes(j.coeffs, -3, -2).copy(), depth=j.depth))


def not_swapped(monkeypatch):
    monkeypatch.setattr(fields, "swapped_conjugate", lambda j: Jet(j.coeffs.conj(),
                                                                   depth=j.depth))


@pytest.mark.parametrize("family,params,broken", [
    # cbar is still evaluated on the slice, so it still comes from _bar
    ("liouville", {"c": "z^2 + i"}, keeps_its_constants),
    # the two-logarithm partner on the slice is ln(t + b(z)) conjugated and
    # transposed; each half of that alone is no partner
    ("noninv", {"b": "z^2 + i"}, not_conjugated),
    ("noninv", {"b": "z^2 + i"}, not_swapped),
], ids=["cbar keeps its constants", "two-log partner not conjugated",
        "two-log partner not swapped"])
def test_reality_fails_where_a_partner_is_broken(monkeypatch, family, params, broken):
    broken(monkeypatch)
    fld = make_solution(family, {k: ex.parse(v, ("z",)) for k, v in params.items()}, 1)
    p = points(1)[0]
    assert reality_gap(fld.jet_at(p.z, p.z.conjugate(), p.t, MAX_ORDER)) > 0.1


# --- the partner of ln(t + b(z)) on the slice -------------------------------------
# Where every row's zbar is conj(z) bit for bit, the two-logarithm families
# take ln(t + bbar(zbar)) as ln(t + b(z)) conjugated and transposed, and never
# evaluate bbar; every other call evaluates it.

def bbar_evaluations(monkeypatch, b):
    """A list that gets one entry per evaluation of the partner that
    `fields._bar` makes of the Expr b from now on."""
    partners, calls = [], []
    bar, evaluate = fields._bar, ex.evaluate

    def recording_bar(e):
        made = bar(e)
        if e is b:
            partners.append(made)
        return made

    def counting_evaluate(e, env):
        if any(e is p for p in partners):
            calls.append(env)
        return evaluate(e, env)

    monkeypatch.setattr(fields, "_bar", recording_bar)
    monkeypatch.setattr(ex, "evaluate", counting_evaluate)
    return calls


TWO_LOG_FIELDS = {
    "noninv": lambda b, kappa: make_solution("noninv", {"b": b}, kappa),
    "general_noninv": lambda b, kappa: make_solution(
        "general_noninv", {"b": b, "c": ex.parse("z^2", ("z",))}, kappa),
    "pushforward": lambda b, kappa: conformal_pushforward(
        make_solution("noninv", {"b": b}, kappa), ex.parse("z^2/2 + z", ("z",))),
}


def conjugates(z0, zb0) -> bool:
    """Whether zb0 is conj(z0) bit for bit, row by row (a tuple is a stack)."""
    bits = lambda w: (complex(w).real.hex(), complex(w).imag.hex())
    rows = lambda v: v if type(v) is tuple else (v,)
    return all(bits(complex(z).conjugate()) == bits(zb) for z, zb in zip(rows(z0), rows(zb0)))


def test_the_slice_is_told_by_bits(monkeypatch):
    b = ex.parse("z^2 - i", ("z",))
    calls = bbar_evaluations(monkeypatch, b)
    fld = make_solution("noninv", {"b": b}, -1)
    z1, z2 = Z0, 1.3 - 0.4j
    for z0, zb0, evaluated in [
        (complex(1.2, 0.0), complex(1.2, -0.0), 0),  # the conjugate, bit for bit
        (complex(1.2, 0.0), complex(1.2, 0.0), 1),   # == the conjugate, but +0 is not -0
        (complex(-0.0, 0.5), complex(0.0, -0.5), 1),  # nor here, in the real part
        (z1, 0.7 * z1 + 0.1, 1),                      # off the slice
        ((z1, z2), (z1.conjugate(), z2.conjugate()), 0),
        ((z1, z2), (z1.conjugate(), z2), 1),          # one off-slice row: one stacked evaluation
    ]:
        del calls[:]
        t0 = T0 if type(z0) is complex else (T0, T0)
        fld.jet_at(z0, zb0, t0, 2)
        assert len(calls) == evaluated, (z0, zb0)
        assert conjugates(z0, zb0) == (not evaluated)


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("b_text", ("z^2 + i", "z^2"))
@pytest.mark.parametrize("family", list(TWO_LOG_FIELDS))
def test_the_partner_on_the_slice_keeps_the_evaluated_bits(monkeypatch, family, b_text, kappa):
    # grid-suite's points with the images under z -> -z (Re z < 0, outside
    # the domain of noninv for kappa = +1), real z of both signs and signed
    # zero parts.  A pushforward's two logarithms are at (phi, phibar) of
    # the point; for this phi those are conjugates bit for bit only off the
    # real axis, where a zero imaginary part of a jet's sum is +0 on both
    # sides.
    b = ex.parse(b_text, ("z",))
    calls = bbar_evaluations(monkeypatch, b)
    fld = TWO_LOG_FIELDS[family](b, kappa)
    two_logs = fld.params.get("inner", fld)
    at, builder = [], two_logs._builder
    object.__setattr__(two_logs, "_builder", lambda *args: at.append(args[:2]) or builder(*args))
    pts = builder_points(kappa)
    raised = shortcut = 0
    for order in range(MAX_ORDER + 1):
        builds = [lambda p=p: fld.jet_at(p.z, p.z.conjugate(), p.t, order) for p in pts]
        good = [p for p, make in zip(pts, builds) if outcome(make)[0] == "jet"]
        builds.append(lambda: stacked_build(fld, good, order))
        builds.append(lambda: stacked_build(fld, pts, order))  # raises where a point raises
        for make in builds:
            del calls[:], at[:]
            got = outcome(make)
            if at:  # the build reached the two logarithms
                assert bool(calls) != conjugates(*at[0]), at[0]
                shortcut += not calls
            with monkeypatch.context() as m:
                m.setattr(fields, "_on_slice", lambda z0, zb0: False)
                assert got == outcome(make)
            raised += got[0] == "raised"
    assert shortcut >= len(pts)
    assert raised or kappa == -1
