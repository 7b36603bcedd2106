import pytest

from reference_calculus import CALCULUS_ROUNDOFFS, EPS, RefCalculus

from heavenly import expr as ex
from heavenly.errors import EtaVanishes
from heavenly.fields import MAX_ORDER, Point, SolutionField, make_solution, u_row
from heavenly.invariants import (COMMUTATOR_PAIRS, COMMUTATOR_TARGETS, ETA_TOL, JetCalculus,
                                 commutator_residual, invariants_at, liouville_residual,
                                 pde_residual)
from heavenly.jet import Jet
from heavenly.symmetry import x2_apply
from test_bundle import STORED_NAMES

P_REF = Point(1.0, 1.0 + 0j)


@pytest.fixture
def noninv_plus():
    return make_solution("noninv", {"b": ex.parse("z^2 + i", ("z",))}, 1)


def test_spot_values_on_reference_solution(noninv_plus):
    """Hand-computed values at (t=1, z=1) for b = z^2 + i:
    t+b = 2+i, |t+b|^2 = 5, u = ln(5/4)."""
    s = invariants_at(noninv_plus, P_REF)
    assert s.u_t == pytest.approx(0.8, abs=1e-12)
    assert s.u_tt == pytest.approx(-0.24, abs=1e-12)
    assert s.rho == pytest.approx(0.4, abs=1e-12)
    assert s.eta == pytest.approx(0.128, abs=1e-12)
    assert s.tau == pytest.approx(-0.32, abs=1e-12)
    assert s.lambda_ == pytest.approx(0.8 + 0.4j, abs=1e-12)
    assert s.lambda_bar == pytest.approx(0.8 - 0.4j, abs=1e-12)
    assert abs(s.sigma - s.sigma_bar) == pytest.approx(0.1024, abs=1e-12)


@pytest.mark.parametrize("family,params,kappa", [
    ("f0", {"C": 1.0}, 1),
    ("f0", {"C": 1.0}, -1),
    ("noninv", {"b": "z^2 + i"}, 1),
    ("noninv", {"b": "z^2 - i"}, -1),
    ("noninv", {"b": "exp(z) + 2*i"}, 1),
    ("general_noninv", {"b": "z^2 + i", "c": "z^2"}, 1),
])
def test_pde_residual_vanishes_on_solutions(family, params, kappa):
    parsed = {k: (ex.parse(v, ("z",)) if isinstance(v, str) else v)
              for k, v in params.items()}
    fld = make_solution(family, parsed, kappa)
    for p in (Point(0.7, 0.8 + 0.2j), Point(1.4, 1.1 - 0.3j)):
        assert abs(pde_residual(fld, p)) < 1e-12


def test_liouville_residual_vanishes():
    for text, kappa in (("z", 1), ("z^2", 1), ("exp(z)", -1)):
        fld = make_solution("liouville", {"c": ex.parse(text, ("z",))}, kappa)
        assert abs(liouville_residual(fld, Point(0.0, 0.6 + 0.2j))) < 1e-12


def test_invariant_equation_on_invariants(noninv_plus):
    # u_tt = kappa rho - u_t^2
    s = invariants_at(noninv_plus, P_REF)
    assert s.u_tt - (1 * s.rho - s.u_t ** 2) == pytest.approx(0.0, abs=1e-12)


def test_eta_vanishes_on_separable_family():
    fld = make_solution("f0", {"C": 1.0}, 1)
    s = invariants_at(fld, P_REF)
    assert s.eta_vanishes
    assert s.lambda_ is None
    calc = JetCalculus([u_row(fld, P_REF, MAX_ORDER)])  # builds: only Y, Ybar and the commutators need 1/eta
    assert abs(calc.points[0]["Eta"][0]) < ETA_TOL
    with pytest.raises(EtaVanishes):
        commutator_residual(("delta", "Y"), "Rho", fld, P_REF)


def applied_to_rho(fld, p, op):
    """op on rho at p, one operator applied to the jet of rho, and the sum
    of the moduli of the terms it is made of."""
    return (RefCalculus(fld, p).applied(op, "Rho").value,
            abs(RefCalculus(fld, p, of_terms=True).applied(op, "Rho").value))


def test_delta_of_rho_is_tau(noninv_plus):
    s = invariants_at(noninv_plus, P_REF)
    want, size = applied_to_rho(noninv_plus, P_REF, "delta")
    assert abs(s.tau - want) <= CALCULUS_ROUNDOFFS * EPS * size


def test_sigma_is_delta_of_rho(noninv_plus):
    s = invariants_at(noninv_plus, P_REF)
    for got, op in ((s.sigma, "Delta"), (s.sigma_bar, "DeltaBar")):
        want, size = applied_to_rho(noninv_plus, P_REF, op)
        assert abs(got - want) <= CALCULUS_ROUNDOFFS * EPS * size, op


@pytest.mark.parametrize("pair", COMMUTATOR_PAIRS)
@pytest.mark.parametrize("target", ("Ut", "Rho"))
def test_commutator_algebra(noninv_plus, pair, target):
    for p in (P_REF, Point(0.7, 0.8 - 0.25j)):
        assert abs(commutator_residual(pair, target, noninv_plus, p)) < 1e-7


@pytest.mark.parametrize("pair", COMMUTATOR_PAIRS)
def test_commutator_algebra_kappa_minus(pair):
    fld = make_solution("noninv", {"b": ex.parse("z^2 - i", ("z",))}, -1)
    p = Point(1.2, 0.9 + 0.2j)
    assert abs(commutator_residual(pair, "Ut", fld, p)) < 1e-7


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family,params", [
    ("f0", {"C": 1.0}),
    ("f0general", {"l": 1.0, "C1": 0.5, "C2": 1.0, "a": ex.parse("z^2 + 1", ("z",))}),
])
@pytest.mark.parametrize("target", ("Ut", "Rho"))
@pytest.mark.parametrize("pair", COMMUTATOR_PAIRS)
def test_every_commutator_raises_where_eta_vanishes(pair, target, family, params, kappa):
    # eta = 0 exactly on the separable families; every right-hand side
    # divides by eta
    fld = make_solution(family, params, kappa)
    p = Point(1.0, 1 + 0.5j)
    assert invariants_at(fld, p).eta_vanishes
    with pytest.raises(EtaVanishes):
        commutator_residual(pair, target, fld, p)


# --- what a commutator check costs, and that it can fail ------------------------

def test_the_twelve_commutators_build_at_most_40_jets(noninv_plus, monkeypatch):
    p = Point(0.9, 1.1 + 0.35j)
    invariants_at(noninv_plus, p)
    built = []
    post_init = Jet.__post_init__
    monkeypatch.setattr(Jet, "__post_init__", lambda self: built.append(1) or post_init(self))
    for pair in COMMUTATOR_PAIRS:
        for target in COMMUTATOR_TARGETS:
            commutator_residual(pair, target, noninv_plus, p)
    # the bracket identities read the calculus's coefficients and first
    # partials as scalars
    assert not built


def test_the_first_call_stores_all_twelve(noninv_plus):
    p = Point(0.9, 1.1 + 0.35j)
    value = commutator_residual(("delta", "Y"), "Rho", noninv_plus, p)
    residuals = noninv_plus.store.stored(p, "commutators")
    assert set(residuals) == {(pair, target) for pair in COMMUTATOR_PAIRS
                              for target in COMMUTATOR_TARGETS}
    assert residuals[("delta", "Y"), "Rho"] is value
    for (pair, target), kept in residuals.items():
        assert commutator_residual(pair, target, noninv_plus, p) is kept
    with pytest.raises(ValueError):
        commutator_residual(("Y", "delta"), "Rho", noninv_plus, p)
    with pytest.raises(ValueError):
        commutator_residual(("delta", "Y"), "Eta", noninv_plus, p)


def test_unknown_names_raise_before_any_evaluation():
    # eta vanishes on f0, and the point is outside its domain: a typo must
    # not read as an exclusion
    fld = make_solution("f0", {"C": 1.0}, 1)
    for pair, target in ((("Y", "delta"), "Rho"), (("delta", "Y"), "Eta")):
        with pytest.raises(ValueError):
            commutator_residual(pair, target, fld, P_REF)
    with pytest.raises(ValueError):
        x2_apply(ex.parse("z^2", ("z",)), "Nope", fld, Point(1.0, -1.5 + 0.5j))
    assert not [name for p in (P_REF, Point(1.0, -1.5 + 0.5j)) for name in STORED_NAMES
                if fld.store.stored(p, name) is not None]


def test_a_call_where_eta_vanishes_stores_nothing():
    fld = make_solution("f0", {"C": 1.0}, 1)
    for _ in range(2):
        with pytest.raises(EtaVanishes):
            commutator_residual(("delta", "Delta"), "Ut", fld, P_REF)
        assert fld.store.stored(P_REF, "commutators") is None


def perturbed_noninv():
    """noninv (b = z^2 + i, kappa = +1) with 0.05 t^2 z zbar added to u: no
    solution of the heavenly equation."""
    base = make_solution("noninv", {"b": ex.parse("z^2 + i", ("z",))}, 1)

    def builder(z0, zb0, t0, order):
        z, zb, t = (Jet.variable(i, v, 3, order) for i, v in enumerate((z0, zb0, t0)))
        return base.jet_at(z0, zb0, t0, order) + 0.05 * (t * t * z * zb)

    return SolutionField(base.family, base.kappa, base.params, _builder=builder)


IDENTITIES = (("Delta", "DeltaBar"), ("Y", "Ybar"))
#: [delta, Delta] on the perturbed field at (0.9, 1.1 + 0.35i), per target
PERTURBED_DELTA_DELTA = {"Ut": -0.0073325 + 0.0359481j, "Rho": -0.0313582 + 0.0126156j}


@pytest.mark.parametrize("target", COMMUTATOR_TARGETS)
@pytest.mark.parametrize("pair", COMMUTATOR_PAIRS)
def test_commutators_fail_on_a_perturbed_field(pair, target):
    fld = perturbed_noninv()
    p = Point(0.9, 1.1 + 0.35j)
    assert abs(pde_residual(fld, p)) > 0.4
    residual = abs(commutator_residual(pair, target, fld, p))
    if pair in IDENTITIES:
        # [Delta, DeltaBar] and [Y, Ybar] hold for any u: they check the
        # formulas, not the field
        assert residual < 1e-12
    else:
        assert residual > 1e-3
    if pair == ("delta", "Delta"):
        # m . d X with m = d_t a - (kappa sigma_bar/eta - 3 u_t) a, a = e^-u u_{zbar t},
        # as the two-round expansion read it
        assert commutator_residual(pair, target, fld, p) == pytest.approx(
            PERTURBED_DELTA_DELTA[target], abs=1e-7)
