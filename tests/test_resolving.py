import cmath
import contextlib
import io
import random
import re

import numpy as np
import pytest

from heavenly import expr as ex
from heavenly.cli import _perturbed, main
from heavenly.errors import BranchCutViolation, FVanishes, NegativeDiscriminant, ParseError
from heavenly.jet import PASS_POINTS, Jet
from heavenly.resolving import (PROJ_ORDER, RVARS, ResolvingFunctions, ResolvingPoint,
                                ansatz_functions, ansatz_xi_theta, _applied, _first_order,
                                _Proj, jacobi_residual, resolving_residuals)
from test_cli_passes import sweep
from test_readme_examples import README_EXAMPLES

P_REF = ResolvingPoint(t=1.0, ut=0.8, rho=0.4, kappa=1)
PHI_TEXTS = ("1", "2", "xi", "xi*theta", "exp(-xi)")
#: PHI_TEXTS and one phi that raises where theta < 0
SIX_PHI = PHI_TEXTS + ("ln(theta)",)


def phi_expr(text):
    return ex.parse(text, ("xi", "theta"))


def sample_points(kappa, n, seed=13):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        t = rng.uniform(-2, 2)
        ut = rng.uniform(-1, 1)
        rho = kappa * rng.uniform(0.55, 2.0)
        p = ResolvingPoint(t, ut, rho, kappa)
        if p.discriminant > 1e-6:
            out.append(p)
    return out


def test_characteristic_variables_at_reference_point():
    xi_e, theta_e = ansatz_xi_theta(1)
    env = {"t": 1.0, "ut": 0.8, "rho": 0.4}
    assert ex.evaluate_value(xi_e, env) == pytest.approx(1.0)
    assert ex.evaluate_value(theta_e, env) == pytest.approx(-2.0)


def test_ansatz_values_at_reference_point():
    rf = ansatz_functions(phi_expr("2"), 1)
    env = {"t": 1.0, "ut": 0.8, "rho": 0.4}
    assert ex.evaluate_value(rf.F, env) == pytest.approx(0.128)
    assert ex.evaluate_value(rf.tau, env) == pytest.approx(-0.32)
    assert ex.evaluate_value(rf.lambda_, env) == pytest.approx(0.8 + 0.4j)
    assert ex.evaluate_value(rf.lambda_bar, env) == pytest.approx(0.8 - 0.4j)


@pytest.mark.parametrize("text", PHI_TEXTS)
@pytest.mark.parametrize("kappa", (1, -1))
def test_resolving_residuals_vanish(text, kappa):
    rf = ansatz_functions(phi_expr(text), kappa)
    for p in sample_points(kappa, 10):
        try:
            res = resolving_residuals(rf, p)
        except FVanishes:
            continue  # phi can cross zero inside the sampling box
        assert max(abs(v) for v in res.as_dict().values()) < 1e-9


def checked_pairs(rf, kappa, n=20, seed=29):
    """(point, residuals, jacobi) at the sample points where both checks
    run; phi can cross zero, and ln(theta) raises where theta < 0."""
    out = []
    for p in sample_points(kappa, n, seed=seed):
        try:
            out.append((p, resolving_residuals(rf, p), jacobi_residual(rf, p)))
        except (FVanishes, BranchCutViolation):
            continue
    assert out
    return out


@pytest.mark.parametrize("text", SIX_PHI)
@pytest.mark.parametrize("kappa", (1, -1))
def test_jacobi_identity_vanishes(text, kappa):
    rf = ansatz_functions(phi_expr(text), kappa)
    for _, _, jac in checked_pairs(rf, kappa):
        assert len(jac) == 2
        assert max(abs(v) for v in jac) <= 1e-15


def test_projected_operators_on_coordinates():
    proj = _Proj(ansatz_functions(phi_expr("2"), 1), P_REF, PROJ_ORDER)
    lam, lamb, tau = (_first_order(j, 1)[0] for j in (proj.lamj, proj.lambj, proj.tauj))
    coordinates = [_first_order(proj.seed[name], 1)[0] for name in RVARS]
    delta, Y, Ybar = zip(*(_applied(P_REF, lam, lamb, tau, g) for g in coordinates))
    # delta moves t with unit speed and u_t by the evolution equation
    assert delta == pytest.approx((1.0, 1 * 0.4 - 0.8 ** 2, -0.32))
    # Y and Ybar keep t, move u_t with unit speed and rho by lambda
    assert Y == pytest.approx((0.0, 1.0, 0.8 + 0.4j))
    assert Ybar == pytest.approx((0.0, 1.0, 0.8 - 0.4j))


def test_negative_discriminant_rejected():
    rf = ansatz_functions(phi_expr("2"), 1)
    with pytest.raises(NegativeDiscriminant):
        resolving_residuals(rf, ResolvingPoint(1.0, 2.0, 0.4, 1))


def test_f_vanishes_rejected():
    rf = ansatz_functions(phi_expr("0"), 1)
    with pytest.raises(FVanishes):
        resolving_residuals(rf, P_REF)


def test_perturbed_tau_breaks_the_system():
    rf = ansatz_functions(phi_expr("2"), 1)
    bumped = ResolvingFunctions(
        F=rf.F, lambda_=rf.lambda_, lambda_bar=rf.lambda_bar,
        tau=ex.Expr(ex.Add(rf.tau.root, ex.Const(0.1 + 0j)),
                    rf.tau.variables),
        requires_nonneg_discriminant=True)
    res = resolving_residuals(bumped, P_REF)
    assert max(abs(v) for v in res.as_dict().values()) > 1e-3


def test_perturbed_copy_starts_with_an_empty_store():
    rf = ansatz_functions(phi_expr("2"), 1)
    resolving_residuals(rf, P_REF)
    bumped = _perturbed(rf, "tau:+0.1")
    assert rf.store.stored(P_REF, "pair") and bumped.store.stored(P_REF, "pair") is None
    assert (bumped.F, bumped.lambda_, bumped.lambda_bar) == (rf.F, rf.lambda_, rf.lambda_bar)
    assert bumped.tau == ex.Expr(ex.Add(rf.tau.root, ex.Const(0.1 + 0j)), rf.tau.variables)
    assert bumped.requires_nonneg_discriminant


def test_perturb_parses_the_amount_before_it_checks_the_target():
    rf = ansatz_functions(phi_expr("2"), 1)
    with pytest.raises(ValueError, match=re.escape(
            "--perturb target must be one of ['F', 'lambda', 'lambda_bar', 'tau']")):
        _perturbed(rf, "mu:+0.1")
    with pytest.raises(ParseError):
        _perturbed(rf, "mu:+0.1*")


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("text", SIX_PHI)
@pytest.mark.parametrize("spec", ("tau:+0.1", "lambda:+0.3", "F:+1"))
def test_jacobi_residual_against_a_perturbation(spec, text, kappa):
    rf = _perturbed(ansatz_functions(phi_expr(text), kappa), spec)
    largest_r1 = 0.0
    for p, res, jac in checked_pairs(rf, kappa, n=8, seed=41):
        if spec != "F:+1":
            # a perturbed tau moves c, a perturbed lambda moves a and a_bar
            assert max(abs(v) for v in jac) > 1e-3
            continue
        # c = (ut rho + tau)/F vanishes for the ansatz's tau whatever F is,
        # so J cannot see F; R1 = delta F + 3 ut F there, so F + 1 adds 3 ut
        assert max(abs(v) for v in jac) <= 1e-15
        assert res.r1 == pytest.approx(3 * p.ut, abs=1e-9)
        largest_r1 = max(largest_r1, abs(res.r1))
    assert spec != "F:+1" or largest_r1 > 1e-3


def test_conjugate_partner_structure():
    rf = ansatz_functions(phi_expr("xi"), 1)
    for p in sample_points(1, 5, seed=3):
        env = {"t": p.t, "ut": p.ut, "rho": p.rho}
        lam = ex.evaluate_value(rf.lambda_, env)
        lamb = ex.evaluate_value(rf.lambda_bar, env)
        assert lamb == pytest.approx(lam.conjugate())


# --- one projection per point ---------------------------------------------------

def count_builds(monkeypatch):
    builds = []
    init = _Proj.__init__

    def counted(self, rf, p, order):
        builds.append(repr(p))
        init(self, rf, p, order)

    monkeypatch.setattr(_Proj, "__init__", counted)
    return builds


def both_checks(rf, p, jacobi_first=False):
    checks = (resolving_residuals, jacobi_residual)
    return [check(rf, p) for check in (checks[::-1] if jacobi_first else checks)]


@pytest.mark.parametrize("jacobi_first", (False, True))
def test_both_checks_share_one_projection(monkeypatch, jacobi_first):
    rf = ansatz_functions(phi_expr("xi*theta"), 1)
    fresh = both_checks(ansatz_functions(phi_expr("xi*theta"), 1), P_REF)
    builds = count_builds(monkeypatch)
    shared = both_checks(rf, P_REF, jacobi_first)
    assert builds == [repr(P_REF)]
    assert shared == (fresh[::-1] if jacobi_first else fresh)


def test_a_new_point_rebuilds_the_projection(monkeypatch):
    rf = ansatz_functions(phi_expr("xi*theta"), 1)
    fresh = ansatz_functions(phi_expr("xi*theta"), 1)
    other = ResolvingPoint(t=0.5, ut=-0.3, rho=0.9, kappa=1)
    # 0.0 == -0.0, but they are two points: the store keys them apart by their bits
    zero, signed = (ResolvingPoint(t=z, ut=0.3, rho=0.9, kappa=1) for z in (0.0, -0.0))
    expected = {repr(p): both_checks(fresh, p) for p in (P_REF, other, zero, signed)}
    builds = count_builds(monkeypatch)
    for p in (P_REF, other, P_REF, zero, signed):
        assert both_checks(rf, p) == expected[repr(p)]
    assert builds == [repr(p) for p in (P_REF, other, P_REF, zero, signed)]


def test_a_failed_projection_is_not_kept(monkeypatch):
    rf = ansatz_functions(phi_expr("2"), 1)
    bad = ResolvingPoint(1.0, 2.0, 0.4, 1)
    resolving_residuals(rf, P_REF)
    kept = rf.store.stored(P_REF, "pair")
    builds = count_builds(monkeypatch)
    for check in (resolving_residuals, jacobi_residual, resolving_residuals):
        with pytest.raises(NegativeDiscriminant):
            check(rf, bad)
    assert builds == [repr(bad)] * 3
    assert rf.store.stored(P_REF, "pair") is kept is not None
    assert rf.store.stored(bad, "pair") is None


def test_a_sweep_over_both_kappas_keeps_nothing():
    # delta's coefficient kappa*rho - ut^2 holds one kappa, so a projection
    # over points of both kappas raises, and each point is checked alone
    names = ("t", "ut", "rho")

    def functions():
        lam = ex.parse("ut + i*rho", names)
        return ResolvingFunctions(F=ex.parse("rho^3 + 2", names), lambda_=lam,
                                  lambda_bar=ex.conjugate(lam), tau=ex.parse("-ut*rho", names))

    points = [ResolvingPoint(1.0, 0.8, 0.4, 1), ResolvingPoint(0.5, 0.1, 0.9, -1)]
    rf, alone = functions(), functions()
    sweep(rf, points)
    assert [rf.store.stored(p, "pair") for p in points] == [None, None]
    for p in points:
        assert both_checks(rf, p) == both_checks(alone, p)
    res = resolving_residuals(rf, points[1])
    assert res.r2 == pytest.approx(0.78 - 0.36j, abs=5e-3)
    assert res.r4 == pytest.approx(21.29, abs=5e-3)


def test_f_vanishes_before_c_divides_by_it(monkeypatch):
    # F = rho^3 (xi - 2) is exactly 0 at rho = 1, ut = 0 (xi = 2); c divides
    # by F, and the point reports FVanishes alone and inside a sweep, which
    # builds one projection and whose other points keep their own bits
    zero = ResolvingPoint(t=0.5, ut=0.0, rho=1.0, kappa=1)
    alone = ansatz_functions(phi_expr("xi - 2"), 1)
    for check in (resolving_residuals, jacobi_residual):
        with pytest.raises(FVanishes):
            check(alone, zero)
    points = sample_points(1, PASS_POINTS - 1, seed=61)
    points.insert(5, zero)
    # repr round-trips every float and tells -0.0 from 0.0
    wanted = {repr(p): repr(both_checks(alone, p)) for p in points if p is not zero}
    rf = ansatz_functions(phi_expr("xi - 2"), 1)
    builds = count_builds(monkeypatch)
    sweep(rf, points)
    assert builds == [repr(points)]
    assert sorted(repr(p) for p in points if rf.store.stored(p, "pair")) == sorted(wanted)
    for p in points:
        if p is zero:
            for check in (resolving_residuals, jacobi_residual):
                with pytest.raises(FVanishes):
                    check(rf, p)
            continue
        assert repr(both_checks(rf, p)) == wanted[repr(p)]


def test_a_nan_f_is_not_f_vanishes():
    # F's integer powers overflow, so F reads inf - inf = NaN, which is not
    # below F_EPS: both checks go on to NaN results, alone and in a sweep
    def functions():
        lam = ex.parse("ut + i*sqrt(2*rho - ut^2)", RVARS)
        return ResolvingFunctions(F=ex.parse("(1e200*rho)^2 - (1e200*rho)^2", RVARS),
                                  lambda_=lam, lambda_bar=ex.conjugate(lam),
                                  tau=ex.parse("-ut*rho", RVARS))

    points = sample_points(1, 3, seed=61)
    with np.errstate(over="ignore", invalid="ignore"):
        alone = {repr(p): both_checks(functions(), p) for p in points}
        rf = functions()
        sweep(rf, points)
        assert sorted(repr(p) for p in points if rf.store.stored(p, "pair")) == sorted(alone)
        for p in points:
            res, jac = alone[repr(p)]
            assert cmath.isnan(res.r1) and all(cmath.isnan(v) for v in jac)
            # repr round-trips every float, and NaN as nan
            assert repr(both_checks(rf, p)) == repr(alone[repr(p)])


def test_a_sweep_reads_a_constant_function_at_every_point():
    # a function without variables evaluates to one unstacked jet, whose
    # row every point of the sweep reads
    names = ("t", "ut", "rho")

    def functions():
        lam = ex.parse("2 + i", names)
        return ResolvingFunctions(F=ex.parse("rho^3 + 2", names), lambda_=lam,
                                  lambda_bar=ex.conjugate(lam), tau=ex.parse("-ut*rho", names))

    points = sample_points(1, 3)
    rf, alone = functions(), functions()
    sweep(rf, points)
    assert all(rf.store.stored(p, "pair") for p in points)
    for p in points:
        assert repr(both_checks(rf, p)) == repr(both_checks(alone, p))


def is_unit(jet):
    rows = jet.coeffs.reshape(jet.depth or 1, -1)
    return bool(np.all(rows[:, 0] == 1) and not rows[:, 1:].any())


def test_readme_resolving_run_multiplies_no_unit_jet(monkeypatch):
    products = []  # per jet-by-jet product: whether an operand is a unit constant
    mul = Jet.__mul__

    def counted(self, other):
        if isinstance(other, Jet):
            products.append(is_unit(self) or is_unit(other))
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    argv = next(argv for argv in README_EXAMPLES if argv[0] == "resolving")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert products and not any(products)
