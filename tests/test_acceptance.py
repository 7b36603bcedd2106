"""Acceptance gate: the nine end-to-end criteria with pinned tolerances.

Each test prints a single PASS line with its headline number so a -s run
reads as a checklist."""

import random
import time

import pytest

from case_draws import draw_case
from heavenly import expr as ex
from heavenly.classify import (ConformallyNonInvariant, InvariantCaseMatched,
                               automorphic_consistency, classify_b,
                               verify_case)
from heavenly.errors import DomainError, FVanishes
from heavenly.fields import Point, conformal_pushforward, make_solution
from heavenly.invariants import (COMMUTATOR_PAIRS, commutator_residual,
                                 invariants_at, liouville_residual,
                                 pde_residual)
from heavenly.resolving import (ResolvingPoint, ansatz_functions,
                                jacobi_residual, resolving_residuals)
from heavenly.symmetry import x2_apply

B_PLUS = ("z^2 + i", "exp(z) + 2*i", "1/(z + 2) + i")
B_MINUS = ("z^2 - i", "exp(z) - 2*i", "1/(z + 2) - i")

GRID48 = [Point(t, complex(x, y))
          for t in (0.5, 1.0, 1.5, 2.0)
          for x in (0.5, 1.0, 1.5, 2.0)
          for y in (-0.5, 0.0, 0.5)]


def exact_solution_fields():
    for text in B_PLUS:
        yield text, 1, make_solution("noninv", {"b": ex.parse(text, ("z",))}, 1)
    for text in B_MINUS:
        yield text, -1, make_solution("noninv", {"b": ex.parse(text, ("z",))}, -1)


def test_criterion_1_exact_solution_suite():
    start = time.perf_counter()
    worst = 0.0
    for text, kappa, fld in exact_solution_fields():
        count = 0
        for p in GRID48:
            try:
                r = abs(pde_residual(fld, p))
            except DomainError:
                continue
            count += 1
            worst = max(worst, r)
        assert count >= 48, f"only {count} admissible points for b={text}"
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    print(f"criterion 1 PASS: max equation residual {worst:.3e}, "
          f"{elapsed:.2f}s")


def test_criterion_2_invariant_annihilation():
    rng = random.Random(2024)
    fld = make_solution("noninv", {"b": ex.parse("z^2 + i", ("z",))}, 1)
    pts = [Point(1.0, 1.0 + 0j), Point(0.8, 1.2 - 0.3j)]
    worst = 0.0
    for _ in range(10):
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(4)]
        text = " + ".join(
            f"({c.real:.6f} + {c.imag:.6f}*i)*z^{k}" if k else
            f"({c.real:.6f} + {c.imag:.6f}*i)" for k, c in enumerate(coeffs))
        a = ex.parse(text, ("z",))
        for p in pts:
            for name in ("T", "Ut", "Utt", "Rho", "Eta"):
                worst = max(worst, abs(x2_apply(a, name, fld, p)))
    assert worst < 1e-8
    print(f"criterion 2 PASS: max prolongation action {worst:.3e}")


def test_criterion_3_commutator_algebra():
    worst = 0.0
    for text, kappa in (("z^2 + i", 1), ("exp(z) + 2*i", 1), ("z^2 - i", -1)):
        fld = make_solution("noninv", {"b": ex.parse(text, ("z",))}, kappa)
        for p in (Point(1.0, 1.0 + 0j), Point(0.7, 0.9 - 0.25j)):
            s = invariants_at(fld, p)
            assert not s.eta_vanishes
            for pair in COMMUTATOR_PAIRS:
                for target in ("Ut", "Rho"):
                    worst = max(worst, abs(
                        commutator_residual(pair, target, fld, p)))
    assert worst < 1e-7
    print(f"criterion 3 PASS: max commutator residual {worst:.3e}")


def test_criterion_4_resolving_and_jacobi():
    worst_res, worst_jac = 0.0, 0.0
    for kappa in (1, -1):
        for text in ("1", "2", "xi", "xi*theta", "exp(-xi)"):
            rf = ansatz_functions(ex.parse(text, ("xi", "theta")), kappa)
            rng = random.Random(4000 + kappa)
            produced = 0
            while produced < 100:
                t = rng.uniform(-2, 2)
                ut = rng.uniform(-1, 1)
                rho = kappa * rng.uniform(0.55, 2.0)
                p = ResolvingPoint(t, ut, rho, kappa)
                if p.discriminant <= 1e-6:
                    continue
                try:
                    res = resolving_residuals(rf, p)
                    jac = jacobi_residual(rf, p)
                except FVanishes:
                    continue
                produced += 1
                worst_res = max(worst_res, max(abs(v) for v in res.as_dict().values()))
                worst_jac = max(worst_jac, max(abs(v) for v in jac))
    assert worst_res < 1e-9
    assert worst_jac < 1e-8
    print(f"criterion 4 PASS: resolving {worst_res:.3e}, "
          f"Jacobi {worst_jac:.3e}")


def test_criterion_5_spot_values():
    fld = make_solution("noninv", {"b": ex.parse("z^2 + i", ("z",))}, 1)
    s = invariants_at(fld, Point(1.0, 1.0 + 0j))
    expected = {"rho": 0.4, "u_t": 0.8, "u_tt": -0.24, "eta": 0.128,
                "tau": -0.32}
    for name, want in expected.items():
        assert getattr(s, name) == pytest.approx(want, abs=1e-10)
    assert s.lambda_ == pytest.approx(0.8 + 0.4j, abs=1e-10)
    xi = (2 * 1 * s.rho - s.u_t ** 2) / s.rho ** 2
    theta = s.t - (1 / s.rho) * (s.u_t + (2 * s.rho - s.u_t ** 2) ** 0.5)
    assert xi == pytest.approx(1.0, abs=1e-10)
    assert theta == pytest.approx(-2.0, abs=1e-10)
    print("criterion 5 PASS: all spot values within 1e-10")


def test_criterion_6_classification():
    grid = [Point(t, complex(x, y)) for t in (0.8, 1.1, 1.4)
            for x in (0.8, 1.2) for y in (-0.2, 0.25)]
    rng = random.Random(6)
    worst = 0.0
    checked = 0
    for kappa in (1, -1):
        for case_id in range(1, 9):
            for _ in range(10):
                case = draw_case(case_id, kappa, rng)
                if case is None:
                    break  # documented-empty combination
                worst = max(worst, verify_case(case, grid))
                checked += 1
    assert worst < 1e-8
    assert checked == 140  # 16 combinations minus the 2 empty ones, x10
    v = classify_b(ex.parse("z^2 + i", ("z",)), 1,
                   grid + [Point(1.0, 1.0 + 0j)])
    assert isinstance(v, ConformallyNonInvariant)
    for text in ("0.5", "-2*z + 1"):
        v = classify_b(ex.parse(text, ("z",)), 1, grid)
        assert isinstance(v, InvariantCaseMatched)
    print(f"criterion 6 PASS: {checked} draws, max residual {worst:.3e}")


def test_criterion_7_orbit_suite():
    worst_eq, worst_match = 0.0, 0.0
    fld = make_solution("noninv", {"b": ex.parse("z^2 + i", ("z",))}, 1)
    for phi_text in ("2*z", "z + i", "z^2/2"):
        phi = ex.parse(phi_text, ("z",))
        pushed = conformal_pushforward(fld, phi)
        for p in (Point(1.0, 1.0 + 0.2j), Point(0.7, 1.3 - 0.3j)):
            w = ex.eval_jet1(phi, p.z, 0).value
            worst_eq = max(worst_eq, abs(pde_residual(pushed, p)))
            s_new = invariants_at(pushed, p)
            s_old = invariants_at(fld, Point(p.t, w))
            worst_match = max(worst_match, abs(s_new.rho - s_old.rho),
                              abs(s_new.eta - s_old.eta))
    assert worst_eq < 1e-9
    assert worst_match < 1e-8
    print(f"criterion 7 PASS: equation {worst_eq:.3e}, "
          f"invariant match {worst_match:.3e}")


def test_criterion_8_automorphic_consistency():
    worst = 0.0
    for text, kappa, _fld in exact_solution_fields():
        b = ex.parse(text, ("z",))
        for p in GRID48[::5]:
            try:
                worst = max(worst, abs(automorphic_consistency(b, kappa, p)))
            except DomainError:
                continue
    assert worst < 1e-8
    print(f"criterion 8 PASS: max identity residual {worst:.3e}")


def test_criterion_9_liouville_suite():
    worst = 0.0
    for text in ("z", "z^2", "exp(z)"):
        for kappa in (1, -1):
            fld = make_solution("liouville",
                                {"c": ex.parse(text, ("z",))}, kappa)
            for p in GRID48:
                try:
                    worst = max(worst, abs(liouville_residual(fld, p)))
                except DomainError:
                    continue
    assert worst < 1e-9
    print(f"criterion 9 PASS: max Liouville residual {worst:.3e}")
