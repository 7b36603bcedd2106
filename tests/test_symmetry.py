import random

import pytest

from heavenly import expr as ex
from heavenly.fields import Point, SolutionField, eval_u, make_solution, u_jets
from heavenly.invariants import invariants_at, swept_invariants
from heavenly.symmetry import (GeneratorSpec, conf_inv_witness, invariance_residual,
                               x2_apply)
from test_bundle import STORED_NAMES, fill

INVARIANT_TARGETS = ("T", "Ut", "Utt", "Rho", "Eta")


def random_poly_text(rng, degree=3):
    coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
              for _ in range(degree + 1)]
    terms = [f"({c.real:.6f} + {c.imag:.6f}*i)*z^{k}" if k else
             f"({c.real:.6f} + {c.imag:.6f}*i)"
             for k, c in enumerate(coeffs)]
    return " + ".join(terms)


def test_prolongation_annihilates_invariants():
    rng = random.Random(41)
    fld = make_solution("noninv", {"b": ex.parse("z^2 + i", ("z",))}, 1)
    pts = [Point(1.0, 1.0 + 0j), Point(0.7, 0.9 - 0.3j)]
    for _ in range(10):
        a = ex.parse(random_poly_text(rng), ("z",))
        for p in pts:
            for name in INVARIANT_TARGETS:
                assert abs(x2_apply(a, name, fld, p)) < 1e-8


def test_prolongation_detects_non_invariant_coordinate():
    fld = make_solution("noninv", {"b": ex.parse("z^2 + i", ("z",))}, 1)
    a = ex.parse("z^2", ("z",))
    # u_z is not a differential invariant, so the action must not vanish
    assert abs(x2_apply(a, "Uz", fld, Point(1.0, 1.0 + 0j))) > 0.1


def test_invariance_criterion_for_separable_families():
    f0p = make_solution("f0", {"C": 1.0}, 1)
    gen = GeneratorSpec(0.0, 0.0, ex.parse("i", ("z",)))
    p = Point(1.0, 1.0 + 0.2j)
    assert abs(invariance_residual(f0p, gen, p)) < 1e-12
    f0m = make_solution("f0", {"C": 1.0}, -1)
    gen_rot = GeneratorSpec(0.0, 0.0, ex.parse("i*z", ("z",)))
    assert abs(invariance_residual(f0m, gen_rot, p)) < 1e-12


def test_invariance_criterion_fails_off_symmetry():
    fld = make_solution("noninv", {"b": ex.parse("z^2 + i", ("z",))}, 1)
    gen = GeneratorSpec(0.0, 0.0, ex.parse("i", ("z",)))
    assert abs(invariance_residual(fld, gen, Point(1.0, 1.0 + 0j))) > 0.1


def test_witness_fires_for_generic_b():
    fld = make_solution("noninv", {"b": ex.parse("z^2 + i", ("z",))}, 1)
    grid = [Point(1.0, 1.0 + 0j), Point(0.8, 1.2 + 0.1j)]
    rep = conf_inv_witness(fld, grid)
    assert rep.verdict == "conformally non-invariant"
    assert rep.max_asymmetry == pytest.approx(0.1024, abs=1e-10) or \
        rep.max_asymmetry > 0.1


def test_witness_inconclusive_when_eta_vanishes():
    fld = make_solution("f0", {"C": 1.0}, 1)
    rep = conf_inv_witness(fld, [Point(1.0, 1.0 + 0j)])
    assert rep.verdict == "inconclusive"
    assert "eta" in rep.note


def test_witness_sweep_stores_only_the_invariant_sets():
    # the witness reads each point's InvariantSet and nothing else of the
    # store: its pass keeps no u-jet, and the sets keep the bits of
    # swept_invariants' pass and of invariants_at at each point alone
    b = ex.parse("z^2 + i", ("z",))
    fld = make_solution("noninv", {"b": b}, 1)
    grid = [Point(t, complex(x, y)) for t in (0.8, 1.2) for x in (1.1, 1.6) for y in (0.3, 0.6)]
    conf_inv_witness(fld, grid)
    assert [[name for name in STORED_NAMES if fld.store.stored(p, name) is not None]
            for p in grid] == [["invariants"]] * len(grid)
    hexes = lambda s: [None if v is None else (complex(v).real.hex(), complex(v).imag.hex())
                       for v in vars(s).values()]
    swept = swept_invariants(make_solution("noninv", {"b": b}, 1), grid)
    for p, values in zip(grid, swept):
        s = fld.store.stored(p, "invariants")
        assert hexes(s) == hexes(values["invariants"])
        assert hexes(s) == hexes(invariants_at(make_solution("noninv", {"b": b}, 1), p))


B = "z^2 + i"


def noninv():
    return make_solution("noninv", {"b": ex.parse(B, ("z",))}, 1)


def bits(w: complex):
    return w.real.hex(), w.imag.hex()


def test_the_invariant_targets_evaluate_the_generator_once(monkeypatch):
    # Rho and Eta read a's first derivatives, kept in the field's store
    # with a: at each fresh point the five targets evaluate a once
    a = ex.parse("z^3 + (0.5 - 0.2*i)*z", ("z",))
    fld = noninv()
    evaluated = []
    evaluate = ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda e, env: evaluated.append(e) or evaluate(e, env))
    for p in (Point(1.0, 1.0 + 0j), Point(0.7, 0.9 - 0.3j), Point(1.0, 1.0 + 0j)):
        for name in INVARIANT_TARGETS:
            x2_apply(a, name, fld, p)
    assert sum(e is a for e in evaluated) == 3


def test_a_second_generator_at_a_point_gets_its_own_values(monkeypatch):
    # generators that alternate at one point, one of them == but not the
    # same object: each is evaluated afresh, and every value has the bits
    # of a fresh field's
    texts = ("z^3 + (0.5 - 0.2*i)*z", "(1 + i)*z", "z^3 + (0.5 - 0.2*i)*z")
    gens = [ex.parse(text, ("z",)) for text in texts]
    fld, p = noninv(), Point(0.7, 0.9 - 0.3j)
    evaluated = []
    evaluate = ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda e, env: evaluated.append(e) or evaluate(e, env))
    for a in gens * 2:
        for name in ("Rho", "Eta"):
            got = x2_apply(a, name, fld, p)
            assert bits(got) == bits(x2_apply(a, name, noninv(), p)), (str(a), name)
        kept, a1, ab1 = fld.store.stored(p, "a'")
        first = ex.eval_jet1(a, p.z, 1).partial((1,))
        assert kept is a and bits(a1) == bits(first) and bits(ab1) == bits(first.conjugate())
    # one evaluation per switch on fld, one per fresh field and one per check
    assert sum(e in gens for e in evaluated) == 6 + 12 + 6


def test_x2_after_an_order_1_sweep_builds_one_order_3_jet(monkeypatch):
    # the sweep's order-1 row gives way to one order-3 build, whose
    # truncation is the row, bit for bit
    a = ex.parse("z^2", ("z",))
    fld = noninv()
    pts = [Point(t, complex(x, 0.3)) for t in (0.8, 1.2) for x in (1.1, 1.6)]
    fill(fld, pts, u_jets(1))
    row = eval_u(fld, pts[1], 1)
    orders = []
    jet_at = SolutionField.jet_at
    monkeypatch.setattr(SolutionField, "jet_at", lambda self, z0, zb0, t0, order:
                        orders.append(order) or jet_at(self, z0, zb0, t0, order))
    values = [x2_apply(a, name, fld, pts[1]) for name in INVARIANT_TARGETS]
    assert orders == [3]
    assert eval_u(fld, pts[1], 1).coeffs.tobytes() == row.coeffs.tobytes()
    assert eval_u(fld, pts[1], 3).order == 3 and orders == [3]
    fresh = [x2_apply(a, name, noninv(), pts[1]) for name in INVARIANT_TARGETS]
    assert [bits(v) for v in values] == [bits(v) for v in fresh]
