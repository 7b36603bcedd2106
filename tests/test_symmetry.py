import cmath
import math
import random

import numpy as np
import pytest

from heavenly import expr as ex
from heavenly import invariants, symmetry
from heavenly.fields import ROW_LEN, Point, SolutionField, make_solution, u_row, u_rows
from heavenly.invariants import (invariants_at, liouville_residual, pde_residual,
                                 swept_invariants)
from heavenly.jet import Jet
from heavenly.symmetry import (X2_TARGETS, GeneratorSpec, conf_inv_witness,
                               invariance_residual, x2_apply)
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


def test_witness_inconclusive_when_sigma_stays_symmetric():
    # u = ln(xi + t^2 + 3) with xi = i(z - zbar) = -2 Im z: sigma = sigma_bar
    fld = make_solution("confinv", {"f": ex.parse("xi + t^2 + 3", ("xi", "t")),
                                    "A": ex.parse("z", ("z",)), "a": ex.parse("1", ("z",))}, 1)
    grid = [Point(t, complex(x, y)) for t in (0.8, 1.4) for x in (0.8, 1.2) for y in (-0.2, 0.25)]
    rep = conf_inv_witness(fld, grid)
    assert rep.verdict == "inconclusive" and rep.max_asymmetry <= 1e-8
    assert rep.note == "sigma symmetry within tolerance; criterion has no converse"


def test_witness_sweep_stores_the_invariant_sets_and_rows():
    # the witness reads each point's InvariantSet: its pass keeps the set
    # and the point's row of u, and the sets keep the bits of
    # swept_invariants' pass and of invariants_at at each point alone
    b = ex.parse("z^2 + i", ("z",))
    fld = make_solution("noninv", {"b": b}, 1)
    grid = [Point(t, complex(x, y)) for t in (0.8, 1.2) for x in (1.1, 1.6) for y in (0.3, 0.6)]
    conf_inv_witness(fld, grid)
    assert [[name for name in STORED_NAMES if fld.store.stored(p, name) is not None]
            for p in grid] == [["u", "invariants"]] * len(grid)
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


def test_every_x2_target_at_a_point_evaluates_the_generator_once(monkeypatch):
    # the six targets at one point read one stored row of a: Uz, after Rho
    # and Eta, evaluates nothing; a second generator there is evaluated
    # afresh, once for all six
    gens = [ex.parse(text, ("z",)) for text in ("z^3 + (0.5 - 0.2*i)*z", "(1 + i)*z")]
    fld, p = noninv(), Point(0.7, 0.9 - 0.3j)
    evaluated = []
    evaluate = ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda e, env: evaluated.append(e) or evaluate(e, env))
    for a in gens:
        for name in X2_TARGETS:
            x2_apply(a, name, fld, p)
        assert [e for e in evaluated if e in gens] == gens[:gens.index(a) + 1]
    assert bits(x2_apply(gens[1], "Uz", fld, p)) == bits(x2_apply(gens[1], "Uz", noninv(), p))


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
        kept, row = fld.store.stored(p, "a")
        jet = ex.eval_jet1(a, p.z, 2)
        assert kept is a and [bits(v) for v in row] == [
            bits(v) for v in (jet.value, jet.partial((1,)), jet.partial((2,)))]
        # a' of the order-2 row is a' of an order-1 evaluation, bit for bit
        assert bits(row[1]) == bits(ex.eval_jet1(a, p.z, 1).partial((1,)))
    # one evaluation per switch on fld, one per fresh field and two per check
    assert sum(e in gens for e in evaluated) == 6 + 12 + 12


def test_x2_after_an_order_1_sweep_builds_one_order_3_jet(monkeypatch):
    # the sweep's order-1 row gives way to the row of one order-3 build,
    # whose prefix is the order-1 row, bit for bit
    a = ex.parse("z^2", ("z",))
    fld = noninv()
    pts = [Point(t, complex(x, 0.3)) for t in (0.8, 1.2) for x in (1.1, 1.6)]
    fill(fld, pts, u_rows(1))
    row = u_row(fld, pts[1], 1)
    orders = []
    jet_at = SolutionField.jet_at
    monkeypatch.setattr(SolutionField, "jet_at", lambda self, z0, zb0, t0, order:
                        orders.append(order) or jet_at(self, z0, zb0, t0, order))
    values = [x2_apply(a, name, fld, pts[1]) for name in INVARIANT_TARGETS]
    assert orders == [3]
    assert len(row) == ROW_LEN[1]
    assert [bits(v) for v in u_row(fld, pts[1], 1)[:ROW_LEN[1]]] == [bits(v) for v in row]
    assert len(u_row(fld, pts[1], 3)) == ROW_LEN[3] and orders == [3]
    fresh = [x2_apply(a, name, noninv(), pts[1]) for name in INVARIANT_TARGETS]
    assert [bits(v) for v in values] == [bits(v) for v in fresh]


def stored_field(entry: complex, u0: complex) -> SolutionField:
    """A field whose row at any point holds u0 and then `entry` throughout."""
    coeffs = np.full((4, 4, 4), entry)
    coeffs[0, 0, 0] = u0
    jet = Jet(coeffs)
    return SolutionField("fixed", 1, _builder=lambda z0, zb0, t0, order: jet)


C = complex(-0.0, -1.0)
#: a reader, and a row and a generator on which its value shows the sign of
#: a stored zero, as (entry, u0, reader)
STORED_READS = {
    "equation": (C, complex(-math.inf, 0.0), pde_residual),
    "liouville": (C, complex(-math.inf, 0.0), liouville_residual),
    "x2_Uz": (C, C, lambda fld, p: x2_apply(ex.parse("-i", ("z",)), "Uz", fld, p)),
    "x2_Eta": (C, C, lambda fld, p: x2_apply(ex.parse("1", ("z",)), "Eta", fld, p)),
    "criterion": (complex(-0.0, -0.0), 0j,
                  lambda fld, p: invariance_residual(fld, GeneratorSpec(alpha=1.0), p)),
}


@pytest.mark.parametrize("reader", STORED_READS)
def test_readers_take_row_entries_as_stored(reader):
    # a row entry times 1 is not always the entry: (-0.0 - 1j) * 1 has a real
    # part of +0.0, so a reader that took that product would give both rows
    # one value.  x2's Rho maps both signs of a zero to one value on every
    # row tried, and T, Ut and Utt read no entry.
    entry, u0, read = STORED_READS[reader]
    p = Point(1.0, 1.0 + 0j)
    assert bits(entry * 1) != bits(entry)
    got = read(stored_field(entry, u0), p)
    assert bits(got) != bits(read(stored_field(entry * 1, u0), p))
    want = {"equation": lambda: entry - 1 * cmath.exp(u0) * (entry * 2 + entry * entry),
            "liouville": lambda: entry - 2.0 * 1 * cmath.exp(u0),
            "criterion": lambda: 1.0 * entry + 0j * entry + 0j * entry - (0.0 - 0j - 0j)}
    if reader in want:
        assert bits(got) == bits(want[reader]())


A2 = ex.parse("z^2", ("z",))
#: each reader of a point's row, with the row order it asks for: the
#: lowest order of the entries its formula reads, but for x2, whose targets
#: share one order-2 row at a point
READ_ORDERS = {
    "equation": (pde_residual, 2),
    "liouville": (liouville_residual, 2),
    "invariants": (invariants_at, 3),
    **{f"x2_{name}": (lambda fld, p, name=name: x2_apply(A2, name, fld, p), 2)
       for name in X2_TARGETS},
    "criterion": (lambda fld, p: invariance_residual(fld, GeneratorSpec(0.5, 0.2, A2), p), 1),
}
#: the x2 targets that read no entry of degree 2
LOW_X2 = ("x2_T", "x2_Ut", "x2_Utt", "x2_Uz")


@pytest.mark.parametrize("reader", READ_ORDERS)
def test_each_reader_asks_for_the_row_order_it_reads(monkeypatch, reader):
    read, order = READ_ORDERS[reader]
    p = Point(0.7, 0.9 - 0.3j)
    full, want = u_row(noninv(), p, 3), read(noninv(), p)
    asked = []

    def rows_of(length):
        def stub(field, q, k):
            asked.append(k)
            return full[:length]
        for module in (invariants, symmetry):
            monkeypatch.setattr(module, "u_row", stub)

    rows_of(ROW_LEN[order])
    got = read(noninv(), p)
    assert asked == [order]
    assert repr(got) == repr(want)
    rows_of(ROW_LEN[order - 1])
    if reader in LOW_X2:
        assert repr(read(noninv(), p)) == repr(want)
    else:
        with pytest.raises((IndexError, ValueError)):
            read(noninv(), p)
