import random

import pytest

from heavenly import expr as ex
from heavenly.fields import Point, make_solution
from heavenly.invariants import invariants_at, swept_invariants
from heavenly.symmetry import (GeneratorSpec, conf_inv_witness, invariance_residual,
                               x2_apply)

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
    # the witness reads each point's InvariantSet and nothing else of its
    # bundle: its sweep keeps no u-jet, and the sets keep the bits of
    # swept_invariants' pass and of invariants_at at each point alone
    b = ex.parse("z^2 + i", ("z",))
    fld = make_solution("noninv", {"b": b}, 1)
    grid = [Point(t, complex(x, y)) for t in (0.8, 1.2) for x in (1.1, 1.6) for y in (0.3, 0.6)]
    conf_inv_witness(fld, grid)
    bundles = list(fld._bundles.values())
    assert len(bundles) == len(grid)
    assert [list(bundle._values) for bundle in bundles] == [["invariants"]] * len(grid)
    hexes = lambda s: [None if v is None else (complex(v).real.hex(), complex(v).imag.hex())
                       for v in vars(s).values()]
    swept = swept_invariants(make_solution("noninv", {"b": b}, 1), grid)
    for p, bundle, values in zip(grid, bundles, swept):
        s = bundle.stored("invariants")
        assert hexes(s) == hexes(values["invariants"])
        assert hexes(s) == hexes(invariants_at(make_solution("noninv", {"b": b}, 1), p))
