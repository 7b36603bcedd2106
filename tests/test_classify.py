import random

import pytest

from case_draws import EMPTY_CASES, draw_case
from heavenly import classify
from heavenly import expr as ex
from heavenly.classify import (ConformallyNonInvariant, Inconclusive,
                               InvariantCaseMatched, TheoremCase,
                               automorphic_consistency, classify_b, theorem_case,
                               verify_case)
from heavenly.errors import ConstraintViolation
from heavenly.fields import Point, SolutionField, make_solution
from heavenly.jet import PASS_POINTS
from heavenly.sweeps import PointStore
from heavenly.symmetry import WitnessReport, conf_inv_witness
from test_cli_passes import no_pass, recorded_passes

GRID = [Point(t, complex(x, y)) for t in (0.8, 1.1, 1.4)
        for x in (0.8, 1.2) for y in (-0.2, 0.25)]


def test_constraint_validation():
    with pytest.raises(ConstraintViolation):
        TheoremCase(1, 1, 1.0, 1.0, 1.0, C1=1.0)  # C1 must be imaginary
    with pytest.raises(ConstraintViolation):
        TheoremCase(1, 1, 1.0, 0.0, 1.0, C1=1j, C2=1j)  # beta must not vanish
    with pytest.raises(ConstraintViolation):
        TheoremCase(8, 1, 1.0, 0.0, 1.0, C2=1j)  # alpha must vanish
    with pytest.raises(ConstraintViolation):
        TheoremCase(9, 1)
    with pytest.raises(ConstraintViolation):
        TheoremCase(5, -1, 1.0, 1.0, 1.0, lam=0.5)  # lam must be imaginary
    with pytest.raises(ConstraintViolation):
        TheoremCase(1, 2)  # kappa must be +1 or -1


@pytest.mark.parametrize("kappa,case_id", sorted(EMPTY_CASES))
def test_empty_normal_forms_rejected(kappa, case_id):
    C1 = complex(1.0, 0.3)
    with pytest.raises(ConstraintViolation):
        TheoremCase(case_id, kappa, 1.0, 1.0 if case_id == 3 else 0.0, 1.0,
                    C1=C1, C2=C1.conjugate(), lam=0.5j)


def _ode_residual(case, z):
    """The defining identity a(z) b'(z) - beta b(z) + alpha at one z."""
    b, gen = theorem_case(case)
    bj = ex.eval_jet1(b, z, 1)
    av = ex.eval_jet1(gen.a, z, 0).value if gen.a is not None else 0j
    return av * bj.partial((1,)) - gen.beta * bj.value + gen.alpha


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("case_id", range(1, 9))
def test_generator_ode_identity(kappa, case_id):
    rng = random.Random(100 * case_id + kappa)
    for _ in range(5):
        case = draw_case(case_id, kappa, rng)
        if case is None:
            return
        for z in (0.9 + 0.2j, 1.3 - 0.4j, 0.6 + 0.6j):
            assert abs(_ode_residual(case, z)) < 1e-10


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("case_id", range(1, 9))
def test_verify_case_randomized(kappa, case_id):
    rng = random.Random(7 * case_id + kappa)
    for _ in range(3):
        case = draw_case(case_id, kappa, rng)
        if case is None:
            return
        assert verify_case(case, GRID) < 1e-8


def test_classify_quadratic_b_is_non_invariant():
    verdict = classify_b(ex.parse("z^2 + i", ("z",)), 1,
                         GRID + [Point(1.0, 1.0 + 0j)])
    assert isinstance(verdict, ConformallyNonInvariant)
    assert verdict.asymmetry > 0.1


def test_classify_constant_b():
    verdict = classify_b(ex.parse("0.5", ("z",)), 1, GRID)
    assert isinstance(verdict, InvariantCaseMatched)
    assert verdict.case_id == 8


def test_classify_linear_b():
    verdict = classify_b(ex.parse("-2*z + 1", ("z",)), 1, GRID)
    assert isinstance(verdict, InvariantCaseMatched)
    assert verdict.case_id == 7


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("case_id", range(1, 9))
def test_classify_matches_normal_forms(kappa, case_id):
    rng = random.Random(13 * case_id + kappa)
    case = draw_case(case_id, kappa, rng)
    if case is None:
        return
    b, _ = theorem_case(case)
    verdict = classify_b(b, kappa, GRID)
    assert isinstance(verdict, InvariantCaseMatched)


def test_classify_never_matches_and_witnesses_together():
    # exclusivity is structural: one verdict object per call
    verdict = classify_b(ex.parse("exp(z) + 2*i", ("z",)), 1, GRID)
    assert isinstance(verdict, (ConformallyNonInvariant, Inconclusive))


def test_classify_without_a_point_in_the_domain_is_inconclusive():
    # Re z < 0 puts every point outside the noninv domain for kappa = 1
    grid = [Point(t, complex(x, 0.3)) for t in (0.8, 1.1) for x in (-1.2, -0.8)]
    verdict = classify_b(ex.parse("z^2 + i", ("z",)), 1, grid)
    assert isinstance(verdict, Inconclusive)
    assert verdict.reason == "no grid point lies in the solution's domain"
    assert len(verdict.equation) == 4 and all(isinstance(r, str) for r in verdict.equation)


def test_classify_with_a_failed_equation_check_is_inconclusive(monkeypatch):
    # every noninv field solves the equation, so no natural b fails the
    # sanity check: the residual is monkeypatched here
    monkeypatch.setattr(classify, "pde_residual", lambda field, p: 1e-3)
    verdict = classify_b(ex.parse("z^2 + i", ("z",)), 1, GRID)
    assert isinstance(verdict, Inconclusive)
    assert verdict.reason == "field fails the equation sanity check (residual 1.000e-03)"
    assert verdict.equation == (1e-3,) * len(GRID)


def test_classify_without_a_match_or_a_witness_is_inconclusive(monkeypatch):
    # no natural noninv b both misses every normal form and keeps sigma
    # symmetric on the grid, so the witness is monkeypatched here
    monkeypatch.setattr(classify, "conf_inv_witness", lambda field, grid: WitnessReport(
        "inconclusive", 2e-9, None, note="sigma symmetry within tolerance"))
    verdict = classify_b(ex.parse("z^2 + i", ("z",)), 1, GRID + [Point(1.0, 1.0 + 0j)])
    assert isinstance(verdict, Inconclusive)
    assert verdict.reason == ("no invariant normal form matched and the asymmetry witness "
                              "stayed below tolerance (max 2.000e-09)")


@pytest.mark.parametrize("kappa,b_text", [(1, "z^2 + i"), (1, "exp(z) + 2*i"),
                                          (-1, "z^2 - i")])
def test_automorphic_consistency_identity(kappa, b_text):
    b = ex.parse(b_text, ("z",))
    for p in (Point(1.0, 1.0 + 0j), Point(0.7, 0.6 + 0.3j)):
        assert abs(automorphic_consistency(b, kappa, p)) < 1e-8


# --- grid sweeps against the per-point path -------------------------------------
# verify_case, classify_b and conf_inv_witness fill each grid point's values
# in the field's store from one stacked pass per chunk (sweeps.in_sweeps).
# With the fill replaced by `no_pass`, which empties the store and stores
# nothing, the same loops build every point alone: that per-point path is
# the reference, and results must be == to it.  It empties the store as a
# real fill does, so a field shared by both runs cannot hand the reference
# the swept run's values.

def _result(fn):
    try:
        return fn()
    except Exception as err:  # both paths must raise the same error
        return ("raised", type(err).__name__, str(err))


def _both(monkeypatch, fn):
    """fn's result with sweeps and on the per-point path, and how many
    single-point u-jet builds each made."""
    calls = []
    jet_at = SolutionField.jet_at
    monkeypatch.setattr(SolutionField, "jet_at",
                        lambda self, *args: calls.append(args) or jet_at(self, *args))
    swept, swept_builds = _result(fn), len(calls)
    with monkeypatch.context() as m:
        m.setattr(PointStore, "fill", no_pass)
        reference = _result(fn)
    return swept, reference, swept_builds, len(calls) - swept_builds


BAD_GRID = GRID + [Point(1.0, 1.0 + 0j),  # pole of 1/(z - 1)
                   Point(1.0, -0.4 + 0.2j),  # z + zbar < 0
                   Point(0.5, 1.5 + 0j)]  # t + b(z) on the negative real axis for 1/(z - 1) - 2.5


@pytest.mark.parametrize("kappa", (1, -1))
def test_sweeps_match_the_per_point_path(monkeypatch, kappa):
    rng = random.Random(61 + kappa)
    checked = 0
    for case_id in range(1, 9):
        case = draw_case(case_id, kappa, rng)
        if case is None:
            continue
        b, _ = theorem_case(case)
        for fn in (lambda: verify_case(case, GRID), lambda: classify_b(b, kappa, GRID)):
            swept, reference, swept_builds, reference_builds = _both(monkeypatch, fn)
            assert swept == reference
            assert isinstance(swept, (float, InvariantCaseMatched))
            assert swept_builds == 0 < reference_builds
            checked += 1
    grid = GRID + [Point(1.0, 1.0 + 0j)]
    for text in ("z^2 + i", "(0.3 - 1.2*i)*z^2 + (0.7 + 0.1*i)*z - 0.4", "exp(z) + 2*i"):
        b = ex.parse(text, ("z",))
        field = make_solution("noninv", {"b": b}, kappa)
        for fn in (lambda: classify_b(b, kappa, grid), lambda: conf_inv_witness(field, grid)):
            swept, reference, swept_builds, reference_builds = _both(monkeypatch, fn)
            assert swept == reference
            assert swept_builds == 0 < reference_builds
            checked += 1
    assert checked == 2 * (8 if kappa == 1 else 6) + 6


@pytest.mark.parametrize("text", ("1/(z - 1) + i", "1/(z - 1) - 2.5"))
def test_sweeps_over_bad_points_match_the_per_point_path(monkeypatch, text):
    b = ex.parse(text, ("z",))
    field = make_solution("noninv", {"b": b}, 1)
    verdicts = []
    for fn in (lambda: classify_b(b, 1, BAD_GRID), lambda: conf_inv_witness(field, BAD_GRID),
               lambda: verify_case(TheoremCase(8, 1, C=1.0, C2=1j), BAD_GRID)):
        swept, reference, _, _ = _both(monkeypatch, fn)
        assert swept == reference
        verdicts.append(swept)
    assert not isinstance(verdicts[0], tuple)  # classify_b excludes the bad points
    assert verdicts[1][0] == "raised"  # conf_inv_witness excludes none of them


#: 48 points in the domain of the fields below, three chunks' worth
WIDE_GRID = [Point(t, complex(x, y)) for t in (0.8, 1.1, 1.4, 1.7)
             for x in (0.8, 1.2, 1.6) for y in (-0.45, -0.2, 0.25, 0.5)]


def _grid_calls():
    """classify_b, verify_case and conf_inv_witness on a grid."""
    b = ex.parse("z^2 + i", ("z",))
    field = make_solution("noninv", {"b": b}, 1)
    return (lambda grid: classify_b(b, 1, grid),
            lambda grid: verify_case(TheoremCase(8, 1, C=1.0, C2=1j), grid),
            lambda grid: conf_inv_witness(field, grid))


def test_no_sweep_holds_more_than_pass_points(monkeypatch):
    sizes = recorded_passes(monkeypatch)
    for fn in _grid_calls():
        del sizes[:]
        fn(WIDE_GRID)
        assert max(sizes) == PASS_POINTS


@pytest.mark.parametrize("where", (0, 21, 47))
def test_a_bad_point_costs_its_chunk_only(monkeypatch, where):
    grid = WIDE_GRID[:where] + [Point(1.0, -0.4 + 0.2j)] + WIDE_GRID[where:]  # z + zbar < 0
    start = where - where % PASS_POINTS
    bad_chunk = [(p.t, p.z) for p in grid[start:start + PASS_POINTS]]
    built = []  # every single-point build, on both paths
    jet_at = SolutionField.jet_at
    monkeypatch.setattr(SolutionField, "jet_at", lambda self, z0, zb0, t0, order:
                        built.append((t0, z0)) or jet_at(self, z0, zb0, t0, order))
    results = []
    for fn in _grid_calls():
        del built[:]
        swept, reference, swept_builds, reference_builds = _both(monkeypatch, lambda: fn(grid))
        assert swept == reference
        assert 0 < swept_builds <= reference_builds
        assert set(built[:swept_builds]) <= set(bad_chunk)
        # the reference builds alone every point up to the bad one
        assert {(p.t, p.z) for p in grid[:where + 1]} <= set(built[swept_builds:])
        results.append(swept)
    # classify_b excludes the bad point, and its other loops run on the
    # points it kept
    assert isinstance(results[0], ConformallyNonInvariant)
    assert "z + zbar" in results[0].equation[where]
    assert results[1][0] == results[2][0] == "raised"  # neither excludes a point


def test_verify_case_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="empty grid"):
        verify_case(TheoremCase(8, 1, C=1.0, C2=1j), [])


# --- one u-jet build per check ------------------------------------------------
# classify_b reads the invariance criterion's first partials from its
# equation loop's order-2 rows, verify_case from its one order-1 pass, and
# both evaluate b and the generator's a over the grid's distinct z in one
# stacked evaluation (expr.eval_jet1_rows).

#: the grid of the benchmark's classify-cases workload
CASES_GRID = GRID + [Point(1.0, 1.0 + 0j)]
GENERIC_QUADRATICS = ("(0.3 - 1.2*i)*z^2 + (0.7 + 0.1*i)*z - 0.4",
                      "(-1.1 + 0.4*i)*z^2 + (0.2 - 0.9*i)*z + (1.3 + 0.5*i)",
                      "(0.6 + 0.8*i)*z^2 - (1.4 - 0.2*i)*z + (-0.7 + 1.1*i)")


def normal_forms(seed):
    """One drawn TheoremCase of every admissible (case, kappa)."""
    rng = random.Random(seed)
    cases = [draw_case(case_id, kappa, rng) for kappa in (1, -1) for case_id in range(1, 9)]
    return [case for case in cases if case is not None]


def _hex(row):
    return [(c.real.hex(), c.imag.hex()) for c in row]


def _derivatives(jet):
    """(f, f', ...) of a univariate jet: its value and its partials."""
    return [jet.value] + [jet.partial((k,)) for k in range(1, jet.order + 1)]


def test_stacked_expression_rows_match_eval_jet1():
    zs = list({p.z for p in CASES_GRID})
    checked, variable_free_a = [], 0
    for case in normal_forms(83):
        b, gen = theorem_case(case)
        checked.append((b, 2))
        if gen.a is not None:
            checked.append((gen.a, 1))
            variable_free_a += not ex.mentions(gen.a, "z")
    checked += [(ex.parse(text, ("z",)), 2) for text in GENERIC_QUADRATICS]
    assert variable_free_a == 3  # a = C2 of kappa = +1 cases 6-8
    for e, order in checked:
        rows = ex.eval_jet1_rows(e, zs, order)
        assert len(rows) == len(zs)
        for z, row in zip(zs, rows):
            assert len(row) == order + 1
            assert _hex(row) == _hex(_derivatives(ex.eval_jet1(e, z, order))), (str(e), z)


def test_stacked_expression_rows_follow_every_entry():
    # every entry has its own row, repeats included, with the bits of the
    # entry's lone eval_jet1, which tells apart entries equal but for a
    # zero's sign
    e = ex.parse("(z - 1.2)*(0.5 - 2*i) + ln(z)", ("z",))
    at = [complex(1.2, 0.0), complex(1.2, -0.0), 0.7 + 0.3j, complex(1.2, 0.0)]
    rows = ex.eval_jet1_rows(e, at, 1)
    assert [_hex(r) for r in rows] == [_hex(_derivatives(ex.eval_jet1(e, z, 1))) for z in at]
    assert ex.eval_jet1_rows(e, [], 1) == []
    # 13 entries with repeats and both signs of zero, as on a grid
    at = [complex(x, y) for x, y in ((1.0, 0.0), (1.0, -0.0), (0.5, 0.5), (-0.0, 1.0),
                                     (0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (2.0, -0.5),
                                     (1.0, -0.0), (-0.0, 1.0), (2.0, -0.5), (1.0, 0.0),
                                     (0.5, -0.5))]
    for order in (0, 1, 2):
        rows = ex.eval_jet1_rows(e, at, order)
        assert [_hex(r) for r in rows] == [
            _hex(_derivatives(ex.eval_jet1(e, z, order))) for z in at], order


def _builds(monkeypatch):
    """The orders of every stacked u-jet build, and a tally of single-point ones."""
    orders, single = [], []
    jets_at, jet_at = SolutionField.jets_at, SolutionField.jet_at
    monkeypatch.setattr(SolutionField, "jets_at", lambda self, points, order:
                        orders.append(order) or jets_at(self, points, order))
    monkeypatch.setattr(SolutionField, "jet_at", lambda self, *args:
                        single.append(args) or jet_at(self, *args))
    return orders, single


def test_each_check_builds_its_u_jets_once(monkeypatch):
    orders, single = _builds(monkeypatch)
    for case in normal_forms(89):
        b, _ = theorem_case(case)
        del orders[:]
        assert isinstance(classify_b(b, case.kappa, CASES_GRID), InvariantCaseMatched)
        assert orders == [2]
        del orders[:]
        verify_case(case, CASES_GRID)
        assert orders == [1]
        del orders[:]
        classify_b(b, case.kappa, WIDE_GRID)
        assert orders == [2, 2, 2]  # one per chunk
    for text in GENERIC_QUADRATICS:
        for kappa in (1, -1):
            del orders[:]
            verdict = classify_b(ex.parse(text, ("z",)), kappa, CASES_GRID)
            assert isinstance(verdict, ConformallyNonInvariant)
            assert orders == [2, 3]  # the equation, then the invariants
    assert single == []
