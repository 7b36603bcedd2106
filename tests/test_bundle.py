"""The per-point store of a field: reuse must never change a result.

Every suite function reads its jets and invariants from the field's one
`PointStore`: the values one stacked pass filled for every point of a
chunk, or else those of the most recent point.  These tests compare each
result, bit for bit, with the result of a freshly built field, count how
often the field's builder runs, and check that failures are raised again,
never remembered.
"""

from collections import Counter

import pytest

from reference_calculus import CALCULUS_NAMES, assert_calculus_matches_reference

from heavenly import expr as ex
from heavenly import invariants
from heavenly.errors import (POINT_EXCLUSIONS, DivisionBySingularJet, DomainError, EtaVanishes,
                             HeavenlyError)
from heavenly.fields import (_READ, MAX_ORDER, ROW_LEN, Point, SolutionField,
                             conformal_pushforward, make_solution, u_row, u_rows)
from heavenly.invariants import (COMMUTATOR_PAIRS, COMMUTATOR_TARGETS, commutator_residual,
                                 invariants_at, liouville_residual, pde_residual)
from heavenly.jet import Jet
from heavenly.symmetry import GeneratorSpec, invariance_residual, x2_apply

X2_TARGETS = ("T", "Ut", "Utt", "Rho", "Eta")
#: every name a field's store keeps values under
STORED_NAMES = ("u", "a", "calculus", "invariants", "commutators")
A_GEN = ex.parse("(0.3 + 0.2*i)*z^2 + z - 0.5", ("z",))

# (family, parameters for kappa=+1, parameters for kappa=-1); every family
# is admissible at the points below for both signs of kappa
FAMILIES = (
    ("f0", {"C": 1.0}, {"C": 1.0}),
    ("f0general", {"l": 1.0, "C1": 0.5, "C2": 1.0, "a": "z^2 + 1"},
     {"l": 1.0, "C1": 0.5, "C2": 1.0, "a": "z^2 + 1"}),
    ("noninv", {"b": "z^2 + i"}, {"b": "z^2 - i"}),
    ("general_noninv", {"b": "z^2 + i", "c": "z^2"}, {"b": "z^2 - i", "c": "z^2"}),
    ("confinv", {"f": "(t^2 + 1)/xi^2", "A": "ln(z)", "a": "z"},
     {"f": "(4 - t^2)/xi^2", "A": "ln(z)", "a": "z"}),
    ("liouville", {"c": "exp(z)"}, {"c": "exp(z)"}),
    ("pushforward", {"b": "z^2 + i"}, {"b": "z^2 - i"}),
)


def fill(fld, pts, build):
    """One stacked pass of build over pts into fld's store."""
    fld.store.fill(pts, lambda: build(fld, pts))


def build(family, kappa):
    """A new field; the pushforward is noninv under z = z^2/2."""
    params = dict(FAMILIES[[f[0] for f in FAMILIES].index(family)][1 if kappa == 1 else 2])
    for key, val in params.items():
        if isinstance(val, str):
            params[key] = ex.parse(val, ("xi", "t") if key == "f" else ("z",))
    if family == "pushforward":
        return conformal_pushforward(make_solution("noninv", params, kappa),
                                     ex.parse("z^2/2", ("z",)))
    return make_solution(family, params, kappa)


def points(kappa):
    """Points of the box t in [0.5, 1.5], Re z in [1, 2], Im z kappa*[0.25, 0.75]:
    A, B with A's z at another t, and C with A's t at another z."""
    a = Point(0.8, complex(1.3, 0.4 * kappa))
    return a, Point(1.2, a.z), Point(a.t, complex(1.7, 0.6 * kappa))


def outcome(fn):
    """A call's result in a form that == compares bit for bit."""
    try:
        value = fn()
    except HeavenlyError as err:
        # the same failure must come back every time; any other error is a
        # broken call, and fails the test
        return ("raised", type(err).__name__, str(err))
    if hasattr(value, "coeffs"):
        return ("jet", value.coeffs.tobytes(), value.depth)
    if isinstance(value, list):  # a value and first partials of the calculus
        return ("scalars", [(v.real.hex(), v.imag.hex()) for v in value])
    return value


def stacked_build(fld, pts, order):
    """One stacked pass over pts: `jets_at` up to MAX_ORDER, and above it
    the same pass through `jet_at`, which takes one tuple of coordinates
    per variable and has no ceiling."""
    if order <= MAX_ORDER:
        return fld.jets_at(pts, order)
    return fld.jet_at(*zip(*[(p.z, p.z.conjugate(), p.t) for p in pts]), order)


def suite(field_for, p):
    """Every bundle reader at p; field_for() gives the field for each call."""
    calls = [lambda k=k: u_row(field_for(), p, k) for k in range(MAX_ORDER + 1)]
    calls += [lambda: pde_residual(field_for(), p),
              lambda: liouville_residual(field_for(), p),
              lambda: invariants_at(field_for(), p)]
    calls += [lambda pair=pair, target=target: commutator_residual(pair, target, field_for(), p)
              for pair in COMMUTATOR_PAIRS for target in ("Ut", "Rho")]
    calls += [lambda name=name: invariants._calculus(field_for(), p).points[0][name]
              for name in CALCULUS_NAMES]
    calls += [lambda target=target: x2_apply(A_GEN, target, field_for(), p)
              for target in X2_TARGETS + ("Uz",)]
    calls += [lambda: invariance_residual(field_for(), GeneratorSpec(0.5, 0.25, A_GEN), p)]
    return [outcome(call) for call in calls]


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_revisited_point_matches_fresh_field(family, kappa):
    # reuse keeps every bit; a fresh point's calculus is within a few
    # roundoffs of the jet reference's
    a, b, c = points(kappa)
    fresh = {p: suite(lambda: build(family, kappa), p) for p in (a, b, c)}
    assert all(fresh[p][MAX_ORDER][0] == "scalars" for p in fresh)  # every point is admissible
    for p in fresh:
        assert_calculus_matches_reference(build(family, kappa), p)
    shared = build(family, kappa)
    for p in (a, b, c, a):
        assert suite(lambda: shared, p) == fresh[p]


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_every_order_is_the_jet_built_at_that_order(family, kappa):
    # an order-k reader reads the first ROW_LEN[k] entries of one
    # order-MAX_ORDER row, alone or a row of swept_invariants' stacked
    # pass: they are the coefficients of the jet built at order k, bit for
    # bit; confinv's f divides, the pushforward composes
    pts = grid(kappa, family) + edge(family, kappa)
    swept = build(family, kappa)
    fill(swept, pts, invariants.swept_invariants)
    stacked = build(family, kappa).jets_at(pts, MAX_ORDER)
    for r, p in enumerate(pts):
        alone = build(family, kappa)
        top = build_at(build(family, kappa), p, MAX_ORDER)
        for order in (2, 0, MAX_ORDER, 1):
            jet = build_at(build(family, kappa), p, order)
            # why a prefix serves: the engine's truncation of a higher order,
            # alone or stacked, is the jet built at this order, every
            # coefficient of it
            assert top.truncated(order).coeffs.tobytes() == jet.coeffs.tobytes()
            assert stacked.truncated(order).coeffs[r].tobytes() == jet.coeffs.tobytes()
            want = hex_row(row_of(jet))
            for fld in (alone, swept):
                got = u_row(fld, p, order)
                assert len(got) == ROW_LEN[MAX_ORDER]
                assert hex_row(got[:ROW_LEN[order]]) == want, (p, order)


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_swept_invariants_serve_the_lower_orders(monkeypatch, family, kappa):
    # the sweep stores order-3 rows; orders 0-2 read their prefixes, with
    # the bits of a fresh order-4 build's coefficients
    pts = grid(kappa, family) + edge(family, kappa)
    want = {p.key: row_of(build_at(build(family, kappa), p, 4)) for p in pts}
    swept = build(family, kappa)
    fill(swept, pts, invariants.swept_invariants)

    def no_build(*args):
        raise AssertionError("u_row built a u-jet")

    monkeypatch.setattr(SolutionField, "jet_at", no_build)
    monkeypatch.setattr(SolutionField, "jets_at", no_build)
    for p in pts:
        for order in (2, 0, 1):
            got = u_row(swept, p, order)[:ROW_LEN[order]]
            assert hex_row(got) == hex_row(want[p.key][:ROW_LEN[order]]), (p, order)


def hex_row(row):
    return [(c.real.hex(), c.imag.hex()) for c in row]


def build_at(fld, p, order):
    return fld.jet_at(p.z, p.z.conjugate(), p.t, order)


def row_of(jet):
    """The row of an unstacked u-jet, up to the entries of degree
    MAX_ORDER, read coefficient by coefficient."""
    return [jet.coefficient(idx) for idx in _READ if sum(idx) <= jet.order]


def counting(fld, counts):
    """The same field with a builder that counts its calls by order."""
    def builder(z0, zb0, t0, order):
        counts[order] += 1
        return fld.jet_at(z0, zb0, t0, order)
    return SolutionField(fld.family, fld.kappa, fld.params, _builder=builder)


def test_excluded_point_raises_every_time_and_leaves_no_trace():
    good = points(1)[0]
    bad = Point(0.8, -1.3 + 0.4j)  # z + zbar < 0: outside the noninv domain
    fresh = suite(lambda: build("noninv", 1), good)
    fld = build("noninv", 1)
    raised = []
    for p in (bad, good, bad, bad):
        if p is good:
            assert suite(lambda: fld, good) == fresh
            continue
        for fn in (pde_residual, invariants_at):
            with pytest.raises(DomainError) as err:
                fn(fld, p)
            raised.append(str(err.value))
    assert len(set(raised)) == 1
    assert suite(lambda: fld, good) == fresh


def test_failed_build_is_not_remembered():
    counts = Counter()
    fld = counting(build("noninv", 1), counts)
    bad = Point(0.8, -1.3 + 0.4j)
    for _ in range(3):
        with pytest.raises(DomainError):
            pde_residual(fld, bad)
    assert counts == {MAX_ORDER: 3}  # every order is read from the order-MAX_ORDER build


def test_one_build_per_point(monkeypatch):
    calculi = Counter()
    init = invariants.JetCalculus.__init__

    def counting_init(self, *args, **kwargs):
        calculi["JetCalculus"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(invariants.JetCalculus, "__init__", counting_init)
    counts = Counter()
    fld = counting(build("noninv", 1), counts)
    a, b, _ = points(1)

    def point_suite(p):
        pde_residual(fld, p)
        invariants_at(fld, p)
        for pair in COMMUTATOR_PAIRS:
            for target in ("Ut", "Rho"):
                commutator_residual(pair, target, fld, p)
        for target in X2_TARGETS:
            x2_apply(A_GEN, target, fld, p)

    point_suite(a)
    point_suite(a)
    # order 2 is the truncation of the one order-MAX_ORDER build
    assert counts == {MAX_ORDER: 1}
    assert calculi == {"JetCalculus": 1}
    # one point per field: moving away and back builds everything again
    point_suite(b)
    point_suite(a)
    assert counts == {MAX_ORDER: 3}
    assert calculi == {"JetCalculus": 3}


def counted_jets(monkeypatch):
    """A list that grows by one for every Jet constructed from now on."""
    built = []
    post_init = Jet.__post_init__
    monkeypatch.setattr(Jet, "__post_init__", lambda self: built.append(1) or post_init(self))
    return built


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_the_bundle_builds_no_jet_beyond_the_u_jet(monkeypatch, family, kappa):
    # the calculus, the InvariantSet and the twelve commutators are scalar
    # arithmetic on the coefficients of the u-jet
    fld = build(family, kappa)
    p = points(kappa)[0]
    u_row(fld, p, MAX_ORDER)
    built = counted_jets(monkeypatch)
    eta_vanishes = invariants_at(fld, p).eta_vanishes
    for pair in COMMUTATOR_PAIRS:
        for target in COMMUTATOR_TARGETS:
            try:
                commutator_residual(pair, target, fld, p)
            except EtaVanishes:
                assert eta_vanishes
    assert not built


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_a_sweep_of_invariant_sets_builds_only_the_stacked_u_jet(monkeypatch, family, kappa):
    pts = [Point(t, complex(x, kappa * y)) for t in (0.6, 1.0, 1.4)
           for x in (1.1, 1.9) for y in (0.3, 0.7)]
    pts.append(pts[0])
    assert len(pts) == 13
    alone, swept = build(family, kappa), build(family, kappa)
    built = counted_jets(monkeypatch)
    alone.jets_at(pts, MAX_ORDER)
    stacked = len(built)
    fill(swept, pts, invariants.swept_invariants)
    for p in pts:  # the loop's reads come from the pass's stored values
        invariants_at(swept, p)
    assert len(built) == 2 * stacked > 0


def test_bundle_key_tells_signed_zeros_apart():
    counts = Counter()
    fld = counting(build("noninv", 1), counts)
    for z in (complex(1.3, 0.0), complex(1.3, -0.0), complex(1.3, 0.0)):
        pde_residual(fld, Point(0.8, z))
    assert counts == {MAX_ORDER: 3}
    # 1 == 1.0, but they are two points: an InvariantSet echoes the t it got
    z = complex(1.3, 0.4)
    echoed = [invariants_at(fld, Point(t, z)).t for t in (1, 1.0, 1)]
    assert [repr(t) for t in echoed] == ["1", "1.0", "1"]
    assert counts == {MAX_ORDER: 6}


# --- sweeps -------------------------------------------------------------------

def grid(kappa, family="noninv"):
    """Admissible points of the box of `points`, one of them repeated, and
    two equal but for the sign of a zero (on the real axis, where confinv's
    xi vanishes, so not for confinv)."""
    out = [Point(t, complex(x, kappa * y)) for t in (0.6, 1.4)
           for x in (1.1, 1.9) for y in (0.3, 0.7)]
    if family != "confinv":
        out += [Point(1.0, complex(1.5, 0.0)), Point(1.0, complex(1.5, -0.0))]
    return out + [out[0]]


def edge(family, kappa):
    """Points on the real axis, z = -1.5 with both signs of a zero and
    z = 1.2 + 0j, inside the family's domain: confinv's xi vanishes there,
    and z + zbar < 0 is outside the domains of f0 and noninv at kappa = +1."""
    if family == "confinv":
        return []
    if kappa == 1 and family in ("f0", "noninv"):
        return [Point(1.0, complex(1.2, 0.0))]
    return [Point(1.0, complex(-1.5, 0.0)), Point(1.0, complex(-1.5, -0.0)),
            Point(1.0, complex(1.2, 0.0))]


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_stacked_rows_match_u_row(family, kappa):
    # row r of an order-k pass is the first ROW_LEN[k] entries of the
    # order-MAX_ORDER row of points[r] alone, and the coefficients of the
    # stacked jet, whose row r is the jet built at points[r] alone, bit for
    # bit
    pts = grid(kappa, family) + edge(family, kappa)
    for order in range(MAX_ORDER + 1):
        jets = build(family, kappa).jets_at(pts, order)
        rows = build(family, kappa).rows_at(pts, order)
        assert len(rows) == len(pts)
        for r, (p, row) in enumerate(zip(pts, rows)):
            want = u_row(build(family, kappa), p, MAX_ORDER)[:ROW_LEN[order]]
            assert len(row) == ROW_LEN[order]
            assert hex_row(row) == hex_row(want), (p, order)
            stacked = [complex(jets.coeffs[(r, *idx)]) for idx in _READ if sum(idx) <= order]
            assert hex_row(row) == hex_row(stacked), (p, order)
            alone = build_at(build(family, kappa), p, order)
            assert jets.coeffs[r].tobytes() == alone.coeffs.tobytes(), (p, order)


def excluding(fld, pts):
    """The loop of classify_b's equation check: each point's residual, or
    its exclusion's class and message."""
    out = []
    for p in pts:
        try:
            out.append(("ok", pde_residual(fld, p)))
        except POINT_EXCLUSIONS as err:
            out.append((type(err).__name__, str(err)))
    return out


def test_a_sweep_with_bad_points_excludes_what_the_loop_excludes():
    b = ex.parse("1/(z - 2) + 0.5", ("z",))
    pts = [Point(1.0, 1.2 + 0.3j),
           Point(1.0, 2.0 + 0j),  # pole of b
           Point(1.1, 1.5 + 0j),  # t + b(z) = -0.4: on the branch cut of ln
           Point(0.9, 1.7 - 0.2j),
           Point(1.0, -0.5 + 0.3j),  # z + zbar < 0: outside the domain
           Point(1.2, 1.3 - 0.4j)]
    fld = make_solution("noninv", {"b": b}, 1)
    with pytest.raises(POINT_EXCLUSIONS):
        fld.jets_at(pts, 2)  # so the sweep leaves every point to run alone
    fill(fld, pts, u_rows(2))
    swept = excluding(fld, pts)
    assert swept == excluding(make_solution("noninv", {"b": b}, 1), pts)
    assert [kind for kind, _ in swept] == ["ok", "DivisionBySingularJet", "DomainError", "ok",
                                           "DomainError", "ok"]
    assert "negative real axis" in swept[2][1] and "negative real axis" in swept[4][1]
    # the good points alone go through one stacked pass
    good = [p for p, (kind, _) in zip(pts, swept) if kind == "ok"]
    counts = Counter()
    stacked = counting(make_solution("noninv", {"b": b}, 1), counts)
    fill(stacked, good, u_rows(2))
    assert excluding(stacked, good) == [r for r in swept if r[0] == "ok"]
    assert counts == {2: 1}


def test_a_pass_lasts_until_a_point_outside_it():
    counts = Counter()
    fld = counting(build("noninv", 1), counts)
    pts = grid(1)
    fill(fld, pts, u_rows(1))
    for p in pts:
        u_row(fld, p, 1)  # the swept order-1 row
    assert counts == {1: 1}  # swept points build nothing
    for p in pts:
        u_row(fld, p, 2)  # not swept: the row of this point's own build
    assert counts == {1: 1, MAX_ORDER: len(pts) - 1}  # one point repeats
    for p in pts:  # every swept point's values, with what they gained, outlive the loop
        u_row(fld, p, 1)
        u_row(fld, p, 2)
    assert counts == {1: 1, MAX_ORDER: len(pts) - 1}
    outside = Point(0.9, 1.6 + 0.5j)
    u_row(fld, outside, 1)  # a point outside the store replaces it
    u_row(fld, outside, 2)
    u_row(fld, pts[0], 1)
    assert counts == {1: 1, MAX_ORDER: len(pts) + 1}
    fill(fld, pts[:3], u_rows(1))
    assert counts == {1: 2, MAX_ORDER: len(pts) + 1}
    bad = Point(0.8, -1.3 + 0.4j)  # z + zbar < 0: the stacked build raises
    fill(fld, [pts[0], bad], u_rows(1))
    # a raising build leaves the store empty
    assert [fld.store.stored(p, "u") for p in pts[:3] + [bad]] == [None] * 4
    u_row(fld, pts[0], 1)
    assert counts == {1: 3, MAX_ORDER: len(pts) + 2}
    with pytest.raises(DomainError):
        u_row(fld, bad, 1)
    assert counts == {1: 3, MAX_ORDER: len(pts) + 3}


def test_a_raising_build_keeps_the_last_pass(monkeypatch):
    # a point whose own build raises leaves the store as it was: every
    # point of the last pass still reads its row, with no build
    b = ex.parse("1/(z - 2) + 0.5", ("z",))
    fld = make_solution("noninv", {"b": b}, 1)
    good = [Point(1.0, 1.2 + 0.3j), Point(0.9, 1.7 - 0.2j), Point(1.2, 1.3 - 0.4j)]
    fill(fld, good, u_rows(2))
    rows = [fld.store.stored(p, "u") for p in good]
    assert all(row is not None for row in rows)
    with pytest.raises(DivisionBySingularJet):
        pde_residual(fld, Point(1.0, 2.0 + 0j))  # a pole of b
    built = []
    jet_at = SolutionField.jet_at
    monkeypatch.setattr(SolutionField, "jet_at", lambda self, *args:
                        built.append(args) or jet_at(self, *args))
    assert all(u_row(fld, p, 2) is row for p, row in zip(good, rows))
    assert [kind for kind, _ in excluding(fld, good)] == ["ok"] * 3
    assert built == []


# --- the order ceiling ----------------------------------------------------------

#: in-process CLI runs beside the README's: the criterion, a liouville
#: verify (its order-2 pass) and the orbit of noninv, whose eta does not
#: vanish
CEILING_ARGV = (
    ["symmetry", "--check", "criterion", "--family", "f0", "--C", "1", "--alpha", "0",
     "--beta", "0", "--a", "i"],
    ["verify", "--kappa", "-1", "--family", "liouville", "--c", "exp(z)"],
    ["orbit", "--family", "noninv", "--b", "z^2 + i", "--phi", "z^2/2"],
)


def test_no_check_builds_a_u_jet_above_max_order(monkeypatch):
    # every reader, the commutators included, needs at most the order-3
    # u-jet: no single-point or stacked build asks for more
    import contextlib
    import io

    from heavenly import cli
    from test_readme_examples import README_EXAMPLES

    orders = []
    jet_at, jets_at = SolutionField.jet_at, SolutionField.jets_at

    def recorded_jet_at(self, z0, zb0, t0, order):
        orders.append(order)
        return jet_at(self, z0, zb0, t0, order)

    def recorded_jets_at(self, pts, order):
        orders.append(order)
        return jets_at(self, pts, order)

    monkeypatch.setattr(SolutionField, "jet_at", recorded_jet_at)
    monkeypatch.setattr(SolutionField, "jets_at", recorded_jets_at)
    for kappa in (1, -1):
        for family, *_ in FAMILIES:
            fld = build(family, kappa)
            for p in points(kappa):
                pde_residual(fld, p)
                liouville_residual(fld, p)
                invariants_at(fld, p)
                for pair in COMMUTATOR_PAIRS:
                    for target in COMMUTATOR_TARGETS:
                        try:
                            commutator_residual(pair, target, fld, p)
                        except EtaVanishes:
                            assert invariants_at(fld, p).eta_vanishes
                for target in X2_TARGETS:
                    x2_apply(A_GEN, target, fld, p)
    for argv in [a for a in README_EXAMPLES if a[0] != "resolving"] + list(CEILING_ARGV):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert max(orders) == MAX_ORDER == 3


def test_no_store_holds_a_jet(monkeypatch):
    # the passes and per-point calls of verify, symmetry (both checks),
    # classify and orbit keep a point's u as its row of Python complexes:
    # no stored value is a Jet, nor holds one
    import contextlib
    import io

    from heavenly import cli
    from heavenly.sweeps import PointStore
    from test_readme_examples import README_EXAMPLES

    stored = []
    fill_, put = PointStore.fill, PointStore.put

    def recorded(rows):
        named = rows()
        stored.extend(item for values in named for item in values.items())
        return named

    monkeypatch.setattr(PointStore, "fill", lambda self, pts, rows:
                        fill_(self, pts, lambda: recorded(rows)))
    monkeypatch.setattr(PointStore, "put", lambda self, p, name, value:
                        stored.append((name, value)) or put(self, p, name, value))
    for argv in [a for a in README_EXAMPLES if a[0] != "resolving"] + list(CEILING_ARGV):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert {"u", "a", "invariants"} <= {name for name, _ in stored}
    for name, value in stored:
        held = vars(value).values() if isinstance(value, invariants.JetCalculus) else [value]
        assert not any(isinstance(v, Jet) for v in held), name
        if name == "u":
            assert type(value) is list and all(type(c) is complex for c in value)
