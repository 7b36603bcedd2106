"""The CLI's stacked passes against its per-point path.

`resolving` checks its samples in groups, each as the rows of one stacked
projection (`resolving.checked_pairs`), and `verify`, `symmetry` and
`orbit` pass over each chunk of their grid before they check it; every
pass fills a per-point store (`sweeps.in_sweeps`, `sweeps.PointStore.fill`).
With the passes switched off (a fill that empties the store and stores
nothing, `no_pass`), the same commands check every point alone: that
per-point path is the reference, and the reports must equal it byte for
byte.
"""

import contextlib
import io
import random

import pytest

from heavenly import cli
from heavenly import expr as ex
from heavenly.errors import BranchCutViolation, FVanishes
from heavenly.fields import SolutionField
from heavenly.jet import PASS_POINTS
from heavenly.resolving import (ResolvingPoint, _Proj, ansatz_functions, checked_pairs,
                                jacobi_residual, resolving_residuals)
from heavenly.sweeps import PointStore

FILL = PointStore.fill

GRID = "t=0.5:2:4,re=0.5:2:4,im=-0.5:0.5:3"
#: a grid through z = 0 and Re z < 0, with more points than one pass holds
WIDE = "t=-1:2:3,re=-1:1:5,im=-1:1:5"

FAMILIES = {
    "f0": ["--C", "1"],
    "f0general": ["--l", "1", "--C1", "0.5", "--C2", "1", "--a", "z^2 + 1"],
    "noninv": ["--b", "z^2 + i"],
    "general_noninv": ["--b", "z^2 + i", "--c", "z^2"],
    "confinv": ["--f", "(t^2 + 1)/xi^2", "--A", "ln(z)", "--a", "z"],
    "liouville": ["--c", "z^2"],
}


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def no_pass(store, points, rows):
    """A fill that empties the store and stores nothing: the per-point
    reference path of every stacked pass."""
    FILL(store, [], rows)


def recorded_passes(monkeypatch):
    """A list that gets the size of every pass filled from now on."""
    sizes = []
    fill = PointStore.fill
    monkeypatch.setattr(PointStore, "fill", lambda store, points, rows:
                        sizes.append(len(points)) or fill(store, points, rows))
    return sizes


def both_paths(monkeypatch, argv):
    """argv's (exit code, report) with the stacked passes and on the
    per-point path, and the single-point u-jet builds of the stacked run:
    none where no point is excluded, as every point reads its chunk's
    passes then.  No pass holds more than PASS_POINTS points."""
    single = []
    jet_at = SolutionField.jet_at

    def counted(self, z0, *rest):
        if type(z0) is not tuple:
            single.append(z0)
        return jet_at(self, z0, *rest)

    monkeypatch.setattr(SolutionField, "jet_at", counted)
    with monkeypatch.context() as m:
        sizes = recorded_passes(m)
        stacked = report(argv)
    builds = len(single)
    assert max(sizes, default=0) <= PASS_POINTS  # no pass holds more
    with monkeypatch.context() as m:
        m.setattr(PointStore, "fill", no_pass)
        reference = report(argv)
    assert stacked == reference, argv
    if '"count": 0,' in stacked[1]:
        assert builds == 0, argv
    return stacked[1], builds


@pytest.mark.parametrize("kappa", ("1", "-1"))
@pytest.mark.parametrize("phi", ("2", "xi*theta", "exp(-xi)", "ln(theta)"))
def test_resolving_reports_match_the_per_point_path(monkeypatch, phi, kappa):
    passes = recorded_passes(monkeypatch)
    for extra in (["--samples", "1"], ["--samples", "15"], ["--samples", "16"],
                  ["--samples", "17"], ["--samples", "100"],
                  ["--samples", "17", "--perturb", "tau:+0.1"]):
        argv = ["resolving", "--kappa", kappa, "--phi", phi, "--seed", "5", *extra]
        del passes[:]
        text, _ = both_paths(monkeypatch, argv)
        samples = int(extra[1])
        assert passes and max(passes) <= PASS_POINTS
        assert len(passes) >= -(-samples // PASS_POINTS)
    if phi == "ln(theta)":  # theta < 0 rows: their groups run point by point
        assert '"BranchCutViolation"' in text


def test_resolving_groups_draw_no_more_than_the_samples_missing(monkeypatch):
    passes = recorded_passes(monkeypatch)
    report(["resolving", "--phi", "xi*theta", "--samples", "40", "--seed", "7"])
    assert passes == [16, 16, 8]


@pytest.mark.parametrize("kappa", ("1", "-1"))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verify_reports_match_the_per_point_path(monkeypatch, family, kappa):
    for grid in (GRID, WIDE):
        both_paths(monkeypatch, ["verify", "--kappa", kappa, "--family", family,
                                 *FAMILIES[family], "--grid", grid])


def test_f0_verify_outside_its_domain_matches_the_per_point_path(monkeypatch):
    argv = ["verify", "--family", "f0", "--C", "1", "--grid", "t=0.5:2:3,re=-1.5:1.5:4,im=-1:1:3"]
    text, _ = both_paths(monkeypatch, argv)
    assert '"count": 18,' in text  # Re z < 0 is outside f0's domain


@pytest.mark.parametrize("phi", ("z^2", "2*z", "ln(z)"))
def test_orbit_reports_match_the_per_point_path(monkeypatch, phi):
    for family, params in (("f0", FAMILIES["f0"]), ("f0general", FAMILIES["f0general"]),
                           ("general_noninv", ["--b", "z^2 + i", "--c", "z + 1"])):
        for grid in (GRID, WIDE):
            text, _ = both_paths(monkeypatch, ["orbit", "--family", family, *params,
                                               "--phi", phi, "--grid", grid])
    if phi == "z^2":  # the last field is defined at w = 0, where phi'(0) = 0
        assert "phi'(0j) = 0j within tolerance" in text


@pytest.mark.parametrize("check", ("criterion", "invariants"))
def test_symmetry_reports_match_the_per_point_path(monkeypatch, check):
    for family in ("noninv", "f0", "liouville"):
        for grid in (GRID, WIDE):
            both_paths(monkeypatch, ["symmetry", "--check", check, "--family", family,
                                     *FAMILIES[family], "--a", "z^2", "--alpha", "0.5",
                                     "--grid", grid])


def sweep(rf, points):
    """One stacked pass over points, as `heavenly resolving` runs it."""
    rf.store.fill(points, lambda: checked_pairs(rf, points))


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("text", ("1", "xi*theta", "exp(-xi)", "ln(theta)", "theta"))
def test_pass_rows_are_the_per_point_bits(monkeypatch, text, kappa):
    phi = ex.parse(text, ("xi", "theta"))
    rng = random.Random(11)
    points = []
    while len(points) < 40:
        p = ResolvingPoint(rng.uniform(-2, 2), rng.uniform(-1, 1), kappa * rng.uniform(0.55, 2.0),
                           kappa)
        if p.discriminant > 1e-6:
            points.append(p)
    if text == "theta":  # F = rho^3 theta vanishes at theta = 0
        q = points[3]
        points[3] = ResolvingPoint(kappa / q.rho * (q.ut + q.discriminant ** 0.5), q.ut, q.rho,
                                   kappa)

    def bits(values):
        return [(v.real.hex(), v.imag.hex()) for v in values]

    alone = ansatz_functions(phi, kappa)  # checks one point at a time

    def per_point(p):
        try:
            return resolving_residuals(alone, p), jacobi_residual(alone, p)
        except (FVanishes, BranchCutViolation) as err:
            return err

    wanted = [per_point(p) for p in points]
    rf = ansatz_functions(phi, kappa)
    if text == "ln(theta)":  # theta < 0 rows raise for their whole pass
        bad = [i for i, want in enumerate(wanted) if isinstance(want, BranchCutViolation)]
        assert bad
        tried = points[:1] + points[bad[0]:bad[0] + 2]
        sweep(rf, tried[:1])
        sweep(rf, tried[1:])
        # a raising pass keeps nothing
        assert [rf.store.stored(p, "pair") for p in tried] == [None] * 3
        points = [p for i, p in enumerate(points) if i not in bad]
        wanted = [want for i, want in enumerate(wanted) if i not in bad]
    builds = []
    init = _Proj.__init__
    monkeypatch.setattr(_Proj, "__init__",
                        lambda self, rf, p, order: builds.append(p) or init(self, rf, p, order))
    checked = vanished = 0
    for start in range(0, len(points), PASS_POINTS):
        chunk = points[start:start + PASS_POINTS]
        sweep(rf, chunk)
        del builds[:]
        for p, want in zip(chunk, wanted[start:]):
            if isinstance(want, FVanishes):
                assert rf.store.stored(p, "pair") is None  # an F-vanishing row keeps nothing
                for check in (resolving_residuals, jacobi_residual):
                    with pytest.raises(FVanishes) as err:
                        check(rf, p)
                    assert str(err.value) == str(want)
                vanished += 1
                continue
            res, jac = resolving_residuals(rf, p), jacobi_residual(rf, p)
            assert bits(res.as_dict().values()) == bits(want[0].as_dict().values())
            assert bits(jac) == bits(want[1])
            checked += 1
        assert len(builds) == 2 * sum(isinstance(w, FVanishes)
                                      for w in wanted[start:start + PASS_POINTS])
    assert vanished == (text == "theta")
    assert checked >= 5 and checked + vanished == len(points)
