"""The CLI's stacked passes against its per-point path.

`resolving` checks its samples in groups, each as the rows of one stacked
projection (`resolving.resolving_pass`), and `verify`, `symmetry` and
`orbit` check each chunk of their grid inside `SolutionField.sweep` blocks.
With the passes forced off (a pass that raises, a sweep that fills
nothing), the same commands check every point alone: that per-point path
is the reference, and the reports must equal it byte for byte.
"""

import contextlib
import io
import random
from contextlib import contextmanager

import pytest

from heavenly import cli, resolving
from heavenly import expr as ex
from heavenly.errors import BranchCutViolation, DomainError, FVanishes
from heavenly.fields import SolutionField
from heavenly.resolving import (ResolvingPoint, ansatz_functions, jacobi_residual,
                                resolving_pass, resolving_residuals)

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


@contextmanager
def _per_point_sweep(self, points, build):
    yield


def _no_pass(rf, points):
    raise DomainError("stacked pass switched off")


def both_paths(monkeypatch, argv):
    """argv's (exit code, report) with the stacked passes and on the
    per-point path, and the single-point u-jet builds of the stacked run:
    none where no point is excluded, as every point reads its chunk's
    passes then.  No pass holds more than cli.PASS_POINTS points."""
    single = []
    jet_at = SolutionField.jet_at

    def counted(self, z0, *rest):
        if type(z0) is not tuple:
            single.append(z0)
        return jet_at(self, z0, *rest)

    sizes = []
    sweep = SolutionField.sweep

    def sized(self, points, build):
        sizes.append(len(points))
        return sweep(self, points, build)

    monkeypatch.setattr(SolutionField, "jet_at", counted)
    with monkeypatch.context() as m:
        m.setattr(SolutionField, "sweep", sized)
        stacked = report(argv)
    builds = len(single)
    assert max(sizes, default=0) <= cli.PASS_POINTS  # no pass holds more
    with monkeypatch.context() as m:
        m.setattr(SolutionField, "sweep", _per_point_sweep)
        m.setattr(resolving, "resolving_pass", _no_pass)
        reference = report(argv)
    assert stacked == reference, argv
    if '"count": 0,' in stacked[1]:
        assert builds == 0, argv
    return stacked[1], builds


@pytest.mark.parametrize("kappa", ("1", "-1"))
@pytest.mark.parametrize("phi", ("2", "xi*theta", "exp(-xi)", "ln(theta)"))
def test_resolving_reports_match_the_per_point_path(monkeypatch, phi, kappa):
    passes = []
    monkeypatch.setattr(resolving, "resolving_pass",
                        lambda rf, pts: passes.append(len(pts)) or resolving_pass(rf, pts))
    for extra in (["--samples", "1"], ["--samples", "15"], ["--samples", "16"],
                  ["--samples", "17"], ["--samples", "100"],
                  ["--samples", "17", "--perturb", "tau:+0.1"]):
        argv = ["resolving", "--kappa", kappa, "--phi", phi, "--seed", "5", *extra]
        del passes[:]
        text, _ = both_paths(monkeypatch, argv)
        samples = int(extra[1])
        assert passes and max(passes) <= cli.PASS_POINTS
        assert len(passes) >= -(-samples // cli.PASS_POINTS)
    if phi == "ln(theta)":  # theta < 0 rows: their groups run point by point
        assert '"BranchCutViolation"' in text


def test_resolving_groups_draw_no_more_than_the_samples_missing(monkeypatch):
    passes = []
    monkeypatch.setattr(resolving, "resolving_pass",
                        lambda rf, pts: passes.append(len(pts)) or resolving_pass(rf, pts))
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


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("text", ("1", "xi*theta", "exp(-xi)", "ln(theta)", "theta"))
def test_pass_rows_are_the_per_point_bits(text, kappa):
    rf = ansatz_functions(ex.parse(text, ("xi", "theta")), kappa)
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

    def per_point(p):
        try:
            return resolving_residuals(rf, p), jacobi_residual(rf, p)
        except (FVanishes, BranchCutViolation) as err:
            return err

    wanted = [per_point(p) for p in points]
    if text == "ln(theta)":  # theta < 0 rows raise for their whole pass
        bad = [i for i, want in enumerate(wanted) if isinstance(want, BranchCutViolation)]
        assert bad
        with pytest.raises(BranchCutViolation):
            resolving_pass(rf, points[bad[0]:bad[0] + 2])
        points = [p for i, p in enumerate(points) if i not in bad]
        wanted = [want for i, want in enumerate(wanted) if i not in bad]
    checked = vanished = 0
    for start in range(0, len(points), cli.PASS_POINTS):
        chunk = points[start:start + cli.PASS_POINTS]
        for row, want in zip(resolving_pass(rf, chunk), wanted[start:]):
            if isinstance(want, FVanishes):
                assert isinstance(row, FVanishes) and str(row) == str(want)
                vanished += 1
                continue
            assert bits(row[0].as_dict().values()) == bits(want[0].as_dict().values())
            assert bits(row[1]) == bits(want[1])
            checked += 1
    assert vanished == (text == "theta")
    assert checked >= 5 and checked + vanished == len(points)
