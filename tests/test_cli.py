import csv
import io
import json
import sys

import pytest

from heavenly.cli import main, parse_grid
from heavenly.fields import FAMILY_PARAMS

GRID = "t=0.5:2:4,re=0.5:2:4,im=-0.5:0.5:3"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_grid_parsing():
    pts = parse_grid(GRID)
    assert len(pts) == 48
    assert pts[0].t == 0.5 and pts[0].z == 0.5 - 0.5j
    assert parse_grid("t=1:1:1,re=2:2:1,im=0:0:1")[0].z == 2 + 0j
    with pytest.raises(ValueError):
        parse_grid("t=1:2:3,re=0:1:2")  # im missing
    with pytest.raises(ValueError):
        parse_grid("t=1:2,re=0:1:2,im=0:1:2")


@pytest.mark.parametrize("grid, message", [
    ("t=0:1:2,re=1:2:2,im=0:1:2,foo=1:2:3", "unknown grid component 'foo'"),
    ("t=0:1:2,t=5:5:1,re=1:2:2,im=0:1:2", "grid component 't' given twice"),
    ("t=nan:1:2,re=1:2:2,im=0:1:2", "bounds must be finite"),
    ("t=0:1:2,re=1:inf:2,im=0:1:2", "bounds must be finite"),
])
def test_bad_grid_exits_2(capsys, grid, message):
    code, out, err = run(capsys, "verify", "--family", "noninv", "--b", "z^2 + i",
                         "--grid", grid)
    assert code == 2 and out == ""
    assert message in err


def test_verify_passes_on_solution(capsys):
    code, out, _ = run(capsys, "verify", "--kappa", "1", "--family", "noninv",
                       "--b", "z^2 + i", "--grid", GRID, "--tol", "1e-9")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "foliation-report/1"
    assert report["summary"]["pass"] is True
    assert len(report["records"]) == 48
    assert report["summary"]["max_residuals"]["equation"] < 1e-9


def test_verify_f0_minus(capsys):
    code, out, _ = run(capsys, "verify", "--kappa", "-1", "--family", "f0",
                       "--C", "1", "--grid", GRID)
    assert code == 0
    assert json.loads(out)["summary"]["pass"] is True


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--kappa", "1", "--family", "noninv",
                       "--b", "z^(")
    assert code == 2
    assert "position" in err


def test_missing_family_param_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--family", "noninv")
    assert code == 2
    assert "requires" in err


def test_classify_verdicts(capsys):
    code, out, _ = run(capsys, "classify", "--kappa", "1", "--b", "z^2 + i",
                       "--grid", GRID)
    assert code == 0
    v = json.loads(out)["summary"]["verdict"]
    assert v["kind"] == "ConformallyNonInvariant"
    code, out, _ = run(capsys, "classify", "--kappa", "1", "--b", "0.5")
    assert json.loads(out)["summary"]["verdict"]["case_id"] == 8
    code, out, _ = run(capsys, "classify", "--kappa", "1", "--b", "-2*z + 1")
    assert json.loads(out)["summary"]["verdict"]["case_id"] == 7


def test_resolving_suite_and_determinism(capsys):
    args = ("resolving", "--kappa", "1", "--phi", "2", "--samples", "40",
            "--seed", "7")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    report = json.loads(out1)
    assert report["summary"]["samples"] == 40
    assert all(v < 1e-9 for v in report["summary"]["max_residuals"].values())
    _, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-identical for identical command + seed


def test_resolving_perturbation_detected(capsys):
    code, out, _ = run(capsys, "resolving", "--kappa", "1", "--phi", "2",
                       "--samples", "10", "--perturb", "tau:+0.1")
    assert code == 1
    assert json.loads(out)["summary"]["max_residuals"]["R1"] > 1e-3


def test_symmetry_checks(capsys):
    code, out, _ = run(capsys, "symmetry", "--check", "invariants",
                       "--a", "z^2", "--family", "noninv", "--b", "z^2+i",
                       "--tol", "1e-8")
    assert code == 0
    code, out, _ = run(capsys, "symmetry", "--check", "algebra",
                       "--a", "z", "--b-gen", "z^2")
    assert code == 0
    code, out, _ = run(capsys, "symmetry", "--check", "criterion",
                       "--family", "f0", "--C", "1", "--alpha", "0",
                       "--beta", "0", "--a", "i", "--kappa", "1")
    assert code == 0
    assert json.loads(out)["summary"]["max_residuals"]["criterion"] < 1e-12


def test_orbit_checks(capsys):
    code, out, _ = run(capsys, "orbit", "--family", "f0", "--C", "1",
                       "--phi", "2*z", "--tol", "1e-8")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["max_residuals"]["rho_match"] < 1e-8
    code, _, err = run(capsys, "orbit", "--family", "noninv", "--b", "z^2+i",
                       "--phi", "1")
    assert code == 2


def test_csv_and_json_payloads_agree(capsys, tmp_path):
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    for fmt, path in (("json", jpath), ("csv", cpath)):
        code = main(["verify", "--kappa", "1", "--family", "noninv",
                     "--b", "z^2 + i", "--grid", GRID, "--format", fmt,
                     "--out", str(path)])
        assert code == 0
    report = json.loads(jpath.read_text())
    rows = list(csv.DictReader(io.StringIO(cpath.read_text())))
    assert len(rows) == len(report["records"])
    for rec, row in zip(report["records"], rows):
        assert float(row["t"]) == rec["point"]["t"]
        assert float(row["value"]) == rec["residuals"][row["kind"]]


def test_domain_points_are_excluded_not_fatal(capsys):
    # z + zbar = 0 at re=0 for kappa=1: those points are filtered and counted
    code, out, _ = run(capsys, "verify", "--kappa", "1", "--family", "f0",
                       "--C", "1", "--grid", "t=1:1:1,re=0:1:2,im=0:0:1")
    assert code == 0
    report = json.loads(out)
    assert report["excluded"]["count"] == 1
    assert len(report["records"]) == 1


def test_pole_on_grid_is_excluded_not_fatal(capsys):
    # b has a pole at z = 1, which the default grid (GRID) holds at four t
    code, out, _ = run(capsys, "verify", "--b", "1/(z-1) + i")
    report = json.loads(out)
    poles = [p for p in parse_grid(GRID) if p.z == 1]
    assert len(poles) == 4
    assert report["excluded"]["reasons"]["constant term 0j below 1e-12"] == len(poles)
    assert len(report["records"]) + report["excluded"]["count"] == 48
    assert all(rec["point"]["re"] != 1.0 or rec["point"]["im"] != 0.0
               for rec in report["records"])
    ok = report["summary"]["max_residuals"]["equation"] <= 1e-9
    assert report["summary"]["pass"] is ok
    assert code == (0 if ok else 1)


def test_pole_on_grid_does_not_abort_classify(capsys):
    # classify_b's own grid loop skips the pole as the report's loop does
    code, out, _ = run(capsys, "classify", "--b", "1/(z-1) + i")
    assert code == 0
    report = json.loads(out)
    poles = [p for p in parse_grid(GRID) if p.z == 1]
    assert report["excluded"]["reasons"]["constant term 0j below 1e-12"] == len(poles) == 4
    assert len(report["records"]) + report["excluded"]["count"] == 48
    assert report["summary"]["verdict"]["kind"] == "ConformallyNonInvariant"


def test_report_with_nothing_checked_fails(capsys):
    # Re z < 0 puts every point outside the noninv domain for kappa = 1
    code, out, _ = run(capsys, "verify", "--b", "z^2 + i",
                       "--grid", "t=0.5:1:2,re=-1:-0.5:2,im=0:0:1")
    report = json.loads(out)
    assert report["excluded"]["count"] == 4
    assert report["records"] == []
    assert report["summary"]["max_residuals"] == {}
    assert report["summary"]["pass"] is False
    assert code == 1


def test_branch_cut_on_grid_is_excluded_not_fatal(capsys):
    # ln(z - 1.5) has its cut on the real axis left of 1.5, where the grid
    # puts z = 0.5 (t = 0.5 and 2) and t + b(z) on the cut at z = 2, t = 0.5
    code, out, _ = run(capsys, "verify", "--kappa", "1", "--family", "noninv",
                       "--b", "ln(z - 1.5)", "--grid", "t=0.5:2:2,re=0.5:2:2,im=0:0:1")
    assert code == 0
    report = json.loads(out)
    assert report["excluded"]["count"] == 3
    assert all("negative real axis" in reason for reason in report["excluded"]["reasons"])
    assert len(report["records"]) == 1
    assert report["summary"]["pass"] is True


def test_branch_cut_in_resolving_is_excluded_not_fatal(capsys):
    # ln(theta) is on its cut wherever theta <= 0
    code, out, _ = run(capsys, "resolving", "--kappa", "1", "--phi", "ln(theta)",
                       "--samples", "20", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["excluded"]["reasons"] == {"BranchCutViolation": 58}
    assert report["summary"]["samples"] == 20
    assert report["summary"]["pass"] is True


def test_resolving_with_every_sample_excluded_fails(capsys):
    # F divides by xi - xi = 0 everywhere: every sample excluded, none checked
    code, out, _ = run(capsys, "resolving", "--kappa", "1", "--phi", "1/(xi - xi)",
                       "--samples", "5", "--seed", "7")
    assert code == 1
    report = json.loads(out)
    assert report["records"] == []
    assert report["excluded"]["reasons"] == {"DivisionBySingularJet": report["excluded"]["count"]}


def test_symmetry_invariants_exclusions(capsys):
    # b has a pole at z = 1 (four t), t + b(z) hits the cut at one point
    # and vanishes at another
    code, out, _ = run(capsys, "symmetry", "--check", "invariants", "--a", "z",
                       "--family", "noninv", "--b", "1/(z-1)+i")
    assert code == 0
    report = json.loads(out)
    assert report["excluded"]["count"] == 6
    reasons = report["excluded"]["reasons"]
    assert reasons["constant term 0j below 1e-12"] == 4
    assert reasons["t + b(z) vanishes at the evaluation point"] == 1
    assert sum(n for r, n in reasons.items() if "negative real axis" in r) == 1
    assert len(report["records"]) == 42


def test_symmetry_criterion_exclusions(capsys):
    code, out, _ = run(capsys, "symmetry", "--check", "criterion", "--family", "f0",
                       "--C", "1", "--a", "i", "--grid", "t=1:1:1,re=0:1:2,im=0:0:1")
    assert code == 0
    report = json.loads(out)
    assert report["excluded"]["reasons"] == {"z + zbar vanishes at the evaluation point": 1}
    assert [rec["point"] for rec in report["records"]] == [{"t": 1.0, "re": 1.0, "im": 0.0}]


def test_orbit_exclusions(capsys):
    # phi(z) = z + 0.5 maps the grid's z = 0.5 onto the pole of b at 1
    code, out, _ = run(capsys, "orbit", "--family", "noninv", "--b", "1/(z-1)+i",
                       "--phi", "z + 0.5")
    assert code == 0
    report = json.loads(out)
    assert report["excluded"]["reasons"] == {"constant term 0j below 1e-12": 4}
    assert len(report["records"]) == 44
    assert all(rec["point"]["re"] != 0.5 or rec["point"]["im"] != 0.0
               for rec in report["records"])


def test_orbit_critical_point_is_excluded_not_fatal(capsys):
    # phi'(0) = 0 for phi = z^2 + 1: the grid point z = 0 is excluded
    code, out, _ = run(capsys, "orbit", "--family", "f0", "--C", "1",
                       "--phi", "z^2 + 1", "--grid", "t=1:1:1,re=0:1:2,im=0:0:1")
    assert code == 0
    report = json.loads(out)
    assert report["excluded"]["reasons"] == {"phi'(0j) = 0j within tolerance": 1}
    assert [rec["point"] for rec in report["records"]] == [{"t": 1.0, "re": 1.0, "im": 0.0}]
    assert report["summary"]["pass"] is True


def test_orbit_rejects_a_constant_map(capsys):
    code, out, err = run(capsys, "orbit", "--family", "f0", "--C", "1", "--phi", "2 + i")
    assert code == 2
    assert out == ""
    assert "does not depend on z" in err


def test_report_records_mains_own_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["foo", "--bar"])
    argv = ["verify", "--family", "f0", "--C", "1", "--grid", "t=1:1:1,re=1:1:1,im=0:0:1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["command"] == argv


@pytest.mark.parametrize("family, missing", [
    (family, name) for family, names in FAMILY_PARAMS.items() for name in names])
def test_each_missing_family_parameter_exits_2(capsys, family, missing):
    argv = ["verify", "--family", family]
    for name, variables in FAMILY_PARAMS[family].items():
        if name != missing:
            argv += [f"--{name}", variables[0] if variables else "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: family {family!r} requires --{missing}\n"


@pytest.mark.parametrize("argv", [
    ["resolving", "--kappa", "1", "--phi", "2", "--samples", "5"],
    ["verify", "--family", "f0", "--C", "1"],
    ["classify", "--b", "-2*z + 1"],
    ["symmetry", "--check", "algebra", "--a", "z", "--b-gen", "z^2"],
    ["orbit", "--family", "f0", "--C", "1", "--phi", "2*z"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("tol", ("inf", "-inf", "nan", "0", "-1e-9", "abc"))
def test_bad_tolerance_exits_2(capsys, argv, tol):
    # an infinite or NaN bound would pass any residual, tau:+0.1 included
    with pytest.raises(SystemExit) as exit_:
        # --tol=VALUE: argparse would read a separate "-inf" as an option
        main(argv + ["--perturb", "tau:+0.1"] * (argv[0] == "resolving") + [f"--tol={tol}"])
    out = capsys.readouterr()
    assert exit_.value.code == 2 and out.out == ""
    assert "argument --tol: " in out.err and "expected one argument" not in out.err


@pytest.mark.parametrize("samples", ("0", "-3", "2.5"))
def test_bad_sample_count_exits_2(capsys, samples):
    with pytest.raises(SystemExit) as exit_:
        main(["resolving", "--kappa", "1", "--phi", "2", f"--samples={samples}"])
    out = capsys.readouterr()
    assert exit_.value.code == 2 and out.out == ""
    assert "argument --samples: " in out.err


def test_liouville_logs_on_their_branch_cut_are_not_excluded(capsys):
    # a(z) + abar(zbar) = -6 and a' = 2z < 0 on real z < 0: gamma is real
    # there, so only the critical points a'(0) = 0 are excluded
    code, out, _ = run(capsys, "orbit", "--family", "f0general", "--l", "1", "--C1", "0.5",
                       "--C2", "1", "--a", "z^2 + 1", "--phi", "2*z",
                       "--grid", "t=-1:2:4,re=-1:2:4,im=-1:1:3")
    assert code == 0
    report = json.loads(out)
    assert report["excluded"] == {
        "count": 4, "reasons": {"log argument singular in a': ln of jet with constant term 0j": 4}}
    assert len(report["records"]) == 44
    assert report["summary"]["pass"] is True
    # c(z) + cbar(zbar) = -0.625 at the images of some README grid points
    code, out, _ = run(capsys, "orbit", "--family", "general_noninv", "--b", "z^2",
                       "--c", "z^2", "--phi", "z^2/2 + z")
    report = json.loads(out)
    assert code == 0 and report["excluded"]["count"] == 0 and len(report["records"]) == 48
