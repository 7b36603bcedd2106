import csv
import io
import json
import math
import sys
import warnings

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
    ("t=0:1:2,re,im=0:1:2", "malformed grid component 're'"),
    ("t=0:1:0,re=1:2:2,im=0:1:2", "count must be >= 1 in 't=0:1:0'"),
])
def test_bad_grid_exits_2(capsys, grid, message):
    code, out, err = run(capsys, "verify", "--family", "noninv", "--b", "z^2 + i",
                         "--grid", grid)
    assert code == 2 and out == ""
    assert message in err


ONE_Z = ("--grid", "t=1:2:2,re=1:1:1,im=0:0:1")
CRITERION = ("symmetry", "--check", "criterion", "--b", "z^2 + i", "--a", "z^2", *ONE_Z)


@pytest.mark.parametrize("argv, message", [
    (["verify", "--family", "f0", "--C", "1e999", *ONE_Z], "number out of range"),
    (["verify", "--family", "f0", "--C", "1e308*10", *ONE_Z],
     "--C must be finite, got '1e308*10'"),
    (["verify", "--family", "noninv", "--b", "z^2 + 1e999", *ONE_Z], "number out of range"),
    (["resolving", "--phi", "1e999"], "number out of range"),
    (["resolving", "--phi", "2", "--perturb", "tau:+1e308*10"], "--perturb must be finite"),
    ([*CRITERION, "--alpha", "nan"], "argument --alpha: must be finite, not 'nan'"),
    ([*CRITERION, "--beta", "inf"], "argument --beta: must be finite, not 'inf'"),
])
def test_non_finite_numbers_exit_2(capsys, argv, message):
    # a non-finite constant would give NaN residuals: it is a usage error,
    # reported before any evaluation warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse rejects --alpha and --beta
            code = exit_.code
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert message in out.err


def run_quietly(capsys, argv):
    """main(argv)'s exit code, stdout and stderr, and the RuntimeWarnings
    the run raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err, [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv, flag", [
    (["resolving", "--phi", "1e308*10", "--samples", "2"], "--phi"),
    (["verify", "--family", "noninv", "--b", "z^2 + 1e308*10", *ONE_Z], "--b"),
    (["classify", "--b", "1e308*10*z"], "--b"),
])
def test_a_non_finite_part_of_an_expression_flag_exits_2(capsys, argv, flag):
    # the part 1e308*10 reads no variable and is infinite at every point
    code, out, err, runtime_warnings = run_quietly(capsys, argv)
    assert code == 2 and out == ""
    assert f"error: {flag} must be finite, got " in err
    assert runtime_warnings == [] and "RuntimeWarning" not in err


@pytest.mark.parametrize("argv, message", [
    (["resolving", "--phi", "xi + ln(0)", "--samples", "2"],
     "error: ln of jet with constant term 0j"),
    (["verify", "--family", "noninv", "--b", "z^2 + exp(1000)", *ONE_Z],
     "error: --b must be finite, got 'z^2 + exp(1000)': exp(1000) is (inf+0j)"),
])
def test_an_expression_flag_part_that_raises_exits_2(capsys, argv, message):
    # ln(0) raises the engine's DomainError and exp(1000) an OverflowError
    code, out, err, runtime_warnings = run_quietly(capsys, argv)
    assert code == 2 and out == "" and runtime_warnings == []
    assert message in err


@pytest.mark.parametrize("argv, reasons", [
    (["verify", "--family", "noninv", "--b", "z^2 + exp(1000*z)", *ONE_Z],
     {"exp of jet with constant term (1000+0j) overflows": 2}),
    (["resolving", "--phi", "exp(1000*xi)", "--samples", "3"], {"OverflowError": 150}),
], ids=("verify", "resolving"))
def test_a_point_where_exp_overflows_is_excluded(capsys, argv, reasons):
    # exp(1000*z) reads a variable, so the flag check passes it, and it
    # overflows at every point
    code, out, err = run(capsys, *argv)
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["records"] == []
    assert report["excluded"] == {"count": sum(reasons.values()), "reasons": reasons}


@pytest.mark.parametrize("argv", [
    ["classify", "--b", "-".join(["z"] * 1000)],
    ["verify", "--family", "noninv", "--b", "(" * 1000 + "z" + ")" * 1000, *ONE_Z],
], ids=("classify-chain", "verify-parentheses"))
def test_an_expression_too_deep_to_walk_exits_2(capsys, argv):
    # the chain is as deep as a tree, the parentheses as the parser's recursion
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: expression nested too deeply\n")


def test_verify_passes_on_solution(capsys):
    code, out, _ = run(capsys, "verify", "--kappa", "1", "--family", "noninv",
                       "--b", "z^2 + i", "--grid", GRID, "--tol", "1e-9")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "foliation-report/1"
    assert report["summary"]["pass"] is True
    assert len(report["records"]) == 48
    assert report["summary"]["max_residuals"]["equation"] < 1e-9


@pytest.mark.parametrize("argv", (["--kappa", "1", "--family", "noninv", "--b", "z^2 + i"],
                                  ["--kappa", "-1", "--family", "f0", "--C", "1"]))
def test_verify_builds_order_3_u_jets_only(capsys, monkeypatch, argv):
    # one order-3 pass per chunk gives the invariants, and the equation
    # reads the first entries of its rows
    from heavenly.fields import SolutionField
    orders = []
    jets_at, jet_at = SolutionField.jets_at, SolutionField.jet_at
    monkeypatch.setattr(SolutionField, "jets_at", lambda self, points, order:
                        orders.append(order) or jets_at(self, points, order))
    monkeypatch.setattr(SolutionField, "jet_at", lambda self, z0, zb0, t0, order:
                        orders.append(order) or jet_at(self, z0, zb0, t0, order))
    code, _, _ = run(capsys, "verify", *argv, "--grid", GRID)
    assert code == 0
    assert orders == [3, 3, 3]  # 48 points, three chunks


def test_symmetry_invariants_builds_order_2_passes_only(capsys, monkeypatch):
    # x2 reads order 2 of u, so one order-2 pass per chunk serves every
    # target and no point is built alone
    from heavenly.fields import SolutionField
    orders = []
    jets_at = SolutionField.jets_at
    monkeypatch.setattr(SolutionField, "jets_at", lambda self, points, order:
                        orders.append(order) or jets_at(self, points, order))
    monkeypatch.setattr(SolutionField, "jet_at", lambda self, z0, zb0, t0, order:
                        orders.append(("alone", order)))
    code, _, _ = run(capsys, "symmetry", "--check", "invariants", "--a", "z^2",
                     "--family", "noninv", "--b", "z^2 + i", "--grid", GRID)
    assert code == 0
    assert orders == [2, 2, 2]  # 48 points, three chunks


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


def test_classify_inconclusive_verdict_fails_the_report(capsys):
    # Re z < 0 puts every point outside the noninv domain for kappa = 1
    code, out, _ = run(capsys, "classify", "--kappa", "1", "--b", "z^2 + i",
                       "--grid", "t=0.5:1:2,re=-1:-0.5:2,im=0:0:1")
    summary = json.loads(out)["summary"]
    assert summary["verdict"] == {"kind": "Inconclusive",
                                  "reason": "no grid point lies in the solution's domain"}
    assert summary["pass"] is False and code == 1


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


def test_resolving_records_name_t_ut_and_rho(capsys, tmp_path):
    # a resolving sample is a point (t, u_t, rho), not a grid point (t, z)
    args = ["resolving", "--kappa", "1", "--phi", "2", "--samples", "5", "--seed", "3"]
    _, out, _ = run(capsys, *args)
    records = json.loads(out)["records"]
    assert len(records) == 5
    assert all(list(rec["point"]) == ["rho", "t", "ut"] for rec in records)
    points = [(rec["point"]["t"], rec["point"]["ut"], rec["point"]["rho"]) for rec in records]
    assert points == sorted(points)
    cpath = tmp_path / "r.csv"
    assert main(args + ["--format", "csv", "--out", str(cpath)]) == 0
    rows = list(csv.DictReader(io.StringIO(cpath.read_text())))
    assert list(rows[0]) == ["t", "ut", "rho", "kind", "value"]
    assert sorted({(float(r["t"]), float(r["ut"]), float(r["rho"])) for r in rows}) == points


def test_resolving_perturbation_detected(capsys):
    code, out, _ = run(capsys, "resolving", "--kappa", "1", "--phi", "2",
                       "--samples", "10", "--perturb", "tau:+0.1")
    assert code == 1
    worst = json.loads(out)["summary"]["max_residuals"]
    assert worst["R1"] > 1e-3
    assert worst["jacobi"] > 1e-8


def test_symmetry_checks(capsys):
    code, out, _ = run(capsys, "symmetry", "--check", "invariants",
                       "--a", "z^2", "--family", "noninv", "--b", "z^2+i",
                       "--tol", "1e-8")
    assert code == 0
    with pytest.raises(SystemExit) as exit_:  # the removed algebra check is a usage error
        main(["symmetry", "--check", "algebra", "--a", "z", "--b-gen", "z^2"])
    assert exit_.value.code == 2 and capsys.readouterr().out == ""
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
    # classify_b's grid loop excludes the pole, and the report lists its exclusions
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_a_nan_residual_fails_the_report(capsys):
    # F is (1e200 xi)^2 - (1e200 xi)^2 = inf - inf: R1, R3, R4 and the
    # Jacobi residual read NaN at every sample, and so does their maximum
    code, out, _ = run(capsys, "resolving", "--phi", "(1e200*xi)^2 - (1e200*xi)^2",
                       "--samples", "3", "--seed", "1")
    assert code == 1
    summary = json.loads(out)["summary"]
    assert summary["pass"] is False
    maxima = summary["max_residuals"]
    assert all(math.isnan(maxima[kind]) for kind in ("R1", "R3", "R4", "jacobi"))
    assert maxima["R2"] < 1e-9


def test_a_nan_jacobi_condition_after_a_finite_one_fails_the_report(capsys, monkeypatch):
    from heavenly import resolving
    monkeypatch.setattr(resolving, "jacobi_residual", lambda rf, p: (0j, complex("nan")))
    code, out, _ = run(capsys, "resolving", "--phi", "xi*theta", "--samples", "3", "--seed", "1")
    report = json.loads(out)
    assert code == 1 and report["summary"]["pass"] is False
    assert all(math.isnan(rec["residuals"]["jacobi"]) for rec in report["records"])
    assert math.isnan(report["summary"]["max_residuals"]["jacobi"])


def test_symmetry_invariants_without_a_generator_exits_2(capsys):
    code, out, err = run(capsys, "symmetry", "--check", "invariants", "--family", "noninv",
                         "--b", "z^2 + i")
    assert code == 2 and out == ""
    assert err == "error: --check invariants requires --a, the generator a(z)\n"


@pytest.mark.parametrize("generator", ([], ["--a", ""], ["--alpha", "0", "--beta", "-0"]))
def test_symmetry_criterion_with_a_zero_generator_exits_2(capsys, generator):
    # alpha = beta = 0 and no a: the criterion would check 0 = 0 at every point
    code, out, err = run(capsys, "symmetry", "--check", "criterion", "--family", "f0",
                         "--C", "1", *generator)
    assert code == 2 and out == ""
    assert err == ("error: --check criterion requires a nonzero generator: "
                   "--a, --alpha or --beta\n")


@pytest.mark.parametrize("generator", (["--alpha", "1"], ["--beta", "0.5"]))
def test_symmetry_criterion_without_a_checks_alpha_and_beta(capsys, generator):
    # f0's u = ln(t^2 + C) - 2 ln(z + zbar) is not invariant under d_t or
    # t d_t + 2 d_u, so a generator without a still checks something
    code, out, _ = run(capsys, "symmetry", "--check", "criterion", "--family", "f0",
                       "--C", "1", *generator)
    report = json.loads(out)
    assert code == 1 and report["summary"]["max_residuals"]["criterion"] > 0.1


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


LIOUVILLE_ORBIT = ("orbit", "--family", "liouville", "--c", "z^2", "--phi", "2*z")


def test_orbit_checks_a_liouville_field_with_the_liouville_equation(capsys):
    code, out, _ = run(capsys, *LIOUVILLE_ORBIT)
    report = json.loads(out)
    assert code == 0 and report["summary"]["pass"] is True
    assert report["summary"]["max_residuals"]["equation"] < 1e-12
    assert report["summary"]["max_residuals"]["rho_match"] < 1e-12
    # c + cbar = 0 on the grid's imaginary axis, where gamma is singular
    assert report["excluded"]["count"] == 8 and len(report["records"]) == 40


def test_orbit_takes_the_real_branch_where_phi_prime_is_negative_real(capsys):
    # phi' = -1 everywhere: ln phi' + ln phibar' meets both branch cuts,
    # while ln(phi' phibar') = 0
    code, out, _ = run(capsys, "orbit", "--family", "liouville", "--c", "exp(z)",
                       "--phi=-z")
    report = json.loads(out)
    assert code == 0 and report["excluded"]["count"] == 0
    assert len(report["records"]) == 48
    assert all(v <= 1e-15 for rec in report["records"] for v in rec["residuals"].values())


def test_orbit_liouville_equation_fails_on_a_perturbed_pushforward(capsys, monkeypatch):
    # u + 0.1 leaves Gamma_{z zbar} as it is and scales 2 kappa e^Gamma by e^0.1
    from heavenly import fields
    push = fields.conformal_pushforward

    def perturbed(fld, phi):
        pushed = push(fld, phi)
        return fields.SolutionField(pushed.family, pushed.kappa, pushed.params,
                                    _builder=lambda *at: pushed.jet_at(*at) + 0.1)

    monkeypatch.setattr(fields, "conformal_pushforward", perturbed)
    code, out, _ = run(capsys, *LIOUVILLE_ORBIT)
    report = json.loads(out)
    assert code == 1 and report["summary"]["pass"] is False
    assert report["summary"]["max_residuals"]["equation"] > 1e-2


NONINV_ORBIT = ("orbit", "--family", "noninv", "--b", "z^2 + i", "--phi", "z^2/2 + z")


def test_orbit_invariant_matches_fail_against_a_perturbed_source(capsys, monkeypatch):
    # the pushed field's rho and eta equal the source's at phi(z) ...
    code, out, _ = run(capsys, *NONINV_ORBIT)
    report = json.loads(out)
    assert code == 0 and report["summary"]["pass"] is True
    assert len(report["records"]) > 0
    for kind in ("rho_match", "eta_match"):
        assert report["summary"]["max_residuals"][kind] < 1e-12
    # ... and differ from those of a source whose b is z^2 + 1.01i
    from heavenly import expr, fields
    push = fields.conformal_pushforward

    def pushed_from_a_perturbed_source(fld, phi):
        perturbed = fields.make_solution(
            "noninv", {"b": expr.parse("z^2 + 1.01*i", ("z",))}, fld.kappa)
        return push(perturbed, phi)

    monkeypatch.setattr(fields, "conformal_pushforward", pushed_from_a_perturbed_source)
    code, out, _ = run(capsys, *NONINV_ORBIT)
    report = json.loads(out)
    assert code == 1 and report["summary"]["pass"] is False
    for kind in ("rho_match", "eta_match"):
        assert report["summary"]["max_residuals"][kind] > 1e-3
    # the perturbed source still solves the equation
    assert report["summary"]["max_residuals"]["equation"] < 1e-9


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


@pytest.mark.parametrize("family, constant", [
    (family, name) for family, names in FAMILY_PARAMS.items()
    for name, variables in names.items() if not variables])
def test_a_non_real_family_constant_exits_2(capsys, family, constant):
    # the family would be checked on the real part alone
    argv = ["verify", "--family", family]
    for name, variables in FAMILY_PARAMS[family].items():
        value = variables[0] if variables else "1"
        argv += [f"--{name}", "1 + 2*i" if name == constant else value]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --{constant} must be a real constant, got '1 + 2*i'\n"


def test_an_out_path_that_cannot_be_written_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify", "--family", "f0", "--C", "1",
                         "--grid", "t=1:1:1,re=1:1:1,im=0:0:1", "--out", str(target))
    assert code == 2
    assert out == "" and not target.parent.exists()
    assert err.startswith("error: ") and str(target) in err


@pytest.mark.parametrize("argv", [
    ["resolving", "--kappa", "1", "--phi", "2", "--samples", "5"],
    ["verify", "--family", "f0", "--C", "1"],
    ["classify", "--b", "-2*z + 1"],
    ["symmetry", "--check", "invariants", "--a", "z^2", "--family", "noninv", "--b", "z^2+i"],
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
