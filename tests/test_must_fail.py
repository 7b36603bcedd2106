"""Every check kind the CLI reports has a row that makes it fail.

The kinds are those of the reports of the README's five examples and of
`symmetry --check criterion` on an invariant field.  Each (example, kind)
has a row in MUST_FAIL: a perturbation under which the example, run
in-process, reports that kind above its --tol.  The x2 kinds on T, u_t and
u_tt read exactly 0.0 by construction (X_a has no components along them),
so they are listed in ZERO_BY_CONSTRUCTION instead.  A new kind without a
row fails `test_every_reported_kind_has_a_row`.
"""

import contextlib
import io
import json

import pytest
from test_readme_examples import README_EXAMPLES
from test_reference_kernels import ref_x2_apply

from heavenly import classify, fields, symmetry
from heavenly import expr as ex
from heavenly.cli import main

#: the criterion on a field it holds for: f0 depends on z + zbar, and a = i
#: translates along the imaginary axis
CRITERION = ["symmetry", "--check", "criterion", "--family", "f0", "--C", "1", "--a", "i"]

#: each example by its subcommand, and the symmetry ones by their check too
EXAMPLES = {argv[0] if argv[0] != "symmetry" else f"symmetry {argv[2]}": argv
            for argv in (*README_EXAMPLES, CRITERION)}

MAKE = fields.make_solution

ZERO_BY_CONSTRUCTION = {("symmetry invariants", f"x2_{name}") for name in ("T", "Ut", "Utt")}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


def shifted(make):
    """make, with u + 0.1 for the field it returns: the equation's right
    side kappa (e^u)_tt grows by e^0.1 and its left side stays, and the
    invariants rho and eta shrink by e^-0.1."""
    def build(*args, **kwargs):
        fld = make(*args, **kwargs)
        return fields.SolutionField(fld.family, fld.kappa, fld.params,
                                    _builder=lambda *at: fld.jet_at(*at) + 0.1)
    return build


def shift_verified_field(monkeypatch, argv):
    monkeypatch.setattr(fields, "make_solution", shifted(fields.make_solution))
    return argv


def shift_classified_field(monkeypatch, argv):
    monkeypatch.setattr(classify, "make_solution", shifted(classify.make_solution))
    return argv


def shift_pushforward(monkeypatch, argv):
    monkeypatch.setattr(fields, "conformal_pushforward", shifted(fields.conformal_pushforward))
    return argv


def perturb_tau(monkeypatch, argv):
    return [*argv, "--perturb", "tau:+0.1"]


def flip_prolongation(monkeypatch, argv):
    # the sign of a' in the d_u coefficient -(a' + abar') turned
    monkeypatch.setattr(symmetry, "x2_apply",
                        lambda a, target, fld, p: ref_x2_apply(a, target, fld, p, flip=True))
    return argv


def noninv(kappa):
    """The noninv field with b = z^2 + i: it is not invariant under the
    translation a = i, and its eta does not vanish."""
    return MAKE("noninv", {"b": ex.parse("z^2 + i", ("z",))}, kappa)


def swap_for_a_non_invariant_field(monkeypatch, argv):
    monkeypatch.setattr(fields, "make_solution", lambda family, params, kappa: noninv(kappa))
    return argv


def swap_the_pushforward(monkeypatch, argv):
    # f0's eta vanishes, on the source and on its pushforward alike
    monkeypatch.setattr(fields, "conformal_pushforward", lambda fld, phi: noninv(fld.kappa))
    return argv


#: (example, kind) -> a perturbation: (monkeypatch, argv) -> the argv to run
MUST_FAIL = {
    ("verify", "equation"): shift_verified_field,
    ("classify", "equation"): shift_classified_field,
    **{("resolving", kind): perturb_tau for kind in ("R1", "R2", "R2bar", "R3", "R4", "jacobi")},
    ("symmetry invariants", "x2_Rho"): flip_prolongation,
    ("symmetry invariants", "x2_Eta"): flip_prolongation,
    ("orbit", "equation"): shift_pushforward,
    ("orbit", "rho_match"): shift_pushforward,
    ("orbit", "eta_match"): swap_the_pushforward,
    ("symmetry criterion", "criterion"): swap_for_a_non_invariant_field,
}


@pytest.fixture(scope="module")
def reports():
    """Each example's exit code and report, unperturbed."""
    return {label: run(argv) for label, argv in EXAMPLES.items()}


def test_every_reported_kind_has_a_row(reports):
    reported = {(label, kind) for label, (_, report) in reports.items()
                for rec in report["records"] for kind in rec["residuals"]}
    assert not set(MUST_FAIL) & ZERO_BY_CONSTRUCTION
    assert reported == set(MUST_FAIL) | ZERO_BY_CONSTRUCTION


def test_zero_by_construction_reads_exactly_zero(reports):
    for label, kind in ZERO_BY_CONSTRUCTION:
        values = [rec["residuals"][kind] for rec in reports[label][1]["records"]]
        assert values and all(v == 0.0 for v in values), kind


@pytest.mark.parametrize("label, kind", sorted(MUST_FAIL))
def test_every_kind_fails_under_its_perturbation(monkeypatch, reports, label, kind):
    code, report = reports[label]
    tol = report["tolerance"]
    assert code == 0 and report["summary"]["max_residuals"][kind] <= tol
    code, report = run(MUST_FAIL[label, kind](monkeypatch, EXAMPLES[label]))
    assert code == 1 and report["summary"]["pass"] is False
    assert report["summary"]["max_residuals"][kind] > tol
