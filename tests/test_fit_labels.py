"""Every case label of `classify_b` comes from `TheoremCase`, pinned.

tests/golden/classify_verdicts.json holds one row per input of `inputs`,
classified on classify-cases' 13-point grid:

- ``case``: `case_draws.draw_case` draws of the 14 non-empty
  (kappa, case) pairs, one per pair for each seed of ``range(SEEDS)``;
- ``generic``: quadratics with random complex coefficients at
  ``random.Random(36)``, kappa alternating;
- ``special``: a constant and a linear b, and b whose unscaled fit finds
  the generator alpha d_t alone, at both kappa.

A row is the verdict's kind with its case label and note, its witness
point or its reason.  The golden was made from the code before fits were
labelled through `TheoremCase`; the rows that labelling changed are the
``special`` ones of ln(z), exp(70*z), exp(300*z) and 1e30*z^2.

Regenerate with ``PYTHONPATH=src:tests python tests/test_fit_labels.py``
only for a named change of the verdicts.
"""

import functools
import json
import pathlib
import random

import pytest

from case_draws import EMPTY_CASES, draw_case
from heavenly import classify
from heavenly import expr as ex
from heavenly.classify import (SNAP_TOL, ConformallyNonInvariant, Inconclusive,
                               InvariantCaseMatched, TheoremCase, classify_b, theorem_case)
from heavenly.fields import Point
from test_classify import GRID as ACCEPTANCE_GRID

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "classify_verdicts.json"
GRID = ACCEPTANCE_GRID + [Point(1.0, 1.0 + 0j)]
PAIRS = [(kappa, cid) for kappa in (1, -1) for cid in range(1, 9)
         if (kappa, cid) not in EMPTY_CASES]
SEEDS = 60
GENERIC = 120
#: b whose fit finds a generator that no normal form has: alpha d_t alone,
#: where |b| is large, and a = z with alpha = -1 for ln(z) at kappa=+1
UNLABELLED = ("ln(z)", "exp(70*z)", "exp(300*z)", "1e30*z^2")
SPECIAL = ("0.5", "-2*z + 1") + UNLABELLED
LINEAR_NOTE = "linear b reported under the affine case label"


def inputs():
    """(key, b, kappa) for each row."""
    out = []
    for seed in range(SEEDS):
        rng = random.Random(seed)
        for kappa, cid in PAIRS:
            b, _gen = theorem_case(draw_case(cid, kappa, rng))
            out.append((f"case {cid} kappa {kappa:+d} seed {seed}", b, kappa))
    rng = random.Random(36)
    for i in range(GENERIC):
        c = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(3)]
        text = " + ".join(f"({v.real:.6f} + {v.imag:.6f}*i)" + (f"*z^{k}" if k else "")
                          for k, v in enumerate(c))
        kappa = 1 if i % 2 == 0 else -1
        out.append((f"generic {text} kappa {kappa:+d}", ex.parse(text, ("z",)), kappa))
    out += [(f"special {text} kappa {kappa:+d}", ex.parse(text, ("z",)), kappa)
            for text in SPECIAL for kappa in (1, -1)]
    return out


@functools.cache
def verdicts():
    """{key: (kappa, verdict)} over `inputs`."""
    return {key: (kappa, classify_b(b, kappa, GRID)) for key, b, kappa in inputs()}


def row(v):
    if isinstance(v, InvariantCaseMatched):
        return [type(v).__name__, v.case_id, v.note]
    if isinstance(v, ConformallyNonInvariant):
        return [type(v).__name__, repr(v.witness)]
    return [type(v).__name__, v.reason]


def rows():
    return {key: row(v) for key, (_kappa, v) in verdicts().items()}


def _snap(x: complex) -> complex:
    return complex(*(0.0 if abs(p) < SNAP_TOL else p for p in (x.real, x.imag)))


def normal_form_constants(kappa, gen):
    """(alpha, beta, C1, C2, lam) of a fitted generator, with the entries
    below SNAP_TOL snapped to 0 and a's coefficients read by interpolation
    at z = 0 and +-1."""
    a = lambda z: 0j if gen.a is None else ex.evaluate_value(gen.a, {"z": z})
    p0, plus, minus = a(0j), a(1 + 0j), a(-1 + 0j)
    p0, p1, p2 = _snap(p0), _snap((plus - minus) / 2), _snap((plus + minus) / 2 - p0)
    alpha, beta = (0.0 if abs(x) < SNAP_TOL else x for x in (gen.alpha, gen.beta))
    if kappa == -1:  # a = C1 z^2 - lam z + C2
        return alpha, beta, p2, p0, -p1
    if p2:  # a = C1 (z + lam)^2 + C2
        lam = p1 / (2 * p2)
        return alpha, beta, p2, p0 - p2 * lam * lam, lam
    return alpha, beta, p1, p0, 0j  # a = C1 z + C2


def test_verdicts_are_pinned():
    assert rows() == json.loads(GOLDEN.read_text())


def test_every_label_is_a_normal_form_that_theorem_case_accepts():
    checked = set()
    for key, (kappa, v) in verdicts().items():
        if not isinstance(v, InvariantCaseMatched) or v.note == LINEAR_NOTE:
            continue
        alpha, beta, C1, C2, lam = normal_form_constants(kappa, v.generator)
        TheoremCase(v.case_id, kappa, alpha, beta, C1=C1, C2=C2, lam=lam)
        checked.add((kappa, v.case_id))
    # kappa=+1 case 7 draws are linear b, which carry the note, and kappa=-1
    # case 6 draws are constant b, which read case 8 (below)
    assert checked == set(PAIRS) - {(1, 7), (-1, 6)}


def test_a_generator_that_is_no_normal_form_is_inconclusive():
    for text in UNLABELLED:
        for kappa in (1, -1):
            _kappa, v = verdicts()[f"special {text} kappa {kappa:+d}"]
            assert not (isinstance(v, InvariantCaseMatched) and v.case_id in (6, 8))
            if (text, kappa) == ("ln(z)", -1):
                continue  # no kappa=-1 generator leaves ln(z) invariant: it is witnessed
            assert isinstance(v, Inconclusive), (text, kappa)
            assert "matches no normal form" in v.reason
            assert "alpha" in v.reason and "beta" in v.reason and "residual" in v.reason


def test_a_passing_fit_without_a_label_never_reaches_the_witness(monkeypatch):
    # ln(z) at kappa=+1 is invariant under a = z with alpha = -1, which is
    # no normal form; the witness alone would call it non-invariant
    def witness(field, grid):
        raise AssertionError("an unlabelled passing fit reached the witness")

    monkeypatch.setattr(classify, "conf_inv_witness", witness)
    v = classify_b(ex.parse("ln(z)", ("z",)), 1, GRID)
    assert isinstance(v, Inconclusive)
    assert v.reason.startswith("the fitted generator (alpha 7.071e-01, beta ")
    assert v.reason.endswith(") but matches no normal form")


@pytest.mark.parametrize("kappa,a_at_2", ((1, 1j), (-1, -2j)))
def test_a_constant_b_is_case_8_through_the_label_path(kappa, a_at_2):
    # a = i (kappa=+1) or a = -i z (kappa=-1), the unit vector on a's last constant
    _kappa, v = verdicts()[f"special 0.5 kappa {kappa:+d}"]
    assert isinstance(v, InvariantCaseMatched)
    assert (v.case_id, v.note, v.generator.alpha, v.generator.beta) == (8, "", 0.0, 0.0)
    assert ex.evaluate_value(v.generator.a, {"z": 2 + 0j}) == a_at_2
    gen, cid = classify._generator_from_vector((0.0, 0.0, 0.0, 0.0, 1.0), kappa)
    assert (gen, cid) == (v.generator, 8)


def test_kappa_minus_one_case_6_draws_read_case_8():
    # a constant b is case 6's normal form b = alpha/beta at kappa=-1 too;
    # the constant-b fit a = -i z labels it case 8
    for seed in range(SEEDS):
        _kappa, v = verdicts()[f"case 6 kappa -1 seed {seed}"]
        assert isinstance(v, InvariantCaseMatched) and v.case_id == 8


def test_kappa_plus_one_cases_7_and_8_overlap_as_case_8():
    # alpha = beta = 0 and a = i meet both case 7's and case 8's constraints
    TheoremCase(7, 1, 0.0, 0.0, C2=1j)
    TheoremCase(8, 1, 0.0, 0.0, C2=1j)
    assert classify._generator_from_vector((0.0, 1e-10, 0.0, 0.0, 1.0), 1)[1] == 8
    assert classify._generator_from_vector((0.6, 1e-10, 0.0, 0.0, 0.8), 1)[1] == 7


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(rows(), indent=0) + "\n")
