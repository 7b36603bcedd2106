"""The invariant normal forms' constraint sets and generators, pinned.

tests/golden/theorem_cases.json holds two records:

- ``accepted``: one bit per `TheoremCase` input of `sampled_inputs`, '1'
  where the constructor accepts it.  The inputs are drawn by
  ``random.Random(35)`` from a product grid: case_id 0-9, kappa in
  {1, -1, 2}, alpha and beta from `REALS` and C1, C2 and lam from
  `CONSTANTS`, which hold +-0.0 and magnitudes on both sides of
  `classify._ZERO_TOL`.
- ``forms``: for three `case_draws.draw_case` draws of each of the 14
  non-empty (kappa, case) pairs at ``random.Random(3500)``, the ``repr`` of
  b's root and of the generator's a root, with the generator's alpha and
  beta.

Regenerate with ``PYTHONPATH=src:tests python tests/test_theorem_cases.py``
only for a named change of the normal forms.
"""

import json
import pathlib
import random

from case_draws import EMPTY_CASES, draw_case
from heavenly.classify import TheoremCase, theorem_case
from heavenly.errors import ConstraintViolation

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "theorem_cases.json"
DRAWS = 20000
REALS = (0.0, -0.0, 1.0, 0.5, -2.0)
CONSTANTS = (0j, complex(-0.0, -0.0), 1e-13, 1e-13j, 1e-11, 1e-11j, 1.0, -2.0,
             1j, -0.5j, 1e-13 + 1j, 1e-11 + 1j, 1 + 1j, 1 - 1j)
PAIRS = [(kappa, cid) for kappa in (1, -1) for cid in range(1, 9)
         if (kappa, cid) not in EMPTY_CASES]


def sampled_inputs():
    """(case_id, kappa, alpha, beta, C1, C2, lam) for each draw."""
    rng = random.Random(35)
    return [(rng.randrange(10), rng.choice((1, -1, 2)), rng.choice(REALS), rng.choice(REALS),
             rng.choice(CONSTANTS), rng.choice(CONSTANTS), rng.choice(CONSTANTS))
            for _ in range(DRAWS)]


def accepts(cid, kappa, alpha, beta, C1, C2, lam):
    try:
        TheoremCase(cid, kappa, alpha, beta, C1=C1, C2=C2, lam=lam)
    except ConstraintViolation:
        return False
    return True


def accepted_bits():
    return "".join("1" if accepts(*args) else "0" for args in sampled_inputs())


def forms():
    rng = random.Random(3500)
    out = []
    for kappa, cid in PAIRS:
        for _ in range(3):
            b, gen = theorem_case(draw_case(cid, kappa, rng))
            out.append({"kappa": kappa, "case_id": cid, "b": repr(b.root),
                        "a": None if gen.a is None else repr(gen.a.root),
                        "alpha": gen.alpha, "beta": gen.beta})
    return out


def pinned():
    return {"accepted": accepted_bits(), "forms": forms()}


def test_accepted_inputs_are_pinned():
    assert accepted_bits() == json.loads(GOLDEN.read_text())["accepted"]


def test_every_nonempty_pair_has_pinned_accepted_inputs():
    bits = json.loads(GOLDEN.read_text())["accepted"]
    inputs = sampled_inputs()
    assert len(bits) == len(inputs) == DRAWS
    hit = {(kappa, cid) for (cid, kappa, *_), bit in zip(inputs, bits) if bit == "1"}
    assert hit == set(PAIRS)
    # the sample draws every constant: +-0.0 and both sides of the zero tolerance
    assert {repr(c) for args in inputs for c in args[4:]} == {repr(c) for c in CONSTANTS}


def test_generators_are_pinned():
    assert forms() == json.loads(GOLDEN.read_text())["forms"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(pinned(), indent=0) + "\n")
