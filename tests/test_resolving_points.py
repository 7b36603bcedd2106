"""The resolving checks at lone points and in one pass, pinned bit for bit.

tests/golden/resolving.json runs the CLI at kappa = +1 with phi = xi*theta
only.  This file pins the checks for the ansatz of every phi of
`PHI_TEXTS` at both signs of kappa: at each point of `points`, the float
hex of R1-R4, R2bar, J1 and J2, each call on fresh functions so that the
point is checked as a pass of one, or the class and message of the
exclusion the call raised; and the pairs of one 16-point `checked_pairs`
pass, a row per point.

Regenerate with ``PYTHONPATH=src:tests python tests/test_resolving_points.py``
only for a named change of these values.
"""

import json
import pathlib
import random

from heavenly import expr as ex
from heavenly.errors import HeavenlyError
from heavenly.resolving import (ResolvingPoint, ansatz_functions, checked_pairs,
                                jacobi_residual, resolving_residuals)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "resolving_points.json"
PHI_TEXTS = ("1", "2", "xi", "xi*theta", "exp(-xi)")
PASS_SIZE = 16


def points(kappa):
    """(t, ut, rho) with rho = kappa r, r > 0: inside the domain, at both
    signs of a zero u_t, where 2 kappa rho - ut^2 is exactly 0 and where
    it is negative."""
    return [ResolvingPoint(t, ut, kappa * r, kappa) for t, ut, r in (
        (1.0, 0.8, 0.4), (0.3, -0.5, 1.2), (-1.7, 0.25, 0.6), (1.9, 0.0, 0.9),
        (1.9, -0.0, 0.9), (-0.4, 0.95, 1.75), (0.5, 1.0, 0.5), (1.2, 1.5, 0.4))]


def pass_points(kappa, seed=23):
    """PASS_SIZE seeded points, drawn as `heavenly resolving` draws them."""
    rng = random.Random(seed)
    return [ResolvingPoint(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0),
                           kappa * rng.uniform(0.55, 2.0), kappa) for _ in range(PASS_SIZE)]


def functions(phi, kappa):
    return ansatz_functions(ex.parse(phi, ("xi", "theta")), kappa)


def _hex(v):
    return [v.real.hex(), v.imag.hex()]


def _pair_hex(residuals, jacobi):
    return {**{k: _hex(v) for k, v in residuals.as_dict().items()},
            "J1": _hex(jacobi[0]), "J2": _hex(jacobi[1])}


def _outcome(fn):
    try:
        return fn()
    except HeavenlyError as err:
        return {"raised": f"{type(err).__name__}: {err}"}


def lone_record(phi, kappa, p):
    """Both checks at p, each on fresh functions."""
    residuals = _outcome(lambda: {k: _hex(v) for k, v in
                                  resolving_residuals(functions(phi, kappa), p).as_dict().items()})
    jacobi = _outcome(lambda: dict(zip(("J1", "J2"),
                                       map(_hex, jacobi_residual(functions(phi, kappa), p)))))
    return {"point": [p.t.hex(), p.ut.hex(), p.rho.hex()],
            "residuals": residuals, "jacobi": jacobi}


def pass_records(phi, kappa):
    return [_pair_hex(*named["pair"]) if "pair" in named else {"F": _hex(named["F"])}
            for named in checked_pairs(functions(phi, kappa), pass_points(kappa))]


def resolving_records():
    return {f"{phi} {kappa:+d}": {"lone": [lone_record(phi, kappa, p) for p in points(kappa)],
                                  "pass": pass_records(phi, kappa)}
            for phi in PHI_TEXTS for kappa in (1, -1)}


def test_resolving_points_keep_their_bits():
    want = json.loads(GOLDEN.read_text())
    got = resolving_records()
    assert list(got) == list(want)
    for name in want:
        for rec, pinned in zip(got[name]["lone"], want[name]["lone"]):
            assert rec == pinned, (name, rec["point"])
        assert got[name]["pass"] == want[name]["pass"], name


def test_the_pinned_points_cover_both_exclusions():
    pinned = json.loads(GOLDEN.read_text())
    assert len(pinned) == 2 * len(PHI_TEXTS)
    raised = set()
    for rec in pinned.values():
        assert len(rec["lone"]) == 8 and len(rec["pass"]) == PASS_SIZE
        assert all("J1" in pair for pair in rec["pass"])
        raised |= {value["raised"].split(":")[0] for lone in rec["lone"]
                   for value in (lone["residuals"], lone["jacobi"]) if "raised" in value}
    assert raised == {"DomainError", "BranchCutViolation"}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(resolving_records(), indent=1) + "\n")
