"""Every per-point check at lone points, pinned bit for bit.

The README goldens run the CLI, whose points go through stacked passes.
This file pins the other path: each check called at one point of a fresh
field, so the point's values come from its own build.  For every family of
`test_bundle.FAMILIES` (the pushforward included) at both signs of kappa,
on the points of `points`, tests/golden/lone_points.json holds the float
hex of the equation residual, every InvariantSet field, the twelve
commutator residuals, the six x2 targets and the invariance criterion, or
the class and message of the exclusion a call raised.

Regenerate with ``PYTHONPATH=src:tests python tests/test_lone_points.py``
only for a named change of these values.
"""

import json
import pathlib
from dataclasses import fields as dc_fields

from heavenly.errors import HeavenlyError
from heavenly.fields import Point
from heavenly.invariants import (COMMUTATOR_PAIRS, COMMUTATOR_TARGETS, InvariantSet,
                                 commutator_residual, invariants_at, liouville_residual,
                                 pde_residual)
from heavenly.symmetry import X2_TARGETS, GeneratorSpec, invariance_residual, x2_apply
from test_bundle import A_GEN, FAMILIES, build

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "lone_points.json"
GENERATOR = GeneratorSpec(0.5, 0.25, A_GEN)


def points(kappa):
    """Points inside every domain, on the real axis (where confinv's xi
    vanishes) with both signs of a zero, and at Re z < 0 (outside the
    domains of f0 and noninv at kappa = +1)."""
    return (Point(0.8, complex(1.3, 0.4 * kappa)), Point(1.2, complex(1.3, 0.4 * kappa)),
            Point(0.8, complex(1.7, 0.6 * kappa)), Point(1.0, complex(1.2, 0.0)),
            Point(1.0, complex(-1.5, 0.0)), Point(1.0, complex(-1.5, -0.0)),
            Point(0.6, complex(0.5, -0.9 * kappa)), Point(1.4, complex(-0.7, 0.3)))


def _hex(v):
    if v is None:
        return None
    if isinstance(v, InvariantSet):
        return {f.name: _hex(getattr(v, f.name)) for f in dc_fields(v)}
    if isinstance(v, complex):
        return [v.real.hex(), v.imag.hex()]
    return float(v).hex()


def _outcome(fn):
    try:
        return _hex(fn())
    except HeavenlyError as err:
        return {"raised": f"{type(err).__name__}: {err}"}


def lone_record(family, kappa, p):
    """Every check at p, each on a fresh field."""
    residual = liouville_residual if family == "liouville" else pde_residual
    out = {"point": [p.t.hex(), p.z.real.hex(), p.z.imag.hex()],
           "equation": _outcome(lambda: residual(build(family, kappa), p)),
           "invariants": _outcome(lambda: invariants_at(build(family, kappa), p))}
    fld = build(family, kappa)
    out["commutators"] = {f"{pair[0]},{pair[1]} {target}": _outcome(
        lambda: commutator_residual(pair, target, fld, p))
        for pair in COMMUTATOR_PAIRS for target in COMMUTATOR_TARGETS}
    fld = build(family, kappa)
    out["x2"] = {target: _outcome(lambda: x2_apply(A_GEN, target, fld, p))
                 for target in X2_TARGETS}
    out["criterion"] = _outcome(lambda: invariance_residual(build(family, kappa), GENERATOR, p))
    return out


def lone_records():
    return {f"{family} {kappa:+d}": [lone_record(family, kappa, p) for p in points(kappa)]
            for family, *_ in FAMILIES for kappa in (1, -1)}


def test_lone_points_keep_their_bits():
    want = json.loads(GOLDEN.read_text())
    got = lone_records()
    assert list(got) == list(want)
    for name in want:
        for rec, pinned in zip(got[name], want[name]):
            assert rec == pinned, (name, rec["point"])


def test_the_pinned_points_cover_exclusions_and_every_family():
    pinned = json.loads(GOLDEN.read_text())
    assert len(pinned) == 2 * len(FAMILIES) and all(len(v) == 8 for v in pinned.values())
    raised = {value["raised"].split(":")[0] for recs in pinned.values() for rec in recs
              for value in (rec["equation"], *rec["commutators"].values())
              if isinstance(value, dict) and "raised" in value}
    assert {"DomainError", "EtaVanishes"} <= raised


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(lone_records(), indent=1) + "\n")
