"""Point-symmetry generators: the second prolongation of the conformal
generators X_a = a d_z + abar d_zbar - (a' + abar') d_u, the invariance
criterion for solutions, and the sigma-based conformal non-invariance
witness.  Each check reads the partials of u it needs as the entries of
the point's row (`fields.u_row`), whose multi-index factorials are all 1,
and a, a' and a'' from a's row (`expr.eval_jet1_rows`).  What `x2_apply`
reads at a point lives in the field's store."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from . import expr as ex
from .fields import Point, SolutionField, u_row
from .invariants import invariants_at, swept_invariants
from .sweeps import in_sweeps

#: a grid maximum of |sigma - sigma_bar| above this witnesses conformal
#: non-invariance
ASYMMETRY_TOL = 1e-8
#: the quantities `x2_apply` applies the prolonged generator to: the five
#: invariants and the jet coordinate u_z
X2_TARGETS = ("T", "Ut", "Utt", "Rho", "Eta", "Uz")


@dataclass(frozen=True)
class GeneratorSpec:
    """alpha * d_t + beta * (t d_t + 2 d_u) + X_a with holomorphic a(z)."""

    alpha: float = 0.0
    beta: float = 0.0
    a: ex.Expr | None = None


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the sigma != sigma-bar sufficiency test over a grid."""

    verdict: str  # "conformally non-invariant" | "inconclusive"
    max_asymmetry: float
    witness: Point | None
    note: str = ""


def x2_apply(a: ex.Expr, target: str, field: SolutionField, p: Point) -> complex:
    """Second prolongation of X_a applied to a target quantity at p.

    Vanishes on the five differential invariants; nonzero on non-invariant
    jet coordinates such as u_z.  A target outside X2_TARGETS raises
    ValueError before anything is evaluated; every other target raises
    outside the field's domain, and reads only the partials of its
    formula.  It reads p's order-2 row of u from the field's store
    (`u_row`), and Rho, Eta and Uz read a's order-2 row (a, a', a''),
    which the store keeps under "a" with the a it came from: the targets
    of one generator at p evaluate it once, and a different generator
    there afresh.
    """
    if target not in X2_TARGETS:
        raise ValueError(f"unsupported x2 target {target!r}")
    row = u_row(field, p, 2)
    if target in ("T", "Ut", "Utt"):
        return 0j  # X_a has no components along t, u_t, u_tt
    kept = field.store.stored(p, "a")
    if kept is None or kept[0] is not a:
        kept = (a, ex.eval_jet1_rows(a, [p.z], 2)[0])
        field.store.put(p, "a", kept)
    _, a1, a2 = kept[1]
    if target == "Uz":
        return -(a2 + a1 * row[1])  # the coefficient of d_{u_z}; row[1]: (1, 0, 0)
    ab1 = a1.conjugate()  # abar'(conj z) = conj(a'(z))
    emu = cmath.exp(-row[0])
    c_u = -(a1 + ab1)
    if target == "Rho":
        u_zzb = row[7]  # (1, 1, 0)
        c_uzzb = c_u * u_zzb
        return c_u * (-emu * u_zzb) + c_uzzb * emu
    u_zt, u_zbt = row[5], row[6]  # (1, 0, 1) and (0, 1, 1)
    c_uzt = -a1 * u_zt
    c_uzbt = -ab1 * u_zbt
    return (c_u * (-emu * u_zt * u_zbt)
            + c_uzt * emu * u_zbt + c_uzbt * emu * u_zt)


def invariance_residual(field: SolutionField, g: GeneratorSpec, p: Point) -> complex:
    """Residual of the infinitesimal invariance criterion at p:
    (alpha + beta t) f_t + a f_z + abar f_zbar - (2 beta - a' - abar');
    `invariance_residuals` at p alone."""
    return invariance_residuals(g, [p], [u_row(field, p, 1)])[0]


def invariance_residuals(g: GeneratorSpec, points: list[Point], rows: list) -> list[complex]:
    """`invariance_residual` at each of points, from u_z, u_zbar and u_t,
    entries 1 to 3 of each point's row of u (`fields.u_row`), and a's
    order-1 row (a, a') at each point, one evaluation of a for all of them
    (`expr.eval_jet1_rows`)."""
    if g.a is None:
        a_rows = [None] * len(points)
    else:
        a_rows = ex.eval_jet1_rows(g.a, [p.z for p in points], 1)
    out = []
    for p, a, row in zip(points, a_rows, rows):
        a0 = a1 = ab0 = ab1 = 0j  # a = 0
        if a is not None:
            a0, a1 = a
            ab0, ab1 = a0.conjugate(), a1.conjugate()  # abar and abar' at conj z
        out.append((g.alpha + g.beta * p.t) * row[3] + a0 * row[1] + ab0 * row[2]
                   - (2 * g.beta - a1 - ab1))
    return out


def conf_inv_witness(field: SolutionField, grid: list[Point]) -> WitnessReport:
    """Max |sigma - sigma_bar| over the grid, whose invariants come from
    one stacked calculus per chunk (`sweeps.in_sweeps`).

    sigma != sigma_bar is sufficient for conformal non-invariance; the
    converse does not hold, so equality yields "inconclusive", never an
    invariance claim.
    """
    best = 0.0
    witness = None
    eta_seen = False
    for p in in_sweeps(grid, lambda chunk: [(field, chunk, swept_invariants)]):
        s = invariants_at(field, p)
        if not s.eta_vanishes:
            eta_seen = True
        gap = abs(s.sigma - s.sigma_bar)
        if gap > best:
            best, witness = gap, p
    if not eta_seen:
        return WitnessReport("inconclusive", best, witness,
                             note="eta vanishes on the whole grid")
    if best > ASYMMETRY_TOL:
        return WitnessReport("conformally non-invariant", best, witness)
    return WitnessReport("inconclusive", best, witness,
                         note="sigma symmetry within tolerance; criterion has no converse")
