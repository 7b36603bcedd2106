"""Point-symmetry generators: the second prolongation of the conformal
generators X_a = a d_z + abar d_zbar - (a' + abar') d_u, the invariance
criterion for solutions, and the sigma-based conformal non-invariance
witness.  Each check reads a partial of u as its entry of the point's
row (`fields.u_row`) times the multi-index factorial, as `Jet.partial`
takes it, and a, a' and a'' from a's row (`expr.eval_jet1_rows`).  What
`x2_apply` reads at a point lives in the field's store."""

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
    formula.  It reads p's row of u from the field's store (`u_row`), and
    Rho, Eta and Uz read a's order-2 row (a, a', a''), which the store
    keeps under "a" with the a it came from: the targets of one generator
    at p evaluate it once, and a different generator there afresh.
    """
    if target not in X2_TARGETS:
        raise ValueError(f"unsupported x2 target {target!r}")
    row = u_row(field, p, 3)
    if target in ("T", "Ut", "Utt"):
        return 0j  # X_a has no components along t, u_t, u_tt
    kept = field.store.stored(p, "a")
    if kept is None or kept[0] is not a:
        kept = (a, ex.eval_jet1_rows(a, [p.z], 2)[0])
        field.store.put(p, "a", kept)
    _, a1, a2 = kept[1]
    if target == "Uz":
        return -(a2 + a1 * (row[1] * 1))  # the coefficient of d_{u_z}; row[1]: (1, 0, 0)
    ab1 = a1.conjugate()  # abar'(conj z) = conj(a'(z))
    emu = cmath.exp(-row[0])
    c_u = -(a1 + ab1)
    if target == "Rho":
        u_zzb = row[7] * 1  # (1, 1, 0)
        c_uzzb = c_u * u_zzb
        return c_u * (-emu * u_zzb) + c_uzzb * emu
    u_zt, u_zbt = row[5] * 1, row[6] * 1  # (1, 0, 1) and (0, 1, 1)
    c_uzt = -a1 * u_zt
    c_uzbt = -ab1 * u_zbt
    return (c_u * (-emu * u_zt * u_zbt)
            + c_uzt * emu * u_zbt + c_uzbt * emu * u_zt)


def invariance_residual(field: SolutionField, g: GeneratorSpec, p: Point) -> complex:
    """Residual of the infinitesimal invariance criterion at p:
    (alpha + beta t) f_t + a f_z + abar f_zbar - (2 beta - a' - abar');
    `invariance_residuals` at p alone."""
    return invariance_residuals(g, [p], [first_partials(u_row(field, p, 1))])[0]


def first_partials(row: list) -> tuple[complex, complex, complex]:
    """(u_t, u_z, u_zbar) from a point's row of u of order 1 or more
    (`fields.u_row`): what the invariance criterion reads of it."""
    return row[3] * 1, row[1] * 1, row[2] * 1


def invariance_residuals(g: GeneratorSpec, points: list[Point], partials: list) -> list[complex]:
    """`invariance_residual` at each of points, from each point's
    `first_partials` and a's order-1 row (a, a') at each point, one
    evaluation of a for all of them (`expr.eval_jet1_rows`).  a is taken
    times 0!, as `Jet.partial` took it, a product that can flip the sign
    of a zero."""
    if g.a is None:
        a_rows = [None] * len(points)
    else:
        a_rows = ex.eval_jet1_rows(g.a, [p.z for p in points], 1)
    out = []
    for p, a, (f_t, f_z, f_zb) in zip(points, a_rows, partials):
        a0 = a1 = ab0 = ab1 = 0j  # a = 0
        if a is not None:
            a0, a1 = a[0] * 1, a[1]
            ab0, ab1 = a0.conjugate(), a1.conjugate()  # abar and abar' at conj z
        out.append((g.alpha + g.beta * p.t) * f_t + a0 * f_z + ab0 * f_zb
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
