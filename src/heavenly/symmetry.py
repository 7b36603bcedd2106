"""Point-symmetry generators: the second prolongation of the conformal
generators X_a = a d_z + abar d_zbar - (a' + abar') d_u, the invariance
criterion for solutions, and the sigma-based conformal non-invariance
witness.  What `x2_apply` reads at a point lives in the field's store;
an expression holds no point."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from . import expr as ex
from .fields import Point, SolutionField, eval_u
from .invariants import invariants_at, swept_invariant_sets
from .jet import Jet
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


def _a_derivs(j: Jet, order: int):
    """a and its derivatives up to order from a's univariate jet j at z0,
    and the conjugate-partner values at conj(z0)."""
    vals = [j.partial((k,)) for k in range(order + 1)]
    bvals = [v.conjugate() for v in vals]  # abar^{(k)}(conj z0)
    return vals, bvals


def x2_apply(a: ex.Expr, target: str, field: SolutionField, p: Point) -> complex:
    """Second prolongation of X_a applied to a target quantity at p.

    Vanishes on the five differential invariants; nonzero on non-invariant
    jet coordinates such as u_z.  A target outside X2_TARGETS raises
    ValueError before anything is evaluated; every other target raises
    outside the field's domain, and reads only the partials and
    coefficients of its formula.  It reads p's u-jet from the field's store
    (`eval_u`), and Rho and Eta read a's first derivatives, which the store
    keeps with the a they came from: the targets of one generator
    at p evaluate it once, and a different generator there afresh.
    """
    if target not in X2_TARGETS:
        raise ValueError(f"unsupported x2 target {target!r}")
    J = eval_u(field, p, 3)
    if target in ("T", "Ut", "Utt"):
        return 0j  # X_a has no components along t, u_t, u_tt
    if target == "Uz":
        (_, a1, a2), _ = _a_derivs(ex.eval_jet1(a, p.z, 2), 2)
        return -(a2 + a1 * J.partial((1, 0, 0)))  # the coefficient of d_{u_z}
    kept = field.store.stored(p, "a'")
    if kept is None or kept[0] is not a:
        (_, a1), (_, ab1) = _a_derivs(ex.eval_jet1(a, p.z, 1), 1)
        kept = (a, a1, ab1)
        field.store.put(p, "a'", kept)
    _, a1, ab1 = kept
    emu = cmath.exp(-J.value)
    c_u = -(a1 + ab1)
    if target == "Rho":
        u_zzb = J.partial((1, 1, 0))
        c_uzzb = c_u * u_zzb
        return c_u * (-emu * u_zzb) + c_uzzb * emu
    u_zt = J.partial((1, 0, 1))
    u_zbt = J.partial((0, 1, 1))
    c_uzt = -a1 * u_zt
    c_uzbt = -ab1 * u_zbt
    return (c_u * (-emu * u_zt * u_zbt)
            + c_uzt * emu * u_zbt + c_uzbt * emu * u_zt)


def invariance_residual(field: SolutionField, g: GeneratorSpec, p: Point) -> complex:
    """Residual of the infinitesimal invariance criterion at p:
    (alpha + beta t) f_t + a f_z + abar f_zbar - (2 beta - a' - abar')."""
    partials = first_partials(eval_u(field, p, 1))
    a = ex.eval_jet1(g.a, p.z, 1) if g.a is not None else None
    return _criterion(g, p.t, a, partials)


def first_partials(J: Jet) -> tuple[complex, complex, complex]:
    """(u_t, u_z, u_zbar) of a u-jet of order 1 or more: what the invariance
    criterion reads of it, the same bits at every order."""
    return J.partial((0, 0, 1)), J.partial((1, 0, 0)), J.partial((0, 1, 0))


def invariance_residuals(g: GeneratorSpec, points: list[Point], partials: list) -> list[complex]:
    """`invariance_residual` at each of points, from each point's
    `first_partials` and one stacked evaluation of a over their distinct z
    (`expr.eval_jet1_rows`)."""
    if g.a is None:
        a_jets = [None] * len(points)
    else:
        a_jets = ex.eval_jet1_rows(g.a, [p.z for p in points], 1)
    return [_criterion(g, p.t, a, d) for p, a, d in zip(points, a_jets, partials)]


def _criterion(g: GeneratorSpec, t: float, a: Jet | None, partials) -> complex:
    """The invariance criterion from a's order-1 jet at the point (None for
    a = 0) and the point's `first_partials`."""
    f_t, f_z, f_zb = partials
    if a is not None:
        (a0, a1), (ab0, ab1) = _a_derivs(a, 1)
    else:
        a0 = a1 = ab0 = ab1 = 0j
    return ((g.alpha + g.beta * t) * f_t + a0 * f_z + ab0 * f_zb
            - (2 * g.beta - a1 - ab1))


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
    for p in in_sweeps(grid, lambda chunk: [(field, chunk, swept_invariant_sets)]):
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
