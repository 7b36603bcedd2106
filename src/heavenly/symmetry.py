"""Point-symmetry generators: prolonged action on invariants, the symmetry
algebra check, the invariance criterion for solutions, and the sigma-based
conformal non-invariance witness."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from . import expr as ex
from .fields import Point, SolutionField, eval_u, in_sweeps
from .invariants import invariants_at, swept_invariants

#: a grid maximum of |sigma - sigma_bar| above this witnesses conformal
#: non-invariance
ASYMMETRY_TOL = 1e-8


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


def _a_derivs(a: ex.Expr, z0: complex, order: int = 3):
    """a, a', a'', a''' at z0 and the conjugate-partner values at conj(z0)."""
    j = ex.eval_jet1(a, z0, order)
    vals = [j.partial((k,)) for k in range(order + 1)]
    bvals = [v.conjugate() for v in vals]  # abar^{(k)}(conj z0)
    return vals, bvals


def x2_apply(a: ex.Expr, target: str, field: SolutionField, p: Point) -> complex:
    """Second prolongation of X_a applied to a target quantity at p.

    Vanishes on the five differential invariants; nonzero on non-invariant
    jet coordinates such as u_z.
    """
    J = eval_u(field, p, 3)
    z0 = p.z
    (av, abv) = _a_derivs(a, z0)
    a0, a1, a2, a3 = av
    ab0, ab1, ab2, ab3 = abv
    u = J.value
    u_z = J.partial((1, 0, 0))
    u_zb = J.partial((0, 1, 0))
    u_zz = J.partial((2, 0, 0))
    u_zbzb = J.partial((0, 2, 0))
    u_zt = J.partial((1, 0, 1))
    u_zbt = J.partial((0, 1, 1))
    u_zzb = J.partial((1, 1, 0))

    # prolongation coefficients, in the order of the coordinates they act on
    c_u = -(a1 + ab1)
    c_uz = -(a2 + a1 * u_z)
    c_uzb = -(ab2 + ab1 * u_zb)
    c_uzz = -(a3 + a2 * u_z + 2 * a1 * u_zz)
    c_uzbzb = -(ab3 + ab2 * u_zb + 2 * ab1 * u_zbzb)
    c_uzt = -a1 * u_zt
    c_uzbt = -ab1 * u_zbt
    c_uzzb = -(a1 + ab1) * u_zzb

    if target in ("T", "Ut", "Utt"):
        return 0j  # X_a has no components along t, u_t, u_tt
    if target == "Rho":
        emu = cmath.exp(-u)
        return c_u * (-emu * u_zzb) + c_uzzb * emu
    if target == "Eta":
        emu = cmath.exp(-u)
        return (c_u * (-emu * u_zt * u_zbt)
                + c_uzt * emu * u_zbt + c_uzbt * emu * u_zt)
    if target == "Uz":
        return c_uz
    raise ValueError(f"unsupported x2 target {target!r}")


def algebra_commutator_check(a: ex.Expr, b: ex.Expr,
                             testpoint: tuple[complex, complex]) -> tuple[complex, complex]:
    """Residuals of [X_a, X_b] = X_{a b' - b a'} on the coordinates z and u."""
    z0, _u0 = testpoint
    av, abv = _a_derivs(a, z0)
    bv, bbv = _a_derivs(b, z0)
    # action on z: X_a(X_b(z)) - X_b(X_a(z)) = a b' - b a'
    lhs_z = av[0] * bv[1] - bv[0] * av[1]
    # c = a b' - b a'  =>  c(z0) and c'(z0)
    c0 = av[0] * bv[1] - bv[0] * av[1]
    c1 = av[0] * bv[2] - bv[0] * av[2]
    res_z = lhs_z - c0
    # action on u: -(a b'' + abar bbar'') + (b a'' + bbar abar'')  vs  -(c' + cbar')
    lhs_u = -(av[0] * bv[2] + abv[0] * bbv[2]) + (bv[0] * av[2] + bbv[0] * abv[2])
    cb1 = abv[0] * bbv[2] - bbv[0] * abv[2]
    rhs_u = -(c1 + cb1)
    return res_z, lhs_u - rhs_u


def invariance_residual(field: SolutionField, g: GeneratorSpec, p: Point) -> complex:
    """Residual of the infinitesimal invariance criterion at p:
    (alpha + beta t) f_t + a f_z + abar f_zbar - (2 beta - a' - abar')."""
    J = eval_u(field, p, 1)
    f_t = J.partial((0, 0, 1))
    f_z = J.partial((1, 0, 0))
    f_zb = J.partial((0, 1, 0))
    if g.a is not None:
        av, abv = _a_derivs(g.a, p.z, order=1)
        a0, a1 = av
        ab0, ab1 = abv
    else:
        a0 = a1 = ab0 = ab1 = 0j
    return ((g.alpha + g.beta * p.t) * f_t + a0 * f_z + ab0 * f_zb
            - (2 * g.beta - a1 - ab1))


def conf_inv_witness(field: SolutionField, grid: list[Point]) -> WitnessReport:
    """Max |sigma - sigma_bar| over the grid, whose invariants come from
    one stacked calculus per chunk (`fields.in_sweeps`).

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
