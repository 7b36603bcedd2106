"""The eight invariant b(z) normal forms with their symmetry generators,
randomized verification of their invariance, and the classification
pipeline for generic b(z)."""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import expr as ex
from .errors import POINT_EXCLUSIONS, ConstraintViolation
from .fields import Point, eval_u, make_solution, u_jets
from .invariants import pde_residual
from .sweeps import in_sweeps
from .symmetry import GeneratorSpec, conf_inv_witness, first_partials, invariance_residuals

_ZERO_TOL = 1e-12
PDE_SANITY_TOL = 1e-6
FIT_TOL = 1e-8


# --- case normal forms ----------------------------------------------------

def _is_zero(v: complex) -> bool:
    return abs(v) < _ZERO_TOL


def _is_imag(v: complex) -> bool:
    return abs(v.real) < _ZERO_TOL * (1.0 + abs(v))


def _is_real(v: complex) -> bool:
    return abs(v.imag) < _ZERO_TOL * (1.0 + abs(v))


@dataclass(frozen=True)
class TheoremCase:
    """Constants of one invariant normal form.

    kappa=1: C1, C2, lam purely imaginary in cases 1-4; case 5 takes C1
    real and C2 imaginary; cases 6-8 take a = C2 imaginary.  kappa=-1:
    cases 1-4 use a = C1 z^2 - lam z + C2 with C2 = conj(C1) and lam
    imaginary; cases 5-8 use a = -lam z.
    """

    case_id: int
    kappa: int
    alpha: float = 0.0
    beta: float = 0.0
    C: complex = 1.0 + 0j
    C1: complex = 0j
    C2: complex = 0j
    lam: complex = 0j

    def __post_init__(self):
        cid, k = self.case_id, self.kappa
        if k not in (1, -1):
            raise ConstraintViolation(f"kappa must be +1 or -1, got {k}")
        if cid not in range(1, 9):
            raise ConstraintViolation(f"case_id must be 1..8, got {cid}")
        req = lambda cond, msg: None if cond else _fail(msg)

        def _fail(msg):
            raise ConstraintViolation(f"case {cid} (kappa={k:+d}): {msg}")

        if k == 1:
            if cid in (1, 2, 3, 4):
                req(_is_imag(self.C1) and not _is_zero(self.C1),
                    "C1 must be purely imaginary and nonzero")
                req(_is_imag(self.lam), "lam must be purely imaginary")
                if cid in (1, 2):
                    req(_is_imag(self.C2) and not _is_zero(self.C2),
                        "C2 must be purely imaginary and nonzero")
                else:
                    req(_is_zero(self.C2), "C2 must vanish")
                req((self.beta != 0) == (cid in (1, 3)),
                    "beta must be nonzero exactly in cases 1 and 3")
            elif cid == 5:
                req(_is_real(self.C1) and not _is_zero(self.C1),
                    "C1 must be real and nonzero")
                req(_is_imag(self.C2), "C2 must be purely imaginary")
                req(self.beta != 0, "beta must be nonzero")
            elif cid in (6, 7, 8):
                req(_is_zero(self.C1), "C1 must vanish")
                req(_is_imag(self.C2) and not _is_zero(self.C2),
                    "C2 must be purely imaginary and nonzero")
                if cid == 6:
                    req(self.beta != 0, "beta must be nonzero")
                elif cid == 7:
                    req(self.beta == 0, "beta must vanish")
                else:
                    req(self.alpha == 0 and self.beta == 0,
                        "alpha and beta must vanish")
        else:
            if cid in (1, 2, 3, 4):
                req(not _is_zero(self.C1), "C1 must be nonzero")
                req(_is_zero(self.C2 - self.C1.conjugate()),
                    "C2 must equal conj(C1)")
                req(_is_imag(self.lam), "lam must be purely imaginary")
                c2t = self.C2 - self.lam ** 2 / (4 * self.C1)
                if cid in (1, 2):
                    req(not _is_zero(c2t), "C2 - lam^2/(4 C1) must be nonzero")
                else:
                    # empty for nonzero constants: |C1|^2 = lam^2/4 has no
                    # solution with lam purely imaginary
                    req(_is_zero(c2t), "C2 - lam^2/(4 C1) must vanish")
                req((self.beta != 0) == (cid in (1, 3)),
                    "beta must be nonzero exactly in cases 1 and 3")
            else:
                req(_is_zero(self.C1) and _is_zero(self.C2),
                    "C1 and C2 must vanish")
                if cid == 6:
                    req(_is_zero(self.lam), "lam must vanish")
                    req(self.beta != 0, "beta must be nonzero")
                else:
                    req(_is_imag(self.lam) and not _is_zero(self.lam),
                        "lam must be purely imaginary and nonzero")
                    if cid == 5:
                        req(self.beta != 0, "beta must be nonzero")
                    elif cid == 7:
                        req(self.beta == 0 and self.alpha != 0,
                            "beta must vanish and alpha must not")
                    else:
                        req(self.alpha == 0 and self.beta == 0,
                            "alpha and beta must vanish")


# small AST builders; the normal forms are assembled, never parsed
def _c(v) -> ex.Node:
    return ex.Const(complex(v))


_Z = ex.Var("z")


def _poly(*coeffs: complex) -> ex.Node:
    """coeffs[k] z^k as an AST, highest degree last."""
    node: ex.Node | None = None
    for k, v in enumerate(coeffs):
        if v == 0:
            continue
        term = _c(v) if k == 0 else (
            ex.Mul(_c(v), _Z) if k == 1 else ex.Mul(_c(v), ex.Pow(_Z, _c(k))))
        node = term if node is None else ex.Add(node, term)
    return node if node is not None else _c(0)


def _as_expr(node: ex.Node) -> ex.Expr:
    return ex.Expr(node, ("z",))


def _quadratic_case_b(cid: int, alpha: float, beta: float, C: complex,
                      C1: complex, C2: complex, lam: complex) -> ex.Node:
    """b(z) for cases 1-4 built on a = C1 (z+lam)^2 + C2."""
    shifted = _poly(lam, 1.0)  # z + lam
    if cid in (1, 2):
        nu = cmath.sqrt(-C2 / C1)
        # nu*C1 is one square root of -C1*C2; using it directly keeps the
        # exponent on the same branch as nu, which the identity
        # a b' = beta b - alpha requires
        root = nu * C1
        ratio_num = _poly(lam - nu, 1.0)
        ratio_den = _poly(lam + nu, 1.0)
        if cid == 1:
            gamma = beta / (2 * root)
            return ex.Add(ex.Mul(_c(C), ex.Pow(ex.Div(ratio_num, ratio_den),
                                               _c(gamma))),
                          _c(alpha / beta))
        pref = alpha / (2 * root)
        return ex.Add(ex.Mul(_c(pref),
                             ex.Call("ln", ex.Div(ratio_den, ratio_num))),
                      _c(C))
    if cid == 3:
        inner = ex.Neg(ex.Div(_c(beta), ex.Mul(_c(C1), shifted)))
        return ex.Add(ex.Mul(_c(C), ex.Call("exp", inner)), _c(alpha / beta))
    # cid == 4
    return ex.Add(ex.Div(_c(alpha), ex.Mul(_c(C1), shifted)), _c(C))


def theorem_case(case: TheoremCase) -> tuple[ex.Expr, GeneratorSpec]:
    """Closed-form b(z) and the symmetry generator of one normal form."""
    cid, k = case.case_id, case.kappa
    alpha, beta, C = case.alpha, case.beta, case.C
    C1, C2, lam = case.C1, case.C2, case.lam

    if k == 1:
        if cid in (1, 2, 3, 4):
            b = _quadratic_case_b(cid, alpha, beta, C, C1, C2, lam)
            a = _poly(C1 * lam * lam + C2, 2 * C1 * lam, C1)
        elif cid == 5:
            b = ex.Add(ex.Mul(_c(C), ex.Pow(_poly(C2, C1), _c(beta / C1))),
                       _c(alpha / beta))
            a = _poly(C2, C1)
        elif cid == 6:
            b = ex.Add(ex.Mul(_c(C), ex.Call("exp", _poly(0, beta / C2))),
                       _c(alpha / beta))
            a = _c(C2)
        elif cid == 7:
            b = _poly(C, -alpha / C2)
            a = _c(C2)
        else:
            b = _c(C)
            a = _c(C2)
        return _as_expr(b), GeneratorSpec(alpha, beta, _as_expr(a))

    if cid in (1, 2, 3, 4):
        lam_t = -lam / (2 * C1)
        c2_t = C2 - lam * lam / (4 * C1)
        b = _quadratic_case_b(cid, alpha, beta, C, C1, c2_t, lam_t)
        a = _poly(C2, -lam, C1)
        return _as_expr(b), GeneratorSpec(alpha, beta, _as_expr(a))
    if cid == 5:
        b = ex.Add(ex.Mul(_c(C), ex.Pow(_poly(0, -lam), _c(-beta / lam))),
                   _c(alpha / beta))
        return _as_expr(b), GeneratorSpec(alpha, beta, _as_expr(_poly(0, -lam)))
    if cid == 6:
        return _as_expr(_c(alpha / beta)), GeneratorSpec(alpha, beta, None)
    if cid == 7:
        b = ex.Add(ex.Mul(_c(alpha / lam), ex.Call("ln", _Z)), _c(C))
        return _as_expr(b), GeneratorSpec(alpha, 0.0, _as_expr(_poly(0, -lam)))
    return _as_expr(_c(C)), GeneratorSpec(0.0, 0.0, _as_expr(_poly(0, -lam)))


def verify_case(case: TheoremCase, grid: list[Point]) -> float:
    """Max invariance residual of the normal form's (b, generator) pair,
    from one stacked order-1 pass per chunk of the grid."""
    if not grid:
        raise ValueError("verify_case needs grid points: an empty grid checks nothing")
    b, gen = theorem_case(case)
    field = make_solution("noninv", {"b": b}, case.kappa)
    partials = [first_partials(eval_u(field, p, 1))
                for p in in_sweeps(grid, lambda chunk: [(field, chunk, u_jets(1))])]
    return _max_invariance_residual(gen, grid, partials)


def _max_invariance_residual(gen: GeneratorSpec, points: list[Point], partials: list) -> float:
    """Max |invariance residual| of gen over points with these `first_partials`."""
    return max(abs(r) for r in invariance_residuals(gen, points, partials))


# --- classification -------------------------------------------------------

# every verdict of `classify_b` carries its equation check: each grid
# point's |equation residual|, or the message of the exclusion it raised (a
# str), in grid order
@dataclass(frozen=True)
class InvariantCaseMatched:
    case_id: int
    generator: GeneratorSpec
    max_residual: float
    note: str = ""
    equation: tuple = dc_field(default=(), repr=False)


@dataclass(frozen=True)
class ConformallyNonInvariant:
    witness: Point
    asymmetry: float
    equation: tuple = dc_field(default=(), repr=False)


@dataclass(frozen=True)
class Inconclusive:
    reason: str
    equation: tuple = dc_field(default=(), repr=False)


ClassificationVerdict = InvariantCaseMatched | ConformallyNonInvariant | Inconclusive


def _generator_nullvector(zs, b0, b1, kappa):
    """Solve a(z) b'(z) - beta b(z) + alpha = 0 for generator constants.

    The condition is linear in (alpha, beta, constants of a); the reality
    constraints reduce it to a real 5-dimensional homogeneous system solved
    by SVD.  Returns (vector, relative smallest singular value).
    """
    rows = []
    for z, bv, bd in zip(zs, b0, b1):
        if kappa == 1:
            # v = (alpha, beta, Im C1, Re p1, Im p0), a = i v2 z^2 + v3 z + i v4
            cols = [1.0, -bv, 1j * z * z * bd, z * bd, 1j * bd]
        else:
            # v = (alpha, beta, Re C1, Im C1, Im lam),
            # a = C1 z^2 - lam z + conj(C1)
            cols = [1.0, -bv, (z * z + 1) * bd, 1j * (z * z - 1) * bd,
                    -1j * z * bd]
        rows.append([c for c in cols])
    M = np.array(rows, dtype=complex)
    R = np.vstack([M.real, M.imag])
    _u, s, vt = np.linalg.svd(R)
    rel = s[-1] / max(s[0], 1e-30)
    return vt[-1], rel


def _generator_from_vector(v, kappa) -> tuple[GeneratorSpec, int]:
    """GeneratorSpec and case label reconstructed from a null vector."""
    alpha, beta = float(v[0]), float(v[1])
    tol = 1e-9
    if kappa == 1:
        p2, p1, p0 = 1j * v[2], complex(v[3]), 1j * v[4]
        if abs(p2) > tol:
            C1 = p2
            lam = p1 / (2 * C1)
            C2 = p0 - C1 * lam * lam
            if abs(C2) > tol:
                cid = 1 if abs(beta) > tol else 2
            else:
                cid = 3 if abs(beta) > tol else 4
            a = _poly(p0, p1, p2)
        elif abs(p1) > tol:
            cid = 5 if abs(beta) > tol else 7
            a = _poly(p0, p1)
        elif abs(p0) > tol:
            if abs(beta) > tol:
                cid = 6
            else:
                cid = 7 if abs(alpha) > tol else 8
            a = _c(p0)
        else:
            cid = 8
            a = None
    else:
        C1 = complex(v[2], v[3])
        lam = 1j * v[4]
        if abs(C1) > tol:
            c2t = C1.conjugate() - lam * lam / (4 * C1)
            if abs(c2t) > tol:
                cid = 1 if abs(beta) > tol else 2
            else:
                cid = 3 if abs(beta) > tol else 4
            a = _poly(C1.conjugate(), -lam, C1)
        elif abs(lam) > tol:
            if abs(beta) > tol:
                cid = 5
            else:
                cid = 7 if abs(alpha) > tol else 8
            a = _poly(0, -lam)
        else:
            cid = 6
            a = None
    gen = GeneratorSpec(alpha, beta, _as_expr(a) if a is not None else None)
    return gen, cid


def classify_b(b: ex.Expr, kappa: int, grid: list[Point]) -> ClassificationVerdict:
    """Decide whether b(z) matches an invariant normal form, is witnessed
    conformally non-invariant, or neither can be established.

    The verdict's `equation` holds the equation check at every grid point,
    which the `classify` report lists.
    """
    field = make_solution("noninv", {"b": b}, kappa)

    # the equation loop reads its u-jets from stacked passes
    # (sweeps.in_sweeps), and keeps the first partials of each usable
    # point's row, which the invariance criterion reads
    equation = []
    usable: list[Point] = []
    partials = []
    worst = 0.0
    for p in in_sweeps(grid, lambda chunk: [(field, chunk, u_jets(2))]):
        try:
            r = abs(pde_residual(field, p))
        except POINT_EXCLUSIONS as err:
            equation.append(str(err))
            continue
        equation.append(r)
        usable.append(p)
        partials.append(first_partials(eval_u(field, p, 2)))
        worst = max(worst, r)
    equation = tuple(equation)
    if not usable:
        return Inconclusive("no grid point lies in the solution's domain", equation)
    if worst > PDE_SANITY_TOL:
        return Inconclusive(
            f"field fails the equation sanity check (residual {worst:.3e})", equation)

    # normal-form matching runs before the asymmetry witness: the matched
    # solutions are invariant under mixed generators yet still fail the
    # sigma symmetry, so witness-first would shadow every match
    # sample b and b' on the distinct z of the usable grid, from one
    # stacked evaluation
    zs = list({p.z for p in usable})
    jets = ex.eval_jet1_rows(b, zs, 2)
    b0 = [j.value for j in jets]
    b1 = [j.partial((1,)) for j in jets]
    b2 = [j.partial((2,)) for j in jets]
    scale = 1.0 + max(abs(v) for v in b0)

    if max(abs(v) for v in b1) < FIT_TOL * scale:
        a = _c(1j) if kappa == 1 else _poly(0, -1j)
        gen = GeneratorSpec(0.0, 0.0, _as_expr(a))
        res = _max_invariance_residual(gen, usable, partials)
        return InvariantCaseMatched(8, gen, res, equation=equation)

    v, rel = _generator_nullvector(zs, b0, b1, kappa)
    if rel < FIT_TOL:
        gen, cid = _generator_from_vector(v, kappa)
        res = _max_invariance_residual(gen, usable, partials)
        if res < FIT_TOL:
            note = ""
            if kappa == 1 and max(abs(v) for v in b2) < FIT_TOL * scale:
                note = "linear b reported under the affine case label"
                cid = 7
            return InvariantCaseMatched(cid, gen, res, note=note, equation=equation)

    if len(zs) < 5:
        return Inconclusive("fewer than 5 distinct z samples for case matching", equation)

    report = conf_inv_witness(field, usable)
    if report.verdict == "conformally non-invariant":
        return ConformallyNonInvariant(report.witness, report.max_asymmetry, equation)
    return Inconclusive(
        "no invariant normal form matched and the asymmetry witness "
        f"stayed below tolerance (max {report.max_asymmetry:.3e})", equation)


def automorphic_consistency(b: ex.Expr, kappa: int, p: Point) -> complex:
    """Residual eta - rho^3 phi(xi, theta) for the two-log family built on b,
    with phi fixed by taking f as the functional inverse of b:
    phi = (z+zbar)^2 b' bbar' / 8 for kappa=1 and
    phi = -(z zbar+1)^2 b' bbar' / 8 for kappa=-1."""
    from .invariants import invariants_at
    field = make_solution("noninv", {"b": b}, kappa)
    s = invariants_at(field, p)
    bd = ex.eval_jet1(b, p.z, 1).partial((1,))
    bbd = bd.conjugate()
    z, zb = p.z, p.z.conjugate()
    if kappa == 1:
        phi = (z + zb) ** 2 * bd * bbd / 8.0
    else:
        phi = -(z * zb + 1) ** 2 * bd * bbd / 8.0
    return s.eta - s.rho ** 3 * phi
