"""The eight invariant b(z) normal forms with their symmetry generators,
randomized verification of their invariance, and the classification
pipeline for generic b(z)."""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import expr as ex
from .errors import POINT_EXCLUSIONS, ConstraintViolation
from .fields import Point, make_solution, u_row, u_rows
from .invariants import pde_residual
from .sweeps import in_sweeps
from .symmetry import GeneratorSpec, conf_inv_witness, invariance_residuals

_ZERO_TOL = 1e-12
PDE_SANITY_TOL = 1e-6
FIT_TOL = 1e-8
SNAP_TOL = 1e-9  # a fitted unit null vector's entries below this are 0
# a fit's label: the first case in this order whose constraints hold
# (kappa=+1 cases 7 and 8 overlap where alpha = 0)
LABEL_ORDER = (1, 2, 3, 4, 5, 6, 8, 7)


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

    kappa=1: C1, C2, lam purely imaginary in cases 1-4; case 5 takes C1 real
    and C2 imaginary; cases 6-8 take a = C2 imaginary.  kappa=-1: cases 1-4
    use a = C1 z^2 - lam z + C2 with C2 = conj(C1) and lam imaginary; cases
    5-8 use a = -lam z.  For both kappa, beta is nonzero exactly in cases 1,
    3, 5 and 6 and alpha vanishes in case 8; kappa=-1 case 7 needs alpha != 0.
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
        for holds, msg in _constraints(cid, k, self.alpha, self.beta, self.C1, self.C2, self.lam):
            if not holds:
                raise ConstraintViolation(f"case {cid} (kappa={k:+d}): {msg}")


def _constraints(cid, kappa, alpha, beta, C1, C2, lam):
    """(holds, message) for each constraint of normal form cid, in order;
    lazily, so the quotient by C1 is computed only once C1 != 0 holds."""
    yield (beta != 0) == (cid in (1, 3, 5, 6)), "beta must be nonzero exactly in cases 1, 3, 5 and 6"
    yield cid != 8 or alpha == 0, "alpha must vanish in case 8"
    if kappa == 1:
        if cid <= 4:
            yield _is_imag(C1) and not _is_zero(C1), "C1 must be purely imaginary and nonzero"
            yield _is_imag(lam), "lam must be purely imaginary"
            yield (_is_imag(C2) and _is_zero(C2) == (cid >= 3),
                   "C2 must be purely imaginary, and zero exactly in cases 3 and 4")
        elif cid == 5:
            yield _is_real(C1) and not _is_zero(C1), "C1 must be real and nonzero"
            yield _is_imag(C2), "C2 must be purely imaginary"
        else:
            yield _is_zero(C1), "C1 must vanish"
            yield _is_imag(C2) and not _is_zero(C2), "C2 must be purely imaginary and nonzero"
    elif cid <= 4:
        yield not _is_zero(C1), "C1 must be nonzero"
        yield _is_zero(C2 - C1.conjugate()), "C2 must equal conj(C1)"
        yield _is_imag(lam), "lam must be purely imaginary"
        # cases 3 and 4 are empty for nonzero constants: |C1|^2 = lam^2/4
        # has no solution with lam purely imaginary
        yield (_is_zero(C2 - lam ** 2 / (4 * C1)) == (cid >= 3),
               "C2 - lam^2/(4 C1) must vanish exactly in cases 3 and 4")
    else:
        yield _is_zero(C1) and _is_zero(C2), "C1 and C2 must vanish"
        yield (_is_imag(lam) and _is_zero(lam) == (cid == 6),
               "lam must be purely imaginary, and zero exactly in case 6")
        yield cid != 7 or alpha != 0, "alpha must not vanish in case 7"


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
        a = _c(C2)
        if cid <= 4:
            b = _quadratic_case_b(cid, alpha, beta, C, C1, C2, lam)
            a = _poly(C1 * lam * lam + C2, 2 * C1 * lam, C1)
        elif cid == 5:
            a = _poly(C2, C1)
            b = ex.Add(ex.Mul(_c(C), ex.Pow(a, _c(beta / C1))), _c(alpha / beta))
        elif cid == 6:
            b = ex.Add(ex.Mul(_c(C), ex.Call("exp", _poly(0, beta / C2))), _c(alpha / beta))
        elif cid == 7:
            b = _poly(C, -alpha / C2)
        else:
            b = _c(C)
    else:
        a = _poly(0, -lam)
        if cid <= 4:
            b = _quadratic_case_b(cid, alpha, beta, C, C1, C2 - lam * lam / (4 * C1),
                                  -lam / (2 * C1))
            a = _poly(C2, -lam, C1)
        elif cid == 5:
            b = ex.Add(ex.Mul(_c(C), ex.Pow(a, _c(-beta / lam))), _c(alpha / beta))
        elif cid == 6:
            b, a = _c(alpha / beta), None
        elif cid == 7:
            b = ex.Add(ex.Mul(_c(alpha / lam), ex.Call("ln", _Z)), _c(C))
        else:
            b = _c(C)
    return _as_expr(b), GeneratorSpec(alpha, beta, None if a is None else _as_expr(a))


def verify_case(case: TheoremCase, grid: list[Point]) -> float:
    """Max invariance residual of the normal form's (b, generator) pair,
    from one stacked order-1 pass per chunk of the grid."""
    if not grid:
        raise ValueError("verify_case needs grid points: an empty grid checks nothing")
    b, gen = theorem_case(case)
    field = make_solution("noninv", {"b": b}, case.kappa)
    rows = [u_row(field, p, 1)
            for p in in_sweeps(grid, lambda chunk: [(field, chunk, u_rows(1))])]
    return _max_invariance_residual(gen, grid, rows)


def _max_invariance_residual(gen: GeneratorSpec, points: list[Point], rows: list) -> float:
    """Max |invariance residual| of gen over points with these rows of u."""
    return max(abs(r) for r in invariance_residuals(gen, points, rows))


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
            rows.append([1.0, -bv, 1j * z * z * bd, z * bd, 1j * bd])
        else:
            # v = (alpha, beta, Re C1, Im C1, Im lam), a = C1 z^2 - lam z + conj(C1)
            rows.append([1.0, -bv, (z * z + 1) * bd, 1j * (z * z - 1) * bd, -1j * z * bd])
    M = np.array(rows, dtype=complex)
    _u, s, vt = np.linalg.svd(np.vstack([M.real, M.imag]))
    return vt[-1], s[-1] / max(s[0], 1e-30)


def _a_coefficients(w2, w3, w4, kappa) -> tuple[complex, complex, complex]:
    """(p0, p1, p2) of a = p2 z^2 + p1 z + p0 from a's null-vector entries."""
    if kappa == 1:
        return 1j * w4, complex(w3), 1j * w2
    C1 = complex(w2, w3)
    return C1.conjugate(), -(1j * w4), C1


def _generator_from_vector(v, kappa) -> tuple[GeneratorSpec, int | None]:
    """The generator of a unit null vector, and the first case of LABEL_ORDER
    whose constraints the vector meets with its entries below SNAP_TOL
    snapped to 0 (None if none does).  The generator keeps the fitted
    entries, but drops a's leading ones (v2, v3, v4 in turn) that snap."""
    v = [float(x) for x in v]
    snapped = [0.0 if abs(x) < SNAP_TOL else x for x in v]
    lead = next((i for i in (2, 3, 4) if snapped[i]), 5)
    coeffs = _a_coefficients(*[0.0] * (lead - 2), *v[lead:], kappa)
    gen = GeneratorSpec(v[0], v[1], _as_expr(_poly(*coeffs)) if any(coeffs) else None)
    p0, p1, p2 = _a_coefficients(*snapped[2:], kappa)
    if kappa == -1:
        C1, C2, lam = p2, p0, -p1
    else:
        lam = p1 / (2 * p2) if p2 else 0j
        C1, C2 = (p2, p0 - p2 * lam * lam) if p2 else (p1, p0)
    return gen, next((c for c in LABEL_ORDER if all(
        holds for holds, _ in _constraints(c, kappa, *snapped[:2], C1, C2, lam))), None)


def classify_b(b: ex.Expr, kappa: int, grid: list[Point]) -> ClassificationVerdict:
    """Decide whether b(z) matches an invariant normal form, is witnessed
    conformally non-invariant, or neither can be established.

    A fit takes the first case of LABEL_ORDER whose `TheoremCase`
    constraints it meets; one that leaves b invariant but meets none is
    Inconclusive.  A constant b fits a = i (kappa=1) or a = -i z (kappa=-1),
    case 8; at kappa=-1 it is also case 6's normal form b = alpha/beta.
    The verdict's `equation` holds the equation check at every grid point,
    which the `classify` report lists.
    """
    field = make_solution("noninv", {"b": b}, kappa)

    # the equation loop reads its rows of u from stacked passes
    # (sweeps.in_sweeps), and keeps each usable point's row, which the
    # invariance criterion reads
    equation = []
    usable: list[Point] = []
    rows = []
    worst = 0.0
    for p in in_sweeps(grid, lambda chunk: [(field, chunk, u_rows(2))]):
        try:
            r = abs(pde_residual(field, p))
        except POINT_EXCLUSIONS as err:
            equation.append(str(err))
            continue
        equation.append(r)
        usable.append(p)
        rows.append(u_row(field, p, 1))
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
    b0, b1, b2 = zip(*ex.eval_jet1_rows(b, zs, 2))
    scale = 1.0 + max(abs(v) for v in b0)

    if max(abs(v) for v in b1) < FIT_TOL * scale:
        # a constant b: the unit vector on a's last constant, a = i (kappa=1)
        # or a = -i z (kappa=-1), which labels as case 8
        v, rel = (0.0, 0.0, 0.0, 0.0, 1.0), 0.0
    else:
        v, rel = _generator_nullvector(zs, b0, b1, kappa)
    if rel < FIT_TOL:
        gen, cid = _generator_from_vector(v, kappa)
        res = _max_invariance_residual(gen, usable, rows)
        if res < FIT_TOL:
            if cid is None:
                return Inconclusive(
                    f"the fitted generator (alpha {gen.alpha:.3e}, beta {gen.beta:.3e}) leaves b "
                    f"invariant (residual {res:.3e}) but matches no normal form", equation)
            # a linear b at kappa=+1 (case 5, or 7 where beta = 0) is case 7
            linear = kappa == 1 and cid != 8 and max(abs(x) for x in b2) < FIT_TOL * scale
            note = "linear b reported under the affine case label" if linear else ""
            return InvariantCaseMatched(7 if linear else cid, gen, res, note, equation)

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
    bd = ex.eval_jet1_rows(b, [p.z], 1)[0][1]
    bbd = bd.conjugate()
    z, zb = p.z, p.z.conjugate()
    if kappa == 1:
        phi = (z + zb) ** 2 * bd * bbd / 8.0
    else:
        phi = -(z * zb + 1) ** 2 * bd * bbd / 8.0
    return s.eta - s.rho ** 3 * phi
