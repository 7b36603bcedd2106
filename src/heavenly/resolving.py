"""Resolving system of the group foliation: projected operators on the
invariant space (t, u_t, rho), the five residuals, the Jacobi conditions on
the structure functions and the commuting-operators ansatz.

The projected operators are first order and both checks read values after
one application of them, so a point needs the values and first partials
of F, lambda, lambda_bar and tau from one order-PROJ_ORDER projection; the
rest is scalar arithmetic (`_applied`, `_structure`, `_pair`).  The
functions keep each checked point's pair of results in one
`sweeps.PointStore`, which a loop over many points fills chunk by chunk
from one stacked projection of each chunk (`checked_pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from struct import pack

import numpy as np

from . import expr as ex
from .errors import ArityMismatch, FVanishes, NegativeDiscriminant
from .jet import SINGULAR_EPS, Jet
from .sweeps import PointStore

RVARS = ("t", "ut", "rho")
#: |F| below this counts as F = 0; c divides by F, and this is the
#: threshold below which that division raises
F_EPS = SINGULAR_EPS
#: order of the projection both checks read at a point: they read values
#: and first partials only
PROJ_ORDER = 1
#: per row of a jet in (t, ut, rho), the slots of its value and of its
#: first partials d/dt, d/dut and d/drho
_FIRST_ORDER = (slice(None), np.array([0, 1, 0, 0]), np.array([0, 0, 1, 0]),
                np.array([0, 0, 0, 1]))


@dataclass(frozen=True)
class ResolvingPoint:
    t: float
    ut: float
    rho: float
    kappa: int

    @property
    def discriminant(self) -> float:
        return 2 * self.kappa * self.rho - self.ut ** 2

    @cached_property
    def key(self) -> tuple:
        """The point's `PointStore` key: the bits and types of its
        coordinates, as `fields.Point.key`."""
        return (type(self.t), type(self.ut), type(self.rho), type(self.kappa),
                pack("<3dq", self.t, self.ut, self.rho, self.kappa))


@dataclass(frozen=True)
class ResolvingFunctions:
    """The four unknowns of the resolving system, as expressions in
    (t, ut, rho).  lambda_bar must be the coefficient-conjugate partner of
    lambda_; use ansatz_functions or conjugate() to build it.

    The functions keep one `PointStore` of checked points, each with its
    pair of `resolving_residuals` and `jacobi_residual` results under
    "pair": those of the last pass (`checked_pairs`), or else of the last
    point they were checked at.  So the two checks at one point evaluate
    F, lambda, lambda_bar and tau once.
    """

    F: ex.Expr
    lambda_: ex.Expr
    lambda_bar: ex.Expr
    tau: ex.Expr
    requires_nonneg_discriminant: bool = False
    store: PointStore = field(default_factory=PointStore, init=False, repr=False, compare=False)


class _Proj:
    """F, lambda, lambda_bar and tau as jets in (t, ut, rho) of the given
    order at a point, on the variable jets `seed`.  A coefficient of degree
    k of a jet operation depends only on its operands' coefficients of
    degree <= k, so values and first partials are the same at every order
    >= 1; the tests build their reference projections at other orders.

    p is one point, or a list of points of one kappa whose jets hold one row
    per point (`checked_pairs`); points of mixed kappa raise ValueError.
    """

    def __init__(self, rf: ResolvingFunctions, p: ResolvingPoint | list[ResolvingPoint],
                 order: int):
        points = p if isinstance(p, list) else [p]
        if len({q.kappa for q in points}) > 1:
            raise ValueError("one projection holds points of one kappa")
        if rf.requires_nonneg_discriminant:
            for q in points:
                if q.discriminant < 0:
                    raise NegativeDiscriminant(
                        f"2*kappa*rho - ut^2 = {q.discriminant} < 0 at {q}")
        if isinstance(p, list):
            coords = [tuple(complex(getattr(q, n)) for q in p) for n in RVARS]
        else:
            coords = [complex(p.t), complex(p.ut), complex(p.rho)]
        self.seed = {name: Jet.variable(i, v, 3, order)
                     for i, (name, v) in enumerate(zip(RVARS, coords))}
        self.Fj = self._at(rf.F)
        self.lamj = self._at(rf.lambda_)
        self.lambj = self._at(rf.lambda_bar)
        self.tauj = self._at(rf.tau)

    def _at(self, e: ex.Expr) -> Jet:
        """e's jet on the seeds (its variables, in order, are t, ut and rho)."""
        if len(e.variables) != len(RVARS):
            raise ArityMismatch(f"{len(e.variables)} variables declared, "
                                f"{len(RVARS)} points given")
        return ex.evaluate(e, dict(zip(e.variables, self.seed.values())))


def _first_order(j: Jet, points: int) -> list[list[complex]]:
    """[value, d/dt, d/dut, d/drho] of j's row for each point; the jet of
    an expression without variables is unstacked, one row for all."""
    rows = j.coeffs.reshape((-1,) + j.coeffs.shape[-3:])[_FIRST_ORDER].tolist()
    return rows * points if len(rows) < points else rows


def _applied(p: ResolvingPoint, lam: list, lamb: list, tau: list,
             g: list) -> tuple[complex, complex, complex]:
    """(delta g, Y g, Ybar g) at p, for
    delta = d/dt + (kappa rho - ut^2) d/dut + tau d/drho,
    Y = d/dut + lambda d/drho and Ybar the same with lambda_bar; each of
    g, lambda, lambda_bar and tau is [value, d/dt, d/dut, d/drho]."""
    _, g_t, g_ut, g_rho = g
    return (g_t + (p.kappa * p.rho - p.ut * p.ut) * g_ut + tau[0] * g_rho,
            g_ut + lam[0] * g_rho, g_ut + lamb[0] * g_rho)


def _structure(p: ResolvingPoint, F: list, lam: list, lamb: list,
               tau: list) -> tuple[list, list, list]:
    """a = 2 ut - kappa lambda, a_bar = 2 ut - kappa lambda_bar and
    c = s/F with s = ut rho + tau at p, as [value, d/dt, d/dut, d/drho], by
    the first-order chain rule (Griewank and Walther, Evaluating
    Derivatives, 2nd ed., 3.1): grad c = (grad s - c grad F)/F."""
    ut, rho, kappa = p.ut, p.rho, p.kappa
    a, a_bar = ([2 * ut - kappa * g[0], -kappa * g[1], 2 - kappa * g[2], -kappa * g[3]]
                for g in (lam, lamb))
    c = (ut * rho + tau[0]) / F[0]
    grad_s = (tau[1], rho + tau[2], ut + tau[3])
    return a, a_bar, [c] + [(ds - c * dF) / F[0] for ds, dF in zip(grad_s, F[1:])]


def _checks(rf: ResolvingFunctions, p: ResolvingPoint) -> tuple:
    """The pair of both checks' results at p, from rf's store, or from p's
    own order-PROJ_ORDER projection; raises FVanishes where F's value is
    below F_EPS."""
    def own():
        proj = _Proj(rf, p, PROJ_ORDER)
        (named,) = _named_pairs(proj, [p])
        if not named:
            raise FVanishes(f"F = {proj.Fj.value} at {p}")
        return named["pair"]

    return rf.store.get(p, "pair", own)


@dataclass(frozen=True)
class ResolvingResiduals:
    r1: complex
    r2: complex
    r2_bar: complex
    r3: complex
    r4: complex

    def as_dict(self) -> dict[str, complex]:
        return {"R1": self.r1, "R2": self.r2, "R2bar": self.r2_bar,
                "R3": self.r3, "R4": self.r4}


def resolving_residuals(rf: ResolvingFunctions, p: ResolvingPoint) -> ResolvingResiduals:
    """The five residuals of the resolving system at one invariant point.

    At a point outside rf's store this computes the pair of both checks
    (`_pair`), so a caller that wants the residuals alone pays for both;
    the following `jacobi_residual` there reads the store."""
    return _checks(rf, p)[0]


def _residuals(p: ResolvingPoint, F, lam, lamb, tau, dF, dlam, dlamb, dtau,
               Ytau, Ylamb, Ybtau, Yblam) -> ResolvingResiduals:
    """R1-R4 at p from the values there of F, lambda, lambda_bar, tau and
    of the operators applied to them."""
    ut, rho, kappa = p.ut, p.rho, p.kappa
    r1 = dF - (kappa * (lam + lamb) - 5 * ut) * F
    r2 = dlam - Ytau - 2 * ut * lam + kappa * lam * lam
    r2b = dlamb - Ybtau - 2 * ut * lamb + kappa * lamb * lamb
    r3 = F * (Ylamb - Yblam) - (ut * rho + tau) * (lam - lamb)
    r4 = (F * (Ylamb + Yblam) + (ut * rho + tau) * (lam + lamb)
          - 2 * kappa * (dtau + 2 * F + 4 * ut * tau
                         + kappa * rho * rho + 2 * ut * ut * rho))
    return ResolvingResiduals(r1=r1, r2=r2, r2_bar=r2b, r3=r3, r4=r4)


def jacobi_residual(rf: ResolvingFunctions, p: ResolvingPoint) -> tuple[complex, complex]:
    """(J1, J2), the Jacobi conditions on the structure functions.

    On a solution of the resolving system the projected operators satisfy
    the structure equations [delta, Y] = a Y, [delta, Ybar] = a_bar Ybar
    and [Y, Ybar] = c (Y - Ybar), with a = 2 ut - kappa lambda,
    a_bar = 2 ut - kappa lambda_bar and c = (ut rho + tau)/F read off the
    operators: a and a_bar are the d/dut coefficients of the first two
    brackets, and R2 and R2bar make their d/drho coefficients agree; R3
    makes [Y, Ybar] = c (Y - Ybar).  Expanding
    [delta,[Y,Ybar]] + [Y,[Ybar,delta]] + [Ybar,[delta,Y]] with them gives
    J1 Y - J2 Ybar, where
    J1 = delta c - c a_bar + Ybar a and J2 = delta c - a c + Y a_bar,
    so both vanish where the structure equations hold.  `_pair` reads
    delta c, Ybar a and Y a_bar from the gradients of c, a and a_bar.

    What it can detect: a perturbed tau or lambda moves a or c and reads
    far above roundoff.  For the ansatz tau = -ut rho, c vanishes
    identically, so J cannot see F (R1 does: it reads 3 ut under F + 1).
    Where lambda != lambda_bar, J1 and J2 are differential consequences of
    R2, R2bar and R3, so J confirms those rather than adding a condition.
    At a point outside rf's store the call computes both checks' pair, as
    `resolving_residuals` does.
    """
    return _checks(rf, p)[1]


def _pair(p: ResolvingPoint, F: list, lam: list, lamb: list, tau: list) -> tuple:
    """Both checks' (residuals, jacobi) pair at p from [value, d/dt, d/dut,
    d/drho] of F, lambda, lambda_bar and tau there, by scalar arithmetic
    alone.  R1-R4 read the values, delta of the four functions, Y of tau
    and lambda_bar and Ybar of tau and lambda; J1 and J2 read a, a_bar, c,
    delta c, Ybar a and Y a_bar.  F's value must not vanish."""
    a, a_bar, c = _structure(p, F, lam, lamb, tau)
    # each operator's values on F, lambda, lambda_bar, tau, a, a_bar and c
    d, y, yb = zip(*(_applied(p, lam, lamb, tau, g) for g in (F, lam, lamb, tau, a, a_bar, c)))
    return (_residuals(p, F[0], lam[0], lamb[0], tau[0], *d[:4], y[3], y[2], yb[3], yb[1]),
            (d[6] - c[0] * a_bar[0] + yb[4], d[6] - a[0] * c[0] + y[5]))


def _named_pairs(proj: _Proj, points: list[ResolvingPoint]) -> list[dict]:
    """{"pair": `_pair` at p} for each of points from its own row of proj,
    or {} where F's value is below F_EPS (a NaN F is not, and gives NaN
    results)."""
    rows = (_first_order(j, len(points)) for j in (proj.Fj, proj.lamj, proj.lambj, proj.tauj))
    return [{} if abs(F[0]) < F_EPS else {"pair": _pair(p, F, *rest)}
            for p, F, *rest in zip(points, *rows)]


def checked_pairs(rf: ResolvingFunctions, points: list[ResolvingPoint]) -> list[dict]:
    """A pass build (`sweeps.in_sweeps`): `_named_pairs` of points of one
    kappa from one stacked order-PROJ_ORDER projection, bit for bit each
    point's own, because every jet operation acts row by row.  A point
    where F vanishes gets {}, so it raises FVanishes alone; points of mixed
    kappa raise."""
    return _named_pairs(_Proj(rf, points, PROJ_ORDER), points)


# --- the [Y, Ybar] = 0 ansatz --------------------------------------------

def _c(v) -> ex.Node:
    return ex.Const(complex(v))


def _signed(kappa: int, node: ex.Node) -> ex.Node:
    """kappa * node without a product by a unit constant."""
    return node if kappa == 1 else ex.Neg(node)


def ansatz_xi_theta(kappa: int) -> tuple[ex.Expr, ex.Expr]:
    """Characteristic variables xi = (2k rho - ut^2)/rho^2 and
    theta = t - (k/rho)(ut + sqrt(2k rho - ut^2)) as expressions."""
    t, ut, rho = (ex.Var("t"), ex.Var("ut"), ex.Var("rho"))
    disc = ex.Sub(ex.Mul(_c(2 * kappa), rho), ex.Pow(ut, _c(2)))
    xi = ex.Div(disc, ex.Pow(rho, _c(2)))
    theta = ex.Sub(t, ex.Mul(_signed(kappa, ex.Pow(rho, _c(-1))),
                             ex.Add(ut, ex.Call("sqrt", disc))))
    return (ex.Expr(xi, RVARS), ex.Expr(theta, RVARS))


def ansatz_functions(phi: ex.Expr, kappa: int) -> ResolvingFunctions:
    """Resolving-system solution from the commuting-operators ansatz:
    F = rho^3 phi(xi, theta), tau = -ut rho,
    lambda = kappa ut + i sqrt(2 kappa rho - ut^2), lambda_bar its conjugate.

    phi is an expression in (xi, theta), real-valued on the sampled domain.
    """
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    t, ut, rho = (ex.Var("t"), ex.Var("ut"), ex.Var("rho"))
    xi_e, theta_e = ansatz_xi_theta(kappa)
    phi_sub = ex.substitute(phi, {"xi": xi_e, "theta": theta_e})
    F = ex.Expr(ex.Mul(ex.Pow(rho, _c(3)), phi_sub.root), RVARS)
    tau = ex.Expr(ex.Neg(ex.Mul(ut, rho)), RVARS)
    disc = ex.Sub(ex.Mul(_c(2 * kappa), rho), ex.Pow(ut, _c(2)))
    lam = ex.Expr(ex.Add(_signed(kappa, ut),
                         ex.Mul(_c(1j), ex.Call("sqrt", disc))), RVARS)
    lam_bar = ex.conjugate(lam)
    return ResolvingFunctions(F=F, lambda_=lam, lambda_bar=lam_bar, tau=tau,
                              requires_nonneg_discriminant=True)
