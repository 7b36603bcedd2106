"""Resolving system of the group foliation: projected operators on the
invariant space (t, u_t, rho), the five residuals, the Jacobi conditions on
the structure functions and the commuting-operators ansatz.

The projected operators are first order and both checks read values after
one application of them, so a point needs the values and first partials
of F, lambda, lambda_bar and tau from one order-PROJ_ORDER projection; the
rest is scalar arithmetic (`_applied`, `_structure`, `_pair`).  The
functions keep each checked point's pair of results in one
`sweeps.PointStore`, which a loop over many points fills chunk by chunk
from one stacked projection of each chunk (`checked_pairs`); a point
outside the store is checked as a pass of one, on unstacked jets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import pack

from . import expr as ex
from .errors import ArityMismatch, FVanishes
from .jet import SINGULAR_EPS, Jet
from .sweeps import PointStore

RVARS = ("t", "ut", "rho")
#: the exclusion threshold for F = 0, where c = s/F is undefined (|F| below
#: it counts as 0), set equal to the engine's SINGULAR_EPS
F_EPS = SINGULAR_EPS
#: order of the projection both checks read at a point: they read values
#: and first partials only
PROJ_ORDER = 1
#: the multi-indices in (t, ut, rho) of a value and of its first partials
#: d/dt, d/dut and d/drho
_FIRST_ORDER = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class ResolvingPoint:
    t: float
    ut: float
    rho: float
    kappa: int

    def __post_init__(self):
        # the `PointStore` key: the bits and types of the coordinates, as
        # `fields.Point`'s
        object.__setattr__(self, "key", (type(self.t), type(self.ut), type(self.rho),
                                         type(self.kappa),
                                         pack("<3dq", self.t, self.ut, self.rho, self.kappa)))


    @property
    def discriminant(self) -> float:
        return 2 * self.kappa * self.rho - self.ut ** 2

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
    store: PointStore = field(default_factory=PointStore, init=False, repr=False, compare=False)


def _projection(rf: ResolvingFunctions, points: list[ResolvingPoint],
                order: int) -> tuple[Jet, ...]:
    """The seed jets of t, ut and rho, then F, lambda, lambda_bar and tau
    as jets on them, of the given order at points of one kappa (mixed kappa
    raise ValueError): one row per point, or unstacked jets for one point.
    A coefficient of degree k of a jet operation depends only on its
    operands' coefficients of degree <= k, so values and first partials are
    the same at every order >= 1; the tests build their reference
    projections at other orders."""
    if len({p.kappa for p in points}) > 1:
        raise ValueError("one projection holds points of one kappa")
    coords = ([complex(getattr(p, name)) for p in points] for name in RVARS)
    seed = [Jet.variable(i, v[0] if len(v) == 1 else tuple(v), 3, order)
            for i, v in enumerate(coords)]
    functions = []
    for e in (rf.F, rf.lambda_, rf.lambda_bar, rf.tau):
        if len(e.variables) != len(RVARS):
            raise ArityMismatch(f"{len(e.variables)} variables declared, "
                                f"{len(RVARS)} points given")
        functions.append(ex.evaluate(e, dict(zip(e.variables, seed))))
    return (*seed, *functions)


def _first_order(j: Jet, points: int) -> list[list[complex]]:
    """[value, d/dt, d/dut, d/drho] of j's row for each point; the jet of
    an expression without variables is unstacked, one row for all."""
    return j.read(_FIRST_ORDER) * (1 if j.depth else points)


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
    """The pair of both checks' results at p, from rf's store, or else from
    `checked_pairs` of p alone; raises FVanishes where F's value is below
    F_EPS."""
    def own():
        (named,) = checked_pairs(rf, [p])
        if "pair" not in named:
            raise FVanishes(f"F = {named['F']} at {p}")
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


def checked_pairs(rf: ResolvingFunctions, points: list[ResolvingPoint]) -> list[dict]:
    """{"pair": `_pair` at p} for each of points of one kappa, from its own
    row of one order-PROJ_ORDER `_projection`: the build of one point
    alone, and a pass build (`sweeps.in_sweeps`) bit for bit each point's
    own, because every jet operation acts row by row.  Where F's value is
    below F_EPS a point gets {"F": that value} instead, so it raises
    FVanishes alone (a NaN F is not below it, and gives NaN results);
    points of mixed kappa raise."""
    rows = (_first_order(j, len(points)) for j in _projection(rf, points, PROJ_ORDER)[3:])
    return [{"F": F[0]} if abs(F[0]) < F_EPS else {"pair": _pair(p, F, *rest)}
            for p, F, *rest in zip(points, *rows)]


# --- the [Y, Ybar] = 0 ansatz --------------------------------------------

def _sign(kappa: int) -> str:
    """kappa's sign as a formula prefix, "" or "-"; only +-1 are signs."""
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    return "" if kappa == 1 else "-"


def ansatz_xi_theta(kappa: int) -> tuple[ex.Expr, ex.Expr]:
    """Characteristic variables xi = (2k rho - ut^2)/rho^2 and
    theta = t - (k/rho)(ut + sqrt(2k rho - ut^2)) as expressions."""
    k = _sign(kappa)
    return (ex.parse(f"({k}2*rho - ut^2)/rho^2", RVARS),
            ex.parse(f"t - {k}rho^-1*(ut + sqrt({k}2*rho - ut^2))", RVARS))


def ansatz_functions(phi: ex.Expr, kappa: int) -> ResolvingFunctions:
    """Resolving-system solution from the commuting-operators ansatz:
    F = rho^3 phi(xi, theta), tau = -ut rho,
    lambda = kappa ut + i sqrt(2 kappa rho - ut^2), lambda_bar its conjugate,
    each parsed from its formula.

    phi is an expression in (xi, theta), real-valued on the sampled domain.
    """
    k = _sign(kappa)
    xi, theta = ansatz_xi_theta(kappa)
    F = ex.substitute(ex.parse("rho^3*phi", (*RVARS, "phi")),
                      {"phi": ex.substitute(phi, {"xi": xi, "theta": theta})})
    lam = ex.parse(f"{k}ut + i*sqrt({k}2*rho - ut^2)", RVARS)
    return ResolvingFunctions(F=F, lambda_=lam, lambda_bar=ex.conjugate(lam),
                              tau=ex.parse("-(ut*rho)", RVARS))
