"""Resolving system of the group foliation: projected operators on the
invariant space (t, u_t, rho), the five residuals, the Jacobi conditions on
the structure functions and the commuting-operators ansatz.

Both checks at a point read one order-PROJ_ORDER projection, which gives
them together in one round: `_Proj.apply` takes the operand's three
partials once and applies delta, Y and Ybar to each of its seven rows per
point (F, lambda, lambda_bar, tau and the structure functions a, a_bar and
c).  The functions keep each checked point's pair of results in one store.
A loop over many points first runs `resolving_sweep`, which fills that
store from one stacked projection of all of them; the loop's per-point
calls are its only readers, so they give the bits and the errors of the
per-point path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import expr as ex
from .errors import SWEEP_FALLBACK, ArityMismatch, FVanishes, NegativeDiscriminant
from .jet import SINGULAR_EPS, Jet, by_point, joined, repeated_rows

RVARS = ("t", "ut", "rho")
#: |F| below this counts as F = 0; c divides by F, and this is the
#: threshold below which that division raises
F_EPS = SINGULAR_EPS
#: order of the projection both checks read at a point: each operator
#: application lowers a jet's order by one, and both checks read values
#: after one application
PROJ_ORDER = 1


@dataclass(frozen=True)
class ResolvingPoint:
    t: float
    ut: float
    rho: float
    kappa: int

    @property
    def discriminant(self) -> float:
        return 2 * self.kappa * self.rho - self.ut ** 2


@dataclass(frozen=True)
class ResolvingFunctions:
    """The four unknowns of the resolving system, as expressions in
    (t, ut, rho).  lambda_bar must be the coefficient-conjugate partner of
    lambda_; use ansatz_functions or conjugate() to build it.

    The functions keep one store of checked points, each with its pair of
    `resolving_residuals` and `jacobi_residual` results: those of the last
    `resolving_sweep`, or else of the last point they were checked at.  So
    the two checks at one point evaluate F, lambda, lambda_bar and tau
    once.  A point outside the store replaces it; a check that raises
    keeps nothing, so the next call raises again.
    """

    F: ex.Expr
    lambda_: ex.Expr
    lambda_bar: ex.Expr
    tau: ex.Expr
    requires_nonneg_discriminant: bool = False
    _checked: dict = field(default_factory=dict, init=False, repr=False, compare=False)


class _Proj:
    """Projected operators delta, Y, Ybar acting on jets in (t, ut, rho).

    F, lambda, lambda_bar and tau are jets of the given order at the point.
    `apply` gives all three operators of a stacked jet, row by row, so one
    application serves several jets.  A coefficient of degree k of a jet
    operation depends only on its operands' coefficients of degree <= k, so
    a value read after n applications is the same for every seed order
    >= n; production reads one projection of order PROJ_ORDER, and the
    tests build their reference projections at other orders.

    p is one point, or a list of points of one kappa for one projection
    whose jets hold one row per point (`resolving_sweep`); points of mixed
    kappa raise ValueError, since delta's coefficient holds one kappa.  An
    operand holds one or more rows per point, a point's rows next to each
    other (`jet.joined`), and each coefficient acts on all of its point's
    rows.
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
        # delta's middle coefficient kappa*rho - ut^2 as an exact jet
        self.heav_coeff = (points[0].kappa * self.seed["rho"]
                           - self.seed["ut"] * self.seed["ut"])

    def _at(self, e: ex.Expr) -> Jet:
        """e's jet on the seeds (its variables, in order, are t, ut and rho)."""
        if len(e.variables) != len(RVARS):
            raise ArityMismatch(f"{len(e.variables)} variables declared, "
                                f"{len(RVARS)} points given")
        return ex.evaluate(e, dict(zip(e.variables, self.seed.values())))

    def apply(self, g: Jet) -> tuple[Jet, Jet, Jet]:
        """(delta g, Y g, Ybar g) for a stacked g, from g's three partials,
        taken once:
        delta = d/dt + (kappa rho - ut^2) d/dut + tau d/drho,
        Y = d/dut + lambda d/drho, Ybar the same with lambda_bar.  Each
        coefficient is truncated to the result's order, with each point's
        row repeated for each of that point's operand rows
        (`jet.repeated_rows`)."""
        m, d = g.order - 1, g.depth
        heav, tau, lam, lamb = (repeated_rows(j.truncated(m), d) for j in
                                (self.heav_coeff, self.tauj, self.lamj, self.lambj))
        g_t, g_ut, g_rho = g.derivative(0), g.derivative(1), g.derivative(2)
        return (g_t + heav * g_ut + tau * g_rho,
                g_ut + lam * g_rho,
                g_ut + lamb * g_rho)


def _checks(rf: ResolvingFunctions, p: ResolvingPoint) -> tuple:
    """The pair of both checks' results at p, from rf's store, or from p's
    own order-PROJ_ORDER projection, which then replaces the store; raises
    FVanishes where F's value is below F_EPS."""
    key = repr(p)  # repr tells apart the values that == merges (0.0 and -0.0)
    checked = rf._checked.get(key)
    if checked is None:
        proj = _Proj(rf, p, PROJ_ORDER)
        F = proj.Fj.value
        if abs(F) < F_EPS:
            raise FVanishes(f"F = {F} at {p}")
        checked = _checked_pairs(proj, [p])[0]
        object.__setattr__(rf, "_checked", {key: checked})
    return checked


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
    (one round of `_Proj.apply`, see `_checked_pairs`), so a caller that
    wants the residuals alone pays for both; the following
    `jacobi_residual` there reads the store."""
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
    so both vanish where the structure equations hold.  `_checked_pairs`
    reads delta c, Ybar a and Y a_bar from the round of `_Proj.apply` that
    gives `resolving_residuals`.

    What it can detect: a perturbed tau or lambda moves a or c and reads
    far above roundoff.  For the ansatz tau = -ut rho, c vanishes
    identically, so J cannot see F (R1 does: it reads 3 ut under F + 1).
    Where lambda != lambda_bar, J1 and J2 are differential consequences of
    R2, R2bar and R3, so J confirms those rather than adding a condition.
    At a point outside rf's store the call computes both checks' pair, as
    `resolving_residuals` does.
    """
    return _checks(rf, p)[1]


def _checked_pairs(proj: _Proj, points: list[ResolvingPoint]) -> list[tuple]:
    """Each point's (residuals, jacobi) pair, from one round of
    `_Proj.apply` on an operand of 7 rows per point, each point's rows next
    to each other: F, lambda, lambda_bar, tau, a, a_bar and c.  R1-R4 read
    the values, delta of the four functions, Y of tau and lambda_bar and
    Ybar of tau and lambda; J1 and J2 read a, a_bar, c, delta c, Ybar a and
    Y a_bar.  c divides by F, so every point's F must be at least F_EPS.
    """
    n, kappa = len(points), points[0].kappa
    ut = proj.seed["ut"]
    a = 2 * ut - kappa * proj.lamj
    a_bar = 2 * ut - kappa * proj.lambj
    c = (ut * proj.seed["rho"] + proj.tauj) / proj.Fj
    g = joined([by_point(j, n) for j in
                (proj.Fj, proj.lamj, proj.lambj, proj.tauj, a, a_bar, c)])
    v, (d, y, yb) = g.value, (op.value for op in proj.apply(g))
    pairs = []
    for k, p in enumerate(points):
        i = 7 * k
        av, abv, cv = v[i + 4:i + 7]
        pairs.append((_residuals(p, *v[i:i + 4], *d[i:i + 4],
                                 y[i + 3], y[i + 2], yb[i + 3], yb[i + 1]),
                      (d[i + 6] - cv * abv + yb[i + 4], d[i + 6] - av * cv + y[i + 5])))
    return pairs


def resolving_sweep(rf: ResolvingFunctions, points: list[ResolvingPoint]) -> None:
    """Check points, of one kappa, in one stacked order-PROJ_ORDER
    projection, whose results replace rf's store: per point the pair that
    `resolving_residuals` and `jacobi_residual` read, bit for bit the
    point's own, because every jet operation acts row by row and each row
    goes through the per-point formulas.  A point where F's value is below
    F_EPS is left out, and the others are projected again without it,
    since c divides by F; a projection that raises (`SWEEP_FALLBACK`,
    which covers points of mixed kappa) leaves the store empty, so the
    checks there raise or exclude exactly what they do alone.
    """
    object.__setattr__(rf, "_checked", {})
    if not points:
        return
    try:
        proj = _Proj(rf, points, PROJ_ORDER)
    except SWEEP_FALLBACK:
        return
    kept = [p for p, F in zip(points, proj.Fj.value) if abs(F) >= F_EPS]
    if not kept:
        return
    if len(kept) < len(points):
        proj = _Proj(rf, kept, PROJ_ORDER)
    object.__setattr__(rf, "_checked", {repr(p): pair for p, pair
                                        in zip(kept, _checked_pairs(proj, kept))})


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
