"""Resolving system of the group foliation: projected operators on the
invariant space (t, u_t, rho), the five residuals, the Jacobi identity and
the commuting-operators ansatz."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import expr as ex
from .errors import ArityMismatch, FVanishes, NegativeDiscriminant
from .jet import Jet

RVARS = ("t", "ut", "rho")
F_EPS = 1e-12
#: order of the projection both checks read at a point: each operator
#: application lowers a jet's order by one, and the Jacobi word tree nests
#: three applications, so an order-3 seed leaves an order-0 jet holding the
#: value; `resolving_residuals` applies one operator and reads order 2
PROJ_ORDER = 3


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

    The functions keep their projection (`_Proj`) at the most recent point
    they were checked at, so `resolving_residuals` and `jacobi_residual`
    at one point evaluate F, lambda, lambda_bar and tau once.  Moving to
    another point replaces it; a build that raises keeps nothing, so the
    next call raises again.
    """

    F: ex.Expr
    lambda_: ex.Expr
    lambda_bar: ex.Expr
    tau: ex.Expr
    requires_nonneg_discriminant: bool = False
    _proj: tuple | None = field(default=None, init=False, repr=False, compare=False)


class _Proj:
    """Projected operators delta, Y, Ybar acting on jets in (t, ut, rho).

    F, lambda, lambda_bar and tau are jets of the given order at the point.
    The operators act on a stacked jet row by row, so one application
    serves several jets.  A coefficient of degree k of a jet operation
    depends only on its operands' coefficients of degree <= k, so a value
    read after n applications is the same for every seed order >= n;
    production reads one projection of order PROJ_ORDER, and the tests
    build their reference projections at other orders.
    """

    def __init__(self, rf: ResolvingFunctions, p: ResolvingPoint, order: int):
        if rf.requires_nonneg_discriminant and p.discriminant < 0:
            raise NegativeDiscriminant(
                f"2*kappa*rho - ut^2 = {p.discriminant} < 0 at {p}")
        self.seed = {name: Jet.variable(i, complex(v), 3, order)
                     for i, (name, v) in enumerate(zip(RVARS, (p.t, p.ut, p.rho)))}
        self.Fj = self._at(rf.F)
        self.lamj = self._at(rf.lambda_)
        self.lambj = self._at(rf.lambda_bar)
        self.tauj = self._at(rf.tau)
        # delta's middle coefficient kappa*rho - ut^2 as an exact jet
        self.heav_coeff = p.kappa * self.seed["rho"] - self.seed["ut"] * self.seed["ut"]
        self._truncs: dict = {}

    def _at(self, e: ex.Expr) -> Jet:
        """e's jet on the seeds (its variables, in order, are t, ut and rho)."""
        if len(e.variables) != len(RVARS):
            raise ArityMismatch(f"{len(e.variables)} variables declared, "
                                f"{len(RVARS)} points given")
        return ex.evaluate(e, dict(zip(e.variables, self.seed.values())))

    def _coeff(self, name: str, m: int) -> Jet:
        """A coefficient jet truncated to order m, truncated once per order."""
        key = (name, m)
        if key not in self._truncs:
            self._truncs[key] = getattr(self, name).truncated(m)
        return self._truncs[key]

    def apply(self, op: str, g: Jet) -> Jet:
        m = g.order - 1
        if op == "delta":
            return (g.derivative(0)
                    + self._coeff("heav_coeff", m) * g.derivative(1)
                    + self._coeff("tauj", m) * g.derivative(2))
        if op == "Y":
            return g.derivative(1) + self._coeff("lamj", m) * g.derivative(2)
        if op == "Ybar":
            return g.derivative(1) + self._coeff("lambj", m) * g.derivative(2)
        raise ValueError(f"unknown projected operator {op!r}")


def _projection(rf: ResolvingFunctions, p: ResolvingPoint) -> _Proj:
    """rf's order-PROJ_ORDER projection at p, built once per point; raises
    FVanishes where F's value is below F_EPS."""
    key = repr(p)  # repr tells apart the values that == merges (0.0 and -0.0)
    kept = rf._proj
    if kept is None or kept[0] != key:
        kept = (key, _Proj(rf, p, PROJ_ORDER))
        object.__setattr__(rf, "_proj", kept)
    proj = kept[1]
    F = proj.Fj.value
    if abs(F) < F_EPS:
        raise FVanishes(f"F = {F} at {p}")
    return proj


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
    """The five residuals of the resolving system at one invariant point."""
    proj = _projection(rf, p)
    F = proj.Fj.value
    lam, lamb, tau = proj.lamj.value, proj.lambj.value, proj.tauj.value
    ut, rho, kappa = p.ut, p.rho, p.kappa

    # three applications on stacked jets instead of eight on single ones
    dF, dlam, dlamb, dtau = proj.apply(
        "delta", Jet.stack([proj.Fj, proj.lamj, proj.lambj, proj.tauj])).value
    Ytau, Ylamb = proj.apply("Y", Jet.stack([proj.tauj, proj.lambj])).value
    Ybtau, Yblam = proj.apply("Ybar", Jet.stack([proj.tauj, proj.lamj])).value

    r1 = dF - (kappa * (lam + lamb) - 5 * ut) * F
    r2 = dlam - Ytau - 2 * ut * lam + kappa * lam * lam
    r2b = dlamb - Ybtau - 2 * ut * lamb + kappa * lamb * lamb
    r3 = F * (Ylamb - Yblam) - (ut * rho + tau) * (lam - lamb)
    r4 = (F * (Ylamb + Yblam) + (ut * rho + tau) * (lam + lamb)
          - 2 * kappa * (dtau + 2 * F + 4 * ut * tau
                         + kappa * rho * rho + 2 * ut * ut * rho))
    return ResolvingResiduals(r1=r1, r2=r2, r2_bar=r2b, r3=r3, r4=r4)


def jacobi_residual(rf: ResolvingFunctions, p: ResolvingPoint) -> tuple[complex, complex, complex]:
    """[delta,[Y,Ybar]] + [Y,[Ybar,delta]] + [Ybar,[delta,Y]] on t, ut, rho.

    Each nested commutator [a,[b,c]] on a coordinate g is evaluated as
    a(w(b,c) - w(c,b)) - (w(b,c,a) - w(c,b,a)), where a word
    w(x1, ..., xn) = x1(...(xn g)) is an operator chain.  The three terms
    share their words, so each word is applied once and kept for the call:
    18 operator applications instead of the 30 of expanding every
    commutator.  The three coordinates are the rows of one stacked seed, so
    those 18 applications serve all three.  Applications are pure, act row
    by row, and the words are combined by the same subtractions and sums,
    in the same order, as the expansion, so the result is bit-identical to
    it.

    What it can detect: delta, Y and Ybar are first-order operators, and
    nested commutators of any three vector fields satisfy the Jacobi
    identity whatever their coefficients.  So this residual is roundoff
    for every choice of F, lambda, lambda_bar and tau, solution or not
    (a perturbed tau, lambda or F still reads about 1e-16); it checks the
    operator arithmetic, not the resolving system.  `resolving_residuals`
    is the check a perturbation fails.

    Order 3 suffices: each application lowers a jet's order by one, the
    word tree nests three applications, and a coefficient of degree k of
    a jet operation depends only on its operands' coefficients of degree
    <= k.  So the order-3 seeds of the projection that
    `resolving_residuals` reads at the same point leave an order-0 jet
    holding the value, the same bits an order-4 seed gives.
    """
    proj = _projection(rf, p)
    words: dict[tuple[str, ...], Jet] = {(): Jet.stack([proj.seed[n] for n in RVARS])}

    def w(*ops):
        # innermost operator first, keeping every inner chain; a loop, not
        # recursion, so that w holds no reference to itself and the words
        # are freed when the call returns, not at the next cycle collection
        for k in range(len(ops) - 1, -1, -1):
            if ops[k:] not in words:
                words[ops[k:]] = proj.apply(ops[k], words[ops[k + 1:]])
        return words[ops]

    def nested(a, b, c):
        # [a, [b, c]](g)
        return proj.apply(a, w(b, c) - w(c, b)) - (w(b, c, a) - w(c, b, a))

    total = (nested("delta", "Y", "Ybar")
             + nested("Y", "Ybar", "delta")
             + nested("Ybar", "delta", "Y"))
    return total.value


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
