"""Resolving system of the group foliation: projected operators on the
invariant space (t, u_t, rho), the five residuals, the Jacobi identity and
the commuting-operators ansatz.

Both checks at a point read one order-PROJ_ORDER projection, which gives
them together in three rounds: each round takes one operand's three
partials once and applies delta, Y and Ybar to every row of it.  The
functions keep each checked point's pair of results in one store.  A loop over many points first runs `resolving_sweep`, which
fills that store from one stacked projection of all of them; the loop's
per-point calls are its only readers, so they give the bits and the errors
of the per-point path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import expr as ex
from .errors import SWEEP_FALLBACK, ArityMismatch, FVanishes, NegativeDiscriminant
from .jet import Jet, by_point, joined, repeated_rows

RVARS = ("t", "ut", "rho")
F_EPS = 1e-12
#: order of the projection both checks read at a point: each operator
#: application lowers a jet's order by one, and the Jacobi words nest three
#: applications, so an order-3 seed leaves an order-0 jet holding the value;
#: `resolving_residuals` applies one operator and reads order 2
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
            self.depth = len(p)
            coords = [tuple(complex(getattr(q, n)) for q in p) for n in RVARS]
        else:
            self.depth = 0
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
        self._truncs: dict = {}

    def _at(self, e: ex.Expr) -> Jet:
        """e's jet on the seeds (its variables, in order, are t, ut and rho)."""
        if len(e.variables) != len(RVARS):
            raise ArityMismatch(f"{len(e.variables)} variables declared, "
                                f"{len(RVARS)} points given")
        return ex.evaluate(e, dict(zip(e.variables, self.seed.values())))

    def _coeff(self, name: str, m: int, depth: int) -> Jet:
        """A coefficient jet truncated to order m, made once per order and,
        for a stacked projection, per rows of the operand: each point's row
        repeated once for each of that point's operand rows."""
        key = (name, m, depth // self.depth if self.depth else 1)
        if key not in self._truncs:
            self._truncs[key] = repeated_rows(getattr(self, name).truncated(m), depth)
        return self._truncs[key]

    def apply(self, g: Jet) -> tuple[Jet, Jet, Jet]:
        """(delta g, Y g, Ybar g) for a stacked g, from g's three partials,
        taken once:
        delta = d/dt + (kappa rho - ut^2) d/dut + tau d/drho,
        Y = d/dut + lambda d/drho, Ybar the same with lambda_bar."""
        m, d = g.order - 1, g.depth
        g_t, g_ut, g_rho = g.derivative(0), g.derivative(1), g.derivative(2)
        return (g_t + self._coeff("heav_coeff", m, d) * g_ut + self._coeff("tauj", m, d) * g_rho,
                g_ut + self._coeff("lamj", m, d) * g_rho,
                g_ut + self._coeff("lambj", m, d) * g_rho)


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
    (three rounds of `_Proj.apply`, see `_checked_pairs`), so a caller that
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


def jacobi_residual(rf: ResolvingFunctions, p: ResolvingPoint) -> tuple[complex, complex, complex]:
    """[delta,[Y,Ybar]] + [Y,[Ybar,delta]] + [Ybar,[delta,Y]] on t, ut, rho.

    Each nested commutator [a,[b,c]] on a coordinate g is evaluated as
    a(w(b,c) - w(c,b)) - (w(b,c,a) - w(c,b,a)), where a word
    w(x1, ..., xn) = x1(...(xn g)) is an operator chain.  The three terms
    share their words, and `_checked_pairs` gets all of them, for the three
    coordinates at once, from the rounds of `_Proj.apply` that also give
    `resolving_residuals`.  Applications are pure, act row by row, and the
    words are combined by the same subtractions and sums, in the same order,
    as the expansion, so the result is bit-identical to it.

    What it can detect: delta, Y and Ybar are first-order operators, and
    nested commutators of any three vector fields satisfy the Jacobi
    identity whatever their coefficients.  So this residual is roundoff
    for every choice of F, lambda, lambda_bar and tau, solution or not
    (a perturbed tau, lambda or F still reads about 1e-16); it checks the
    operator arithmetic, not the resolving system.  `resolving_residuals`
    is the check a perturbation fails.

    Order 3 suffices: each application lowers a jet's order by one, the
    words nest three applications, and a coefficient of degree k of a jet
    operation depends only on its operands' coefficients of degree <= k.
    So the order-3 seeds of the projection that `resolving_residuals`
    reads at the same point leave an order-0 jet holding the value, the
    same bits an order-4 seed gives.  At a point outside rf's store the
    call computes both checks' pair, as `resolving_residuals` does.
    """
    return _checks(rf, p)[1]


#: the cyclic (a, b, c) of the Jacobi sum, as positions in `_Proj.apply`'s
#: (delta, Y, Ybar)
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
#: the words w(b, c) with b != c, in the order round 3 holds them
_PAIRS = tuple((b, c) for b in range(3) for c in range(3) if b != c)


def _checked_pairs(proj: _Proj, points: list[ResolvingPoint]) -> list[tuple]:
    """Each point's (residuals, jacobi) pair, from three rounds of
    `_Proj.apply` on operands that hold every point's rows next to each
    other:

    1. F, lambda, lambda_bar, tau, t, ut, rho (7 rows per point, order 3):
       R1-R4 read delta of the four functions, Y of tau and lambda_bar and
       Ybar of tau and lambda; the coordinates give the words of length 1.
    2. The three words of length 1 (9 rows, order 2): every word of
       length 2.
    3. The six words w(b,c) with b != c and the three differences
       w(b,c) - w(c,b) (27 rows, order 1): the words of length 3 and the
       outer applications of the Jacobi sum, whose values it combines.
    """
    n = len(points)
    g = joined([by_point(j, n) for j in
                (proj.Fj, proj.lamj, proj.lambj, proj.tauj, *proj.seed.values())])
    round1 = proj.apply(g)
    v, (d, y, yb) = g.value, (op.value for op in round1)
    residuals = [_residuals(p, *v[7 * k:7 * k + 4], *d[7 * k:7 * k + 4],
                            y[7 * k + 3], y[7 * k + 2], yb[7 * k + 3], yb[7 * k + 1])
                 for k, p in enumerate(points)]
    round2 = proj.apply(joined([by_point(op, n)[:, 4:] for op in round1]))
    # w[b, c]: b applied to c of the coordinates, 3 rows per point
    w = {(b, c): by_point(op, n)[:, 3 * c:3 * c + 3] for b, op in enumerate(round2)
         for c in range(3)}
    round3 = proj.apply(joined([w[bc] for bc in _PAIRS]
                               + [w[b, c] - w[c, b] for _, b, c in _CYCLIC]))
    # r[x][:, i]: x applied to the i-th block of round 3's operand
    r = [op.coeffs.reshape(n, 9, 3) for op in round3]

    def nested(i, a, b, c):
        # [a, [b, c]] on the coordinates, w(b, c, a) being b applied to w(c, a)
        return r[a][:, 6 + i] - (r[b][:, _PAIRS.index((c, a))]
                                 - r[c][:, _PAIRS.index((b, a))])

    n0, n1, n2 = (nested(i, *abc) for i, abc in enumerate(_CYCLIC))
    return list(zip(residuals, map(tuple, (n0 + n1 + n2).tolist())))


def resolving_sweep(rf: ResolvingFunctions, points: list[ResolvingPoint]) -> None:
    """Check points, of one kappa, in one stacked order-PROJ_ORDER
    projection, whose results replace rf's store: per point the pair that
    `resolving_residuals` and `jacobi_residual` read, bit for bit the
    point's own, because every jet operation acts row by row and each row
    goes through the per-point formulas.  A point where F's value is below
    F_EPS is left out, and a projection that raises (`SWEEP_FALLBACK`,
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
    pairs = _checked_pairs(proj, points)
    object.__setattr__(rf, "_checked", {repr(p): pair for p, F, pair
                                        in zip(points, proj.Fj.value, pairs)
                                        if abs(F) >= F_EPS})


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
