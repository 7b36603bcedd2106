"""Differential invariants of the conformal subgroup and the operators
delta, Delta, Delta-bar, Y, Y-bar of invariant differentiation.

Composite invariants are represented as jets built from the u-jet of a
field, so total derivatives are coefficient reads, never symbolic.  Each
operator application consumes one order of the jet; the fourth-order
ceiling of the jet engine is what limits commutators on rho.

One applier (`JetCalculus.apply`, with `with_y` for Y and Ybar) takes a
stacked operand's three partials once and gives every operator of every
row.  Round 1 applies it to U_t, rho and eta: the InvariantSet reads
sigma, sigma_bar and tau there, so a sweep of InvariantSets
(`swept_invariants`) builds order-3 u-jets.  The first
`commutator_residual` at a point adds round 2, the five operators on the
ten rows of round 1 on U_t and rho, and keeps all twelve residuals in the
point's bundle.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

from .errors import EtaVanishes
from .fields import MAX_ORDER, Point, SolutionField, eval_u
from .jet import SINGULAR_EPS, Jet, by_point, joined, repeated_rows, row_values

#: imaginary parts of physically real invariants below this are truncated to 0
REALITY_TOL = 1e-10
#: |eta| below this counts as eta = 0, where lambda, lambda_bar and Y, Ybar
#: are undefined; it is the threshold below which 1/eta raises
ETA_TOL = SINGULAR_EPS


@dataclass(frozen=True)
class InvariantSet:
    """Values of the differential invariants at one point.

    lambda_/lambda_bar are None when eta vanishes (F0 families); sigma is
    still reported in that case.
    """

    t: float
    u_t: float
    u_tt: float
    rho: float
    eta: float
    sigma: complex
    sigma_bar: complex
    tau: float
    lambda_: complex | None
    lambda_bar: complex | None

    @property
    def eta_vanishes(self) -> bool:
        return self.lambda_ is None


def _realify(w: complex) -> float | complex:
    if abs(w.imag) < REALITY_TOL:
        return w.real
    return w


class JetCalculus:
    """The invariant jets of one u-jet and the one applier of the five
    operators of invariant differentiation.

    `apply` takes a stacked operand's three partials once and gives delta,
    Delta and DeltaBar of every row; `with_y` adds Y and Ybar, which are
    Delta and DeltaBar times 1/eta, made only where eta does not vanish.
    The calculus runs round 1 at once: the operators on `operand`, which
    holds per point the rows ROWS (U_t, rho and eta, all two orders below
    the u-jet).  Each coefficient is truncated once per order (and per
    operand depth) and kept; an operator application lowers a jet's order
    by one, and truncation commutes with every jet operation, so a value
    read after n applications has the same bits whatever order it started
    from.  The caller picks the u-jet's order: 3 gives round 1 as values,
    all an InvariantSet reads; MAX_ORDER leaves round 1 at order 1, which
    the commutators' second round needs.

    p is one Point, or a list of points for one calculus on their stacked
    u-jets (`SolutionField.jets_at`): every jet then holds one row per
    point, and an operand holds each point's rows next to each other
    (`jet.joined`), row for row the jets of the calculus at that point.
    """

    #: the rows of `operand`, per point
    ROWS = ("Ut", "Rho", "Eta")

    def __init__(self, field: SolutionField, p: Point | list[Point], order: int):
        if isinstance(p, Point):
            u, points = eval_u(field, p, order), 1
        else:
            u, points = field.jets_at(p, order), len(p)
        self.u = u
        exp_mu = (-u.truncated(order - 2)).exp()
        u_z = u.derivative(0)
        u_zt, u_zbt = u_z.derivative(2), u.derivative(1).derivative(2)
        # Delta's and DeltaBar's coefficients e^-mu u_{zbar t} and e^-mu u_{z t}
        self.Delta_coeff = exp_mu * u_zbt
        self.DeltaBar_coeff = exp_mu * u_zt
        self.eta = self.DeltaBar_coeff * u_zbt
        rho = exp_mu * u_z.derivative(1)
        u_t = u.truncated(order - 1).derivative(2)
        self.operand = joined([by_point(j, points) for j in (u_t, rho, self.eta)])
        self._coeffs: dict = {}
        self.round1 = self.apply(self.operand)

    @cached_property
    def inv_eta(self) -> Jet:
        """1/eta, made on first use; raises EtaVanishes where eta vanishes."""
        if any(abs(v) < ETA_TOL for v in row_values(self.eta.value)):
            raise EtaVanishes("eta = 0: Y and Ybar are undefined")
        return self.eta.reciprocal()

    def _coeff(self, name: str, m: int, depth: int) -> Jet:
        """A coefficient jet truncated to order m, for an operand of depth
        rows (`jet.repeated_rows`), made once and kept."""
        key = (name, m, depth)
        if key not in self._coeffs:
            self._coeffs[key] = repeated_rows(getattr(self, name).truncated(m), depth)
        return self._coeffs[key]

    def apply(self, g: Jet) -> tuple[Jet, Jet, Jet]:
        """(delta g, Delta g, DeltaBar g) for a stacked g, from g's three
        partials, taken once: delta = d/dt, Delta = e^-mu u_{zbar t} d/dz,
        DeltaBar = e^-mu u_{z t} d/dzbar."""
        m, d = g.order - 1, g.depth
        g_z, g_zb, g_t = g.derivative(0), g.derivative(1), g.derivative(2)
        return (g_t, self._coeff("Delta_coeff", m, d) * g_z,
                self._coeff("DeltaBar_coeff", m, d) * g_zb)

    def with_y(self, applied: tuple[Jet, Jet, Jet]) -> tuple[Jet, ...]:
        """`apply`'s result with Y g = (Delta g)/eta and Ybar g =
        (DeltaBar g)/eta added, in the order of OPERATORS."""
        delta, Delta, DeltaBar = applied
        inv_eta = self._coeff("inv_eta", Delta.order, Delta.depth)
        return delta, Delta, DeltaBar, Delta * inv_eta, DeltaBar * inv_eta


def _calculus(field: SolutionField, p: Point) -> JetCalculus:
    """The order-MAX_ORDER JetCalculus of the field's bundle at p, which
    the commutators at p share."""
    return field.bundle_at(p).get("calculus", lambda: JetCalculus(field, p, MAX_ORDER))


def pde_residual(field: SolutionField, p: Point) -> complex:
    """u_{z zbar} - kappa e^u (u_tt + u_t^2) at the point."""
    J = eval_u(field, p, 2)
    u_zzb = J.partial((1, 1, 0))
    u_t = J.partial((0, 0, 1))
    u_tt = J.partial((0, 0, 2))
    return u_zzb - field.kappa * cmath.exp(J.value) * (u_tt + u_t * u_t)


def liouville_residual(field: SolutionField, p: Point) -> complex:
    """Gamma_{z zbar} - 2 kappa e^Gamma for a standalone Liouville field."""
    J = eval_u(field, p, 2)
    return J.partial((1, 1, 0)) - 2.0 * field.kappa * cmath.exp(J.value)


def invariants_at(field: SolutionField, p: Point) -> InvariantSet:
    """Compute {t, u_t, u_tt, rho, eta, sigma, sigma_bar, tau, lambda, lambda_bar}.

    The result and the order-MAX_ORDER JetCalculus it comes from live in
    the field's bundle for p, unless a `swept_invariants` pass stored the
    result there (see ``SolutionField``): repeated calls at one point, and
    the commutator and operator functions at that point, share them.  The
    InvariantSet is frozen; one instance is returned to every such call.
    """
    return field.bundle_at(p).get(
        "invariants", lambda: _invariant_sets(_calculus(field, p), [p])[0])


#: the order of `swept_invariants`' u-jets: all an InvariantSet reads
SWEPT_ORDER = 3


def swept_invariants(field: SolutionField, points: list[Point]) -> list[dict]:
    """A `SolutionField.sweep` build: each point's InvariantSet, as
    `invariants_at` stores it, from one JetCalculus on the points' stacked
    order-3 u-jets, and each point's row of those u-jets, from which
    `eval_u` truncates every lower order.  The InvariantSets have the bits
    of `invariants_at`'s order-MAX_ORDER calculus."""
    calc = JetCalculus(field, points, SWEPT_ORDER)
    return [{"invariants": s, SWEPT_ORDER: u}
            for s, u in zip(_invariant_sets(calc, points), calc.u.rows())]


def _invariant_sets(calc: JetCalculus, points: list[Point]) -> list[InvariantSet]:
    """The InvariantSet at each point of calc, from its rows of round 1:
    u_t, rho and eta are the operand's values, u_tt is delta of U_t, and
    tau, sigma and sigma_bar are delta, Delta and DeltaBar of rho."""
    values = calc.operand.value
    delta, Delta, DeltaBar = (op.value for op in calc.round1)
    rows = range(0, len(values), len(JetCalculus.ROWS))
    return [_invariant_set(p, values[r], delta[r], values[r + 1], values[r + 2],
                           Delta[r + 1], DeltaBar[r + 1], delta[r + 1])
            for p, r in zip(points, rows)]


def _invariant_set(p: Point, u_t, u_tt, rho, eta, sigma, sigma_bar, tau) -> InvariantSet:
    u_t = _realify(u_t)
    u_tt = _realify(u_tt)
    rho = _realify(rho)
    eta = _realify(eta)
    tau = _realify(tau)
    if abs(eta) < ETA_TOL:
        lam = lam_bar = None
    else:
        lam = sigma / eta
        lam_bar = sigma_bar / eta
    return InvariantSet(t=p.t, u_t=u_t, u_tt=u_tt, rho=rho, eta=eta,
                        sigma=sigma, sigma_bar=sigma_bar, tau=tau,
                        lambda_=lam, lambda_bar=lam_bar)


#: the five operators, in the order `JetCalculus.with_y` gives them
OPERATORS = ("delta", "Delta", "DeltaBar", "Y", "Ybar")
#: commutator pairs with their structure-coefficient right-hand sides;
#: [Delta, DeltaBar] and [Y, Ybar] are identities, which hold for any u
#: (on a u that is no solution they still read roundoff), so only the other
#: four pairs check the field
COMMUTATOR_PAIRS = (("delta", "Delta"), ("delta", "DeltaBar"), ("Delta", "DeltaBar"),
                    ("delta", "Y"), ("delta", "Ybar"), ("Y", "Ybar"))
#: the invariants the commutators are checked on: the first rows of
#: `JetCalculus.ROWS`
COMMUTATOR_TARGETS = ("Ut", "Rho")


def commutator_residual(pair: tuple[str, str], target: str,
                        field: SolutionField, p: Point) -> complex:
    """[A, B](target) minus the commutator algebra's right-hand side, for a
    pair of COMMUTATOR_PAIRS and a target of COMMUTATOR_TARGETS.

    Vanishes on solutions of the heavenly equation; requires order-4 jets.
    Every right-hand side divides by eta, so every pair raises EtaVanishes
    where eta vanishes.  The first call at a point computes all twelve
    residuals from two stacked rounds of the calculus's applier
    (`_commutator_residuals`) and keeps them in the point's bundle; the
    later calls there read them.  A call that raises keeps nothing.
    """
    residuals = field.bundle_at(p).get("commutators", lambda: _commutator_residuals(field, p))
    key = (tuple(pair), target)
    if key not in residuals:
        raise ValueError(f"unknown commutator pair {pair!r} or target {target!r}")
    return residuals[key]


def _commutator_residuals(field: SolutionField, p: Point) -> dict:
    """Every (pair, target) residual at p, from two rounds of
    `JetCalculus.with_y`:

    1. round 1 of the calculus (U_t, rho and eta, order 2): a X for every
       operator a and target X, and delta, Delta and DeltaBar of eta, which
       the right-hand sides read;
    2. the ten rows a X on U_t and rho (order 1): every a(b X), as an
       order-0 row.

    A residual is a(b X) - b(a X) minus its right-hand side.  Each value has
    the bits of the expansion through single-operator applications: every
    jet operation acts row by row, and truncation commutes with each.
    """
    inv = invariants_at(field, p)
    if inv.eta_vanishes:
        raise EtaVanishes("eta = 0: the commutator right-hand sides are undefined")
    calc = _calculus(field, p)
    n = len(COMMUTATOR_TARGETS)
    first = calc.with_y(calc.round1)
    second = calc.with_y(calc.apply(joined([by_point(op, 1)[:, :n] for op in first])))
    # A[a][x]: a applied to row x of ROWS; AB[a][n b + x]: a applied to b X,
    # where b is the b-th operator and X the x-th target
    A = dict(zip(OPERATORS, (op.value for op in first)))
    AB = dict(zip(OPERATORS, (op.value for op in second)))
    kappa = field.kappa
    eta, rho, tau, u_t = inv.eta, inv.rho, inv.tau, inv.u_t
    sigma, sigma_bar = inv.sigma, inv.sigma_bar
    eta_row = JetCalculus.ROWS.index("Eta")
    residuals = {}
    for pair in COMMUTATOR_PAIRS:
        a, b = pair
        for x, target in enumerate(COMMUTATOR_TARGETS):
            lhs = AB[a][n * OPERATORS.index(b) + x] - AB[b][n * OPERATORS.index(a) + x]
            A_of = {name: A[name][x] for name in pair}
            if pair == ("delta", "Delta"):
                rhs = (kappa * sigma_bar / eta - 3 * u_t) * A_of["Delta"]
            elif pair == ("delta", "DeltaBar"):
                rhs = (kappa * sigma / eta - 3 * u_t) * A_of["DeltaBar"]
            elif pair == ("Delta", "DeltaBar"):
                d_eta = A["Delta"][eta_row]
                db_eta = A["DeltaBar"][eta_row]
                rhs = ((d_eta / eta - (u_t * rho + tau)) * A_of["DeltaBar"]
                       - (db_eta / eta - (u_t * rho + tau)) * A_of["Delta"])
            elif pair == ("delta", "Y"):
                dt_eta = A["delta"][eta_row]
                rhs = (kappa * inv.lambda_bar - 3 * u_t - dt_eta / eta) * A_of["Y"]
            elif pair == ("delta", "Ybar"):
                dt_eta = A["delta"][eta_row]
                rhs = (kappa * inv.lambda_ - 3 * u_t - dt_eta / eta) * A_of["Ybar"]
            else:  # ("Y", "Ybar")
                rhs = ((u_t * rho + tau) / eta) * (A_of["Y"] - A_of["Ybar"])
            residuals[pair, target] = lhs - rhs
    return residuals
