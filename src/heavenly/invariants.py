"""Differential invariants of the conformal subgroup and the operators
delta, Delta, Delta-bar, Y, Y-bar of invariant differentiation.

Composite invariants are represented as jets built from the u-jet of a
field, so total derivatives are coefficient reads, never symbolic.  Each
operator application consumes one order of the jet; the fourth-order
ceiling of the jet engine is what limits commutators on rho.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import EtaVanishes, OrderExceeded
from .fields import MAX_ORDER, Point, SolutionField, eval_u
from .jet import Jet, row_values

#: imaginary parts of physically real invariants below this are truncated to 0
REALITY_TOL = 1e-10
#: |eta| below this counts as eta = 0, where lambda, lambda_bar and Y, Ybar
#: are undefined
ETA_TOL = 1e-14


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
    """Invariant jets and operator applications derived from one u-jet.

    Invariant jets, the operators' coefficient jets and the reciprocals of
    the eta jet are built on first use and kept, so repeated applications
    reuse them; every kept jet is computed exactly as a fresh one would be.

    p is one Point, or a list of points for one calculus on their stacked
    u-jets (`SolutionField.jets_at`): every jet is then stacked, row r
    bit for bit the jet of the calculus at p[r], and values are tuples.
    """

    def __init__(self, field: SolutionField, p: Point | list[Point]):
        if isinstance(p, Point):
            self.u, self.t = eval_u(field, p, MAX_ORDER), p.t
        else:
            self.u, self.t = field.jets_at(p, MAX_ORDER), tuple(q.t for q in p)
        self.exp_mu = (-self.u.truncated(MAX_ORDER - 2)).exp()
        self.u_zt = self.u.derivative(0).derivative(2)
        self.u_zbt = self.u.derivative(1).derivative(2)
        self._kept: dict = {}

    def _keep(self, key, build):
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    # -- invariant jets ----------------------------------------------------

    def invariant_jet(self, name: str) -> Jet:
        """Jet of the named invariant at the maximal available order."""
        return self._keep(name, lambda: self._invariant_jet(name))

    def _invariant_jet(self, name: str) -> Jet:
        u = self.u
        if name == "T":
            return Jet.variable(2, self.t, 3, MAX_ORDER)
        if name == "Ut":
            return u.derivative(2)
        if name == "Utt":
            return u.derivative(2).derivative(2)
        if name == "Rho":
            return self.exp_mu * u.derivative(0).derivative(1)
        if name == "Eta":
            return self.exp_mu * self.u_zt * self.u_zbt
        if name == "Uz":
            return u.derivative(0)
        raise ValueError(f"no jet construction for invariant {name!r}")

    def value(self, name: str) -> complex:
        return self.invariant_jet(name).value

    # -- operators ---------------------------------------------------------

    def apply(self, op: str, g: Jet) -> Jet:
        """One operator of invariant differentiation applied to a jet."""
        if g.order < 1:
            raise OrderExceeded("operand jet has no first-order coefficients")
        m = g.order - 1
        if op == "delta":
            return g.derivative(2)
        if op == "Delta":
            coef = self._keep((op, m), lambda: self.exp_mu.truncated(m)
                              * self.u_zbt.truncated(m))
            return coef * g.derivative(0)
        if op == "DeltaBar":
            coef = self._keep((op, m), lambda: self.exp_mu.truncated(m)
                              * self.u_zt.truncated(m))
            return coef * g.derivative(1)
        if op in ("Y", "Ybar"):
            inv_eta = self._keep(("1/Eta", m), lambda: self._eta_reciprocal(m))
            return self.apply("Delta" if op == "Y" else "DeltaBar", g) * inv_eta
        raise ValueError(f"unknown operator {op!r}")

    def _eta_reciprocal(self, m: int) -> Jet:
        eta = self.invariant_jet("Eta").truncated(m)
        if any(abs(v) < ETA_TOL for v in row_values(eta.value)):
            raise EtaVanishes("eta = 0: Y and Ybar are undefined")
        return eta.reciprocal()

    def applied(self, op: str, name: str) -> Jet:
        """One operator applied to the named invariant's jet, kept for reuse."""
        return self._keep((op, name), lambda: self.apply(op, self.invariant_jet(name)))


def _calculus(field: SolutionField, p: Point) -> JetCalculus:
    """The JetCalculus of the field's bundle at p."""
    return field.bundle_at(p).get("calculus", lambda: JetCalculus(field, p))


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

    The result and the order-4 JetCalculus it comes from live in the field's
    bundle for p (see ``SolutionField``): repeated calls at one point, and
    the commutator and operator functions at that point, share them.  The
    InvariantSet is frozen; one instance is returned to every such call.
    """
    return field.bundle_at(p).get(
        "invariants", lambda: _invariant_sets(_calculus(field, p), [p])[0])


def swept_invariants(field: SolutionField, points: list[Point]) -> list[dict]:
    """A `SolutionField.sweep` build: each point's InvariantSet, as
    `invariants_at` stores it, from one JetCalculus on the points' stacked
    order-4 u-jets, and each point's row of those u-jets, from which
    `eval_u` truncates every lower order."""
    calc = JetCalculus(field, points)
    return [{"invariants": s, MAX_ORDER: u}
            for s, u in zip(_invariant_sets(calc, points), calc.u.rows())]


def _invariant_sets(calc: JetCalculus, points: list[Point]) -> list[InvariantSet]:
    """The InvariantSet at each point of calc (one, or one per row), each
    from its own values."""
    values = (calc.value("Ut"), calc.value("Utt"), calc.value("Rho"), calc.value("Eta"),
              calc.applied("Delta", "Rho").value, calc.applied("DeltaBar", "Rho").value,
              calc.applied("delta", "Rho").value)
    rows = zip(*values) if calc.u.depth else [values]
    return [_invariant_set(p, *row) for p, row in zip(points, rows)]


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


#: commutator pairs with their structure-coefficient right-hand sides
COMMUTATOR_PAIRS = (("delta", "Delta"), ("delta", "DeltaBar"), ("Delta", "DeltaBar"),
                    ("delta", "Y"), ("delta", "Ybar"), ("Y", "Ybar"))


def commutator_residual(pair: tuple[str, str], target: str,
                        field: SolutionField, p: Point) -> complex:
    """[A, B](target) minus the commutator algebra's right-hand side.

    Vanishes on solutions of the heavenly equation; requires order-4 jets.
    Every right-hand side divides by eta, so every pair raises EtaVanishes
    where eta vanishes.
    """
    inv = invariants_at(field, p)
    if inv.eta_vanishes:
        raise EtaVanishes("eta = 0: the commutator right-hand sides are undefined")
    kappa = field.kappa
    calc = _calculus(field, p)
    a, b = pair
    lhs = (calc.apply(a, calc.applied(b, target))
           - calc.apply(b, calc.applied(a, target))).value

    eta, rho, tau, u_t = inv.eta, inv.rho, inv.tau, inv.u_t
    sigma, sigma_bar = inv.sigma, inv.sigma_bar
    A_of = {name: calc.applied(name, target).value for name in set(pair)}
    if pair == ("delta", "Delta"):
        rhs = (kappa * sigma_bar / eta - 3 * u_t) * A_of["Delta"]
    elif pair == ("delta", "DeltaBar"):
        rhs = (kappa * sigma / eta - 3 * u_t) * A_of["DeltaBar"]
    elif pair == ("Delta", "DeltaBar"):
        d_eta = calc.applied("Delta", "Eta").value
        db_eta = calc.applied("DeltaBar", "Eta").value
        rhs = ((d_eta / eta - (u_t * rho + tau)) * A_of["DeltaBar"]
               - (db_eta / eta - (u_t * rho + tau)) * A_of["Delta"])
    elif pair == ("delta", "Y"):
        dt_eta = calc.applied("delta", "Eta").value
        rhs = (kappa * inv.lambda_bar - 3 * u_t - dt_eta / eta) * A_of["Y"]
    elif pair == ("delta", "Ybar"):
        dt_eta = calc.applied("delta", "Eta").value
        rhs = (kappa * inv.lambda_ - 3 * u_t - dt_eta / eta) * A_of["Ybar"]
    elif pair == ("Y", "Ybar"):
        rhs = ((u_t * rho + tau) / eta) * (A_of["Y"] - A_of["Ybar"])
    else:
        raise ValueError(f"unknown commutator pair {pair!r}")
    return lhs - rhs
