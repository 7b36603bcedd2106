"""Differential invariants of the conformal subgroup and the operators
delta, Delta, Delta-bar, Y, Y-bar of invariant differentiation.

Composite invariants are represented as jets built from the u-jet of a
field, so total derivatives are coefficient reads, never symbolic.  Each
operator application consumes one order of the jet; every reader here
needs at most the order-3 u-jet, the engine's ceiling MAX_ORDER.

One applier (`JetCalculus.apply`) takes a stacked operand's three
partials once and gives delta, Delta and DeltaBar of every row.  Round 1
applies it to U_t and rho: the InvariantSet reads u_tt, sigma, sigma_bar
and tau there, so a sweep of InvariantSets (`swept_invariants`) and
`invariants_at` build one order-3 calculus.  The commutators are bracket
identities of first-order operators: the first `commutator_residual` at a
point reads the operators' coefficients and their first partials from
that calculus and keeps all twelve residuals in the point's bundle.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

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
    """The invariant jets of one order-MAX_ORDER u-jet and the one applier
    of delta, Delta and DeltaBar.

    `apply` takes a stacked operand's three partials once and gives delta,
    Delta and DeltaBar of every row.  The calculus runs round 1 at once:
    the operators on `operand`, which holds per point the rows ROWS (U_t
    and rho, both of order 1), so round 1 gives values, all an
    InvariantSet reads.  The operator coefficients Delta_coeff and
    DeltaBar_coeff and eta are order-1 jets, whose first partials the
    commutators read.

    p is one Point, or a list of points for one calculus on their stacked
    u-jets (`SolutionField.jets_at`): every jet then holds one row per
    point, and an operand holds each point's rows next to each other
    (`jet.joined`), row for row the jets of the calculus at that point.
    """

    #: the rows of `operand`, per point
    ROWS = ("Ut", "Rho")

    def __init__(self, field: SolutionField, p: Point | list[Point]):
        if isinstance(p, Point):
            u, points = eval_u(field, p, MAX_ORDER), 1
        else:
            u, points = field.jets_at(p, MAX_ORDER), len(p)
        self.u = u
        exp_mu = (-u.truncated(MAX_ORDER - 2)).exp()
        u_z = u.derivative(0)
        u_zt, u_zbt = u_z.derivative(2), u.derivative(1).derivative(2)
        # Delta's and DeltaBar's coefficients e^-mu u_{zbar t} and e^-mu u_{z t}
        self.Delta_coeff = exp_mu * u_zbt
        self.DeltaBar_coeff = exp_mu * u_zt
        self.eta = self.DeltaBar_coeff * u_zbt
        rho = exp_mu * u_z.derivative(1)
        u_t = u.truncated(MAX_ORDER - 1).derivative(2)
        self.operand = joined([by_point(j, points) for j in (u_t, rho)])
        self.round1 = self.apply(self.operand)

    def apply(self, g: Jet) -> tuple[Jet, Jet, Jet]:
        """(delta g, Delta g, DeltaBar g) for a stacked g, from g's three
        partials, taken once: delta = d/dt, Delta = e^-mu u_{zbar t} d/dz,
        DeltaBar = e^-mu u_{z t} d/dzbar, each coefficient truncated to the
        result's order and repeated over each point's rows."""
        m, d = g.order - 1, g.depth
        g_z, g_zb, g_t = g.derivative(0), g.derivative(1), g.derivative(2)
        return (g_t, repeated_rows(self.Delta_coeff.truncated(m), d) * g_z,
                repeated_rows(self.DeltaBar_coeff.truncated(m), d) * g_zb)


def _calculus(field: SolutionField, p: Point) -> JetCalculus:
    """The JetCalculus of the field's bundle at p, which `invariants_at`
    and the commutators at p share."""
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

    The result and the JetCalculus it comes from live in
    the field's bundle for p, unless a `swept_invariants` pass stored the
    result there (see ``SolutionField``): repeated calls at one point, and
    the commutator and operator functions at that point, share them.  The
    InvariantSet is frozen; one instance is returned to every such call.
    """
    return field.bundle_at(p).get(
        "invariants", lambda: _invariant_sets(_calculus(field, p), [p])[0])


def swept_invariants(field: SolutionField, points: list[Point]) -> list[dict]:
    """A `SolutionField.sweep` build: each point's InvariantSet, as
    `invariants_at` stores it, from one JetCalculus on the points' stacked
    u-jets, and each point's row of those u-jets, from which `eval_u`
    truncates every lower order.  The InvariantSets have the bits of
    `invariants_at`'s calculus at each point alone."""
    calc = JetCalculus(field, points)
    return [{"invariants": s, MAX_ORDER: u}
            for s, u in zip(_invariant_sets(calc, points), calc.u.rows())]


def swept_invariant_sets(field: SolutionField, points: list[Point]) -> list[dict]:
    """A `SolutionField.sweep` build for loops that read only the
    InvariantSets: `swept_invariants` without the u-jet rows."""
    return [{"invariants": s} for s in _invariant_sets(JetCalculus(field, points), points)]


def _invariant_sets(calc: JetCalculus, points: list[Point]) -> list[InvariantSet]:
    """The InvariantSet at each point of calc, from its rows of round 1:
    u_t and rho are the operand's values, u_tt is delta of U_t, and tau,
    sigma and sigma_bar are delta, Delta and DeltaBar of rho; eta is its
    own jet's value."""
    values = calc.operand.value
    delta, Delta, DeltaBar = (op.value for op in calc.round1)
    rows = range(0, len(values), len(JetCalculus.ROWS))
    etas = row_values(calc.eta.value)
    return [_invariant_set(p, values[r], delta[r], values[r + 1], eta,
                           Delta[r + 1], DeltaBar[r + 1], delta[r + 1])
            for p, r, eta in zip(points, rows, etas)]


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


#: commutator pairs with their structure-coefficient right-hand sides;
#: [Delta, DeltaBar] and [Y, Ybar] are identities, which hold for any u
#: (on a u that is no solution they still read roundoff), so only the other
#: four pairs check the field
COMMUTATOR_PAIRS = (("delta", "Delta"), ("delta", "DeltaBar"), ("Delta", "DeltaBar"),
                    ("delta", "Y"), ("delta", "Ybar"), ("Y", "Ybar"))
#: the invariants the commutators are checked on: the rows of
#: `JetCalculus.ROWS`
COMMUTATOR_TARGETS = ("Ut", "Rho")
#: the first-order multi-indices of (z, zbar, t)
_FIRST = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def commutator_residual(pair: tuple[str, str], target: str,
                        field: SolutionField, p: Point) -> complex:
    """[A, B](target) minus the commutator algebra's right-hand side, for a
    pair of COMMUTATOR_PAIRS and a target of COMMUTATOR_TARGETS.

    Vanishes on solutions of the heavenly equation; reads the order-3
    u-jet of `invariants_at`'s calculus.  Every right-hand side divides by
    eta, so every pair raises EtaVanishes where eta vanishes.  The first
    call at a point computes all twelve residuals (`_commutator_residuals`)
    and keeps them in the point's bundle; the later calls there read them.
    A call that raises keeps nothing.
    """
    residuals = field.bundle_at(p).get("commutators", lambda: _commutator_residuals(field, p))
    key = (tuple(pair), target)
    if key not in residuals:
        raise ValueError(f"unknown commutator pair {pair!r} or target {target!r}")
    return residuals[key]


def _gradient(coeffs) -> list[complex]:
    """The first partials (d_z, d_zbar, d_t) of one row of an order-1 jet."""
    return [complex(coeffs[idx]) for idx in _FIRST]


def _commutator_residuals(field: SolutionField, p: Point) -> dict:
    """Every (pair, target) residual at p, as the bracket identities of
    first-order operators.

    Each operator is c d_i, one coefficient c along one axis i of
    (z, zbar, t): delta is 1 d_t, Delta and DeltaBar are a = e^-mu u_{zbar t}
    along z and abar = e^-mu u_{z t} along zbar, Y and Ybar are a/eta and
    abar/eta along the same axes, with d(a/eta) = (d a - (a/eta) d eta)/eta.
    [c d_i, e d_j] = c (d_i e) d_j - e (d_j c) d_i (Olver, Applications of
    Lie Groups to Differential Equations, 2nd ed., 1.4), and the
    right-hand side is a sum of operators with scalar coefficients, so a
    residual on X is sum_i m_i d_i X, where m is the bracket's coefficient
    vector minus the right-hand side's.  m is read from the values and
    first partials of a, abar and eta, d_i X from the first partials of X's
    row of the operand.
    """
    inv = invariants_at(field, p)
    if inv.eta_vanishes:
        raise EtaVanishes("eta = 0: the commutator right-hand sides are undefined")
    calc = _calculus(field, p)
    eta, d_eta = calc.eta.value, _gradient(calc.eta.coeffs)
    # each operator as (its axis, its coefficient, the coefficient's partials)
    ops = {"delta": (2, 1.0, [0j, 0j, 0j])}
    for axis, (name, y_name, coeff) in enumerate((("Delta", "Y", calc.Delta_coeff),
                                                  ("DeltaBar", "Ybar", calc.DeltaBar_coeff))):
        c, d_c = coeff.value, _gradient(coeff.coeffs)
        y = c / eta
        ops[name] = (axis, c, d_c)
        ops[y_name] = (axis, y, [(dc - y * de) / eta for dc, de in zip(d_c, d_eta)])
    kappa, u_t, s = field.kappa, inv.u_t, inv.u_t * inv.rho + inv.tau
    # delta, Delta and DeltaBar of eta
    delta_eta = d_eta[2]
    Delta_eta, DeltaBar_eta = ops["Delta"][1] * d_eta[0], ops["DeltaBar"][1] * d_eta[1]
    # each pair's right-hand side as {operator: its scalar coefficient}
    rhs = {("delta", "Delta"): {"Delta": kappa * inv.sigma_bar / inv.eta - 3 * u_t},
           ("delta", "DeltaBar"): {"DeltaBar": kappa * inv.sigma / inv.eta - 3 * u_t},
           ("Delta", "DeltaBar"): {"DeltaBar": Delta_eta / inv.eta - s,
                                   "Delta": -(DeltaBar_eta / inv.eta - s)},
           ("delta", "Y"): {"Y": kappa * inv.lambda_bar - 3 * u_t - delta_eta / inv.eta},
           ("delta", "Ybar"): {"Ybar": kappa * inv.lambda_ - 3 * u_t - delta_eta / inv.eta},
           ("Y", "Ybar"): {"Y": s / inv.eta, "Ybar": -(s / inv.eta)}}
    grads = [_gradient(row) for row in calc.operand.coeffs]
    residuals = {}
    for pair in COMMUTATOR_PAIRS:
        (i, c, d_c), (j, e, d_e) = ops[pair[0]], ops[pair[1]]
        m = [0j, 0j, 0j]
        m[j] += c * d_e[i]
        m[i] -= e * d_c[j]
        for name, coefficient in rhs[pair].items():
            k, o, _ = ops[name]
            m[k] -= coefficient * o
        for target, grad in zip(COMMUTATOR_TARGETS, grads):
            residuals[pair, target] = m[0] * grad[0] + m[1] * grad[1] + m[2] * grad[2]
    return residuals
