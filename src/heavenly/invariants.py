"""Differential invariants of the conformal subgroup and the operators
delta, Delta, Delta-bar, Y, Y-bar of invariant differentiation.

The invariants rho, eta, sigma, sigma_bar and tau, and the operators
delta = d_t, Delta = a d_z and DeltaBar = abar d_zbar, read only the values
and first partials of e^-u, u_{zt}, u_{zbar t}, u_{z zbar} and u_t, all of
them within the order-3 u-jet, the engine's ceiling MAX_ORDER.
`JetCalculus` reads those from the u-jet's coefficients and gets the values
and first partials of a, abar, eta, rho and U_t by the first-order product
rule, as scalars: the InvariantSet takes u_tt = d_t U_t, sigma = a d_z rho,
sigma_bar = abar d_zbar rho and tau = d_t rho there, so `invariants_at` and
a sweep of InvariantSets (`swept_invariants`) build no jet beyond the
u-jet.  The commutators are bracket identities of first-order operators:
the first `commutator_residual` at a point reads the operators'
coefficients and their first partials from that calculus and keeps all
twelve residuals in the field's store (`sweeps.PointStore`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import EtaVanishes
from .fields import MAX_ORDER, Point, SolutionField, eval_u
from .jet import SINGULAR_EPS

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


#: the Taylor coefficients of the u-jet that the calculus reads, by
#: multi-index of (z, zbar, t), in the order `_first_order` unpacks them
_READ = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 2), (1, 0, 1), (0, 1, 1),
         (1, 1, 0), (2, 0, 1), (1, 1, 1), (1, 0, 2), (0, 2, 1), (0, 1, 2), (2, 1, 0),
         (1, 2, 0))
#: their flat slots in one row of an order-MAX_ORDER u-jet's coefficients
_SLOTS = np.ravel_multi_index(tuple(np.array(_READ).T), (MAX_ORDER + 1,) * 3)


class JetCalculus:
    """The values and first partials of the invariants' building blocks at
    each point of one order-MAX_ORDER u-jet, as scalars.

    `points` holds per point {name: [value, d_z, d_zbar, d_t]} for E =
    e^-u, Delta and DeltaBar (the operators' coefficients a = E u_{zbar t}
    and abar = E u_{z t}), Eta = abar u_{zbar t}, Rho = E u_{z zbar} and
    Ut = u_t (`_first_order`).  A partial of u is its Taylor coefficient
    times the multi-index factorial; a product's value and partials come
    from the first-order product rule.

    p is one Point, or a list of points for one calculus on their stacked
    u-jets (`SolutionField.jets_at`); one `tolist` reads every point's
    coefficients, and each point runs the scalar code the point alone runs,
    so a sweep's values are bit for bit those of each point's own calculus.
    """

    def __init__(self, field: SolutionField, p: Point | list[Point]):
        if isinstance(p, Point):
            self.u = eval_u(field, p, MAX_ORDER)
        else:
            self.u = field.jets_at(p, MAX_ORDER)
        rows = self.u.coeffs.reshape(-1, (MAX_ORDER + 1) ** 3).take(_SLOTS, axis=1).tolist()
        self.points = [_first_order(row) for row in rows]


def _product(f: list, g: list) -> list:
    """f g as [value, d_z, d_zbar, d_t] from f's and g's, by the first-order
    product rule (Griewank and Walther, Evaluating Derivatives, 2nd ed.,
    3.1); each sum starts at +0 and adds f's side first, as the scatter of
    a jet product does."""
    f0, g0 = f[0], g[0]
    return [0j + f0 * g0] + [0j + f0 * dg + df * g0 for df, dg in zip(f[1:], g[1:])]


def _first_order(c: list) -> dict:
    """`JetCalculus.points`' entry for one point, from its u-jet's
    coefficients at `_READ`."""
    (u, u_z, u_zb, u_t, c002, u_zt, u_zbt, u_zzb,
     c201, c111, c102, c021, c012, c210, c120) = c
    e = cmath.exp(-u)
    E = [e, 0j + -u_z * e, 0j + -u_zb * e, 0j + -u_t * e]
    zt = [u_zt, 2 * c201, c111, 2 * c102]
    zbt = [u_zbt, c111, 2 * c021, 2 * c012]
    a, abar = _product(E, zbt), _product(E, zt)
    return {"E": E, "Delta": a, "DeltaBar": abar, "Eta": _product(abar, zbt),
            "Rho": _product(E, [u_zzb, 2 * c210, 2 * c120, c111]),
            "Ut": [u_t, u_zt, u_zbt, 2 * c002]}


def _calculus(field: SolutionField, p: Point) -> JetCalculus:
    """The JetCalculus of p in the field's store, which `invariants_at`
    and the commutators at p share."""
    return field.store.get(p, "calculus", lambda: JetCalculus(field, p))


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

    The result and the JetCalculus it comes from live in the field's
    store, unless a `swept_invariants` pass stored the result there (see
    ``SolutionField``): repeated calls at one point, and
    the commutator and operator functions at that point, share them.  The
    InvariantSet is frozen; one instance is returned to every such call.
    """
    return field.store.get(p, "invariants",
                           lambda: _invariant_sets(_calculus(field, p), [p])[0])


def swept_invariants(field: SolutionField, points: list[Point]) -> list[dict]:
    """A pass build (`sweeps.in_sweeps`): each point's InvariantSet, as
    `invariants_at` stores it, from one JetCalculus on the points' stacked
    u-jets, and each point's row of those u-jets as its stored u-jet,
    which `eval_u` truncates to every lower order.  The InvariantSets have
    the bits of `invariants_at`'s calculus at each point alone."""
    calc = JetCalculus(field, points)
    return [{"invariants": s, "u": u}
            for s, u in zip(_invariant_sets(calc, points), calc.u.rows())]


def swept_invariant_sets(field: SolutionField, points: list[Point]) -> list[dict]:
    """A pass build for loops that read only the
    InvariantSets: `swept_invariants` without the u-jet rows."""
    return [{"invariants": s} for s in _invariant_sets(JetCalculus(field, points), points)]


def _invariant_sets(calc: JetCalculus, points: list[Point]) -> list[InvariantSet]:
    """The InvariantSet at each point of calc."""
    return [_invariant_set(p, q) for p, q in zip(points, calc.points)]


def _invariant_set(p: Point, q: dict) -> InvariantSet:
    """The InvariantSet at p from the calculus's scalars q there: u_t, rho
    and eta are values, u_tt = d_t U_t, tau = d_t rho, and sigma and
    sigma_bar are Delta and DeltaBar of rho, a d_z rho and abar d_zbar rho,
    each product added to +0 as in a jet product's scatter."""
    (u_t, _, _, u_tt), rho = q["Ut"], q["Rho"]
    sigma, sigma_bar = 0j + q["Delta"][0] * rho[1], 0j + q["DeltaBar"][0] * rho[2]
    eta = _realify(q["Eta"][0])
    if abs(eta) < ETA_TOL:
        lam = lam_bar = None
    else:
        lam = sigma / eta
        lam_bar = sigma_bar / eta
    return InvariantSet(t=p.t, u_t=_realify(u_t), u_tt=_realify(u_tt), rho=_realify(rho[0]),
                        eta=eta, sigma=sigma, sigma_bar=sigma_bar, tau=_realify(rho[3]),
                        lambda_=lam, lambda_bar=lam_bar)


#: commutator pairs with their structure-coefficient right-hand sides;
#: [Delta, DeltaBar] and [Y, Ybar] are identities, which hold for any u
#: (on a u that is no solution they still read roundoff), so only the other
#: four pairs check the field
COMMUTATOR_PAIRS = (("delta", "Delta"), ("delta", "DeltaBar"), ("Delta", "DeltaBar"),
                    ("delta", "Y"), ("delta", "Ybar"), ("Y", "Ybar"))
#: the invariants the commutators are checked on, by their names in
#: `JetCalculus.points`
COMMUTATOR_TARGETS = ("Ut", "Rho")


def commutator_residual(pair: tuple[str, str], target: str,
                        field: SolutionField, p: Point) -> complex:
    """[A, B](target) minus the commutator algebra's right-hand side, for a
    pair of COMMUTATOR_PAIRS and a target of COMMUTATOR_TARGETS.

    Vanishes on solutions of the heavenly equation; reads the order-3
    u-jet of `invariants_at`'s calculus.  Every right-hand side divides by
    eta, so every pair raises EtaVanishes where eta vanishes.  The first
    call at a point computes all twelve residuals (`_commutator_residuals`)
    and keeps them in the field's store; the later calls there read them.
    A call that raises keeps nothing.  An unknown pair or target raises
    ValueError before anything is evaluated.
    """
    pair = tuple(pair)
    if pair not in COMMUTATOR_PAIRS or target not in COMMUTATOR_TARGETS:
        raise ValueError(f"unknown commutator pair {pair!r} or target {target!r}")
    residuals = field.store.get(p, "commutators", lambda: _commutator_residuals(field, p))
    return residuals[pair, target]


def _commutator_residuals(field: SolutionField, p: Point) -> dict:
    """Every (pair, target) residual at p, as the bracket identities of
    first-order operators.

    Each operator is c d_i, one coefficient c along one axis i of
    (z, zbar, t): delta is 1 d_t, Delta and DeltaBar are a = e^-u u_{zbar t}
    along z and abar = e^-u u_{z t} along zbar, Y and Ybar are a/eta and
    abar/eta along the same axes, with d(a/eta) = (d a - (a/eta) d eta)/eta.
    [c d_i, e d_j] = c (d_i e) d_j - e (d_j c) d_i (Olver, Applications of
    Lie Groups to Differential Equations, 2nd ed., 1.4), and the
    right-hand side is a sum of operators with scalar coefficients, so a
    residual on X is sum_i m_i d_i X, where m is the bracket's coefficient
    vector minus the right-hand side's.  m is read from the values and
    first partials of a, abar and eta, d_i X from X's first partials, all
    scalars of the calculus.
    """
    inv = invariants_at(field, p)
    if inv.eta_vanishes:
        raise EtaVanishes("eta = 0: the commutator right-hand sides are undefined")
    q = _calculus(field, p).points[0]
    eta, *d_eta = q["Eta"]
    # each operator as (its axis, its coefficient, the coefficient's partials)
    ops = {"delta": (2, 1.0, [0j, 0j, 0j])}
    for axis, (name, y_name) in enumerate((("Delta", "Y"), ("DeltaBar", "Ybar"))):
        c, *d_c = q[name]
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
    grads = [q[target][1:] for target in COMMUTATOR_TARGETS]
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
