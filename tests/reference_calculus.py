"""The invariant calculus as jets, one operator applied to one jet at a
time: the reference for `invariants.JetCalculus`, whose scalars come from
the first-order product rule, and for the InvariantSet and the
commutators built on them.

The reference's values differ from the calculus's in the last bits only,
because a jet product runs numpy's complex multiply and the calculus
Python's.  `assert_calculus_matches_reference` bounds the distance by a
few roundoffs of the terms each value is made of (`RefCalculus` with
of_terms).
"""

import numpy as np

from heavenly.errors import EtaVanishes
from heavenly.fields import MAX_ORDER, u_row
from heavenly.invariants import ETA_TOL, REALITY_TOL, JetCalculus, invariants_at
from heavenly.jet import Jet

#: the order of the reference calculus's u-jet: two operator applications
#: on rho, one order above the engine's ceiling MAX_ORDER
REF_ORDER = 4
EPS = np.finfo(float).eps
#: the bound on a scalar of the calculus or a value of the InvariantSet, in
#: units of EPS times the sum of the moduli of the terms it is made of in
#: the reference
CALCULUS_ROUNDOFFS = 4
#: the names of `JetCalculus.points`
CALCULUS_NAMES = ("E", "Delta", "DeltaBar", "Eta", "Rho", "Ut")
#: the slots of a value and of the first partials d_z, d_zbar and d_t
_FIRST_ORDER = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def moduli(jet):
    """jet with each coefficient replaced by its modulus: sums, products and
    derivatives of such jets add up, coefficient for coefficient, the
    moduli of the terms that the same operations on the jets add up."""
    return Jet(np.abs(jet.coeffs).astype(complex))


class RefCalculus:
    """Invariant jets at their own orders from a fresh order-REF_ORDER u-jet
    (`jet_at`, which has no ceiling), and one operator applied to one jet at
    a time, each with its coefficients truncated to the result's order.
    With of_terms, every leaf jet (e^-u, u_{zt}, u_{zbar t}, u_t, u_{z zbar}
    and 1/eta) is replaced by its `moduli`, so each value is the sum of the
    moduli of the terms that make up the value without it."""

    def __init__(self, fld, p, of_terms=False):
        u = fld.jet_at(p.z, p.z.conjugate(), p.t, REF_ORDER)
        leaves = ((-u.truncated(REF_ORDER - 2)).exp(), u.derivative(0).derivative(2),
                  u.derivative(1).derivative(2), u.derivative(2), u.derivative(0).derivative(1))
        eta = leaves[0] * leaves[1] * leaves[2]
        self.inv_eta = eta.reciprocal() if abs(eta.value) >= ETA_TOL else None
        if of_terms:
            leaves = tuple(map(moduli, leaves))
            self.inv_eta = self.inv_eta and moduli(self.inv_eta)
        self.exp_mu, self.u_zt, self.u_zbt, u_t, u_zzb = leaves
        self.jets = {"Ut": u_t, "Rho": self.exp_mu * u_zzb,
                     "Eta": self.exp_mu * self.u_zt * self.u_zbt}

    def apply(self, op, g):
        m = g.order - 1
        if op == "delta":
            return g.derivative(2)
        if op == "Delta":
            return self.exp_mu.truncated(m) * self.u_zbt.truncated(m) * g.derivative(0)
        if op == "DeltaBar":
            return self.exp_mu.truncated(m) * self.u_zt.truncated(m) * g.derivative(1)
        if self.inv_eta is None:
            raise EtaVanishes("eta = 0: Y and Ybar are undefined")
        return (self.apply("Delta" if op == "Y" else "DeltaBar", g)
                * self.inv_eta.truncated(m))

    def applied(self, op, name):
        return self.apply(op, self.jets[name])

    def first_order(self, name):
        """[value, d_z, d_zbar, d_t] of one of CALCULUS_NAMES, read off its
        jet here: Delta and DeltaBar are the operators' coefficients."""
        jet = {"E": self.exp_mu, "Delta": self.exp_mu * self.u_zbt,
               "DeltaBar": self.exp_mu * self.u_zt, **self.jets}[name]
        return [complex(jet.coeffs[idx]) for idx in _FIRST_ORDER]


def _real(w):
    return w.real if abs(w.imag) < REALITY_TOL else w


def ref_invariants(calc):
    """(u_t, rho, eta, sigma, sigma_bar, tau) as the InvariantSet holds them."""
    return (_real(calc.jets["Ut"].value), _real(calc.jets["Rho"].value),
            _real(calc.jets["Eta"].value), calc.applied("Delta", "Rho").value,
            calc.applied("DeltaBar", "Rho").value, _real(calc.applied("delta", "Rho").value))


def invariant_values(s):
    """(u_t, rho, eta, sigma, sigma_bar, tau) of an InvariantSet."""
    return (s.u_t, s.rho, s.eta, s.sigma, s.sigma_bar, s.tau)


def assert_within_roundoffs(got, want, scales, where):
    for k, (g, w, size) in enumerate(zip(got, want, scales)):
        assert abs(g - w) <= CALCULUS_ROUNDOFFS * EPS * abs(size), (where, k, g, w, size)


def assert_calculus_matches_reference(fld, p, q=None):
    """The calculus's scalars q at p (by default a new JetCalculus's) and
    the InvariantSet at p are within CALCULUS_ROUNDOFFS of the reference's
    jets there."""
    q = q or JetCalculus([u_row(fld, p, MAX_ORDER)]).points[0]
    ref, terms = RefCalculus(fld, p), RefCalculus(fld, p, of_terms=True)
    for name in CALCULUS_NAMES:
        assert_within_roundoffs(q[name], ref.first_order(name), terms.first_order(name),
                                (p, name))
    assert_within_roundoffs(invariant_values(invariants_at(fld, p)), ref_invariants(ref),
                            ref_invariants(terms), (p, "invariants"))
