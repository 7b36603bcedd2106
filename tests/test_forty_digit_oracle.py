"""The jet kernels and the field jets against 40-digit values computed
without the jet engine.

log, exp, sqrt, two other powers and the reciprocal are checked on seeded
one- and three-variable jets of orders 0 to 3, unstacked and stacked,
against mpmath: each row's univariate series at its constant term composed
with the rest of the row, in 40-digit arithmetic.  The u-jet of every
family at order 3, for both signs of kappa and for the pushforward, is
checked at one point against sympy derivatives of the family's closed form,
evaluated by mpmath, and so are the invariants rho, eta, sigma, sigma_bar,
tau, lambda and lambda_bar, from sympy derivatives of their definitions.
The inputs are the binary64 values the engine sees, read exactly.
"""

import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
sp = pytest.importorskip("sympy")

from reference_calculus import RefCalculus
from test_bundle import FAMILIES, build, points
from test_reference_kernels import row_value, valid_jet

from heavenly.fields import MAX_ORDER
from heavenly.invariants import invariants_at
from heavenly.jet import Jet, valid_indices

DPS = 40
EPS = np.finfo(float).eps
#: the bound on a kernel's error, in units of EPS times the largest exact
#: coefficient of the row
KERNEL_ROUNDOFFS = 8
#: the same for a field's u-jet, a chain of kernels: confinv's reads 9.3
#: at kappa = +1 (11.3 before the degree recurrences, at kappa = -1)
FIELD_ROUNDOFFS = 16
#: the bound on an invariant's error, in units of EPS times the sum of the
#: moduli of the terms it is made of (`RefCalculus` with of_terms): the
#: largest seen is 6.6, tau of confinv at kappa = -1, whose u-jet carries
#: its own roundoff into the terms
INVARIANT_ROUNDOFFS = 16


# --- the kernels ---------------------------------------------------------------

def mp_product(x, y, nvars, order):
    """Truncated product of two jets held as {multi-index: mpc}."""
    out = {idx: mpmath.mpc(0) for idx in valid_indices(nvars, order)}
    for a, xa in x.items():
        for b, yb in y.items():
            t = tuple(i + j for i, j in zip(a, b))
            if sum(t) <= order:
                out[t] += xa * yb
    return out


def power_series(a0, order, p):
    """sum_m binom(p, m) a0^(p - m) h^m: the principal a0^p times the
    binomial series."""
    lead = 1 / a0 if p == -1 else mpmath.exp(p * mpmath.log(a0))
    out, coef = [lead], lead
    for m in range(1, order + 1):
        coef = coef * (p - (m - 1)) / m / a0
        out.append(coef)
    return out


#: per kernel: the Jet method and f's Taylor coefficients f^(m)(a0)/m!
KERNELS = {
    "log": (Jet.log, lambda a0, order: [mpmath.log(a0)] + [
        (-1) ** (m + 1) / (m * a0 ** m) for m in range(1, order + 1)]),
    "exp": (Jet.exp, lambda a0, order: [mpmath.exp(a0) / math.factorial(m)
                                        for m in range(order + 1)]),
    "sqrt": (Jet.sqrt, lambda a0, order: power_series(a0, order, mpmath.mpf(0.5))),
    "cpow 1/3": (lambda j: j.cpow(1 / 3),
                 lambda a0, order: power_series(a0, order, mpmath.mpf(1 / 3))),
    "cpow -0.5+0.2i": (lambda j: j.cpow(-0.5 + 0.2j),
                       lambda a0, order: power_series(a0, order, mpmath.mpc(-0.5, 0.2))),
    "reciprocal": (Jet.reciprocal, lambda a0, order: power_series(a0, order, -1)),
}


def exact_rows(jet, series):
    """Per row of jet, {multi-index: mpc} of f(row) for f's `series`."""
    n, order = jet.nvars, jet.order
    out = []
    with mpmath.workdps(DPS):
        for row in (jet.coeffs if jet.depth else [jet.coeffs]):
            a = {idx: mpmath.mpc(complex(row[idx])) for idx in valid_indices(n, order)}
            a0 = a[(0,) * n]
            h = {**a, (0,) * n: mpmath.mpc(0)}
            powers = [{idx: mpmath.mpc(int(not sum(idx))) for idx in a}, h]
            for _ in range(2, order + 1):
                powers.append(mp_product(powers[-1], h, n, order))
            out.append({name: {idx: sum(c * pw[idx] for c, pw in zip(f(a0, order), powers))
                               for idx in a}
                        for name, (_, f) in series.items()})
    return out


def roundoffs(got, exact):
    """The largest distance of got's coefficients from exact, in units of
    EPS times the largest exact coefficient."""
    with mpmath.workdps(DPS):
        scale = max(abs(v) for v in exact.values())
        err = max(abs(mpmath.mpc(complex(got[idx])) - v) for idx, v in exact.items())
        return float(err / (EPS * scale))


def kernel_jets():
    """Seeded jets with +-0.0 planted and a constant term off the branch
    cut: three per nvars in (1, 3) and order 0 to 3, unstacked and as 3 rows."""
    rng = np.random.default_rng(40)
    for nvars in (1, 3):
        for order in range(4):
            for depth in (0, 3):
                for _ in range(3):
                    rows = [valid_jet(rng, nvars, order, row_value(rng)) for _ in range(depth or 1)]
                    yield Jet.stack(rows) if depth else rows[0]


def test_kernels_match_forty_digit_series():
    checked, worst = 0, {}
    for jet in kernel_jets():
        exact = exact_rows(jet, KERNELS)
        for name, (kernel, _) in KERNELS.items():
            got = kernel(jet).coeffs
            for r, want in enumerate(exact):
                size = roundoffs(got[r] if jet.depth else got, want[name])
                assert size <= KERNEL_ROUNDOFFS, (name, jet.nvars, jet.order, jet.depth, r, size)
                worst[name] = max(worst.get(name, 0.0), size)
                checked += 1
    assert checked == len(KERNELS) * 2 * 4 * 3 * (1 + 3)
    assert all(v > 0 for v in worst.values())  # the check reads roundoff, not zeros


# --- the fields ------------------------------------------------------------------

Z, ZB, T = sp.symbols("z zb t")


def conformal_log(kappa):
    return sp.log(Z + ZB) if kappa == 1 else sp.log(Z * ZB + 1)


def liouville_gamma(c, cbar, kappa):
    denominator = c + cbar if kappa == 1 else c * cbar + 1
    return sp.log(sp.diff(c, Z)) + sp.log(sp.diff(cbar, ZB)) - 2 * sp.log(denominator)


def closed_form(family, kappa):
    """u of test_bundle's field of this family and kappa, in (z, zbar, t)."""
    s = sp.I if kappa == 1 else -sp.I  # b = z^2 + s, bbar = zbar^2 - s
    if family == "f0":
        return sp.log(T ** 2 + 1) - 2 * conformal_log(kappa)
    if family == "f0general":
        return sp.log(T ** 2 + T / 2 + 1) + liouville_gamma(Z ** 2 + 1, ZB ** 2 + 1, kappa)
    two_logs = sp.log(T + Z ** 2 + s) + sp.log(T + ZB ** 2 - s)
    if family == "noninv":
        return two_logs - 2 * conformal_log(kappa)
    if family == "general_noninv":
        return two_logs + liouville_gamma(Z ** 2, ZB ** 2, kappa)
    if family == "confinv":
        xi = sp.I * (sp.log(Z) - sp.log(ZB))
        f = (T ** 2 + 1) / xi ** 2 if kappa == 1 else (4 - T ** 2) / xi ** 2
        return sp.log(f) - sp.log(Z) - sp.log(ZB)
    if family == "liouville":
        return liouville_gamma(sp.exp(Z), sp.exp(ZB), kappa)
    # noninv under z = z^2/2: u(phi, phibar, t) + ln phi' + ln phibar'
    inner = closed_form("noninv", kappa)
    return inner.subs({Z: Z ** 2 / 2, ZB: ZB ** 2 / 2}, simultaneous=True) + sp.log(Z) + sp.log(ZB)


def exact_u_jet(u, z0, zb0, t0, order):
    """{multi-index: mpc} of u's Taylor coefficients at (z0, zb0, t0): each
    partial derivative, taken from one of one order lower, over alpha!."""
    derivs = {}
    for idx in valid_indices(3, order):
        if not sum(idx):
            derivs[idx] = u
            continue
        v = next(i for i in range(3) if idx[i])
        lower = tuple(k - (i == v) for i, k in enumerate(idx))
        derivs[idx] = sp.diff(derivs[lower], (Z, ZB, T)[v])
    f = sp.lambdify((Z, ZB, T), list(derivs.values()), modules="mpmath")
    with mpmath.workdps(DPS):
        values = f(mpmath.mpc(z0), mpmath.mpc(zb0), mpmath.mpf(t0))
        return {idx: v / math.prod(map(math.factorial, idx)) for idx, v in zip(derivs, values)}


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_u_jets_match_forty_digit_derivatives(family, kappa):
    p = points(kappa)[0]
    got = build(family, kappa).jet_at(p.z, p.z.conjugate(), p.t, MAX_ORDER)
    exact = exact_u_jet(closed_form(family, kappa), p.z, p.z.conjugate(), p.t, MAX_ORDER)
    size = roundoffs(got.coeffs, exact)
    assert 0 < size <= FIELD_ROUNDOFFS, size


def exact_invariants(u, p):
    """{name: mpc} of the InvariantSet's rho, eta, sigma, sigma_bar and tau
    at p for u, from sympy derivatives of their definitions: rho = e^-u
    u_{z zbar}, eta = e^-u u_{zt} u_{zbar t}, sigma = e^-u u_{zbar t} d_z rho,
    sigma_bar = e^-u u_{zt} d_zbar rho and tau = d_t rho; and lambda_ =
    sigma/eta and lambda_bar = sigma_bar/eta where eta does not vanish."""
    E = sp.exp(-u)
    rho = E * sp.diff(u, Z, ZB)
    a, abar = E * sp.diff(u, ZB, T), E * sp.diff(u, Z, T)
    values = {"rho": rho, "eta": abar * sp.diff(u, ZB, T), "sigma": a * sp.diff(rho, Z),
              "sigma_bar": abar * sp.diff(rho, ZB), "tau": sp.diff(rho, T)}
    f = sp.lambdify((Z, ZB, T), list(values.values()), modules="mpmath")
    with mpmath.workdps(DPS):
        out = dict(zip(values, f(mpmath.mpc(p.z), mpmath.mpc(p.z.conjugate()), mpmath.mpf(p.t))))
        if out["eta"] != 0:
            out["lambda_"], out["lambda_bar"] = out["sigma"] / out["eta"], out["sigma_bar"] / out["eta"]
    return out


def term_sizes(fld, p):
    """{name: the sum of the moduli of the terms of the invariant at p}."""
    terms = RefCalculus(fld, p, of_terms=True)
    sizes = {"rho": terms.jets["Rho"].value, "eta": terms.jets["Eta"].value}
    for name, op in (("sigma", "Delta"), ("sigma_bar", "DeltaBar"), ("tau", "delta"),
                     ("lambda_", "Y"), ("lambda_bar", "Ybar")):
        if terms.inv_eta is not None or op not in ("Y", "Ybar"):
            sizes[name] = terms.applied(op, "Rho").value
    return {name: abs(v) for name, v in sizes.items()}


@pytest.mark.parametrize("kappa", (1, -1))
@pytest.mark.parametrize("family", [f[0] for f in FAMILIES])
def test_invariants_match_forty_digit_derivatives(family, kappa):
    p = points(kappa)[0]
    fld = build(family, kappa)
    s = invariants_at(fld, p)
    exact = exact_invariants(closed_form(family, kappa), p)
    sizes = term_sizes(fld, p)
    if exact["eta"] == 0:
        # f0, f0general, liouville and confinv: a vanishing eta is reported
        # as such, whatever roundoff it reads (confinv's is 8.4e-32)
        assert s.eta_vanishes
        del exact["eta"]
    assert ("lambda_" in exact) == (not s.eta_vanishes)
    with mpmath.workdps(DPS):
        for name, want in exact.items():
            err = abs(mpmath.mpc(complex(getattr(s, name))) - want)
            assert err <= INVARIANT_ROUNDOFFS * EPS * sizes[name], (name, float(err), sizes[name])
