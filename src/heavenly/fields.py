"""Closed-form solution families of u_{z zbar} = kappa (e^u)_{tt}.

Each family builds the jet of u at a point by composing expression jets
with the truncated-Taylor engine.  Jets live in the variables (z, zbar, t)
with zbar = conj(z) fixed on the physical slice; domain conditions are
checked at evaluation time because they depend on the sampled point.

A piece of a build that depends on one variable (b(z), c(z) and c'(z),
a(z), A(z), phi(z) and phi'(z), the zbar partners of all but b, t^2 + C
and l*t^2 + C1*t + C2, and the logarithms of such pieces) stays a
univariate jet, evaluated once on a univariate seed of its coordinate,
until it meets a piece in another variable: `jet.on_axes` then places it
on its axis of a jet in (z, zbar, t).  c and phi are evaluated one order
higher, which gives both themselves and their derivatives; every other
piece at the build's order.  The pushforward composes its source's jet
with the univariate jets of phi, phibar and t (`jet.compose3`).

On the physical slice the two-logarithm families take ln(t + bbar(zbar))
as ln(t + b(z)) conjugated with its z and zbar axes swapped, and never
evaluate bbar (`_two_logs`); off the slice they evaluate it.  The
univariate partners cbar, abar, Abar and phibar stay evaluated: their
conjugates differ from them in the sign of zeros (at z = -1.5 + 0j, cbar
of c = z^2 at -1.5 - 0j has imaginary zeros of +0 where conj(c) has -0),
and the builds would not keep their bits.

A builder takes the point's coordinates as scalars, or as tuples of one
coordinate per point for a stacked pass (`SolutionField.jets_at`).  It
never asks which: the same code builds one jet or every point's jet as one
row of stacked jets, and each domain check reads the constant term of the
jet it guards, row by row, before that jet goes to a logarithm.

A field's store (`sweeps.PointStore`) keeps one u-jet per point: the row
a pass stored for the point, at the order of the pass, or else one build
at the engine's ceiling MAX_ORDER, which also replaces a row of lower
order than a request.  `eval_u` serves a lower order as that jet's
truncation.  In a truncated Taylor algebra the lower-order jet is the
higher one with its top coefficients dropped, and the engine computes it
with the same bits.  A loop over many points fills the store chunk by
chunk from stacked builds (`sweeps.in_sweeps`, `u_jets`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from struct import pack

from . import expr as ex
from .errors import DomainError, FamilyParamMismatch, SingularMap
from .families import FAMILY_PARAMS
from .jet import Jet, compose3, on_axes, row_values, swapped_conjugate
from .sweeps import PointStore

#: variable ordering of all field jets
VZ, VZB, VT = 0, 1, 2
#: the highest order of a u-jet: the engine's ceiling, all that x2, the
#: InvariantSet and the commutators (first partials of order-1 operator
#: coefficients) read; `eval_u` builds this order when its store holds no
#: u-jet of the order requested or higher
MAX_ORDER = 3

SINGULAR_TOL = 1e-8


@dataclass(frozen=True)
class Point:
    t: float
    z: complex

    @cached_property
    def key(self) -> tuple:
        """The `PointStore` key: the types and bits of t and z, which tell
        apart the points that == merges (0.0 and -0.0, 1 and 1.0)."""
        return type(self.t), type(self.z), pack("<3d", self.t, self.z.real, self.z.imag)


@dataclass(frozen=True)
class SolutionField:
    """Evaluator for one solution family (or a conformal transform of one).

    The field keeps what it computed at physical-slice points in one
    `PointStore`, by name: a point's u-jet under "u" (`eval_u`), a
    generator's first derivatives with the Expr they came from under "a'"
    (`symmetry.x2_apply`), and the invariants layer's "calculus",
    "invariants" and "commutators".  So a run of calls at one point builds
    each of them once, and a loop over a pass's points reads what the pass
    computed for them.
    """

    family: str
    kappa: int
    params: dict = dc_field(default_factory=dict)
    _builder: object = None  # (z0, zb0, t0, order) -> Jet
    store: PointStore = dc_field(default_factory=PointStore, init=False, repr=False, compare=False)

    def jet_at(self, z0: complex, zb0: complex, t0: float, order: int) -> Jet:
        """u-jet at a possibly off-slice point (zbar independent of z); never stored."""
        return self._builder(z0, zb0, t0, order)

    def jets_at(self, points: list[Point], order: int) -> Jet:
        """u-jets of physical-slice points in one stacked pass: row r is
        bit for bit ``eval_u(self, points[r], order)``.  Raises if building
        the jet at any of the points raises; never stored."""
        _check_order(order)
        zs = tuple(p.z for p in points)
        return self._builder(zs, tuple(z.conjugate() for z in zs),
                             tuple(p.t for p in points), order)


def u_jets(order: int):
    """A pass build (`sweeps.in_sweeps`): each point's u-jet of this order,
    as one row of `jets_at`."""
    return lambda field, points: [{"u": row} for row in field.jets_at(points, order).rows()]


def _seed(value, order: int) -> Jet:
    """Univariate seed jet of one coordinate (a tuple of one per row for a
    stacked pass)."""
    return Jet.variable(0, value, 1, order)


def _on(e: ex.Expr, seed: Jet) -> Jet:
    """A one-variable expression's univariate jet on a seed from `_seed`:
    one evaluation per point, or one stacked evaluation per pass."""
    return ex.evaluate(e, {e.variables[0]: seed})


def _derivative(e1: Jet) -> Jet:
    """Univariate jet of e' from e's univariate jet e1, one order higher.

    Its coefficients are (k + 1) e_{k+1}.  Above order 0 the constant term
    also gets 0j times each coefficient of degree 1 and up, which is what
    composing that series with z - z0 adds to it: a zero real or imaginary
    part of e' then has the sign it has in the composed series, and a
    logarithm of e' on its branch cut keeps its branch."""
    d = e1.derivative(0)
    if not d.order:
        return d
    zero = 0j * d.coeffs[..., 1]
    for k in range(2, d.order + 1):  # in turn: a sum from +0 would drop a -0
        zero = zero + 0j * d.coeffs[..., k]
    return d + (tuple(zero.tolist()) if d.depth else complex(zero))


def _bar(e: ex.Expr) -> ex.Expr:
    return ex.conjugate(e)


def _ln(j: Jet, what: str) -> Jet:
    try:
        return j.log()
    except Exception as err:
        raise DomainError(f"log argument singular in {what}: {err}") from err


def _check_nonzero(j: Jet, what: str):
    """DomainError where the constant term of j (of any row) vanishes."""
    for v in row_values(j.value):
        if abs(v) < SINGULAR_TOL:
            raise DomainError(f"{what} vanishes at the evaluation point")


def _two_logs(b: ex.Expr, bbar: ex.Expr, z0, zb0, t0, order: int) -> Jet:
    """ln(t + b(z)) + ln(t + bbar(zbar)), the core of the two-logarithm
    families, from b and its partner bbar at (z0, zb0, t0).

    On the physical slice, where every row's zb0 is conj(z0) bit for bit
    (`_on_slice`), ln(t + bbar(zbar)) is ln(t + b(z)) conjugated with its z
    and zbar axes swapped (`jet.swapped_conjugate`), and bbar is not
    evaluated: the principal logarithm commutes with conjugation once
    signed zeros are respected (Kahan, "Branch cuts for complex elementary
    functions", 1987).  Every other call evaluates bbar."""
    t = _seed(t0, order)
    tb = on_axes(_on(b, _seed(z0, order)), None, t)
    _check_nonzero(tb, "t + b(z)")
    if _on_slice(z0, zb0):
        ln_tb = _ln(tb, "t + b(z)")
        return ln_tb + swapped_conjugate(ln_tb)
    tbb = on_axes(None, _on(bbar, _seed(zb0, order)), t)
    _check_nonzero(tbb, "t + bbar(zbar)")
    return _ln(tb, "t + b(z)") + _ln(tbb, "t + bbar(zbar)")


def _on_slice(z0, zb0) -> bool:
    """Whether zb0 is conj(z0) bit for bit in every row: equal real parts
    and negated imaginary parts, the sign of a zero counted (1.2 + 0j is
    == its conjugate, but is not it)."""
    zs, zbs = row_values(z0), row_values(zb0)
    if len(zs) != len(zbs):
        return False
    for z, zb in zip(zs, zbs):
        w = complex(z).conjugate()
        if not (w == zb and math.copysign(1.0, w.real) == math.copysign(1.0, zb.real)
                and math.copysign(1.0, w.imag) == math.copysign(1.0, zb.imag)):
            return False
    return True


def _conformal_log(kappa: int, z0, zb0, order: int) -> Jet:
    """ln(z + zbar) for kappa = 1, ln(z*zbar + 1) for kappa = -1; f0 and
    noninv add -2 times it."""
    if kappa == 1:
        arg, what = on_axes(_seed(z0, order), _seed(zb0, order)), "z + zbar"
    else:
        arg = Jet.variable(VZ, z0, 3, order) * Jet.variable(VZB, zb0, 3, order) + 1.0
        what = "z*zbar + 1"
    _check_nonzero(arg, what)
    return _ln(arg, what)


def _liouville_gamma(c: ex.Expr, cbar: ex.Expr, kappa: int, z0, zb0, order: int,
                     name: str) -> Jet:
    """ln c' + ln cbar' - 2 ln(c + cbar) for kappa = 1, with c*cbar + 1 in
    the last logarithm for kappa = -1; name is c's parameter name, which
    the exclusion messages use.  c and cbar are evaluated once, one order
    higher, and give both themselves and their derivatives.

    gamma = ln(c' cbar' / (c + cbar)^2) is real and finite where c' and
    cbar' are both negative real, or the denominator is: there the
    logarithms take the real branch, row by row (`_real_branch_logs`).
    ln(-denominator) drops an i*pi whose -2 i*pi leaves e^u and every
    derivative unchanged.
    """
    c1 = _on(c, _seed(z0, order + 1))
    cb1 = _on(cbar, _seed(zb0, order + 1))
    cj, cbj = c1.truncated(order), cb1.truncated(order)
    if kappa == 1:
        denom = on_axes(cj, cbj)
        _check_nonzero(denom, f"{name}(z) + {name}bar(zbar)")
    else:
        denom = on_axes(cj) * on_axes(None, cbj) + 1.0
        _check_nonzero(denom, f"{name}(z)*{name}bar(zbar) + 1")
    ln_cd, ln_cbd = _real_branch_logs(_derivative(c1), _derivative(cb1), f"{name}'",
                                      f"{name}bar'")
    try:
        ln_denom = _ln(denom, "Liouville denominator")
    except DomainError:
        below = [_negative_real(v) for v in row_values(denom.value)]
        if not any(below):
            raise
        ln_denom = _ln(_negated(denom, below), "Liouville denominator")
    return on_axes(ln_cd, ln_cbd) - 2.0 * ln_denom


def _real_branch_logs(d: Jet, db: Jet, what: str, whatbar: str) -> tuple[Jet, Jet]:
    """ln d and ln db of a derivative and its conjugate partner, for the real
    ln(d db): rows where both are negative real take ln(-d) and ln(-db), the
    principal sum less its two i*pi, which cancel (Kahan, "Branch cuts for
    complex elementary functions", 1987).  Every other row keeps the
    principal logarithms' bits: they are tried first."""
    try:
        return _ln(d, what), _ln(db, whatbar)
    except DomainError:
        both = [_negative_real(v) and _negative_real(vb)
                for v, vb in zip(row_values(d.value), row_values(db.value))]
        if not any(both):
            raise
    return _ln(_negated(d, both), what), _ln(_negated(db, both), whatbar)


def _negative_real(w: complex) -> bool:
    return w.imag == 0.0 and w.real < 0.0


def _negated(j: Jet, rows: list[bool]) -> Jet:
    """j with the rows flagged in rows negated, every other row as it is."""
    if not any(rows):
        return j
    if not j.depth:
        return -j
    return Jet.stack([-r if flip else r for r, flip in zip(j.rows(), rows)])


def make_solution(family: str, params: dict, kappa: int) -> SolutionField:
    """Construct a solution-family evaluator.

    `params` holds the family's parameters as listed in FAMILY_PARAMS.  The
    conjugate-partner expressions (abar, bbar, ...) are built here once,
    not per point.
    """
    if kappa not in (1, -1):
        raise FamilyParamMismatch(f"kappa must be +1 or -1, got {kappa}")
    if family not in FAMILY_PARAMS:
        raise FamilyParamMismatch(f"unknown family {family!r}")
    for n in FAMILY_PARAMS[family]:
        if n not in params:
            raise FamilyParamMismatch(f"family {family!r} requires parameter {n!r}")

    if family == "f0":
        C = float(params["C"])

        def build(z0, zb0, t0, order):
            t = _seed(t0, order)
            arg = t * t + C
            for v in row_values(arg.value):
                if v.real <= 0:
                    raise DomainError("t^2 + C must be positive")
            return (on_axes(None, None, _ln(arg, "t^2 + C"))
                    - 2.0 * _conformal_log(kappa, z0, zb0, order))

    elif family == "f0general":
        l = float(params["l"])
        C1, C2 = float(params["C1"]), float(params["C2"])
        a = params["a"]
        abar = _bar(a)
        if l <= 0:
            raise FamilyParamMismatch("separation constant l must be positive")

        def build(z0, zb0, t0, order):
            t = _seed(t0, order)
            alpha = on_axes(None, None, _ln(l * t * t + C1 * t + C2, "l*t^2 + C1*t + C2"))
            return alpha + (_liouville_gamma(a, abar, kappa, z0, zb0, order, "a") - math.log(l))

    elif family == "noninv":
        b = params["b"]
        bbar = _bar(b)

        def build(z0, zb0, t0, order):
            return (_two_logs(b, bbar, z0, zb0, t0, order)
                    - 2.0 * _conformal_log(kappa, z0, zb0, order))

    elif family == "general_noninv":
        b, c = params["b"], params["c"]
        bbar, cbar = _bar(b), _bar(c)

        def build(z0, zb0, t0, order):
            return (_two_logs(b, bbar, z0, zb0, t0, order)
                    + _liouville_gamma(c, cbar, kappa, z0, zb0, order, "c"))

    elif family == "confinv":
        # u = ln f(xi, t) - ln a(z) - ln abar(zbar), xi = i(A(z) - Abar(zbar))
        f, A, a = params["f"], params["A"], params["a"]
        Abar, abar = _bar(A), _bar(a)

        def build(z0, zb0, t0, order):
            z, zb = _seed(z0, order), _seed(zb0, order)
            xi = 1j * on_axes(_on(A, z), -_on(Abar, zb))
            fj = ex.evaluate(f, {"xi": xi, "t": Jet.variable(VT, t0, 3, order)})
            aj = _on(a, z)
            abj = _on(abar, zb)
            _check_nonzero(aj, "a(z)")
            _check_nonzero(abj, "abar(zbar)")
            return (_ln(fj, "f(xi, t)") - on_axes(_ln(aj, "a(z)"))
                    - on_axes(None, _ln(abj, "abar(zbar)")))

    elif family == "liouville":
        c = params["c"]
        cbar = _bar(c)

        def build(z0, zb0, t0, order):
            return _liouville_gamma(c, cbar, kappa, z0, zb0, order, "c")

    return SolutionField(family=family, kappa=kappa, params=dict(params), _builder=build)


def eval_u(field: SolutionField, p: Point, order: int) -> Jet:
    """Jet of u at a physical-slice point (zbar = conj z).

    The field's store keeps one u-jet for p, shared by every later call at
    the point: the row a pass stored, or else one order-MAX_ORDER build,
    which also replaces a stored row of lower order than this request.  A
    lower order is that jet's truncation.  Every jet operation computes
    each coefficient from the coefficients of no higher degree, in the same
    sequence at every order, so the truncation is bit for bit the jet
    built at that order.
    """
    _check_order(order)
    u = field.store.stored(p, "u")
    if u is None or u.order < order:
        u = field.jet_at(p.z, p.z.conjugate(), p.t, MAX_ORDER)
        field.store.put(p, "u", u)
    return u if u.order == order else u.truncated(order)


def _check_order(order: int) -> None:
    if order not in range(MAX_ORDER + 1):
        raise FamilyParamMismatch(f"jet order must be <= {MAX_ORDER}, got {order}")


def _check_map(z0, pd: Jet) -> None:
    """SingularMap where phi' (the jet pd at z0, a tuple for a stacked pass)
    vanishes, in any row."""
    for z, d in zip(row_values(z0), row_values(pd.value)):
        if abs(d) < SINGULAR_TOL:
            raise SingularMap(f"phi'({complex(z)}) = {d} within tolerance")


def conformal_pushforward(fld: SolutionField, phi: ex.Expr) -> SolutionField:
    """Transform a solution by z = phi(ztilde).

    The new field is u(phi(ztilde), phibar(zbartilde), t) + ln(phi' phibar'),
    which preserves the PDE residual and the invariants rho, eta at
    corresponding points; its logarithms are `_real_branch_logs`.
    """
    phibar = _bar(phi)

    def build(z0, zb0, t0, order):
        p1 = _on(phi, _seed(z0, order + 1))
        pb1 = _on(phibar, _seed(zb0, order + 1))
        pj, pbj = p1.truncated(order), pb1.truncated(order)
        pd, pbd = _derivative(p1), _derivative(pb1)
        _check_map(z0, pd)
        w0, wb0 = pj.value, pbj.value
        inner = fld.jet_at(w0, wb0, t0, order)
        composed = compose3(inner, pj - w0, pbj - wb0, _seed(t0, order) - t0)
        ln_pd, ln_pbd = _real_branch_logs(pd, pbd, "phi'", "phibar'")
        return composed + on_axes(ln_pd) + on_axes(None, ln_pbd)

    return SolutionField(family="pushforward", kappa=fld.kappa,
                         params={"inner": fld, "phi": phi}, _builder=build)
