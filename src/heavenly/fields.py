"""Closed-form solution families of u_{z zbar} = kappa (e^u)_{tt}.

Each family builds the jet of u at a point by composing expression jets
with the truncated-Taylor engine.  Jets live in the variables (z, zbar, t)
with zbar = conj(z) fixed on the physical slice; domain conditions are
checked at evaluation time because they depend on the sampled point.

A builder takes the point's coordinates as scalars, or as tuples of one
coordinate per point for a stacked pass (`SolutionField.jets_at`).  It
never asks which: the same code builds one jet or every point's jet as one
row of stacked jets, and each domain check reads the constant term of the
jet it guards, row by row, before that jet goes to a logarithm.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

from . import expr as ex
from .errors import SWEEP_FALLBACK, DomainError, FamilyParamMismatch, SingularMap
from .families import FAMILY_PARAMS
from .jet import Jet, compose3, compose_series, row_series, row_values

#: variable ordering of all field jets
VZ, VZB, VT = 0, 1, 2

SINGULAR_TOL = 1e-8


@dataclass(frozen=True)
class Point:
    t: float
    z: complex


class PointBundle:
    """Everything computed for one field at one physical-slice point.

    Values are stored under a name: the u-jets under their exact order (an
    int), other layers' quantities under a string (the invariants layer
    keeps its ``JetCalculus`` and ``InvariantSet`` here).  A value is stored
    only after it was built; a build that raises stores nothing, so the
    next call raises again.
    """

    __slots__ = ("key", "_values")

    def __init__(self, key: str):
        self.key = key
        self._values: dict = {}

    def get(self, name, build):
        """The value stored under name, built by build() on first use."""
        values = self._values
        if name not in values:
            values[name] = build()
        return values[name]


@dataclass(frozen=True)
class SolutionField:
    """Evaluator for one solution family (or a conformal transform of one).

    The field keeps one derivative bundle (``PointBundle``) for the most
    recent point it was evaluated at on the physical slice, so a run of
    calls at one point builds each u-jet, the invariant jets and the
    invariants once.  Moving to another point replaces the whole bundle, key
    and values together; memory is one point per field, plus, inside a
    `sweep` block, one bundle per point of the sweep.  Bundled values are
    shared between calls and must be treated as immutable (jets are).
    """

    family: str
    kappa: int
    params: dict = dc_field(default_factory=dict)
    _builder: object = None  # (z0, zb0, t0, order) -> Jet
    _bundle: PointBundle | None = dc_field(default=None, init=False, repr=False,
                                           compare=False)
    _swept: dict | None = dc_field(default=None, init=False, repr=False, compare=False)

    def jet_at(self, z0: complex, zb0: complex, t0: float, order: int) -> Jet:
        """u-jet at a possibly off-slice point (zbar independent of z); never bundled."""
        return self._builder(z0, zb0, t0, order)

    def jets_at(self, points: list[Point], order: int) -> Jet:
        """u-jets of physical-slice points in one stacked pass: row r is
        bit for bit ``eval_u(self, points[r], order)``.  Raises if building
        the jet at any of the points raises; never bundled."""
        _check_order(order)
        zs = tuple(p.z for p in points)
        return self._builder(zs, tuple(z.conjugate() for z in zs),
                             tuple(p.t for p in points), order)

    def bundle_at(self, p: Point) -> PointBundle:
        """The derivative bundle of point p: a sweep's bundle for p inside a
        `sweep` block, else the field's one bundle, replacing the previous
        point's."""
        key = _bundle_key(p)
        if self._swept is not None and key in self._swept:
            return self._swept[key]
        bundle = self._bundle
        if bundle is None or bundle.key != key:
            bundle = PointBundle(key)
            object.__setattr__(self, "_bundle", bundle)
        return bundle

    @contextmanager
    def sweep(self, points: list[Point], build):
        """Compute what a loop over points needs in one stacked pass.

        build(field, points) returns one dict per point of bundle values
        (name -> value, as `PointBundle.get` stores them), all computed
        together.  Inside the block each of those points has its own bundle
        holding them, so the loop's per-point calls read them instead of
        building each point alone; everything else they need is built per
        point as usual.  If build raises (`SWEEP_FALLBACK`), the block runs
        with no sweep bundles, point by point, and so raises or excludes
        exactly what the per-point path does.  The bundles go when the
        block ends.
        """
        swept = None
        if points:
            try:
                values = build(self, points)
            except SWEEP_FALLBACK:
                pass
            else:
                swept = {}
                for p, named in zip(points, values):
                    key = _bundle_key(p)
                    bundle = swept.setdefault(key, PointBundle(key))
                    for name, value in named.items():
                        bundle.get(name, lambda: value)
        outer = self._swept
        if swept is not None:
            object.__setattr__(self, "_swept", swept)
        try:
            yield
        finally:
            object.__setattr__(self, "_swept", outer)


def _bundle_key(p: Point) -> str:
    # repr tells apart the values that == merges (0.0 and -0.0, 1 and 1.0)
    return repr((p.t, p.z))


def u_jets(order: int):
    """A `SolutionField.sweep` build: each point's u-jet of this order, as
    one row of `jets_at`."""
    return lambda field, points: [{order: row} for row in field.jets_at(points, order).rows()]


def _seeds(z0: complex, zb0: complex, t0: float, order: int):
    return (Jet.variable(VZ, z0, 3, order), Jet.variable(VZB, zb0, 3, order),
            Jet.variable(VT, t0, 3, order))


def _expr_at(e: ex.Expr, seed: Jet) -> Jet:
    """Holomorphic expression of one variable on a seed jet from `_seeds`."""
    return ex.evaluate(e, {e.variables[0]: seed})


def _derivative_series(z0: complex, order: int, e: ex.Expr) -> list[complex]:
    """Taylor coefficients of e' at z0, from a one-order-higher univariate
    expansion of e."""
    uni = ex.eval_jet1(e, z0, order + 1)
    return [(k + 1) * uni.coefficient((k + 1,)) for k in range(order + 1)]


def _expr_deriv_at(e: ex.Expr, seed: Jet) -> Jet:
    """Jet of e' on a seed jet (each row's series at its own point)."""
    z0 = seed.value
    return compose_series(row_series(_derivative_series, z0, seed.order, e), seed - z0)


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


def _two_logs(b: ex.Expr, bbar: ex.Expr, Z: Jet, Zb: Jet, T: Jet) -> Jet:
    """ln(t + b(z)) + ln(t + bbar(zbar)), the core of the two-logarithm families."""
    tb = T + _expr_at(b, Z)
    tbb = T + _expr_at(bbar, Zb)
    _check_nonzero(tb, "t + b(z)")
    _check_nonzero(tbb, "t + bbar(zbar)")
    return _ln(tb, "t + b(z)") + _ln(tbb, "t + bbar(zbar)")


def _conformal_log(kappa: int, Z: Jet, Zb: Jet) -> Jet:
    """ln(z + zbar) for kappa = 1, ln(z*zbar + 1) for kappa = -1; f0 and
    noninv add -2 times it."""
    if kappa == 1:
        arg, what = Z + Zb, "z + zbar"
    else:
        arg, what = Z * Zb + 1.0, "z*zbar + 1"
    _check_nonzero(arg, what)
    return _ln(arg, what)


def _liouville_gamma(c: ex.Expr, cbar: ex.Expr, kappa: int, Z: Jet, Zb: Jet,
                     name: str) -> Jet:
    """ln c' + ln cbar' - 2 ln(c + cbar) for kappa = 1, with c*cbar + 1 in
    the last logarithm for kappa = -1; name is c's parameter name, which
    the exclusion messages use.

    gamma = ln(c' cbar' / (c + cbar)^2) is real and finite where c' and
    cbar' are both negative real, or the denominator is: there the
    logarithms take the real branch, row by row (Kahan, "Branch cuts for
    complex elementary functions", 1987).  ln(-c') + ln(-cbar') is the
    principal sum less its two i*pi, which cancel, and ln(-denominator)
    drops an i*pi whose -2 i*pi leaves e^u and every derivative unchanged.
    Every other row keeps the principal logarithms' bits: they are tried
    first, and the real branch is taken only where they meet the cut.
    """
    cj = _expr_at(c, Z)
    cbj = _expr_at(cbar, Zb)
    cd = _expr_deriv_at(c, Z)
    cbd = _expr_deriv_at(cbar, Zb)
    if kappa == 1:
        denom = cj + cbj
        _check_nonzero(denom, f"{name}(z) + {name}bar(zbar)")
    else:
        denom = cj * cbj + 1.0
        _check_nonzero(denom, f"{name}(z)*{name}bar(zbar) + 1")
    try:
        return (_ln(cd, f"{name}'") + _ln(cbd, f"{name}bar'")
                - 2.0 * _ln(denom, "Liouville denominator"))
    except DomainError:
        # a logarithm met the branch cut; the rows where that was a
        # negative real pair or denominator take the real branch
        both = [_negative_real(v) and _negative_real(vb)
                for v, vb in zip(row_values(cd.value), row_values(cbd.value))]
        below = [_negative_real(v) for v in row_values(denom.value)]
        if not (any(both) or any(below)):
            raise
    return (_ln(_negated(cd, both), f"{name}'") + _ln(_negated(cbd, both), f"{name}bar'")
            - 2.0 * _ln(_negated(denom, below), "Liouville denominator"))


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
            Z, Zb, T = _seeds(z0, zb0, t0, order)
            arg = T * T + C
            for v in row_values(arg.value):
                if v.real <= 0:
                    raise DomainError("t^2 + C must be positive")
            return _ln(arg, "t^2 + C") - 2.0 * _conformal_log(kappa, Z, Zb)

    elif family == "f0general":
        l = float(params["l"])
        C1, C2 = float(params["C1"]), float(params["C2"])
        a = params["a"]
        abar = _bar(a)
        if l <= 0:
            raise FamilyParamMismatch("separation constant l must be positive")

        def build(z0, zb0, t0, order):
            Z, Zb, T = _seeds(z0, zb0, t0, order)
            alpha = _ln(l * T * T + C1 * T + C2, "l*t^2 + C1*t + C2")
            return alpha + (_liouville_gamma(a, abar, kappa, Z, Zb, "a") - math.log(l))

    elif family == "noninv":
        b = params["b"]
        bbar = _bar(b)

        def build(z0, zb0, t0, order):
            Z, Zb, T = _seeds(z0, zb0, t0, order)
            return _two_logs(b, bbar, Z, Zb, T) - 2.0 * _conformal_log(kappa, Z, Zb)

    elif family == "general_noninv":
        b, c = params["b"], params["c"]
        bbar, cbar = _bar(b), _bar(c)

        def build(z0, zb0, t0, order):
            Z, Zb, T = _seeds(z0, zb0, t0, order)
            return _two_logs(b, bbar, Z, Zb, T) + _liouville_gamma(c, cbar, kappa, Z, Zb, "c")

    elif family == "confinv":
        # u = ln f(xi, t) - ln a(z) - ln abar(zbar), xi = i(A(z) - Abar(zbar))
        f, A, a = params["f"], params["A"], params["a"]
        Abar, abar = _bar(A), _bar(a)

        def build(z0, zb0, t0, order):
            Z, Zb, T = _seeds(z0, zb0, t0, order)
            Aj = _expr_at(A, Z)
            Abj = _expr_at(Abar, Zb)
            xi = 1j * (Aj - Abj)
            fj = ex.evaluate(f, {"xi": xi, "t": T})
            aj = _expr_at(a, Z)
            abj = _expr_at(abar, Zb)
            _check_nonzero(aj, "a(z)")
            _check_nonzero(abj, "abar(zbar)")
            return _ln(fj, "f(xi, t)") - _ln(aj, "a(z)") - _ln(abj, "abar(zbar)")

    elif family == "liouville":
        c = params["c"]
        cbar = _bar(c)

        def build(z0, zb0, t0, order):
            Z, Zb, _T = _seeds(z0, zb0, t0, order)
            return _liouville_gamma(c, cbar, kappa, Z, Zb, "c")

    return SolutionField(family=family, kappa=kappa, params=dict(params), _builder=build)


def eval_u(field: SolutionField, p: Point, order: int) -> Jet:
    """Jet of u at a physical-slice point (zbar = conj z).

    Read from the field's bundle for p: each order is built once per point
    and returned, shared, to every later call at the same point.  A lower
    order is built directly, never truncated from a higher one, because a
    truncated jet can differ from it in the last bit.
    """
    _check_order(order)
    return field.bundle_at(p).get(
        order, lambda: field.jet_at(p.z, p.z.conjugate(), p.t, order))


def _check_order(order: int) -> None:
    if order not in (0, 1, 2, 3, 4):
        raise FamilyParamMismatch(f"jet order must be <= 4, got {order}")


def _check_map(Z: Jet, pd: Jet) -> None:
    """SingularMap where phi' (the jet pd on the seed Z) vanishes, in any row."""
    for z0, d in zip(row_values(Z.value), row_values(pd.value)):
        if abs(d) < SINGULAR_TOL:
            raise SingularMap(f"phi'({z0}) = {d} within tolerance")


def conformal_pushforward(fld: SolutionField, phi: ex.Expr) -> SolutionField:
    """Transform a solution by z = phi(ztilde).

    The new field is u(phi(ztilde), phibar(zbartilde), t) + ln(phi' phibar'),
    which preserves the PDE residual and the invariants rho, eta at
    corresponding points.
    """
    phibar = _bar(phi)

    def build(z0, zb0, t0, order):
        Z, Zb, T = _seeds(z0, zb0, t0, order)
        pj = _expr_at(phi, Z)
        pbj = _expr_at(phibar, Zb)
        pd = _expr_deriv_at(phi, Z)
        pbd = _expr_deriv_at(phibar, Zb)
        _check_map(Z, pd)
        w0, wb0 = pj.value, pbj.value
        inner = fld.jet_at(w0, wb0, t0, order)
        composed = compose3(inner, pj - w0, pbj - wb0, T - T.value)
        return composed + _ln(pd, "phi'") + _ln(pbd, "phibar'")

    return SolutionField(family="pushforward", kappa=fld.kappa,
                         params={"inner": fld, "phi": phi}, _builder=build)
