"""Command-line front end: build solution families from user expressions,
run verification and classification suites over grids, and emit
deterministic JSON or CSV reports.

Each subcommand imports the modules it runs when it runs, so a
`heavenly resolving` process never loads the field, invariant, symmetry or
classification modules.  Every subcommand checks its points as stacked
passes (`sweeps.in_sweeps`): before each chunk of points, one stacked build
fills the per-point store of the fields or resolving functions it reads.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import random
import sys
import warnings
from dataclasses import replace

from . import __version__
from . import expr as ex
from .errors import POINT_EXCLUSIONS, SWEEP_FALLBACK, FVanishes, HeavenlyError, ParseError
from .families import FAMILY_PARAMS
from .jet import PASS_POINTS
from .sweeps import in_sweeps

SCHEMA = "foliation-report/1"
DEFAULT_TOL = 1e-9

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


# --- serialization helpers ------------------------------------------------

def _num(v):
    """JSON-friendly value: float stays float, complex becomes [re, im]."""
    if isinstance(v, complex):
        if v.imag == 0:
            return v.real
        return [v.real, v.imag]
    return float(v)


def _where(p) -> dict:
    return {"t": p.t, "re": p.z.real, "im": p.z.imag}


def _emit(report: dict, args, columns: tuple[str, ...]) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([*columns, "kind", "value"])
        for rec in report["records"]:
            for kind in sorted(rec["residuals"]):
                writer.writerow([*rec["point"].values(), kind, rec["residuals"][kind]])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_report(args, family, parameters) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": args.command,
        "kappa": args.kappa,
        "family": family,
        "parameters": parameters,
        "tolerance": args.tol,
        "seed": args.seed,
        "records": [],
        "excluded": {"count": 0, "reasons": {}},
        "summary": {},
    }


def _exclude(report, reason):
    exc = report["excluded"]
    exc["count"] += 1
    exc["reasons"][reason] = exc["reasons"].get(reason, 0) + 1


def _run(report, points, check, passes) -> None:
    """One record per point, {"point": ..., **check(p)}; a point where check
    raises one of POINT_EXCLUSIONS is counted under the error's message.
    The points go in chunks, each after the (field, points, build) passes
    that passes(chunk) lists (`sweeps.in_sweeps`), so the records and
    exclusions are those of the per-point loop.
    """
    for p in in_sweeps(points, passes):
        try:
            rec = check(p)
        except POINT_EXCLUSIONS as err:
            _exclude(report, str(err))
            continue
        report["records"].append({"point": _where(p), **rec})


def _worst(values) -> float:
    """The largest of values, NaN if any is NaN: `max` drops a NaN that
    is not first."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _finish(report, args, columns=("t", "re", "im")) -> int:
    """Sort the records by point, sum up and emit the report; columns name
    the coordinates of the record points, in the order each point holds
    them (`_where`'s by default).  A NaN residual makes its kind's maximum
    NaN, which fails the report."""
    report["records"].sort(key=lambda rec: tuple(rec["point"].values()))
    residuals = {}
    for rec in report["records"]:
        for kind, val in rec["residuals"].items():  # every check stores an abs(...) float
            residuals.setdefault(kind, []).append(val)
    maxima = {kind: _worst(values) for kind, values in residuals.items()}
    report["summary"]["max_residuals"] = maxima
    # a report in which nothing was checked does not pass
    ok = bool(report["records"]) and all(v <= args.tol for v in maxima.values())
    ok = ok and report["summary"].get("pass", True)
    report["summary"]["pass"] = ok
    _emit(report, args, columns)
    return EXIT_PASS if ok else EXIT_FAIL


# --- argument parsing -----------------------------------------------------

def parse_grid(spec: str) -> list:
    """Grid spec "t=a:b:n,re=a:b:n,im=a:b:n" -> inclusive product grid of
    `fields.Point`s.

    Each of t, re and im is given once, with finite bounds."""
    from .fields import Point
    ranges = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"malformed grid component {part!r}")
        key, _, rng = part.partition("=")
        if key not in ("t", "re", "im"):
            raise ValueError(f"unknown grid component {key!r}")
        if key in ranges:
            raise ValueError(f"grid component {key!r} given twice")
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise ValueError(f"range {rng!r} is not start:stop:count")
        start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"bounds must be finite in {part!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1 in {part!r}")
        if count == 1:
            ranges[key] = [start]
        else:
            step = (stop - start) / (count - 1)
            ranges[key] = [start + k * step for k in range(count)]
    missing = {"t", "re", "im"} - set(ranges)
    if missing:
        raise ValueError(f"grid is missing components: {sorted(missing)}")
    return [Point(t, complex(x, y))
            for t in ranges["t"] for x in ranges["re"] for y in ranges["im"]]


def _expr_arg(flag: str, text: str, variables: tuple[str, ...] = ()) -> ex.Expr:
    """flag's expression text over variables.  Each part that reads no
    variable must have a finite value, or the residuals would be NaN (inner
    parts are checked first); a part whose evaluation raises (ln(0)) raises."""
    e = ex.parse(text, variables)

    def variable_free(node) -> bool:
        children = [c for c in vars(node).values() if isinstance(c, ex.Node)]
        free = all([variable_free(c) for c in children]) and not isinstance(node, ex.Var)
        if free and children:
            try:
                value = ex.evaluate_value(ex.Expr(node, ()), {})
            except OverflowError:  # cmath's, from exp
                value = complex("inf")
            if not cmath.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {text!r}: "
                                 f"{ex.pretty(node)} is {value}")
        return free

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's, on overflow
        variable_free(e.root)
    return e


def _const_arg(flag: str, text: str) -> complex:
    """The value of flag's constant expression text (`_expr_arg`)."""
    return ex.evaluate_value(_expr_arg(flag, text), {})


def _family_from_args(args):
    """(field, family name, parameter echo) from the family flags."""
    from .fields import make_solution
    fam = args.family
    params = {}
    echo = {}
    for name, variables in FAMILY_PARAMS[fam].items():
        text = getattr(args, name)
        if text is None:
            raise ValueError(f"family {fam!r} requires --{name}")
        echo[name] = text
        if variables:
            params[name] = _expr_arg(f"--{name}", text, variables)
        elif (value := _const_arg(f"--{name}", text)).imag:
            # the family would check its real part alone
            raise ValueError(f"--{name} must be a real constant, got {text!r}")
        else:
            params[name] = value.real
    return make_solution(fam, params, args.kappa), fam, echo


# --- subcommands ----------------------------------------------------------

def cmd_verify(args) -> int:
    from .fields import u_rows
    from .invariants import (invariants_at, liouville_residual, pde_residual,
                             swept_invariants)
    field, fam, echo = _family_from_args(args)
    report = _base_report(args, fam, echo)
    residual_fn = liouville_residual if fam == "liouville" else pde_residual

    def check(p):
        rec = {"residuals": {"equation": abs(residual_fn(field, p))},
               "invariants": {}}
        if fam != "liouville":
            s = invariants_at(field, p)
            rec["invariants"] = {
                "u_t": _num(s.u_t), "u_tt": _num(s.u_tt),
                "rho": _num(s.rho), "eta": _num(s.eta),
                "sigma": _num(s.sigma), "sigma_bar": _num(s.sigma_bar),
                "tau": _num(s.tau),
            }
        return rec

    # swept_invariants also stores each point's order-3 row of u, whose
    # first entries the equation reads
    build = u_rows(2) if fam == "liouville" else swept_invariants
    _run(report, parse_grid(args.grid), check, lambda chunk: [(field, chunk, build)])
    return _finish(report, args)


def cmd_classify(args) -> int:
    from .classify import (ConformallyNonInvariant, Inconclusive,
                           InvariantCaseMatched, classify_b)
    b = _expr_arg("--b", args.b, ("z",))
    report = _base_report(args, "noninv", {"b": args.b})
    grid = parse_grid(args.grid)
    verdict = classify_b(b, args.kappa, grid)
    if isinstance(verdict, InvariantCaseMatched):
        report["summary"]["verdict"] = {
            "kind": "InvariantCaseMatched",
            "case_id": verdict.case_id,
            "max_residual": verdict.max_residual,
            "note": verdict.note,
        }
    elif isinstance(verdict, ConformallyNonInvariant):
        report["summary"]["verdict"] = {
            "kind": "ConformallyNonInvariant",
            "witness": _where(verdict.witness),
            "asymmetry": verdict.asymmetry,
        }
    else:
        report["summary"]["verdict"] = {"kind": "Inconclusive",
                                        "reason": verdict.reason}
    # the records are classify_b's own equation check
    for p, r in zip(grid, verdict.equation):
        if isinstance(r, str):
            _exclude(report, r)
        else:
            report["records"].append({"point": _where(p), "residuals": {"equation": r}})
    report["summary"]["pass"] = not isinstance(verdict, Inconclusive)
    return _finish(report, args)


def _perturbed(rf, spec: str):
    """rf with one of its functions shifted by a constant, from --perturb;
    the copy starts with an empty store of checked points."""
    name, _, amount = spec.partition(":")
    shift = _const_arg("--perturb", amount.lstrip("+"))
    keys = {"F": "F", "lambda": "lambda_", "lambda_bar": "lambda_bar",
            "tau": "tau"}
    if name not in keys:
        raise ValueError(f"--perturb target must be one of {sorted(keys)}")
    old = getattr(rf, keys[name])
    return replace(rf, **{keys[name]: ex.Expr(ex.Add(old.root, ex.Const(shift)),
                                              old.variables)})


def cmd_resolving(args) -> int:
    """R1-R4 and the Jacobi residual at seeded random points (t, u_t, rho).

    Points are drawn in groups, in the order a point-by-point loop draws
    them: at most 50 * samples draws, and no more per group than
    PASS_POINTS or the samples still missing.  Each group is checked as the
    rows of one stacked projection (`sweeps.in_sweeps`,
    `resolving.checked_pairs`) by the plain per-point loop, so the report
    is that loop's, exclusions included, byte for byte.
    """
    from .resolving import (RVARS, ResolvingPoint, ansatz_functions, checked_pairs,
                            jacobi_residual, resolving_residuals)
    phi = _expr_arg("--phi", args.phi, ("xi", "theta"))
    rf = ansatz_functions(phi, args.kappa)
    if args.perturb:
        rf = _perturbed(rf, args.perturb)
    report = _base_report(args, "ansatz", {"phi": args.phi,
                                           "perturb": args.perturb})
    rng = random.Random(args.seed)
    produced = attempts = 0
    while produced < args.samples and attempts < 50 * args.samples:
        # no draw is rejected: every one has 2 kappa rho - ut^2 >= 2 * 0.55 - 1 > 0
        group = [ResolvingPoint(t=rng.uniform(-2.0, 2.0), ut=rng.uniform(-1.0, 1.0),
                                rho=args.kappa * rng.uniform(0.55, 2.0), kappa=args.kappa)
                 for _ in range(min(PASS_POINTS, args.samples - produced,
                                    50 * args.samples - attempts))]
        attempts += len(group)
        for p in in_sweeps(group, lambda g: [(rf, g, checked_pairs)]):
            try:
                res, jac = resolving_residuals(rf, p), jacobi_residual(rf, p)
            except (FVanishes, *POINT_EXCLUSIONS) as err:
                _exclude(report, type(err).__name__)
                continue
            produced += 1
            residuals = {k: abs(v) for k, v in res.as_dict().items()}
            residuals["jacobi"] = _worst([abs(v) for v in jac])
            report["records"].append(
                {"point": {"t": p.t, "ut": p.ut, "rho": p.rho}, "residuals": residuals})
    report["summary"]["samples"] = produced
    return _finish(report, args, RVARS)


def cmd_symmetry(args) -> int:
    from .fields import u_rows
    from .symmetry import GeneratorSpec, invariance_residual, x2_apply
    a = _expr_arg("--a", args.a, ("z",)) if args.a else None
    gen = GeneratorSpec(args.alpha, args.beta, a)
    if args.check == "invariants" and gen.a is None:
        raise ValueError("--check invariants requires --a, the generator a(z)")
    if gen.a is None and not (gen.alpha or gen.beta):  # the criterion would read 0 = 0
        raise ValueError("--check criterion requires a nonzero generator: --a, --alpha or --beta")
    field, fam, echo = _family_from_args(args)
    params = dict(echo, a=args.a)
    if args.check == "invariants":
        order = 2

        def check(p):
            return {"residuals": {f"x2_{name}": abs(x2_apply(gen.a, name, field, p))
                                  for name in ("T", "Ut", "Utt", "Rho", "Eta")}}
    else:  # criterion
        params.update(alpha=args.alpha, beta=args.beta)
        order = 1

        def check(p):
            return {"residuals": {"criterion": abs(invariance_residual(field, gen, p))}}
    report = _base_report(args, fam, params)
    _run(report, parse_grid(args.grid), check, lambda chunk: [(field, chunk, u_rows(order))])
    return _finish(report, args)


def cmd_orbit(args) -> int:
    from .fields import Point, conformal_pushforward
    from .invariants import (invariants_at, liouville_residual, pde_residual,
                             swept_invariants)
    field, fam, echo = _family_from_args(args)
    phi = _expr_arg("--phi", args.phi, ("z",))
    if not ex.mentions(phi, "z"):
        raise ValueError(f"phi {args.phi!r} does not depend on z")
    report = _base_report(args, fam, dict(echo, phi=args.phi))
    pushed = conformal_pushforward(field, phi)
    # the pushforward solves the equation its source solves
    residual_fn = liouville_residual if fam == "liouville" else pde_residual

    def check(p):
        w = ex.eval_jet1_rows(phi, [p.z], 0)[0][0]
        r = residual_fn(pushed, p)
        s_new = invariants_at(pushed, p)
        s_old = invariants_at(field, Point(p.t, w))
        return {"residuals": {"equation": abs(r),
                              "rho_match": abs(s_new.rho - s_old.rho),
                              "eta_match": abs(s_new.eta - s_old.eta)}}

    def passes(chunk):
        # w = phi(z) of every point from one evaluation: row by row the
        # bits of the check's own
        try:
            ws = [row[0] for row in ex.eval_jet1_rows(phi, [p.z for p in chunk], 0)]
        except SWEEP_FALLBACK:
            ws = ()  # no source pass: the checks exclude or raise per point
        return [(pushed, chunk, swept_invariants),
                (field, [Point(p.t, w) for p, w in zip(chunk, ws)], swept_invariants)]

    _run(report, parse_grid(args.grid), check, passes)
    return _finish(report, args)


# --- entry point ----------------------------------------------------------

def _finite(text: str) -> float:
    """--alpha, --beta and --tol: a finite float (a NaN or infinite one
    would give NaN residuals or pass every one, and NaN is not strict
    JSON)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
    return value


def _tolerance(text: str) -> float:
    """--tol: a residual bound, finite (`_finite`) and positive."""
    tol = _finite(text)
    if not tol > 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {text!r}")
    return tol


def _sample_count(text: str) -> int:
    """--samples: at least one sample, or the report would check nothing."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {text!r}")
    return count


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="heavenly",
        description="Verification suites for the group foliation of "
                    "u_zzbar = kappa (e^u)_tt")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p, grid=True):
        p.add_argument("--kappa", type=int, choices=(1, -1), default=1)
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)
        if grid:
            p.add_argument("--grid", default="t=0.5:2:4,re=0.5:2:4,im=-0.5:0.5:3")

    def family_flags(p):
        p.add_argument("--family", default="noninv", choices=tuple(FAMILY_PARAMS))
        for flag in dict.fromkeys(n for names in FAMILY_PARAMS.values() for n in names):
            p.add_argument(f"--{flag}", default=None)

    pv = sub.add_parser("verify", help="equation residuals for a family")
    common(pv); family_flags(pv)
    pv.set_defaults(fn=cmd_verify)

    pc = sub.add_parser("classify", help="invariance classification of b(z)")
    common(pc)
    pc.add_argument("--b", required=True)
    pc.set_defaults(fn=cmd_classify)

    pr = sub.add_parser("resolving", help="resolving-system residual suite")
    common(pr, grid=False)
    pr.add_argument("--phi", required=True)
    pr.add_argument("--samples", type=_sample_count, default=100)
    pr.add_argument("--perturb", default=None)
    pr.set_defaults(fn=cmd_resolving)

    ps = sub.add_parser("symmetry", help="prolongation and invariance-criterion checks")
    common(ps); family_flags(ps)
    ps.add_argument("--check", required=True, choices=("invariants", "criterion"))
    ps.add_argument("--alpha", type=_finite, default=0.0)
    ps.add_argument("--beta", type=_finite, default=0.0)
    ps.set_defaults(fn=cmd_symmetry)

    po = sub.add_parser("orbit", help="conformal pushforward checks")
    common(po); family_flags(po)
    po.add_argument("--phi", required=True)
    po.set_defaults(fn=cmd_orbit)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.command = argv
    try:
        return args.fn(args)
    except ParseError as err:
        print(f"error: parse failure at position {err.position}: {err}",
              file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, HeavenlyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
