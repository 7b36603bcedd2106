"""The benchmark's four workloads.

Each workload is built from a seed and yields ops by index: op ``i`` is the
same computation on the same inputs every time it is asked for, which lets
a traced pass repeat an untraced pass exactly.  Ops are grouped in rounds
that visit every op class once, so a run that stops at a round boundary has
the same mix of classes whatever its length.

An op returns an ``Outcome``.  The gates are the acceptance-suite
tolerances.  Exclusions are the domain conditions the library reports
(``DomainError``, ``FVanishes``, ``EtaVanishes``, and a resolving
discriminant at or below 1e-6); any other exception, a residual over its
gate, a wrong verdict or a failed CLI run is a failure.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from dataclasses import dataclass, field

from heavenly import classify, expr, fields, invariants, resolving, symmetry
from heavenly.errors import DomainError, EtaVanishes, FVanishes

EXCLUSIONS = (DomainError, FVanishes, EtaVanishes)
DISCRIMINANT_MIN = 1e-6


@dataclass
class Outcome:
    status: str = "ok"  # ok | excluded | failed
    reason: str = ""
    residuals: dict[str, float] = field(default_factory=dict)
    layer: dict[str, int] = field(default_factory=dict)  # harness-side counters


def _record(out: Outcome, kind: str, value: complex) -> None:
    out.residuals[kind] = max(out.residuals.get(kind, 0.0), abs(value))


def _gate(out: Outcome, gates: dict[str, float]) -> Outcome:
    """Fail the op if any residual it computed is over its gate or not a number.

    Residuals computed before an exclusion are gated too.
    """
    if out.status == "failed":
        return out
    for kind, worst in out.residuals.items():
        if not worst <= gates[kind]:
            out.status, out.reason = "failed", f"{kind} residual {worst:.3e} over gate"
            break
    return out


def _run_guarded(fn, out: Outcome) -> Outcome:
    try:
        fn(out)
    except EXCLUSIONS as err:
        out.status, out.reason = "excluded", type(err).__name__
    except Exception as err:  # any other library error is a failed op
        out.status, out.reason = "failed", f"{type(err).__name__}: {err}"
    return out


def _op_rng(seed: int, i: int) -> random.Random:
    return random.Random(f"{seed}:{i}")


def _radical_inverse(k: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        inv += digit * f
        f /= base
    return inv


def halton_point(k: int, shift: tuple[float, ...]) -> tuple[float, ...]:
    """k-th point of the three-dimensional Halton sequence, shifted mod 1.

    Any prefix of the sequence covers the unit cube evenly, so the share of
    points that land in a given region (out of domain, near a singular set)
    varies far less from seed to seed than with independent uniform draws;
    the seeded shift keeps every point uniformly distributed.
    """
    return tuple((_radical_inverse(k + 1, b) + s) % 1.0 for b, s in zip((2, 3, 5), shift))


# --- resolving-jacobi -------------------------------------------------------

class ResolvingJacobi:
    name = "resolving-jacobi"
    gates = {"resolving": 1e-9, "jacobi": 1e-8}
    # p99 also has ten samples beyond it in a 25 s run, but it moved 8-15%
    # between identical runs on a shared host; p95 moved under 5%
    tail_pct = 95.0
    phis = ("1", "2", "xi", "xi*theta", "exp(-xi)")

    def __init__(self, seed: int):
        self.seed = seed
        self.combos = [(kappa, resolving.ansatz_functions(expr.parse(phi, ("xi", "theta")),
                                                          kappa))
                       for phi in self.phis for kappa in (1, -1)]
        self.round_size = len(self.combos)

    def sample(self, i: int):
        """Seeded admissible (t, u_t, rho) drawn as ``heavenly resolving`` does."""
        kappa, rf = self.combos[i % self.round_size]
        rng = _op_rng(self.seed, i)
        draws = 0
        while True:
            draws += 1
            p = resolving.ResolvingPoint(t=rng.uniform(-2.0, 2.0), ut=rng.uniform(-1.0, 1.0),
                                         rho=kappa * rng.uniform(0.55, 2.0), kappa=kappa)
            if p.discriminant > DISCRIMINANT_MIN:
                return rf, p, draws

    def op(self, i: int) -> Outcome:
        rf, p, draws = self.sample(i)
        out = Outcome(layer={"resolving.draws": draws, "resolving.admissible": 0})

        def body(out):
            res = resolving.resolving_residuals(rf, p)
            jac = resolving.jacobi_residual(rf, p)
            out.layer["resolving.admissible"] = 1
            for v in res.as_dict().values():
                _record(out, "resolving", v)
            for v in jac:
                _record(out, "jacobi", v)

        return _gate(_run_guarded(body, out), self.gates)


# --- grid-suite ---------------------------------------------------------------

def _z(text: str) -> expr.Expr:
    return expr.parse(text, ("z",))


# (family, params for kappa=+1, params for kappa=-1).  confinv solves the
# equation when A' = 1/a and (ln f)_xixi = kappa f_tt, which f = g(t)/xi^2
# with g'' = 2 kappa satisfies
FAMILIES = (
    ("f0", {"C": 1.0}, {"C": 1.0}),
    ("f0general", {"l": 1.0, "C1": 0.5, "C2": 1.0, "a": "z^2 + 1"},
     {"l": 1.0, "C1": 0.5, "C2": 1.0, "a": "z^2 + 1"}),
    ("noninv", {"b": "z^2 + i"}, {"b": "z^2 - i"}),
    ("general_noninv", {"b": "z^2 + i", "c": "z^2"}, {"b": "z^2 - i", "c": "z^2"}),
    ("confinv", {"f": "(t^2 + 1)/xi^2", "A": "ln(z)", "a": "z"},
     {"f": "(4 - t^2)/xi^2", "A": "ln(z)", "a": "z"}),
    ("liouville", {"c": "exp(z)"}, {"c": "exp(z)"}),
)
PUSHFORWARD_PHI = "z^2/2"


def _family_params(params: dict) -> dict:
    out = {}
    for key, val in params.items():
        if isinstance(val, str):
            out[key] = expr.parse(val, ("xi", "t") if key == "f" else ("z",))
        else:
            out[key] = val
    return out


# Inputs that hit known defects, kept out of the timed box (on which no op
# fails, so that every run's `failed` is 0 and comparable) and checked in
# every traced run instead, as grid.known_defect_fails:
# (family, kappa, t, z, defect).  All four fail today.
KNOWN_DEFECTS = (
    ("pushforward", 1, 1.8951, -0.0451 + 0.0088j,
     "DivisionBySingularJet next to the critical point z = 0 of phi"),
    ("noninv", 1, -0.0015, 0.6407 - 0.6168j,
     "commutator residual 6e-6 next to t = 0, where |sigma| is 5e5"),
    ("general_noninv", 1, -0.797, 1.0018 - 0.4971j,
     "commutator residual 2e2 where |sigma| is 2e10"),
    ("noninv", -1, 0.6964, -0.5143 - 0.9128j,
     "commutator residual 1e-2 where |sigma| is 3e7"),
)


class GridSuite:
    name = "grid-suite"
    gates = {"equation": 1e-9, "commutator": 1e-7, "x2": 1e-8}
    tail_pct = 95.0
    # (t, Re z, |Im z|) ranges, with Im z of the sign of kappa; the kappa=+1
    # fields also run at -z, where Re z < 0 is outside the domain of f0 and
    # noninv.  The box keeps clear of every family's singular sets: t = 0,
    # t = 2 (confinv, kappa=-1), z = 0, the real axis (confinv), the
    # diagonals |Re z| = |Im z| (the pushforward's domain edge) and the
    # curves t + b(z) = 0, which pass Im z = -0.7 kappa at Re z = 1.27 for the
    # pushforward.  Near them the absolute gates fail (see KNOWN_DEFECTS)
    box = ((0.5, 1.5), (1.0, 2.0), (0.25, 0.75))

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{seed}:generators")
        self.generators = []
        for _ in range(4):
            coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
            text = " + ".join(f"({c.real:.6f} + {c.imag:.6f}*i)*z^{k}" if k
                              else f"({c.real:.6f} + {c.imag:.6f}*i)"
                              for k, c in enumerate(coeffs))
            self.generators.append(_z(text))
        self.fields = []
        phi = _z(PUSHFORWARD_PHI)
        for kappa in (1, -1):
            for family, plus, minus in FAMILIES:
                params = _family_params(plus if kappa == 1 else minus)
                fld = fields.make_solution(family, params, kappa)
                self.fields.append((family, fld))
            noninv = dict(self.fields[-len(FAMILIES):])["noninv"]
            self.fields.append(("pushforward", fields.conformal_pushforward(noninv, phi)))
        self.classes = [(family, fld, sign) for family, fld in self.fields
                        for sign in ((1, -1) if fld.kappa == 1 else (1,))]
        self.round_size = len(self.classes)
        self.shifts = [tuple(rng.random() for _ in range(3)) for _ in self.classes]

    def op(self, i: int) -> Outcome:
        cls, visit = i % self.round_size, i // self.round_size
        family, fld, sign = self.classes[cls]
        u = halton_point(visit, self.shifts[cls])
        (lo_t, hi_t), (lo_x, hi_x), (lo_y, hi_y) = self.box
        z = complex(lo_x + u[1] * (hi_x - lo_x), fld.kappa * (lo_y + u[2] * (hi_y - lo_y)))
        p = fields.Point(lo_t + u[0] * (hi_t - lo_t), sign * z)
        return self.check(family, fld, p, self.generators[visit % len(self.generators)])

    def check(self, family: str, fld, p: fields.Point, a: expr.Expr) -> Outcome:
        def body(out):
            if family == "liouville":
                _record(out, "equation", invariants.liouville_residual(fld, p))
            else:
                _record(out, "equation", invariants.pde_residual(fld, p))
            s = invariants.invariants_at(fld, p)
            if s.eta_vanishes:
                return
            for pair in invariants.COMMUTATOR_PAIRS:
                for target in ("Ut", "Rho"):
                    _record(out, "commutator",
                            invariants.commutator_residual(pair, target, fld, p))
            for target in ("T", "Ut", "Utt", "Rho", "Eta"):
                _record(out, "x2", symmetry.x2_apply(a, target, fld, p))

        return _gate(_run_guarded(body, Outcome()), self.gates)

    def known_defects(self) -> list[Outcome]:
        """One outcome per KNOWN_DEFECTS input; a fixed defect reads "ok"."""
        by_name = {(family, fld.kappa): fld for family, fld in self.fields}
        return [self.check(family, by_name[family, kappa], fields.Point(t, z),
                           self.generators[0])
                for family, kappa, t, z, _defect in KNOWN_DEFECTS]


# --- classify-cases -----------------------------------------------------------

EMPTY_CASES = {(-1, 3), (-1, 4)}  # constraint sets with no nonzero solution
NORMAL_FORMS = tuple((case_id, kappa) for kappa in (1, -1) for case_id in range(1, 9)
                     if (kappa, case_id) not in EMPTY_CASES)


def draw_case(case_id: int, kappa: int, rng: random.Random) -> classify.TheoremCase:
    """Admissible random constants for one normal form.

    The test suite's draw rule, copied so that the benchmark's inputs stay
    fixed when the tests change.
    """
    alpha = rng.uniform(0.5, 2.0)
    beta = rng.uniform(0.5, 2.0)
    C = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
    mag = lambda: rng.uniform(0.5, 1.5)
    TC = classify.TheoremCase
    if kappa == 1:
        if case_id in (1, 2, 3, 4):
            return TC(case_id, 1, alpha, beta if case_id in (1, 3) else 0.0, C,
                      C1=1j * mag(), C2=1j * mag() if case_id in (1, 2) else 0j,
                      lam=1j * rng.uniform(-0.3, 0.3))
        if case_id == 5:
            return TC(5, 1, alpha, beta, C, C1=mag(), C2=1j * rng.uniform(-0.5, 0.5))
        if case_id == 6:
            return TC(6, 1, alpha, beta, C, C2=1j * mag())
        if case_id == 7:
            return TC(7, 1, alpha, 0.0, C, C2=1j * mag())
        return TC(8, 1, 0.0, 0.0, C, C2=1j * mag())
    if case_id in (1, 2):
        C1 = complex(mag(), rng.uniform(-0.5, 0.5))
        return TC(case_id, -1, alpha, beta if case_id == 1 else 0.0, C,
                  C1=C1, C2=C1.conjugate(), lam=1j * rng.uniform(-0.5, 0.5))
    if case_id == 5:
        return TC(5, -1, alpha, beta, C, lam=1j * mag())
    if case_id == 6:
        return TC(6, -1, alpha, beta, C)
    if case_id == 7:
        return TC(7, -1, alpha, 0.0, C, lam=1j * mag())
    return TC(8, -1, 0.0, 0.0, C, lam=1j * mag())


def _generic_b(rng: random.Random) -> str:
    """A quadratic b(z) with random complex coefficients."""
    c = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(3)]
    return " + ".join(f"({v.real:.6f} + {v.imag:.6f}*i)*z^{k}" if k
                      else f"({v.real:.6f} + {v.imag:.6f}*i)" for k, v in enumerate(c))


class ClassifyCases:
    name = "classify-cases"
    gates = {"invariance": 1e-8, "fit": 1e-8}
    tail_pct = 95.0
    # the classification grid of the acceptance suite plus one point, so
    # that there are five distinct z samples for the asymmetry witness
    grid = [fields.Point(t, complex(x, y)) for t in (0.8, 1.1, 1.4)
            for x in (0.8, 1.2) for y in (-0.2, 0.25)] + [fields.Point(1.0, 1.0 + 0j)]

    def __init__(self, seed: int):
        self.seed = seed
        # one round: every admissible normal form and as many generic draws
        self.classes = [("case",) + nf for nf in NORMAL_FORMS]
        self.classes += [("generic", 0, kappa) for kappa in (1, -1)
                         for _ in range(len(NORMAL_FORMS) // 2)]
        self.round_size = len(self.classes)

    def op(self, i: int) -> Outcome:
        kind, case_id, kappa = self.classes[i % self.round_size]
        rng = _op_rng(self.seed, i)
        out = Outcome(layer={"classify.matched": 0, "classify.case_id_agree": 0})
        if kind == "case":
            case = draw_case(case_id, kappa, rng)

            def body(out):
                b, _gen = classify.theorem_case(case)
                _record(out, "invariance", classify.verify_case(case, self.grid))
                verdict = classify.classify_b(b, kappa, self.grid)
                if not isinstance(verdict, classify.InvariantCaseMatched):
                    out.status, out.reason = "failed", f"verdict {type(verdict).__name__}"
                    return
                out.layer["classify.matched"] = 1
                out.layer["classify.case_id_agree"] = int(verdict.case_id == case_id)
                _record(out, "fit", verdict.max_residual)
        else:
            text = _generic_b(rng)

            def body(out):
                b = expr.parse(text, ("z",))
                verdict = classify.classify_b(b, kappa, self.grid)
                if not isinstance(verdict, classify.ConformallyNonInvariant):
                    out.status, out.reason = "failed", f"verdict {type(verdict).__name__}"

        return _gate(_run_guarded(body, out), self.gates)


# --- cli-examples -------------------------------------------------------------

# the README's example commands that must pass
README_EXAMPLES = (
    ["verify", "--kappa", "1", "--family", "noninv", "--b", "z^2 + i",
     "--grid", "t=0.5:2:4,re=0.5:2:4,im=-0.5:0.5:3", "--tol", "1e-9"],
    ["classify", "--kappa", "1", "--b", "-2*z + 1"],
    ["resolving", "--kappa", "1", "--phi", "xi*theta", "--samples", "100", "--seed", "7"],
    ["symmetry", "--check", "invariants", "--a", "z^2", "--family", "noninv", "--b", "z^2+i"],
    ["orbit", "--family", "f0", "--C", "1", "--phi", "2*z", "--tol", "1e-8"],
)


# fixed gates on the residual kinds each example's report gives: the
# example's --tol where it has one, else the acceptance-suite gate of the kind
CLI_GATES = {
    "verify.equation": 1e-9,
    "classify.equation": 1e-9,
    **{f"resolving.{k}": 1e-9 for k in ("R1", "R2", "R2bar", "R3", "R4")},
    "resolving.jacobi": 1e-8,
    **{f"symmetry.x2_{k}": 1e-8 for k in ("T", "Ut", "Utt", "Rho", "Eta")},
    **{f"orbit.{k}": 1e-8 for k in ("equation", "eta_match", "rho_match")},
}


def child_env(root: str) -> dict[str, str]:
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _vm_hwm_kib(pid: int) -> int:
    """Peak resident set of a live process's current image, 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def spawn(argv: list[str], root: str):
    """Run a child Python to completion.

    Returns (exit code, stdout, stderr, peak RSS in KiB).  The peak is read
    from /proc while the child runs, because the kernel's rusage figure for
    a child also counts the parent's memory at the time of the fork.
    """
    proc = subprocess.Popen([sys.executable, *argv], cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    peak = [0]
    done = threading.Event()

    def watch():
        while not done.is_set():
            peak[0] = max(peak[0], _vm_hwm_kib(proc.pid))
            done.wait(0.002)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        done.set()
        watcher.join()
    return proc.returncode, stdout, stderr, peak[0]


class CliExamples:
    name = "cli-examples"
    tail_pct = 66.0
    gates = CLI_GATES

    def __init__(self, seed: int, root: str = "."):
        self.seed = seed
        self.root = root
        self.round_size = len(README_EXAMPLES)
        self.peak_rss_kib = 0

    def argv(self, i: int) -> list[str]:
        """Each round runs the five examples in a seeded order."""
        order = list(range(self.round_size))
        random.Random(f"{self.seed}:round{i // self.round_size}").shuffle(order)
        return README_EXAMPLES[order[i % self.round_size]]

    def op(self, i: int) -> Outcome:
        args = self.argv(i)
        code, stdout, stderr, rss = spawn(["-m", "heavenly.cli", *args], self.root)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return self.check(args[0], code, stdout, stderr)

    def check(self, sub: str, code: int, stdout: bytes, stderr: bytes) -> Outcome:
        out = Outcome()
        if code != 0:
            last = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            out.status, out.reason = "failed", f"{sub} exit {code}: {last[0]}"
            return out
        try:
            summary = json.loads(stdout)["summary"]
            passed = summary.get("pass")
            worst = {f"{sub}.{kind}": float(v) for kind, v in summary["max_residuals"].items()}
        except (ValueError, KeyError, TypeError, AttributeError) as err:
            out.status, out.reason = "failed", f"{sub} report: {type(err).__name__}: {err}"
            return out
        expected = {k for k in self.gates if k.startswith(sub + ".")}
        if worst.keys() != expected:
            out.status, out.reason = "failed", f"{sub} residual kinds {sorted(worst)}"
            return out
        if passed is not True:
            out.status, out.reason = "failed", f"{sub} summary.pass false"
            return out
        out.residuals = worst
        return _gate(out, self.gates)

    def warm_up(self) -> None:
        """In-process run of the verify example: import, parse, field build, emit."""
        from heavenly import cli
        parser = cli.build_parser()
        for argv in README_EXAMPLES:
            parser.parse_args(argv)
        with redirect_stdout(io.StringIO()):
            code = cli.main(README_EXAMPLES[0])
        if code != 0:
            raise RuntimeError(f"warm-up verify exited {code}")


WORKLOADS = {w.name: w for w in (ResolvingJacobi, GridSuite, ClassifyCases, CliExamples)}


def margin_digits(worst: dict[str, float], gates: dict[str, float]) -> float:
    """log10(gate / worst residual), minimised over residual kinds.

    Kinds whose worst residual is exactly zero carry no margin information
    and are skipped; with no nonzero residual at all the margin is +inf.
    """
    margins = [math.log10(gates[k] / v) for k, v in worst.items() if v > 0]
    return min(margins) if margins else math.inf
