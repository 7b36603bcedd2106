"""Layered benchmark of the heavenly library.

Run from the repository root:

    python3 perfbench/run.py --workload resolving-jacobi --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One client, one op in flight, a single process (closed loop), BLAS pinned
to one thread.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
repeats a fixed set of ops untraced and then traced, and reports per-layer
call counts and self-time shares together with the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report, with the environment, the exclusion and failure reasons and every
figure behind the metrics.  Spans and reports are also written to
``perfbench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in every child

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: fresh-process set-ups per untraced run, spread over the run; setup_s is
#: their median
SETUP_PROBES = 5
#: tail percentiles tried, highest first, when a workload's own has fewer
#: than ten samples beyond it
TAIL_LADDER = (90.0, 75.0, 50.0)
#: rounds per second of each workload on the reference host (2-core x86-64
#: container, Python 3.11, numpy 2.4); the traced run does a quarter of
#: --seconds' worth of rounds at this rate, so its op set, and so its call
#: counts, depend only on the seed and --seconds
NOMINAL_ROUNDS_PER_S = {"resolving-jacobi": 7.0, "grid-suite": 2.0,
                        "classify-cases": 1.5, "cli-examples": 0.45}


def _load_library():
    if not (ROOT / "src" / "heavenly").is_dir():
        sys.exit(f"error: no library source at {ROOT / 'src' / 'heavenly'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


def make_workload(wl_mod, name: str, seed: int):
    cls = wl_mod.WORKLOADS[name]
    return cls(seed, str(ROOT)) if name == "cli-examples" else cls(seed)


def warm_up(wl) -> None:
    """One untimed op, so import-time and lru_cache set-up are paid before timing."""
    if hasattr(wl, "warm_up"):
        wl.warm_up()
    else:
        wl.op(0)


# --- environment --------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment(args) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- statistics -----------------------------------------------------------------

def tail_latency(lat_s: list[float], preferred: float):
    """(value in ms, percentile, samples beyond) at the preferred percentile,
    or at the highest lower one with at least ten samples beyond it."""
    ordered = sorted(lat_s)
    n = len(ordered)
    candidates = (preferred,) + tuple(p for p in TAIL_LADDER if p < preferred)
    for pct in candidates:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            break
    return 1000.0 * ordered[rank - 1], pct, n - rank


def summarise(wl_mod, wl, outcomes) -> dict:
    """Aggregate the outcomes of whole rounds."""
    attempted = len(outcomes)
    status = {"ok": 0, "excluded": 0, "failed": 0}
    reasons: dict[str, dict[str, int]] = {"excluded": {}, "failed": {}}
    worst: dict[str, float] = {}
    layer: dict[str, int] = {}
    round_margins = []
    for start in range(0, attempted, wl.round_size):
        round_worst: dict[str, float] = {}
        for out in outcomes[start:start + wl.round_size]:
            for kind, v in out.residuals.items():
                round_worst[kind] = max(round_worst.get(kind, 0.0), v)
        round_margins.append(wl_mod.margin_digits(round_worst, wl.gates))
        for kind, v in round_worst.items():
            worst[kind] = max(worst.get(kind, 0.0), v)
    for out in outcomes:
        status[out.status] += 1
        if out.status != "ok":
            bucket = reasons[out.status]
            bucket[out.reason] = bucket.get(out.reason, 0) + 1
        for key, v in out.layer.items():
            layer[key] = layer.get(key, 0) + v
    return {
        "attempted": attempted,
        "status": status,
        "reasons": reasons,
        "worst_residuals": worst,
        "gates": {k: wl.gates[k] for k in worst},
        "round_margin_digits": statistics.median(round_margins),
        "worst_margin_digits": wl_mod.margin_digits(worst, wl.gates),
        "layer_counters": layer,
    }


# --- untraced run ---------------------------------------------------------------

def measure_setup(args, cal) -> tuple[float, float]:
    """Wall time from spawning a fresh interpreter to its first timed op,
    raw and scaled to the nominal host speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    before = cal.sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed, cal.scaled(elapsed, before, cal.sample())


def setup_probe(wl_mod, args) -> None:
    wl = make_workload(wl_mod, args.workload, args.seed)
    warm_up(wl)
    print("ready", flush=True)


def run_rounds(wl, seconds: float, cal, probe):
    """Closed loop over whole rounds until at least `seconds` have passed.

    Every op is bracketed by timings of the calibration `cal`.  The set-up probes
    run between rounds, spread evenly over the run, so that they sample the
    same host conditions as the ops.  Returns records (raw latency, scaled
    latency, outcome), one per op, and the probe results.
    """
    records, probes = [], []
    clock = time.perf_counter
    t_start = clock()
    i = 0
    while clock() - t_start < seconds:
        if clock() - t_start >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        before = cal.sample()
        for _ in range(wl.round_size):
            t0 = clock()
            out = wl.op(i)
            elapsed = clock() - t0
            after = cal.sample()
            records.append((elapsed, cal.scaled(elapsed, before, after), out))
            before = after
            i += 1
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    return records, probes


def same_outcome(a, b) -> bool:
    return a.status == b.status and a.residuals == b.residuals


def untraced(wl_mod, args) -> tuple[dict, dict]:
    import reference
    wl = make_workload(wl_mod, args.workload, args.seed)
    warm_up(wl)
    cal = reference.INTERPRETER if args.workload == "cli-examples" else reference.KERNEL
    records, probes = run_rounds(wl, args.seconds, cal,
                                 lambda: measure_setup(args, reference.INTERPRETER))
    setup_raw = [p[0] for p in probes]
    setup_scaled = [p[1] for p in probes]
    summary = summarise(wl_mod, wl, [r[2] for r in records])
    repeat_agrees = same_outcome(wl.op(0), records[0][2])
    raw = [r[0] for r in records]
    lat = [r[1] for r in records]
    tail_ms, tail_pct, beyond = tail_latency(lat, wl.tail_pct)
    if args.workload == "cli-examples":
        peak_kib = wl.peak_rss_kib
    else:
        peak_kib = wl_mod._vm_hwm_kib(os.getpid())
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "residual_margin_digits": (summary["round_margin_digits"], "digits"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    raw_tail_ms, _pct, _beyond = tail_latency(raw, tail_pct)
    detail = dict(summary, rounds=len(lat) // wl.round_size, repeat_agrees=repeat_agrees,
                  latency_tail={"percentile": tail_pct, "samples_beyond": beyond,
                                "samples": len(lat)},
                  fail_frac=summary["status"]["failed"] / len(records),
                  unscaled={"setup_s": statistics.median(setup_raw),
                            "setup_s_samples": setup_raw,
                            "ops_per_s": len(raw) / sum(raw),
                            "latency_p50_ms": 1000.0 * statistics.median(raw),
                            "latency_tail_ms": raw_tail_ms},
                  host_scale=statistics.median(r[1] / r[0] for r in records if r[0] > 0))
    return metrics, detail


# --- traced run -----------------------------------------------------------------

def import_cost(wl_mod) -> tuple[float, list[float], list[float]]:
    """Median `import heavenly` process time minus a bare interpreter's."""
    import reference
    bare, full = [], []
    for _ in range(SETUP_PROBES):
        bare.append(reference.INTERPRETER.sample())
        t0 = time.perf_counter()
        rc, _out, err, _rss = wl_mod.spawn(["-c", "import heavenly"], str(ROOT))
        full.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"import heavenly failed: {err.decode(errors='replace')}")
    return statistics.median(full) - statistics.median(bare), bare, full


def traced(wl_mod, args) -> tuple[dict, dict]:
    import tracer as tr
    wl = make_workload(wl_mod, args.workload, args.seed)
    warm_up(wl)
    rounds = max(1, round(args.seconds / 4 * NOMINAL_ROUNDS_PER_S[args.workload]))
    n_ops = rounds * wl.round_size
    clock = time.perf_counter

    t0 = clock()
    plain = [wl.op(i) for i in range(n_ops)]
    untraced_wall = clock() - t0

    tracer = tr.Tracer()
    records = []
    cli = args.workload == "cli-examples"
    with tracer.installed():
        t0 = clock()
        for i in range(n_ops):
            tracer.op_id = i
            s0 = clock()
            out = tracer.span(f"cli.{wl.argv(i)[0]}", wl.op, i) if cli else wl.op(i)
            records.append((clock() - s0, out))
        traced_wall = clock() - t0
    reproduced = all(same_outcome(a, b) for a, (_lat, b) in zip(plain, records))
    summary = summarise(wl_mod, wl, [r[1] for r in records])
    import_s, bare, full = import_cost(wl_mod)

    metrics = {}
    self_s = {}
    for name in tr.SPAN_NAMES:
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        self_s[name] = tracer.self_s.get(name, 0.0)
        metrics[f"{name}.self_pct"] = (100.0 * self_s[name] / traced_wall, "%")
    metrics["jet.alloc.count"] = (tracer.jet_allocs, "count")
    jet_at = tracer.calls.get("fields.jet_at", 0)
    metrics["fields.admissible_ratio"] = (
        1.0 - tracer.errors.get("fields.jet_at", 0) / jet_at if jet_at else 1.0, "ratio")
    counters = summary["layer_counters"]
    draws = counters.get("resolving.draws", 0)
    metrics["resolving.admissible_ratio"] = (
        counters["resolving.admissible"] / draws if draws else 1.0, "ratio")
    matched = counters.get("classify.matched", 0)
    metrics["classify.case_id_agree"] = (
        counters["classify.case_id_agree"] / matched if matched else 1.0, "ratio")
    metrics["cli.import_s"] = (import_s, "s")
    wall_by_sub: dict[str, list[float]] = {}
    for argv in wl_mod.README_EXAMPLES:
        name = f"cli.{argv[0]}"
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        self_s[name] = tracer.self_s.get(name, 0.0)
        metrics[f"{name}.self_pct"] = (100.0 * self_s[name] / traced_wall, "%")
        wall_by_sub[argv[0]] = []
    if cli:
        for i, (lat, _out) in enumerate(records):
            wall_by_sub[wl.argv(i)[0]].append(lat)
    defects = wl_mod.GridSuite(args.seed).known_defects()
    metrics["grid.known_defect_fails"] = (sum(o.status == "failed" for o in defects), "count")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_wall / untraced_wall - 1.0), "%")

    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}.npz")
    detail = dict(summary, ops=n_ops, rounds=rounds, untraced_wall_s=untraced_wall,
                  traced_wall_s=traced_wall, spans=len(tracer.start),
                  repeat_agrees=reproduced,
                  known_defects=[{"input": [f, k, t, repr(z)], "defect": d,
                                  "status": o.status, "reason": o.reason}
                                 for (f, k, t, z, d), o in zip(wl_mod.KNOWN_DEFECTS, defects)],
                  self_s=self_s,
                  cli_wall_s={f"cli.wall_s.{k}": statistics.median(v) if v else 0.0
                              for k, v in wall_by_sub.items()},
                  import_probe_s={"bare": bare, "import_heavenly": full})
    return metrics, detail


# --- entry point ----------------------------------------------------------------

def result_line(metrics: dict, attempted: int, failed: int, correct: bool) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(wl_mod, args) -> int:
    metrics, detail = (traced if args.trace else untraced)(wl_mod, args)
    # `correct` is false when an op repeated on the same input gave another
    # outcome (untraced: op 0 again after the run; traced: every op of the
    # untraced pass).  Every op is checked against its gates; one that fails
    # a gate, a verdict or an exit code is counted in `failed`, never dropped.
    correct = detail["repeat_agrees"]
    attempted = detail["attempted"]
    failed = detail["status"]["failed"]
    report = {"environment": environment(args), "detail": detail,
              "metrics": {k: v for k, (v, _u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(result_line(metrics, attempted, failed, correct and attempted > 0))
    return 0


def run_all(wl_mod, args) -> int:
    """Every workload in turn, each in its own process; prints a table."""
    combined, attempted, failed, correct = {}, 0, 0, True
    for name in wl_mod.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        print(f"== {name}  attempted {result['attempted']}  failed {result['failed']}")
        detail = report["detail"]
        metrics = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        combined.update((f"{name}.{k}", v) for k, v in metrics.items())
        if args.trace:
            metrics.update((f"{k}.self_s", (v, "s")) for k, v in detail["self_s"].items())
            metrics.update((k, (v, "s")) for k, v in detail["cli_wall_s"].items())
        for key, (value, unit) in sorted(metrics.items()):
            print(f"   {key:<42} {value:>14.6g} {unit}")
        if not args.trace:
            tail = detail["latency_tail"]
            print(f"   {'fail_frac':<42} {detail['fail_frac']:>14.6g}")
            print(f"   {'latency_tail percentile / beyond':<42} "
                  f"{tail['percentile']:>8g} / {tail['samples_beyond']}")
    print(result_line(combined, attempted, failed, correct))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl_mod = _load_library()
    if args.workload != "all" and args.workload not in wl_mod.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wl_mod.WORKLOADS)} or all")
    if args.setup_probe:
        setup_probe(wl_mod, args)
        return 0
    if args.workload == "all":
        return run_all(wl_mod, args)
    return run_one(wl_mod, args)


if __name__ == "__main__":
    sys.exit(main())
