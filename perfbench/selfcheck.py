"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py --seed 1

1. The correctness gate can fire: resolving-jacobi with the ansatz's tau
   shifted by +0.1, by the function behind ``heavenly resolving --perturb
   tau:+0.1``, must report fail_frac > 0, while the same ops unperturbed
   are reported as measured.
2. Call counts are exact: two traced runs of each workload with the same
   seed must give identical ``.calls`` and ``.count`` metrics.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run

ROUNDS = 3
#: --seconds of each traced run
TRACED_SECONDS = 2.0


def perturbed_fail_frac(wl_mod, seed: int) -> tuple[float, float]:
    from heavenly import cli
    fracs = []
    for perturb in (False, True):
        wl = wl_mod.ResolvingJacobi(seed)
        if perturb:
            wl.combos = [(kappa, cli._perturbed(rf, "tau:+0.1")) for kappa, rf in wl.combos]
        outcomes = [wl.op(i) for i in range(ROUNDS * wl.round_size)]
        summary = run.summarise(wl_mod, wl, outcomes)
        fracs.append(summary["status"]["failed"] / summary["attempted"])
    return fracs[0], fracs[1]


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(TRACED_SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    wl_mod = run._load_library()
    ok = True

    base, bumped = perturbed_fail_frac(wl_mod, args.seed)
    fired = bumped > 0
    ok &= fired
    print(f"gate fires: fail_frac {bumped:.3f} with tau+0.1, {base:.3f} without "
          f"-> {'PASS' if fired else 'FAIL'}")

    for name in wl_mod.WORKLOADS:
        first = traced_counts(name, args.seed)
        second = traced_counts(name, args.seed)
        diff = sorted(k for k in first if first[k] != second.get(k))
        same = not diff and first.keys() == second.keys()
        ok &= same
        nonzero = sum(1 for v in first.values() if v)
        print(f"counts stable: {name}: {len(first)} counts ({nonzero} nonzero) "
              f"-> {'PASS' if same else 'FAIL ' + ', '.join(diff)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
