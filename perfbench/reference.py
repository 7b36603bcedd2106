"""Calibrations that measure the host's speed, independent of the library.

The benchmark's host shares its cores with other machines, and their load
changes how fast this process runs by up to about 2x, in phases that last
seconds.  Timing a fixed piece of work right before and right after an op
measures the host's speed at that moment, and the op's time is scaled by
it to a fixed nominal host speed.

Two calibrations, matched to what the ops spend their time on:

- ``KERNEL`` runs in-process and mixes what the library's ops are made of
  (Python calls and small-object churn around tiny numpy gathers, scatters
  and axis moves), for ops that run in the benchmark's process;
- ``INTERPRETER`` starts a bare ``python -c pass``, for ops that are
  fresh processes (the CLI examples and the set-up probes).

Neither shares code with the library, so a change to the library does not
change them.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import time

import numpy as np

_ORDER = 4
_SHAPE = (_ORDER + 1,) * 3
_TRIPLES = [(np.ravel_multi_index(a, _SHAPE), np.ravel_multi_index(b, _SHAPE),
             np.ravel_multi_index(tuple(x + y for x, y in zip(a, b)), _SHAPE))
            for a in itertools.product(range(_ORDER + 1), repeat=3) if sum(a) <= _ORDER
            for b in itertools.product(range(_ORDER + 1), repeat=3)
            if sum(b) <= _ORDER and sum(a) + sum(b) <= _ORDER]
_IA, _IB, _IT = (np.array(col) for col in zip(*_TRIPLES))
_W = np.arange(1, _ORDER + 1).reshape((_ORDER, 1, 1))
_RNG = np.random.default_rng(0)
_A = (_RNG.standard_normal(_SHAPE) + 1j * _RNG.standard_normal(_SHAPE))
_B = (_RNG.standard_normal(_SHAPE) + 1j * _RNG.standard_normal(_SHAPE))


class _Box:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c


def kernel() -> complex:
    """Twelve truncated order-4 products and derivatives on dense arrays."""
    acc = _Box(_A)
    for _ in range(12):
        out = np.zeros(125, dtype=complex)
        np.add.at(out, _IT, acc.c.ravel()[_IA] * _B.ravel()[_IB])
        prod = _Box(out.reshape(_SHAPE))
        d = np.moveaxis(np.moveaxis(prod.c, 1, 0)[1:] * _W, 0, 1)
        acc = _Box(_A + np.pad(d, ((0, 0), (0, 1), (0, 0))) * 1e-3)
    return complex(acc.c[0, 0, 0])


def _bare_interpreter() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Calibration:
    """A fixed piece of work and its duration on the nominal host."""

    def __init__(self, work, nominal_s: float):
        self.work = work
        self.nominal_s = nominal_s

    def sample(self) -> float:
        """Wall time of one run of the work."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def scaled(self, elapsed: float, before: float, after: float) -> float:
        """A wall time converted to the nominal host, given the calibration
        timings taken just before and just after it."""
        return elapsed * 2.0 * self.nominal_s / (before + after)


# nominal durations: the reference host (2-core x86-64 container, Python
# 3.11, numpy 2.4) in its usual state
KERNEL = Calibration(kernel, 0.0012)
INTERPRETER = Calibration(_bare_interpreter, 0.065)
