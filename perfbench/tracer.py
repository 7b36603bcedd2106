"""Span tracing of the library's public functions, installed from outside.

Nothing under ``src/`` knows about tracing: ``Tracer.installed()`` replaces
each traced function or method with a wrapper for the duration of a
``with`` block and puts the originals back afterwards.  A function that
another module imported by name is replaced there too, so every call path
into a layer passes through the same wrapper.

Spans (name, start, end, parent, op id, raised) are kept in flat arrays in
memory and written out by ``save``.  Self time is computed as spans close:
a span's duration minus the time covered by its direct children, which is
exact because spans on one thread nest.  A wrapper's bookkeeping falls
inside its own span, so it adds to the traced function's self time; only
the call into the wrapper and the two updates after its closing clock
read are charged to the caller's span.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from heavenly import classify, expr, fields, invariants, jet, resolving, symmetry

# (span name, owner, attribute).  Jet ring operations that share a span name
# are the operator and its reflected or negated forms.
TRACED = (
    ("jet.mul", jet.Jet, "__mul__"),
    ("jet.mul", jet.Jet, "__rmul__"),
    ("jet.add_sub", jet.Jet, "__add__"),
    ("jet.add_sub", jet.Jet, "__radd__"),
    ("jet.add_sub", jet.Jet, "__sub__"),
    ("jet.add_sub", jet.Jet, "__rsub__"),
    ("jet.add_sub", jet.Jet, "__neg__"),
    ("jet.derivative", jet.Jet, "derivative"),
    ("jet.truncated", jet.Jet, "truncated"),
    ("jet.reciprocal", jet.Jet, "reciprocal"),
    ("jet.exp", jet.Jet, "exp"),
    ("jet.log", jet.Jet, "log"),
    ("jet.cpow", jet.Jet, "cpow"),
    ("jet.compose3", jet, "compose3"),
    ("jet.compose_series", jet, "compose_series"),
    ("expr.parse", expr, "parse"),
    ("expr.evaluate", expr, "evaluate"),
    ("expr.substitute", expr, "substitute"),
    ("fields.jet_at", fields.SolutionField, "jet_at"),
    ("fields.make_solution", fields, "make_solution"),
    ("fields.conformal_pushforward", fields, "conformal_pushforward"),
    ("invariants.JetCalculus", invariants.JetCalculus, "__init__"),
    ("invariants.invariants_at", invariants, "invariants_at"),
    ("invariants.pde_residual", invariants, "pde_residual"),
    ("invariants.liouville_residual", invariants, "liouville_residual"),
    ("invariants.commutator_residual", invariants, "commutator_residual"),
    ("symmetry.x2_apply", symmetry, "x2_apply"),
    ("symmetry.invariance_residual", symmetry, "invariance_residual"),
    ("symmetry.conf_inv_witness", symmetry, "conf_inv_witness"),
    ("resolving.ansatz_functions", resolving, "ansatz_functions"),
    ("resolving.resolving_residuals", resolving, "resolving_residuals"),
    ("resolving.jacobi_residual", resolving, "jacobi_residual"),
    ("classify.theorem_case", classify, "theorem_case"),
    ("classify.verify_case", classify, "verify_case"),
    ("classify.classify_b", classify, "classify_b"),
)

#: every traced span name, in report order
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.raised = array("b")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.jet_allocs = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._child: list[float] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.errors[name] = 0
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # the clock is read first and last, so the span (and its self
            # time) holds the wrapper's own bookkeeping, not its parent
            t0 = clock()
            idx = len(self.start)
            self.start.append(t0)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.raised.append(0)
            self._stack.append(idx)
            self._child.append(0.0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                self.errors[name] += 1
                raise
            finally:
                self._stack.pop()
                child = self._child.pop()
                self.calls[name] += 1
                t1 = clock()
                self.end[idx] = t1
                self.self_s[name] += (t1 - t0) - child
                if self._child:
                    self._child[-1] += t1 - t0

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; used for layers measured from the harness."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def installed(self):
        """Route every traced function through this tracer inside the block."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "heavenly" or n.startswith("heavenly."))]
        for name, owner, attr in TRACED:
            orig = owner.__dict__[attr]
            wrapped = self.wrap(name, orig)
            undo.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig and mod is not owner:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        post_init = jet.Jet.__post_init__

        def counting_post_init(obj):
            self.jet_allocs += 1
            post_init(obj)

        jet.Jet.__post_init__ = counting_post_init
        undo.append((jet.Jet, "__post_init__", post_init))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 op=np.frombuffer(self.op, dtype=np.int64),
                 raised=np.frombuffer(self.raised, dtype=np.int8))
