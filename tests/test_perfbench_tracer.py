"""perfbench's tracer still finds every function it wraps.

`perfbench/tracer.py` names each traced layer by (owner, attribute) and
looks the attribute up in the owner's own namespace when a traced run
starts, so a renamed or moved function breaks `--trace 1` and nothing
else.  The module is loaded from its file, without writing bytecode next
to it.
"""

import importlib.util
import pathlib
import sys

import pytest

from heavenly import invariants
from heavenly.fields import Point, make_solution

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_attribute_resolves(tracer):
    assert tracer.TRACED
    for name, owner, attr in tracer.TRACED:
        assert callable(vars(owner).get(attr)), (name, owner, attr)


def test_a_traced_point_counts_one_calculus_and_restores_the_originals(tracer):
    fld = make_solution("f0", {"C": 1.0}, 1)
    before = {(owner, attr): vars(owner)[attr] for _, owner, attr in tracer.TRACED}
    t = tracer.Tracer()
    with t.installed():
        invariants.invariants_at(fld, Point(1.0, 1.0 + 0.5j))
    assert t.calls["invariants.JetCalculus"] == 1
    assert t.calls["invariants.invariants_at"] == 1
    assert {(owner, attr): vars(owner)[attr] for _, owner, attr in tracer.TRACED} == before
