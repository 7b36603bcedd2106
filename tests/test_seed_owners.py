"""Only the modules that evaluate jets construct seed jets.

A seed (`Jet.variable` or `Jet.constant`) starts a jet evaluation.  The
engine (`jet`), expression evaluation (`expr`), the field builders
(`fields`) and the resolving projection (`resolving`) make them; every
other module reads a one-variable expression through `expr.eval_jet1_rows`
or a field through its store, so that each read has one path.
"""

import ast
import pathlib

import heavenly

PACKAGE = pathlib.Path(heavenly.__file__).resolve().parent

#: the modules allowed to construct a seed
SEED_OWNERS = {"jet", "expr", "fields", "resolving"}


def seed_constructions(sources: dict[str, str]) -> list[tuple[str, int]]:
    """(module, line) of each reference to Jet.variable or Jet.constant in
    sources (module name -> text) outside SEED_OWNERS."""
    found = []
    for module, text in sources.items():
        if module in SEED_OWNERS:
            continue
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Attribute) and node.attr in ("variable", "constant")
                    and isinstance(node.value, ast.Name) and node.value.id == "Jet"):
                found.append((module, node.lineno))
    return found


def test_the_check_sees_a_seed():
    sources = {
        "cli": "from .jet import Jet\n\ndef passes(zs):\n    return Jet.variable(0, zs, 1, 0)\n",
        "classify": "def scale(jet):\n    make = Jet.constant\n    return make(2.0, 1, 0)\n",
        "symmetry": "def rows(e, zs):\n    return ex.eval_jet1_rows(e, zs, 1)\n",
        "fields": "def _seed(v, order):\n    return Jet.variable(0, v, 1, order)\n",
    }
    assert seed_constructions(sources) == [("cli", 4), ("classify", 2)]


def test_only_the_seed_owners_construct_seeds():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert SEED_OWNERS <= set(sources)
    assert seed_constructions(sources) == []
