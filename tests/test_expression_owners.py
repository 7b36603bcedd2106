"""Only the modules whose trees are data construct expression nodes.

An expression tree (`expr.Const`, `expr.Add`, ...) comes from `expr.parse`
of a formula.  Outside `expr`, two modules build nodes themselves:
`classify`, whose normal forms have fitted constants that are data, and
`cli`, for the shifted copy of a function that ``--perturb`` makes.  Every
other module, `resolving`'s ansatz included, parses its formulas.
"""

import ast
import pathlib

import heavenly
from heavenly import expr as ex

PACKAGE = pathlib.Path(heavenly.__file__).resolve().parent

#: the modules allowed to construct an expression node
NODE_OWNERS = {"expr", "classify", "cli"}
#: the node classes of `expr`
NODES = {cls.__name__ for cls in ex.Node.__subclasses__()}


def _expr_names(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The names a module binds to the `expr` module, and to node classes
    imported from it."""
    modules, nodes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module in ("expr", "heavenly.expr") and alias.name in NODES:
                    nodes.add(alias.asname or alias.name)
                elif node.module in (None, "heavenly") and alias.name == "expr":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names
                        if alias.name == "heavenly.expr" and alias.asname}
    return modules, nodes


def node_constructions(sources: dict[str, str]) -> list[tuple[str, int]]:
    """(module, line) of each call of an expression node class in sources
    (module name -> text) outside NODE_OWNERS."""
    found = []
    for module, text in sources.items():
        if module in NODE_OWNERS:
            continue
        tree = ast.parse(text)
        modules, nodes = _expr_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if ((isinstance(fn, ast.Attribute) and fn.attr in NODES
                 and isinstance(fn.value, ast.Name) and fn.value.id in modules)
                    or (isinstance(fn, ast.Name) and fn.id in nodes)):
                found.append((module, node.lineno))
    return found


def test_the_check_sees_a_node():
    sources = {
        "resolving": "from . import expr as ex\n\ntau = ex.Neg(ex.Mul(ex.Var('ut'), x))\n",
        "fields": "from .expr import Const as K, parse\n\none = K(1.0)\nt = parse('t', ('t',))\n",
        "symmetry": "from . import expr as ex\n\ndef leaf(n):\n    return isinstance(n, ex.Var)\n",
        "classify": "from . import expr as ex\n\nz = ex.Var('z')\n",
        "sweeps": "import heavenly.expr as e\n\nc = e.Const(2j)\n",
    }
    assert node_constructions(sources) == [
        ("resolving", 3), ("resolving", 3), ("resolving", 3), ("fields", 3), ("sweeps", 3)]


def test_only_the_node_owners_construct_nodes():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert NODE_OWNERS <= set(sources) and len(NODES) == 9
    assert node_constructions(sources) == []
