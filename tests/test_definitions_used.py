"""Every top-level function, class and assigned name (a constant or a
table) of the package is named somewhere else in the package, or exported
by it.

A definition that nothing names is left over from code that went away, or
is a check that no command runs; it costs load time and misleads the reader
about what the package does.
"""

import ast
import pathlib

import heavenly

PACKAGE = pathlib.Path(heavenly.__file__).resolve().parent

#: (module, name) of definitions kept although nothing in the package names
#: them: the automorphic consistency identity, which only the tests run
#: until `heavenly classify` reports it
UNNAMED_DEFINITIONS = {("classify", "automorphic_consistency")}


def _named(node: ast.AST) -> set[str]:
    """The names node reads: as variables, as attributes, or by an import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _defined(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function's or a class's,
    or the names an assignment binds (each of a tuple's)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)}


def unnamed_definitions(sources: dict[str, str], exported) -> list[tuple[str, str]]:
    """(module, name) of each top-level function, class or assigned name of
    sources (module name -> text) that no other top-level statement of any
    module names and that is not in exported.  Dunder names (a module's
    __getattr__, __all__) are the interpreter's to read."""
    defined, named = [], []  # named: per top-level statement, (its module, its names, names)
    for module, text in sources.items():
        for node in ast.parse(text).body:
            own = _defined(node)
            defined += [(module, name) for name in sorted(own)]
            named.append((module, own, _named(node)))
    return [(module, name) for module, name in defined
            if name not in exported and not name.startswith("__")
            and not any(name in names for m, own, names in named
                        if not (m == module and name in own))]


def test_the_check_sees_an_unnamed_definition():
    sources = {
        "a": "def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
             "class Kept:\n    pass\n\ndef exported():\n    pass\n\ndef __dir__():\n    return []\n",
        "b": "from .a import used\n\ndef caller():\n    return used() + Kept + _READ[0] + LOW\n",
        "c": "_READ = (0, 1)\n_SLOTS = tuple(2 * k for k in _READ)\nLOW, HIGH = 0, 1\n"
             "_TABLE: dict = {}\n__all__ = []\n",
    }
    assert unnamed_definitions(sources, {"exported"}) == [
        ("a", "recursive"), ("b", "caller"), ("c", "_SLOTS"), ("c", "HIGH"), ("c", "_TABLE")]


def test_every_definition_is_named_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    found = unnamed_definitions(sources, heavenly._EXPORTS)
    assert set(found) == UNNAMED_DEFINITIONS, found
