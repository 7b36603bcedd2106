"""Every top-level function and class of the package is named somewhere
else in the package, or exported by it.

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


def unnamed_definitions(sources: dict[str, str], exported) -> list[tuple[str, str]]:
    """(module, name) of each top-level function or class of sources (module
    name -> text) that no other top-level statement of any module names and
    that is not in exported.  Dunder names (a module's __getattr__) are the
    interpreter's to call."""
    defined, named = [], []  # named: per top-level statement, (its module, its name, names)
    for module, text in sources.items():
        for node in ast.parse(text).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.append((module, own))
            named.append((module, own, _named(node)))
    return [(module, name) for module, name in defined
            if name not in exported and not name.startswith("__")
            and not any(name in names for m, own, names in named if (m, own) != (module, name))]


def test_the_check_sees_an_unnamed_definition():
    sources = {
        "a": "def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
             "class Kept:\n    pass\n\ndef exported():\n    pass\n\ndef __dir__():\n    return []\n",
        "b": "from .a import used\n\ndef caller():\n    return used() + Kept\n",
    }
    assert unnamed_definitions(sources, {"exported"}) == [("a", "recursive"), ("b", "caller")]


def test_every_definition_is_named_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    found = unnamed_definitions(sources, heavenly._EXPORTS)
    assert set(found) == UNNAMED_DEFINITIONS, found
