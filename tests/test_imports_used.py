"""Every name a module of the package imports is read in that module.

An import that nothing reads is left over from code that went away; it
costs load time and misleads the reader about what a module depends on.
"""

import ast
import pathlib

import pytest

import heavenly

PACKAGE = pathlib.Path(heavenly.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names source binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_check_sees_an_unused_import():
    source = ("from contextlib import ExitStack, contextmanager\nimport os.path\n"
              "from .errors import SWEEP_FALLBACK as FALLBACK\n"
              "@contextmanager\ndef f():\n    yield os.path.sep\n")
    assert unused_imports(source) == ["ExitStack (line 1)", "FALLBACK (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
