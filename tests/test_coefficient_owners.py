"""Only the engine reads a jet's coefficients.

A jet keeps its Taylor coefficients in `coeffs`, a dense array with one
cube of (order + 1)^nvars slots per row.  Only `jet` knows that layout:
every other module reads coefficients through `Jet.read` (or `value`,
`coefficient` and `partial`, its cases), so it never names `.coeffs`.  And
apart from `jet`, only `classify`, whose normal-form fit is an SVD, imports
numpy.
"""

import ast
import pathlib

import heavenly

PACKAGE = pathlib.Path(heavenly.__file__).resolve().parent

#: the one module that names a jet's coeffs
COEFFICIENT_OWNERS = {"jet"}
#: the modules allowed to import numpy
NUMPY_USERS = {"jet", "classify"}


def layout_reads(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, what) of each `.coeffs` named outside
    COEFFICIENT_OWNERS and each numpy import outside NUMPY_USERS, in sources
    (module name -> text)."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Attribute) and node.attr == "coeffs"
                    and module not in COEFFICIENT_OWNERS):
                found.append((module, node.lineno, "coeffs"))
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if module not in NUMPY_USERS and any(n.partition(".")[0] == "numpy" for n in names):
                found.append((module, node.lineno, "numpy"))
    return found


def test_the_check_sees_a_layout_read():
    sources = {
        "fields": "def rows(u):\n    return u.coeffs.reshape(-1, 64).tolist()\n",
        "resolving": "import numpy as np\n\ndef first(j):\n    return j.read(((0, 0, 0),))\n",
        "expr": "from numpy import asarray\n\ndef rows(j, n):\n    return j.read(((0,),) * n)\n",
        "jet": "import numpy as np\n\ndef size(j):\n    return j.coeffs.size\n",
        "classify": "import numpy.linalg\n\ndef rows(j):\n    return j.read(((0,), (1,)))\n",
    }
    assert layout_reads(sources) == [("fields", 2, "coeffs"), ("resolving", 1, "numpy"),
                                     ("expr", 1, "numpy")]


def test_only_the_engine_reads_the_layout():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert COEFFICIENT_OWNERS | NUMPY_USERS <= set(sources)
    assert layout_reads(sources) == []
