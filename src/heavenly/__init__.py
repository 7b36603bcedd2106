"""Verification library for the group-foliation analysis of the heavenly
equation u_{z zbar} = kappa (e^u)_{tt}: truncated-Taylor jet arithmetic,
closed-form solution families, differential invariants and their operator
algebra, the resolving system, symmetry generators, and the invariance
classification of the two-logarithm solution family.

The names below are imported from their modules on first use (PEP 562), so
importing the package, or one of its modules, loads only what is used.
"""

import importlib

__version__ = "0.1.0"

#: each public name and the module that defines it
_EXPORTS = {
    "HeavenlyError": "errors", "Expr": "expr", "parse": "expr", "pretty": "expr",
    "Point": "fields", "SolutionField": "fields", "conformal_pushforward": "fields",
    "make_solution": "fields", "InvariantSet": "invariants",
    "commutator_residual": "invariants", "invariants_at": "invariants",
    "liouville_residual": "invariants", "pde_residual": "invariants", "Jet": "jet",
    "TheoremCase": "classify", "classify_b": "classify", "theorem_case": "classify",
    "verify_case": "classify", "ResolvingPoint": "resolving",
    "ansatz_functions": "resolving", "jacobi_residual": "resolving",
    "resolving_residuals": "resolving", "GeneratorSpec": "symmetry",
    "conf_inv_witness": "symmetry", "invariance_residual": "symmetry",
    "x2_apply": "symmetry",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
