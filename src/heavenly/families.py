"""The closed-form solution families by name, with their parameters.

Kept apart from the builders in `fields` so that the CLI can declare each
family's flags without importing them.
"""

#: each family's parameters in the order they are asked for: an expression
#: parameter maps to its variables, a real constant to ()
FAMILY_PARAMS = {
    "f0": {"C": ()},
    "f0general": {"l": (), "C1": (), "C2": (), "a": ("z",)},
    "noninv": {"b": ("z",)},
    "general_noninv": {"b": ("z",), "c": ("z",)},
    "confinv": {"f": ("xi", "t"), "A": ("z",), "a": ("z",)},
    "liouville": {"c": ("z",)},
}
