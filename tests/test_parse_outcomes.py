"""The parser's outcome on seeded texts, pinned.

tests/golden/parse_outcomes.json holds, for 3,000 texts of 0-14 tokens
drawn from `TOKENS` by ``random.Random(34)`` and for every expression flag
of the README's commands, either the parsed tree's ``repr`` and its
`expr.pretty` form, or the `ParseError`'s position and message.  Each text
is parsed over `VARIABLES`.

Regenerate with ``PYTHONPATH=src:tests python tests/test_parse_outcomes.py``
only for a named change of the grammar, the trees or the messages.
"""

import json
import pathlib
import random

from heavenly import expr as ex
from heavenly.errors import ParseError
from heavenly.families import FAMILY_PARAMS
from test_readme_examples import readme_commands

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "parse_outcomes.json"
TOKENS = (*"0123456789.eE+-*/^() \t,_", "z", "x", "xi", "i", "pi",
          "exp(", "ln(", "sqrt(", "1e", "1.5")
VARIABLES = ("z", "x", "xi", "t", "theta")
DRAWS = 3000
#: the flags whose value is an expression text
EXPRESSION_FLAGS = {f"--{name}" for names in FAMILY_PARAMS.values() for name in names} | {"--phi"}


def drawn_texts():
    rng = random.Random(34)
    return ["".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 14)))
            for _ in range(DRAWS)]


def readme_flags():
    return [value for argv in readme_commands()
            for flag, value in zip(argv, argv[1:]) if flag in EXPRESSION_FLAGS]


def outcome(text):
    try:
        e = ex.parse(text, VARIABLES)
    except ParseError as err:
        return {"text": text, "error": [err.position, err.message]}
    return {"text": text, "tree": repr(e.root), "pretty": ex.pretty(e.root)}


def outcomes():
    return [outcome(text) for text in drawn_texts() + readme_flags()]


def test_parse_outcomes_are_pinned():
    want = json.loads(GOLDEN.read_text())
    got = outcomes()
    assert len(got) == len(want)
    for rec, pinned in zip(got, want):
        assert rec == pinned


def test_the_pinned_texts_cover_trees_errors_and_the_readme():
    pinned = json.loads(GOLDEN.read_text())
    assert len(pinned) == DRAWS + len(readme_flags())
    assert {"z^2 + i", "-2*z + 1", "xi*theta", "2*z"} <= {rec["text"] for rec in pinned}
    trees = [rec for rec in pinned if "tree" in rec]
    assert len(trees) > 100 and len(pinned) - len(trees) > 100
    for node in ("Add", "Sub", "Mul", "Div", "Neg", "Pow", "Call"):
        assert any(f"{node}(" in rec["tree"] for rec in trees), node


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outcomes(), indent=0, ensure_ascii=False) + "\n")
