"""The README's five CLI examples, run in-process, print exactly the
committed reports in tests/golden/<subcommand>.json, and its Python
example prints what its comments say."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from heavenly.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

#: the README's examples; perfbench's cli-examples workload runs the same argv
README_EXAMPLES = (
    ["verify", "--kappa", "1", "--family", "noninv", "--b", "z^2 + i",
     "--grid", "t=0.5:2:4,re=0.5:2:4,im=-0.5:0.5:3", "--tol", "1e-9"],
    ["classify", "--kappa", "1", "--b", "-2*z + 1"],
    ["resolving", "--kappa", "1", "--phi", "xi*theta", "--samples", "100", "--seed", "7"],
    ["symmetry", "--check", "invariants", "--a", "z^2", "--family", "noninv", "--b", "z^2+i"],
    ["orbit", "--family", "f0", "--C", "1", "--phi", "2*z", "--tol", "1e-8"],
)


def readme_commands() -> list[list[str]]:
    """The argv of every `heavenly ...` line in the README's sh blocks."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["heavenly"]:
                commands.append(words[1:])
    return commands


def test_examples_are_the_readmes():
    assert all(argv in readme_commands() for argv in README_EXAMPLES)


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=lambda argv: argv[0])
def test_readme_example_prints_its_golden_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert out.getvalue() == (GOLDEN / f"{argv[0]}.json").read_text()


def test_readme_python_example_prints_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    printed = out.getvalue().splitlines()
    said = [line.partition("#")[2].strip() for line in block.splitlines()
            if line.startswith("print(")]
    assert len(printed) == len(said) == 2
    # rho, eta and lambda at the point, to roundoff
    values, comment = ([complex(word) for word in line.split()] for line in (printed[0], said[0]))
    assert len(values) == len(comment) == 3
    assert all(abs(v - c) <= 1e-12 for v, c in zip(values, comment))
    # the classification verdict's class
    assert printed[1].partition("(")[0] == said[1].partition("(")[0] == "ConformallyNonInvariant"
