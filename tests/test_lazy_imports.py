"""The package and the CLI import a module only when it is used."""

import os
import pathlib
import subprocess
import sys

import pytest

import heavenly

SRC = pathlib.Path(heavenly.__file__).resolve().parent.parent

#: what a `heavenly resolving` run does not need
NOT_FOR_RESOLVING = ("heavenly.fields", "heavenly.invariants", "heavenly.symmetry",
                     "heavenly.classify")


def loaded_by(code: str) -> list[str]:
    """The heavenly modules a fresh `python -c CODE` process has loaded when
    it exits."""
    code = ("import sys\n" + code
            + "print(' '.join(sorted(m for m in sys.modules if m.startswith('heavenly'))))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.split("\n")[-2].split()


def loaded_after(argv: list[str]) -> list[str]:
    """The heavenly modules a fresh `python -m heavenly.cli ARGV` process
    has loaded when it exits."""
    return loaded_by("import runpy\n"
                     f"sys.argv = ['heavenly', *{argv!r}]\n"
                     "try:\n"
                     "    runpy.run_module('heavenly.cli', run_name='__main__')\n"
                     "except SystemExit as exit:\n"
                     "    assert exit.code == 0, exit.code\n")


def test_resolving_loads_no_field_invariant_symmetry_or_classify_module():
    loaded = loaded_after(["resolving", "--phi", "xi*theta", "--samples", "3"])
    assert {"heavenly.resolving", "heavenly.sweeps"} <= set(loaded)
    assert not set(NOT_FOR_RESOLVING) & set(loaded)


def test_the_point_store_loads_no_field_or_resolving_module():
    loaded = loaded_by("import heavenly.sweeps\n")
    assert "heavenly.sweeps" in loaded
    assert not {"heavenly.fields", "heavenly.resolving"} & set(loaded)


def test_verify_loads_no_symmetry_resolving_or_classify_module():
    loaded = loaded_after(["verify", "--family", "f0", "--C", "1",
                           "--grid", "t=1:1:1,re=1:1:1,im=0:0:1"])
    assert {"heavenly.fields", "heavenly.invariants"} <= set(loaded)
    assert not {"heavenly.symmetry", "heavenly.resolving", "heavenly.classify"} & set(loaded)


@pytest.mark.parametrize("name", heavenly.__all__)
def test_each_public_name_is_its_modules_object(name):
    value = getattr(heavenly, name)
    assert name in dir(heavenly)
    if name != "__version__":
        assert getattr(sys.modules[value.__module__], name) is value
        assert value.__module__.startswith("heavenly.")


def test_from_import_of_names_and_modules():
    from heavenly import Jet, classify, classify_b
    assert classify.classify_b is classify_b
    assert Jet.__module__ == "heavenly.jet"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        heavenly.no_such_name
    with pytest.raises(ImportError):
        from heavenly import no_such_name  # noqa: F401
