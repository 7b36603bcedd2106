import cmath
import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavenly import expr as ex
from heavenly.classify import theorem_case
from heavenly.errors import ArityMismatch, ParseError
from case_draws import EMPTY_CASES, draw_case


def val(text, **env):
    return ex.evaluate_value(ex.parse(text, tuple(env)), env)


def test_literals_and_constants():
    assert val("2") == 2
    assert val("2.5e-1") == pytest.approx(0.25)
    assert val("i") == 1j
    assert val("pi") == pytest.approx(cmath.pi)


def test_precedence_and_associativity():
    assert val("2+3*4") == 14
    assert val("2*3^2") == 18
    assert val("-2^2") == -4  # negation binds looser than the power
    assert val("(2+3)*4") == 20
    assert val("2-3-4") == -5
    assert val("12/3/2") == 2
    assert val("2^3^2") == pytest.approx(512)  # right-associative power


def test_functions_and_variables():
    assert val("exp(ln(x))", x=2.5 + 0.5j) == pytest.approx(2.5 + 0.5j)
    assert val("sqrt(x^2)", x=1.3) == pytest.approx(1.3)
    assert val("x*y - y", x=2 + 1j, y=3) == pytest.approx(3 + 3j)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        ex.parse("2x", ("x",))


def test_unknown_variable_rejected():
    with pytest.raises(ParseError):
        ex.parse("x + q", ("x",))


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        ex.parse("1 + *2", ("x",))
    assert err.value.position == 4


def test_unexpected_end():
    with pytest.raises(ParseError):
        ex.parse("z^(", ("z",))


@pytest.mark.parametrize("text, position, message", [
    ("", 0, "empty input"),
    ("(z", 2, "expected ')'"),
    ("1e+", 1, "malformed number"),
    (".", 0, "malformed number"),
    # a literal that overflows to infinity, alone and inside a sum
    ("1e999", 0, "number out of range"),
    ("z^2 + 1e400", 6, "number out of range"),
])
def test_malformed_text_is_a_parse_error(text, position, message):
    with pytest.raises(ParseError) as err:
        ex.parse(text, ("z",))
    assert (err.value.position, err.value.message) == (position, message)


def test_substitute_keeps_a_variable_the_mapping_does_not_name():
    e = ex.substitute(ex.parse("x*y + y", ("x", "y")), {"x": ex.parse("2*w", ("w",))})
    assert e.variables == ("w", "y")
    assert ex.evaluate_value(e, {"w": 1.5, "y": 2.0}) == 8.0


def test_str_is_the_pretty_form():
    e = ex.parse("z^2 + i", ("z",))
    assert str(e) == ex.pretty(e.root) == "z^2 + i"


def test_eval_jet1_takes_one_variable():
    with pytest.raises(ArityMismatch):
        ex.eval_jet1(ex.parse("z*w", ("z", "w")), 0.5, 1)


def test_pretty_round_trip_is_fixed_point():
    for text in ("z^2 + i", "exp(-(z + 1)/2)", "1/(z + 2) + i",
                 "sqrt(2*x - y^2)", "-(a + b)*c"):
        vars_ = tuple(sorted(set("abcxyz") & set(text)))
        e = ex.parse(text, vars_)
        once = ex.pretty(e.root)
        twice = ex.pretty(ex.parse(once, vars_).root)
        assert once == twice


def printed_constants() -> dict:
    """Expressions whose constants the parser never makes, imaginary ones
    other than i and ones with both parts nonzero: a `conjugate`, k*i as a
    power's base and exponent and as a divisor, and the b and generator a
    of one normal form of every (case, kappa) pair."""
    z = ex.Var("z")
    cases = {"conjugate": ex.conjugate(ex.parse("z^2 + 0.5*i - 2", ("z",))),
             "z^(2i)": ex.Expr(ex.Pow(z, ex.Const(2j)), ("z",)),
             "(2i)^z": ex.Expr(ex.Pow(ex.Const(2j), z), ("z",)),
             "z/(1.5i)": ex.Expr(ex.Div(z, ex.Const(1.5j)), ("z",))}
    rng = random.Random(7)
    for kappa in (1, -1):
        for cid in range(1, 9):
            if (kappa, cid) in EMPTY_CASES:
                continue
            b, gen = theorem_case(draw_case(cid, kappa, rng))
            case = "" if cid == 1 else f" case {cid}"
            cases[f"b{kappa:+d}{case}"] = b
            if gen.a is not None:
                cases[f"a{kappa:+d}{case}"] = gen.a
    return cases


PRINTED = printed_constants()


@pytest.mark.parametrize("name", PRINTED)
def test_pretty_round_trips_every_kind_of_constant(name):
    e = PRINTED[name]
    again = ex.parse(ex.pretty(e.root), e.variables)
    for z in (0.7 + 0.2j, 1.3 - 0.4j, 0.9 + 0j):
        want = ex.evaluate_value(e, {"z": z})
        assert ex.evaluate_value(again, {"z": z}) == pytest.approx(want, rel=1e-12)


def test_conjugate_flips_constants_only():
    e = ex.parse("(2+3*i)*z + i", ("z",))
    c = ex.conjugate(e)
    z = 0.4 + 0.7j
    got = ex.evaluate_value(c, {"z": z.conjugate()})
    want = ex.evaluate_value(e, {"z": z}).conjugate()
    assert got == pytest.approx(want)


def test_substitute_builds_composite():
    phi = ex.parse("xi^2 + theta", ("xi", "theta"))
    xi = ex.parse("2*u - 1", ("u", "v"))
    theta = ex.parse("v + 1", ("u", "v"))
    comp = ex.substitute(phi, {"xi": xi, "theta": theta})
    got = ex.evaluate_value(comp, {"u": 0.3, "v": 0.8})
    assert got == pytest.approx((2 * 0.3 - 1) ** 2 + 0.8 + 1)


def test_eval_jet1_derivatives():
    e = ex.parse("exp(z)*z", ("z",))
    z0 = 0.2 + 0.1j
    j = ex.eval_jet1(e, z0, 3)
    assert j.value == pytest.approx(cmath.exp(z0) * z0)
    assert j.partial((1,)) == pytest.approx(cmath.exp(z0) * (z0 + 1))
    assert j.partial((2,)) == pytest.approx(cmath.exp(z0) * (z0 + 2))


def test_conjugate_expression_matches_conjugate_function():
    e = ex.parse("z^2 + i*z", ("z",))
    zb = 0.5 - 0.3j
    j = ex.eval_jet1(ex.conjugate(e), zb, 2)
    z = zb.conjugate()
    assert j.value == pytest.approx((z * z + 1j * z).conjugate())
    # derivative of the conjugate-partner function at zbar
    assert j.partial((1,)) == pytest.approx((2 * z + 1j).conjugate())


@settings(max_examples=60, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9))
def test_rational_arithmetic_round_trips(a, b, c):
    text = f"({a} + {b}*i)/{c}"
    assert val(text) == pytest.approx(complex(a, b) / c)


@settings(max_examples=40, deadline=None)
@given(st.floats(-2, 2, allow_nan=False), st.floats(0.1, 2, allow_nan=False))
def test_pretty_round_trip_random_values(x, y):
    e = ex.parse("x^2 - sqrt(y) + x/y", ("x", "y"))
    again = ex.parse(ex.pretty(e.root), ("x", "y"))
    assert ex.evaluate_value(again, {"x": x, "y": y}) == pytest.approx(
        ex.evaluate_value(e, {"x": x, "y": y}))


def test_evaluated_expressions_and_jets_copy_and_pickle():
    e = ex.parse("(0.5 + -0.3*i)*z^2 + exp(z)", ("z",))
    first = ex.eval_jet1(e, 0.3 + 0.1j, 2)
    for copied in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
        assert copied == e
        again = ex.eval_jet1(copied, 0.3 + 0.1j, 2)
        assert again.coeffs.tobytes() == first.coeffs.tobytes()
    for jet in (pickle.loads(pickle.dumps(first)), copy.copy(first), copy.deepcopy(first)):
        assert (jet.depth, jet.nvars, jet.order) == (0, 1, 2)
        assert jet.coeffs.tobytes() == first.coeffs.tobytes()
        assert not jet.coeffs.flags.writeable
