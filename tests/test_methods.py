"""Tests for the method catalog, structural checks, and the method-file format."""

import math
import re
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
import sympy as sp

import oracles
from ldp_osc.methods import (
    ANSATZ_H_RANGE,
    COEFFICIENT_KEYS,
    Exact,
    MAX_NESTING,
    MethodDef,
    MethodFileError,
    ProofDeclined,
    catalog,
    check_conditions,
    condition_b_diagnostics,
    coupling,
    evaluate,
    evaluate_symbolic,
    format_method_file,
    get_method,
    parse_expression,
    parse_method_file,
)
from ldp_osc.methods import _cos, _literal, _pi_like, _sin

CATALOG_NAMES = [
    "em",
    "beta:0",
    "beta:0.5",
    "beta:1",
    "ex",
    "int",
    "opt",
    "theta:1",
    "pc-pem-mr",
    "pc-em-bem",
    "m1",
    "m2",
    "m3",
    "m4",
    "m5",
    "m6",
]


def test_catalog_names_and_count():
    names = [m.name for m in catalog()]
    assert names == CATALOG_NAMES


def test_evaluate_em():
    A, b = evaluate(get_method("em"), 0.5)
    npt.assert_allclose(A, [[1.0, 0.5], [-0.5, 1.0]])
    npt.assert_allclose(b, [0.0, 1.0])


def test_evaluate_exact_quarter_turn():
    A, b = evaluate(get_method("ex"), math.pi / 2)
    npt.assert_allclose(A, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)
    npt.assert_allclose(b, [0.0, 1.0], atol=1e-15)


def test_evaluate_opt_noise_vector():
    _, b = evaluate(get_method("opt"), math.pi / 2)
    npt.assert_allclose(b, [2.0 / math.pi, 2.0 / math.pi])


def test_evaluate_midpoint():
    h = 0.5
    d = 1.0 + h * h / 4.0
    A, b = evaluate(get_method("beta:0.5"), h)
    expected_A = np.array([[1.0 - h * h / 4.0, h], [-h, 1.0 - h * h / 4.0]]) / d
    npt.assert_allclose(A, expected_A, rtol=1e-15)
    npt.assert_allclose(b, [0.5 * h / d, 1.0 / d], rtol=1e-15)


def test_evaluate_rejects_out_of_range():
    with pytest.raises(ValueError):
        evaluate(get_method("em"), 1.0)
    with pytest.raises(ValueError):
        evaluate(get_method("em"), 0.0)
    with pytest.raises(ValueError):
        evaluate(get_method("ex"), -0.5)


def test_evaluate_rejects_zero_noise_vector():
    method = parse_method_file("a11 = 1\na12 = h\na21 = -h\na22 = 1\nb1 = 0\nb2 = 0\n")
    with pytest.raises(ValueError):
        evaluate(method, 0.5)


def test_coupling_value():
    A, b = evaluate(get_method("beta:0.5"), 0.5)
    q = coupling(A, b)
    assert q == pytest.approx(A[0][1] * b[1] - A[1][1] * b[0], rel=1e-15)


def test_check_conditions_em_is_excluded():
    A, b = evaluate(get_method("em"), 0.5)
    report = check_conditions(A, b)
    assert report.det == pytest.approx(1.25)
    assert report.a1 is True
    assert report.a2 is False
    assert report.a3 is False
    assert report.excluded is True
    assert report.a4 is True


def test_check_conditions_midpoint_is_symplectic():
    A, b = evaluate(get_method("beta:0.5"), 0.7)
    report = check_conditions(A, b)
    assert report.a2 is True
    assert report.a3 is False
    assert report.excluded is False
    assert report.a1 is True
    assert report.a4 is True


def test_check_conditions_theta_is_contractive():
    A, b = evaluate(get_method("theta:1"), 1.0)
    report = check_conditions(A, b)
    assert report.det == pytest.approx(0.5)
    assert report.a2 is False
    assert report.a3 is True
    assert report.excluded is False
    assert report.a4 is True


def test_check_conditions_a4_failure():
    # pick b so that b1 + a12 b2 - a22 b1 vanishes for the theta:1 matrix
    h = 0.5
    A, _ = evaluate(get_method("theta:1"), h)
    b = np.array([-1.0 / h, 1.0])
    report = check_conditions(A, b)
    assert report.a4 is False


def test_condition_b_diagnostics_consistent_methods():
    hs = [0.4, 0.2, 0.1, 0.05, 0.025]
    for name in ["ex", "em", "beta:0.5", "theta:1"]:
        diag = condition_b_diagnostics(get_method(name), hs)
        assert diag.verdict == "B-consistent", name
        assert len(diag.h_values) == len(hs)
        assert diag.reports == tuple(check_conditions(*evaluate(
            get_method(name), h)) for h in hs)


def test_condition_b_diagnostics_needs_normal_squared_steps():
    # r1 and r3 divide by h^2: a subnormal or zero square is an input error,
    # not a ZeroDivisionError
    method = get_method("ex")
    for finest in (1e-200, 1.4e-154):
        with pytest.raises(ValueError, match="need h\\^2 to be a normal float"):
            condition_b_diagnostics(method, [1e-150, finest])
    diag = condition_b_diagnostics(method, [1e-150, 1.5e-154])
    # det(I - A) = h^2 exactly here, where 1 - tr + det cancels to 0
    assert diag.r3 == (1.0, 1.0)


def test_condition_b_diagnostics_requires_decreasing_grid():
    with pytest.raises(ValueError):
        condition_b_diagnostics(get_method("ex"), [0.1, 0.2])
    with pytest.raises(ValueError):
        condition_b_diagnostics(get_method("ex"), [0.1])
    # the order is checked before the steps, so h = 3, outside (0, 2), is
    # not what is reported
    with pytest.raises(ValueError, match="strictly decreasing"):
        condition_b_diagnostics(get_method("beta:0.5"), (0.5, 3.0, 0.25))


def test_catalog_determinant_classes():
    for name in ["beta:0", "beta:0.5", "beta:1", "ex", "int", "opt",
                  "m1", "m2", "m3", "m4", "m5", "m6"]:
        method = get_method(name)
        hi = min(method.h_range[1], 2.0)
        for h in np.linspace(0.05, 0.95 * hi, 7):
            A, _ = evaluate(method, float(h))
            assert abs(np.linalg.det(A) - 1.0) <= 1e-12, (name, h)
    for name in ["theta:1", "pc-pem-mr", "pc-em-bem"]:
        method = get_method(name)
        hi = min(method.h_range[1], 2.0)
        for h in np.linspace(0.05, 0.95 * hi, 7):
            A, _ = evaluate(method, float(h))
            det = np.linalg.det(A)
            assert 0.0 < det < 1.0, (name, h)
    A, _ = evaluate(get_method("em"), 0.5)
    assert np.linalg.det(A) > 1.0


def test_get_method_materializes_parameter_values():
    m = get_method("beta:0.25")
    assert m.h_range == (0.0, 2.0)
    A, _ = evaluate(m, 0.5)
    assert abs(np.linalg.det(A) - 1.0) <= 1e-12

    low = get_method("theta:0.3")
    assert low.h_range == (0.0, 1.0)
    high = get_method("theta:0.7")
    assert high.h_range[1] == math.inf


def test_get_method_rejects_unknown():
    with pytest.raises(ValueError):
        get_method("beta:1.5")
    with pytest.raises(ValueError):
        get_method("no-such-method")
    with pytest.raises(ValueError, match="bad beta parameter 'x'"):
        get_method("beta:x")
    # a family parameter is normalized, so it finds the catalog entry
    assert get_method("beta:0.50") is get_method("beta:0.5")


def test_parse_expression_values():
    cases = [
        ("1 + h^2/4", 0.5, 1.0625),
        ("-h^2", 2.0, -4.0),
        ("(-h)^2", 2.0, 4.0),
        ("2^-3", 1.0, 0.125),
        ("2^3^2", 1.0, 512.0),
        ("2 + 3*4^2", 1.0, 50.0),
        ("sin(h)/h", 0.3, math.sin(0.3) / 0.3),
        ("cos(pi/2)", 1.0, 0.0),
        ("pi", 1.0, math.pi),
        ("--h", 0.7, 0.7),
        ("(1 - h^2/2)", 0.4, 0.92),
    ]
    for text, h, expected in cases:
        fn = parse_expression(text)
        assert fn(h) == pytest.approx(expected, abs=1e-14), text


def test_long_chains_evaluate_without_recursion():
    # one closure per chain, folded left to right, however long the chain
    fn = parse_expression("1" + " + h" * 5000 + " - 2*h" * 2500)
    assert fn(0.25) == 1.0
    assert fn(Exact.symbol()).num == {(): 1}
    assert parse_expression("h" + " * 2 / 2" * 3000)(0.3) == 0.3


@pytest.mark.parametrize("text, column", [
    ("(" * 3000 + "h" + ")" * 3000, MAX_NESTING),
    ("h" + "^1" * 3000, 2 * MAX_NESTING),
    ("sin(" * 3000 + "h" + ")" * 3000, 4 * MAX_NESTING),
], ids=["parens", "powers", "sin"])
def test_deep_nesting_is_a_file_error_at_the_offending_token(text, column):
    with pytest.raises(MethodFileError, match="nested deeper than") as info:
        parse_expression(text)
    assert info.value.column == column + 1
    # the deepest nesting accepted still evaluates
    parse_expression("(" * (MAX_NESTING - 1) + "h" + ")" * (MAX_NESTING - 1))


def test_parse_expression_errors_carry_position():
    with pytest.raises(MethodFileError) as exc:
        parse_expression("1 + $")
    assert exc.value.line == 1
    assert exc.value.column >= 5
    with pytest.raises(MethodFileError):
        parse_expression("sin(h")
    with pytest.raises(MethodFileError):
        parse_expression("")
    with pytest.raises(MethodFileError):
        parse_expression("1 2")
    for text, column, message in [
        ("sin h", 5, "expected '(' after sin"),
        ("foo + 1", 1, "unknown symbol 'foo'"),
        ("(1 + h", 7, "expected ')'"),
    ]:
        with pytest.raises(MethodFileError, match=re.escape(message)) as exc:
            parse_expression(text)
        assert (exc.value.line, exc.value.column) == (1, column), text


def test_parse_method_file_round_trip_matches_catalog():
    text = """name = m1
h_range = 0:2
a11 = 1 - h^2
a12 = h
a21 = -h
a22 = 1
b1 = h/2
b2 = 1
"""
    m1 = get_method("m1")
    parsed = parse_method_file(text)
    assert parsed.name == "m1"
    assert parsed.h_range == m1.h_range
    for h in [0.1, 0.5, 1.1, 1.9]:
        A0, b0 = evaluate(m1, h)
        A1, b1 = evaluate(parsed, h)
        npt.assert_allclose(A1, A0, rtol=1e-12, atol=1e-15)
        npt.assert_allclose(b1, b0, rtol=1e-12, atol=1e-15)


def test_parse_method_file_defaults_and_overrides():
    body = "\n".join(f"{key} = 1" for key in COEFFICIENT_KEYS)
    method = parse_method_file(body, fallback_name="from-disk")
    assert method.name == "from-disk"
    assert method.h_range == (0.0, math.inf)

    named = parse_method_file("name = custom\nh_range = 0:2\n" + body)
    assert named.name == "custom"
    assert named.h_range == (0.0, 2.0)

    open_range = parse_method_file("h_range = 0:inf\n" + body)
    assert open_range.h_range == (0.0, math.inf)


def test_parse_method_file_accepts_comments_and_blanks():
    text = """# rotation with a trailing comment
name = demo

a11 = cos(h)   # matrix entry
a12 = sin(h)
a21 = -sin(h)
a22 = cos(h)
b1 = 0
b2 = 1
"""
    method = parse_method_file(text)
    A, b = evaluate(method, 0.3)
    npt.assert_allclose(A, [[math.cos(0.3), math.sin(0.3)],
                            [-math.sin(0.3), math.cos(0.3)]])
    npt.assert_allclose(b, [0.0, 1.0])


def test_parse_method_file_error_positions():
    body = "a11 = 1\na12 = h\na21 = -h\na22 = 1\nb1 = 0\nb2 = 1\n"

    with pytest.raises(MethodFileError) as dup:
        parse_method_file(body + "a11 = 2\n")
    assert dup.value.line == 7

    with pytest.raises(MethodFileError) as unknown:
        parse_method_file("frobnicate = 1\n" + body)
    assert unknown.value.line == 1

    with pytest.raises(MethodFileError) as missing:
        parse_method_file("a11 = 1\na12 = h\n")
    assert "b2" in str(missing.value) or "missing" in str(missing.value).lower()

    with pytest.raises(MethodFileError) as badexpr:
        parse_method_file("a11 = 1 + $\n" + body[8:])
    assert badexpr.value.line == 1

    with pytest.raises(MethodFileError):
        parse_method_file("h_range = 2:1\n" + body)
    with pytest.raises(MethodFileError,
                       match="bad h_range '0:x', expected lo:hi") as nonnumber:
        parse_method_file("h_range = 0:x\n" + body)
    assert nonnumber.value.line == 1
    with pytest.raises(MethodFileError):
        parse_method_file("just a line without an equals sign\n" + body)


def test_format_method_file_round_trip():
    exprs = {
        "a11": "1 - h^2/2",
        "a12": "h",
        "a21": "-h + h^3/4",
        "a22": "1 - h^2/2",
        "b1": "h/2",
        "b2": "1",
    }
    text = format_method_file("demo", exprs, (0.0, 2.0))
    method = parse_method_file(text)
    assert method.name == "demo"
    assert method.h_range == (0.0, 2.0)
    A, b = evaluate(method, 0.5)
    npt.assert_allclose(A, [[0.875, 0.5], [-0.46875, 0.875]], rtol=1e-15)
    npt.assert_allclose(b, [0.25, 1.0], rtol=1e-15)


def test_evaluate_symbolic_midpoint_det_is_one():
    A, b, h = oracles.evaluate_symbolic(get_method("beta:0.5"))
    det = sp.simplify(A.det())
    assert det == 1
    assert b.shape == (2, 1)
    assert h.is_positive


def test_evaluate_symbolic_rejects_plain_python_closures():
    def opaque(h):
        return math.cos(h)

    bad = MethodDef(
        name="opaque",
        coefficients=(opaque, opaque, opaque, opaque, opaque, opaque),
    )
    with pytest.raises(TypeError):
        oracles.evaluate_symbolic(bad)


def test_exact_coefficients_have_no_float_escape():
    # math.cos needs __float__ or __index__, which Exact does not define
    opaque = MethodDef("opaque", lambda h: ([[math.cos(h), 0], [0, 1]], [0, 1]))
    with pytest.raises(TypeError):
        evaluate_symbolic(opaque)
    A, b, h = evaluate_symbolic(get_method("beta:0.5"))
    assert [len(row) for row in A] == [2, 2] and len(b) == 2
    assert all(isinstance(e, Exact) for e in (*A[0], *A[1], *b))
    assert str(A[0][1]) == "(h)/(h**2/4 + 1)"


@pytest.mark.parametrize("x,expected", [
    (0.5, Fraction(1, 2)),
    (1e-12, Fraction(1, 10 ** 12)),
    (-0.81, Fraction(-81, 100)),
    ((1 - 0.1) ** 2, Fraction(81, 100)),
    (0.1 + 0.2, Fraction(3, 10)),
    (1 / 3, Fraction(1, 3)),
    (6 / 7, Fraction(6, 7)),
    (0.0, Fraction(0)),
    (123456789.0, Fraction(123456789)),
])
def test_float_literals_are_the_simplest_fraction_with_their_15_digits(
        x, expected):
    assert _literal(x) == expected
    assert format(float(_literal(x)), ".15g") == format(x, ".15g")


def test_exact_arithmetic():
    h = Exact.symbol()
    assert str(_sin(h)) == "-i*exp(i*h)/2 + i*exp(-i*h)/2"
    # product to sum: sin(2h/3) cos(h) = (sin(5h/3) + sin(-h/3)) / 2
    difference = _sin(2 * h / 3) * _cos(-h) - _sin(-h) \
        - (_sin(5 * h / 3) + _sin(-h / 3)) / 2 - _sin(h)
    assert difference.num == {}
    assert str(_pi_like(h) * h) == "pi*h"
    assert str((h + 1) ** -2) == "(1)/(h**2 + 2*h + 1)"
    assert str(_sin(h - h)) == "0" and str(_cos(0 * h)) == "1"
    assert str((h ** 2 - 1) / (h + 1)) == "(h**2 - 1)/(h + 1)"  # no cancellation
    assert str(h ** 2.0 + h ** Fraction(1)) == "h**2 + h"
    for bad, reason in [
            (lambda: _sin(h ** 2),
             "trig argument h**2 is not a rational multiple of h"),
            (lambda: _cos(1 + h),
             "trig argument h + 1 is not a rational multiple of h"),
            (lambda: h ** 0.5, "h**0.5 is not a rational function of h, sin and cos"),
            (lambda: 2 ** h, "2**h is not a rational function of h, sin and cos"),
            (lambda: 1 / (h - h), "a denominator vanishes identically"),
            (lambda: h * math.inf, "literal inf is not finite")]:
        with pytest.raises(ProofDeclined) as info:
            bad()
        assert str(info.value) == reason
    with pytest.raises(TypeError):
        h * "2"


def test_products_beyond_the_proof_bounds_decline():
    # (1 + h)^1000 would square a 129-term polynomial; (h/3)^100000 would
    # carry a 158,000-bit coefficient
    h = Exact.symbol()
    with pytest.raises(ProofDeclined, match="129 by 129 terms"):
        (1 + h) ** 1000
    with pytest.raises(ProofDeclined, match="1 by 1 terms with 6494-bit"):
        (h / 3) ** 100000
    # the largest products the catalog forms stay far inside both bounds
    assert str((1 + h) ** 100).startswith("h**100 + 100*h**99 + 4950*h**98")


def test_exact_prints_any_variable():
    # variables other than i, pi, h and w follow those four, by name
    h, d1, c11 = Exact.symbol(), Exact.symbol(("d1",)), Exact.symbol(("c11",))
    assert str(d1 * h) == "h*d1"
    assert str(_pi_like(h) * d1 * c11 ** 2 / 2 - d1) == "pi*c11**2*d1/2 - d1"


@pytest.mark.parametrize("name", sorted(oracles.CONSTRUCTED_METHODS))
def test_constructed_methods_are_their_hand_written_formulas(name):
    method = get_method(name)
    formula = MethodDef(name, oracles.CONSTRUCTED_METHODS[name],
                        h_range=ANSATZ_H_RANGE)
    assert method.h_range == ANSATZ_H_RANGE
    A, b, _ = evaluate_symbolic(method)
    A_ref, b_ref, _ = evaluate_symbolic(formula)
    for got, expected in zip((*A[0], *A[1], *b), (*A_ref[0], *A_ref[1], *b_ref)):
        assert (got - expected).num == {}, (got, expected)
    for h in np.random.default_rng(6).uniform(0.0, 2.0, 2000):
        A, b = evaluate(method, h)
        A_ref, b_ref = evaluate(formula, h)
        npt.assert_array_equal(A, A_ref)
        npt.assert_array_equal(b, b_ref)
