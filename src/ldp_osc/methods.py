"""One-step methods x_{n+1} = A(h) x_n + alpha b(h) dW_n for the oscillator.

Ships the built-in catalog, admissibility checks on (A, b), small-step
diagnostics against the plain Euler step, and a tiny plain-text definition
format so user methods can be loaded from files.

Coefficient evaluators are written against the sin/cos/pi helpers `_sin`,
`_cos` and `_pi_like`, which dispatch on the argument type: floats go to
`math`, and an exact arithmetic registers its own types (`exact.Exact` does,
so `evaluate_symbolic` yields exact coefficients).

Method file format (one `key = expression` per line, `#` starts a comment):

    name    = my-method          (optional)
    h_range = 0:2                (optional, `inf` allowed for the upper end)
    a11     = 1 - h^2
    a12     = h
    a21     = -h
    a22     = 1
    b1      = h / 2
    b2      = 1

Expression grammar (EBNF):

    expression = term , { ( "+" | "-" ) , term } ;
    term       = factor , { ( "*" | "/" ) , factor } ;
    factor     = { "+" | "-" } , power ;               (* -h^2 = -(h^2) *)
    power      = atom , [ "^" , factor ] ;             (* right associative *)
    atom       = number | "h" | "pi"
               | ( "sin" | "cos" ) , "(" , expression , ")"
               | "(" , expression , ")" ;
    number     = digits , [ "." , digits ] , [ ( "e" | "E" ) , [ sign ] , digits ] ;

Every number is a float64, like every coefficient, so integer arithmetic
beyond 2^53 is not exact and 10^400 overflows.
"""

import math
import operator
import re
import sys
from functools import singledispatch
from typing import Callable, NamedTuple


@singledispatch
def _sin(x):
    return math.sin(x)


@singledispatch
def _cos(x):
    return math.cos(x)


@singledispatch
def _pi_like(h):
    return math.pi


class MethodDef(NamedTuple):
    """A named one-step method: h maps to the pair (A, b).

    coefficients returns nested lists so the same evaluator serves floats and
    exact symbols; h_range is the open interval of admissible step sizes.
    definition holds the method-file text for methods that have one (parsed
    or synthesized), empty otherwise.
    """

    name: str
    coefficients: Callable
    description: str = ""
    h_range: tuple = (0.0, math.inf)
    definition: str = ""


def evaluate(method, h):
    """Float coefficients ((a11, a12), (a21, a22)), (b1, b2) at step h, checked."""
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    lo, hi = method.h_range
    if not lo < h < hi:
        raise ValueError(
            f"step {h:g} outside the admissible range ({lo:g}, {hi:g}) of {method.name}")
    try:
        A_rows, b_rows = method.coefficients(h)
        A = tuple(tuple(map(float, row)) for row in A_rows)
        b = tuple(map(float, b_rows))
    except (ArithmeticError, TypeError) as exc:
        # a float power out of range, a division by zero, or a complex value
        # (a fractional power of a negative number), which float() rejects
        what = "overflow" if isinstance(exc, OverflowError) else \
            "division by zero" if isinstance(exc, ZeroDivisionError) else \
            "a value that is not a real number"
        raise ValueError(f"{method.name}: coefficients hit {what} at "
                         f"h = {h:g}") from None
    for key, value in zip(COEFFICIENT_KEYS, (*A[0], *A[1], *b)):
        if not math.isfinite(value):
            raise ValueError(
                f"{method.name}: coefficient {key} = {value:g} is not finite "
                f"at h = {h:g}")
    if b[0] * b[0] + b[1] * b[1] == 0.0:
        raise ValueError(
            f"{method.name}: noise vector vanishes at h = {h:g}; "
            "the update would ignore the Brownian motion")
    return A, b


def evaluate_symbolic(method):
    """Coefficients at the exact symbol h, for identity-level checks: A and b
    shaped as by `evaluate` with `Exact` entries, and h. Raises TypeError when
    a coefficient does not evaluate exactly (built from `math.sin`, say) and
    `exact.ProofDeclined` when one leaves the rational functions of h, sin
    and cos."""
    from .exact import Exact  # the proof engine loads for a proof only
    h = Exact.symbol()
    A_rows, b_rows = method.coefficients(h)
    A = tuple(tuple(map(Exact.of, row)) for row in A_rows)
    b = tuple(map(Exact.of, b_rows))
    return A, b, h


def coupling(A, b):
    """Position-noise coupling q = a12 b2 - a22 b1."""
    return A[0][1] * b[1] - A[1][1] * b[0]


def decreasing_sweep(h_values):
    """The steps as a float tuple, rejected unless they are positive and
    strictly decreasing and the finest step's square is a normal float (the
    condition ratios divide by h^2)."""
    hs = tuple(float(h) for h in h_values)
    # first, so that a halving sweep that underflows to 0 says why
    if hs and hs[-1] * hs[-1] < sys.float_info.min:
        raise ValueError(f"the finest step {hs[-1]:g} is too small: h^2 "
                         "must be a normal float")
    for h in hs:
        if not h > 0:
            raise ValueError(f"step size must be positive, got {h}")
    if len(hs) < 2 or any(hs[i + 1] >= hs[i] for i in range(len(hs) - 1)):
        raise ValueError("h_values must be strictly decreasing with >= 2 entries")
    return hs


# tolerance of the det = 1 and a4 tests
_CONDITION_TOL = 1e-12

# smallest sin(theta) at which the exact laws trust the rotation angle
SIN_THETA_MIN = 1e-8


class NearDegenerateError(ValueError):
    """tr(A) is too close to +-2 sqrt(det A); the rotation angle is numerically lost."""


class ConditionReport(NamedTuple):
    """Admissibility flags of a coefficient pair at one step size.

    theta: rotation angle of the complex pair sqrt(det) exp(+-i theta),
           cos(theta) = tr / (2 sqrt(det)); nan when a1 fails
    a1: complex eigenvalue pair (4 det - tr^2 > 0)
    a2: volume preserving (det = 1 within tolerance)
    a3: strict contraction (0 < det < 1), claimed only when a2 fails
    a4: position-noise coupling b1 + a12 b2 - a22 b1 does not vanish
    excluded: det > 1 beyond tolerance; powers of A diverge
    """

    det: float
    tr: float
    theta: float
    a1: bool
    a2: bool
    a3: bool
    a4: bool
    excluded: bool


def check_conditions(A, b):
    (a11, a12), (a21, a22) = (map(float, row) for row in A)
    b1, b2 = map(float, b)
    det = a11 * a22 - a12 * a21
    tr = a11 + a22
    a2 = abs(det - 1.0) <= _CONDITION_TOL
    a1 = 4.0 * det - tr * tr > 0.0
    theta = math.nan
    if a1:
        # rounding can push the cosine a hair outside [-1, 1] even when
        # 4 det > tr^2; clamping turns such matrices into sin(theta) ~ 0
        theta = math.acos(min(1.0, max(-1.0, tr / (2.0 * math.sqrt(det)))))
    a3 = (not a2) and 0.0 < det < 1.0
    a4 = abs(b1 + a12 * b2 - a22 * b1) > _CONDITION_TOL
    excluded = (not a2) and det > 1.0
    return ConditionReport(det, tr, theta, a1, a2, a3, a4, excluded)


class ConditionBDiagnostics(NamedTuple):
    """Ratio tables measuring closeness to the Euler step as h decreases.

    r1 = (|a11-1| + |a22-1| + |a12-h| + |a21+h|) / h^2   stays bounded
    r2 = (|b1| + |b2-1|) / h                             stays bounded
    r3 = (1 - tr + det) / h^2                            tends to 1
    r4 = (b1 + a12 b2 - a22 b1) / h                      tends to 1
    reports: the `ConditionReport` of each step
    """

    h_values: tuple
    r1: tuple
    r2: tuple
    r3: tuple
    r4: tuple
    verdict: str
    reports: tuple


def condition_b_diagnostics(method, h_values):
    hs = decreasing_sweep(h_values)
    pairs = [evaluate(method, h) for h in hs]
    if hs[0] * hs[0] == math.inf:
        raise ValueError(f"{method.name}: step {hs[0]:g}: r1 and r3 need h^2 "
                         "to be a finite float")
    rows = []
    for h, (A, b) in zip(hs, pairs):
        rep = check_conditions(A, b)
        rows.append((
            (abs(A[0][0] - 1) + abs(A[1][1] - 1) + abs(A[0][1] - h) + abs(A[1][0] + h)) / h ** 2,
            (abs(b[0]) + abs(b[1] - 1)) / h,
            # det(I - A), not 1 - tr + det, which cancels to 0 at small h
            ((1.0 - A[0][0]) * (1.0 - A[1][1]) - A[0][1] * A[1][0]) / h ** 2,
            (b[0] + A[0][1] * b[1] - A[1][1] * b[0]) / h,
            rep,
        ))
    r1, r2, r3, r4, reports = (tuple(col) for col in zip(*rows))
    tail = max(2, len(hs) // 2)
    # the epsilon absorbs identically-zero ratio sequences
    bounded = all(max(r[-tail:]) <= 10.0 * min(r[-tail:]) + 1e-9 for r in (r1, r2))
    limits = abs(r3[-1] - 1.0) <= 0.1 and abs(r4[-1] - 1.0) <= 0.1
    verdict = "B-consistent" if bounded and limits else "B-inconsistent"
    return ConditionBDiagnostics(hs, r1, r2, r3, r4, verdict, reports)


# --------------------------------------------------------------------------
# built-in catalog


def _em_coefficients(h):
    return [[1, h], [-h, 1]], [0, 1]


def _beta_coefficients(beta):
    def coefficients(h):
        D = 1 + beta * (1 - beta) * h ** 2
        A = [[(1 - (1 - beta) ** 2 * h ** 2) / D, h / D],
             [-h / D, (1 - beta ** 2 * h ** 2) / D]]
        b = [(1 - beta) * h / D, 1 / D]
        return A, b
    return coefficients


def _rotation_rows(h):
    return [[_cos(h), _sin(h)], [-_sin(h), _cos(h)]]


def _ex_coefficients(h):
    return _rotation_rows(h), [0, 1]


def _int_coefficients(h):
    return _rotation_rows(h), [_sin(h), _cos(h)]


def _opt_coefficients(h):
    return _rotation_rows(h), [2 * _sin(h / 2) ** 2 / h, _sin(h) / h]


def _theta_coefficients(theta):
    def coefficients(h):
        D = 1 + theta ** 2 * h ** 2
        diag = 1 - (1 - theta) * theta * h ** 2
        A = [[diag / D, h / D], [-h / D, diag / D]]
        b = [theta * h / D, 1 / D]
        return A, b
    return coefficients


def _pc_pem_mr_coefficients(h):
    d = 1 - h ** 2 / 2
    return [[d, h * d], [-h, d]], [h / 2, 1]


def _pc_em_bem_coefficients(h):
    return [[1 - h ** 2, h], [-h, 1 - h ** 2]], [h, 1]


# the quadratic ansatz (see `ansatz_coefficients`); det = 1 for every h
# exactly when c11 + c22 = -1 and c11 c22 = sigma^2, and the eigenvalues are
# then complex for 0 < h < 2. m1-m6 are rational points of it, halves that
# floats hold exactly (an exact evaluation reads 0.5 as 1/2).
ANSATZ_H_RANGE = (0.0, 2.0)
ANSATZ_POINTS = {
    "m1": (-1, 0, 0, 0.5, 0),
    "m2": (-0.5, -0.5, 0.5, 0.5, -0.5),
    "m3": (-0.5, -0.5, -0.5, 0.5, 0.5),
    "m4": (0, -1, 0, -0.5, 0),
    "m5": (-0.5, -0.5, 0.5, -0.5, -0.5),
    "m6": (-0.5, -0.5, -0.5, -0.5, 0.5),
}


def ansatz_coefficients(c11, c22, sigma, d1, d2):
    """A = [[1 + c11 h^2, h + sigma h^2], [-h + sigma h^2, 1 + c22 h^2]] and
    b = (d1 h, 1 + d2 h), for number or `Exact` parameters."""
    def coefficients(h):
        A = [[1 + c11 * h ** 2, h + sigma * h ** 2],
             [-h + sigma * h ** 2, 1 + c22 * h ** 2]]
        b = [d1 * h, 1 + d2 * h]
        return A, b
    return coefficients


def ansatz_expressions(c11, c22, sigma, d1, d2):
    """Method-file expressions of the ansatz at a rational point."""
    def affine(lead, coef, power):
        sign = "+" if coef > 0 else "-"
        return f"{lead} {sign} {float(abs(coef)):g}*{power}" if coef else lead
    return dict(zip(COEFFICIENT_KEYS, (
        affine("1", c11, "h^2"), affine("h", sigma, "h^2"),
        affine("-h", sigma, "h^2"), affine("1", c22, "h^2"),
        f"{float(d1):g}*h", affine("1", d2, "h"))))


def _family_method(family, value, description=None):
    """`beta:<value>` or `theta:<value>`, described by the family unless a
    description is given."""
    if family == "beta":
        return MethodDef(f"beta:{value:g}", _beta_coefficients(value),
                         description or "one-parameter volume-preserving family",
                         (0.0, 2.0))
    h_range = (0.0, math.inf) if value >= 0.5 else (0.0, 1.0)
    return MethodDef(f"theta:{value:g}", _theta_coefficients(value),
                     description or "drift-implicit family", h_range)


def _build_catalog():
    entries = [
        MethodDef("em", _em_coefficients,
                  "explicit Euler step; det = 1 + h^2 > 1, so matrix powers grow "
                  "and laws stay float-representable only for small h",
                  (0.0, 1.0)),
        _family_method("beta", 0.0, "one-parameter volume-preserving family "
                                    "at beta = 0"),
        _family_method("beta", 0.5, "midpoint rule (beta = 1/2)"),
        _family_method("beta", 1.0, "one-parameter volume-preserving family "
                                    "at beta = 1"),
        MethodDef("ex", _ex_coefficients,
                  "EX: exact free flow, plain noise vector (0, 1)", (0.0, math.pi)),
        MethodDef("int", _int_coefficients,
                  "INT: exact free flow, rotated noise vector (sin h, cos h)",
                  (0.0, math.pi)),
        MethodDef("opt", _opt_coefficients,
                  "OPT: exact free flow, noise vector fitted to the step-average kernel",
                  (0.0, math.pi)),
        _family_method("theta", 1.0, "drift-implicit family at theta = 1; "
                                     "det = 1/(1+h^2) < 1"),
        MethodDef("pc-pem-mr", _pc_pem_mr_coefficients,
                  "predictor-corrector PC(PEM-MR)", (0.0, math.sqrt(2.0))),
        MethodDef("pc-em-bem", _pc_em_bem_coefficients,
                  "predictor-corrector PC(EM-BEM)", (0.0, 1.0)),
    ]
    for name, point in ANSATZ_POINTS.items():
        exact = "position" if name in ("m1", "m2", "m3") else "velocity"
        entries.append(MethodDef(name, ansatz_coefficients(*point), "constructed "
                                 f"volume-preserving method, {exact}-rate exact",
                                 ANSATZ_H_RANGE))
    return {m.name: m for m in entries}


_CATALOG = _build_catalog()


def catalog():
    """All built-in methods, in presentation order."""
    return list(_CATALOG.values())


def get_method(identifier):
    """Look up a catalog id, materializing `beta:<v>` / `theta:<v>` parameters."""
    if identifier in _CATALOG:
        return _CATALOG[identifier]
    family, sep, param = identifier.partition(":")
    if sep and family in ("beta", "theta"):
        try:
            value = float(param)
        except ValueError:
            raise ValueError(f"bad {family} parameter {param!r}") from None
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{family} parameter must lie in [0, 1], got {value:g}")
        return _CATALOG.get(f"{family}:{value:g}") or _family_method(family, value)
    raise ValueError(
        f"unknown method {identifier!r}; available: {', '.join(_CATALOG)}")


# --------------------------------------------------------------------------
# plain-text method files


class MethodFileError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
    r"|(?P<bad>.)")


def _tokenize(text, line, column0):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        col = column0 + m.start()
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "bad":
            raise MethodFileError(f"unexpected character {m.group()!r}", line, col)
        tokens.append((m.lastgroup, m.group(), col))
    tokens.append(("end", "", column0 + len(text)))
    return tokens


# deepest nesting of parentheses, sin/cos arguments and ^ exponents: parsing
# recurses per level, and deeper input would exhaust the Python stack
MAX_NESTING = 64

_SUMS = {"+": operator.add, "-": operator.sub}
_PRODUCTS = {"*": operator.mul, "/": operator.truediv}


class _ExprParser:
    """Recursive descent over the grammar in the module docstring; produces a
    closure h -> value that also accepts exact symbols."""

    def __init__(self, tokens, line):
        self.tokens = tokens
        self.line = line
        self.pos = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _fail(self, message, tok):
        raise MethodFileError(message, self.line, tok[2])

    def parse(self):
        fn = self._expression()
        tok = self._peek()
        if tok[0] != "end":
            self._fail(f"unexpected {tok[1]!r} after expression", tok)
        return fn

    def _chain(self, operand, ops):
        """operand {op operand}, folded left to right in one closure."""
        first, rest = operand(), []
        while self._peek()[1] in ops:
            rest.append((ops[self._next()[1]], operand()))
        if not rest:
            return first

        def fn(h):
            value = first(h)
            for op, rhs in rest:
                value = op(value, rhs(h))
            return value
        return fn

    def _expression(self):
        return self._chain(self._term, _SUMS)

    def _term(self):
        return self._chain(self._factor, _PRODUCTS)

    def _factor(self):
        # every nesting level passes through here once
        if self.depth == MAX_NESTING:
            self._fail(f"nested deeper than {MAX_NESTING} levels", self._peek())
        self.depth += 1
        sign = 1
        while self._peek()[1] in ("+", "-"):
            if self._next()[1] == "-":
                sign = -sign
        base = self._power()
        self.depth -= 1
        if sign == 1:
            return base
        return lambda h, b=base: -b(h)

    def _power(self):
        base = self._atom()
        if self._peek()[1] == "^":
            self._next()
            exponent = self._factor()
            return lambda h, b=base, e=exponent: b(h) ** e(h)
        return base

    def _atom(self):
        tok = self._next()
        kind, text, _ = tok
        if kind == "num":
            return lambda h, v=float(text): v
        if kind == "name":
            if text == "h":
                return lambda h: h
            if text == "pi":
                return lambda h: _pi_like(h)
            if text in ("sin", "cos"):
                opener = self._next()
                if opener[1] != "(":
                    self._fail(f"expected '(' after {text}", opener)
                inner = self._expression()
                closer = self._next()
                if closer[1] != ")":
                    self._fail("expected ')'", closer)
                fn = _sin if text == "sin" else _cos
                return lambda h, f=fn, i=inner: f(i(h))
            self._fail(f"unknown symbol {text!r}", tok)
        if text == "(":
            inner = self._expression()
            closer = self._next()
            if closer[1] != ")":
                self._fail("expected ')'", closer)
            return inner
        self._fail(f"expected a value, got {text!r}" if text else "unexpected end of expression", tok)


def parse_expression(text, line=1, column0=1):
    """Compile one expression in h; raises MethodFileError with position."""
    return _ExprParser(_tokenize(text, line, column0), line).parse()


COEFFICIENT_KEYS = ("a11", "a12", "a21", "a22", "b1", "b2")


def _parse_h_range(value, line, column0):
    lo_text, sep, hi_text = value.partition(":")
    try:
        lo = float(lo_text)
        hi = math.inf if hi_text.strip() == "inf" else float(hi_text)
    except ValueError:
        raise MethodFileError(f"bad h_range {value.strip()!r}, expected lo:hi",
                              line, column0) from None
    if not sep or not 0.0 <= lo < hi:
        raise MethodFileError(f"bad h_range {value.strip()!r}, expected lo:hi",
                              line, column0)
    return lo, hi


def parse_method_file(text, fallback_name="user-method"):
    """Parse `key = expression` lines into a MethodDef (format in module docstring)."""
    exprs = {}
    name = fallback_name
    h_range = (0.0, math.inf)
    line_count = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        line_count = ln
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        if "=" not in body:
            raise MethodFileError("expected 'key = expression'", ln, 1)
        key_text, _, value = body.partition("=")
        key = key_text.strip()
        column0 = len(key_text) + 2  # first column of the value text
        if key == "name":
            name = value.strip()
        elif key == "h_range":
            h_range = _parse_h_range(value, ln, column0)
        elif key in COEFFICIENT_KEYS:
            if key in exprs:
                raise MethodFileError(f"duplicate key {key!r}", ln, 1)
            exprs[key] = parse_expression(value, ln, column0)
        else:
            raise MethodFileError(f"unknown key {key!r}", ln, 1)
    missing = [k for k in COEFFICIENT_KEYS if k not in exprs]
    if missing:
        raise MethodFileError(
            f"missing definition for {', '.join(missing)}", line_count + 1, 1)

    def coefficients(h, fns=exprs):
        A = [[fns["a11"](h), fns["a12"](h)], [fns["a21"](h), fns["a22"](h)]]
        b = [fns["b1"](h), fns["b2"](h)]
        return A, b

    return MethodDef(name, coefficients, "parsed from a method file", h_range,
                     definition=text)


def format_method_file(name, expressions, h_range):
    """Render a method-definition text from expression strings."""
    hi = "inf" if math.isinf(h_range[1]) else f"{h_range[1]:g}"
    lines = [f"name = {name}", f"h_range = {h_range[0]:g}:{hi}"]
    for key in COEFFICIENT_KEYS:
        lines.append(f"{key} = {expressions[key]}")
    return "\n".join(lines) + "\n"
