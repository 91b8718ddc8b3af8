"""One-step methods x_{n+1} = A(h) x_n + alpha b(h) dW_n for the oscillator.

Ships the built-in catalog, admissibility checks on (A, b), small-step
diagnostics against the plain Euler step, and a tiny plain-text definition
format so user methods can be loaded from files.

Coefficient evaluators are written against the sin/cos/pi helpers `_sin`,
`_cos` and `_pi_like`, which dispatch on the argument type: floats go to
`math`, and the exact element `Exact` stays exact. So calling an evaluator
with `Exact.symbol()` instead of a float yields the coefficients as exact
rational functions of h, pi and w = exp(i h), with sin(r h) and cos(r h)
written through w^r and w^-r. An identity then holds exactly when a
numerator is empty, which is what powers identity-level preservation
proofs. Another exact arithmetic can register its own types with the
helpers.

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
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import singledispatch
from typing import Callable


class ProofDeclined(Exception):
    """The coefficients lie outside the class the exactness test decides."""


# --------------------------------------------------------------------------
# exact rational functions of h, pi and w = exp(i h)
#
# A polynomial is a dict {monomial: nonzero Fraction}. A monomial is a sorted
# tuple of (variable, exponent) pairs over _H, _PI, _I and _W: h and pi to
# positive integer powers, the imaginary unit i to the power 1, and
# w = exp(i h) to any nonzero rational power, so w^r = exp(i r h); any other
# variable (("d1",), say) is free, to positive integer powers. () is 1. The
# functions pi^a h^b exp(i r h) are linearly independent over the rationals
# with i adjoined (pi is transcendental), so a polynomial is identically zero
# exactly when its dict is empty.

_H = ("h",)
_PI = ("pi",)
_I = ("i",)
_W = ("w",)
_ONE = {(): Fraction(1)}


def _add_into(out, poly, scale=1):
    """out += scale * poly in place, dropping zero coefficients; returns out."""
    for mono, coef in poly.items():
        value = out.get(mono, 0) + scale * coef
        if value:
            out[mono] = value
        else:
            del out[mono]
    return out


def _mono_mul(m1, m2):
    """The product of two monomials as (monomial, sign): w^r w^-r drops out
    and i^2 folds to the sign -1."""
    if not m1:
        return m2, 1
    if not m2:
        return m1, 1
    exponents = dict(m1)
    for var, e in m2:
        exponents[var] = exponents.get(var, 0) + e
    sign = 1
    if exponents.get(_I) == 2:
        del exponents[_I]
        sign = -1
    if exponents.get(_W) == 0:
        del exponents[_W]
    return tuple(sorted(exponents.items())), sign


# bounds on one product, far above the 49 term pairs and 131-bit coefficients
# the tests form; beyond them a proof could run for minutes, so it declines
MAX_TERM_PAIRS = 16384
MAX_COEFFICIENT_BITS = 4096


def _poly_mul(p, q):
    bits = max((c.numerator.bit_length() + c.denominator.bit_length()
                for poly in (p, q) for c in poly.values()), default=0)
    if len(p) * len(q) > MAX_TERM_PAIRS or bits > MAX_COEFFICIENT_BITS:
        raise ProofDeclined(f"a product of {len(p)} by {len(q)} terms with "
                            f"{bits}-bit coefficients exceeds the proof's bounds")
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono, sign = _mono_mul(m1, m2)
            term = c1 * c2 if sign > 0 else -(c1 * c2)
            value = out[mono] + term if mono in out else term
            if value:
                out[mono] = value
            else:
                del out[mono]
    return out


def _poly_pow(p, k):
    out = _ONE
    while k:
        if k & 1:
            out = _poly_mul(out, p)
        k >>= 1
        if k:
            p = _poly_mul(p, p)
    return out


def _simplest_between(lo, hi):
    """The fraction with the least denominator in [lo, hi], 0 <= lo <= hi."""
    whole = math.floor(lo)
    if whole == lo or whole + 1 <= hi:
        return Fraction(math.ceil(lo))
    return whole + 1 / _simplest_between(1 / (hi - whole), 1 / (lo - whole))


def _literal(x):
    """A float literal as the simplest fraction with the same 15 significant
    digits, so 0.5 is 1/2, 1e-12 is 10^-12 and 1/3 (0.333...) is 1/3."""
    if not math.isfinite(x):
        raise ProofDeclined(f"literal {x} is not finite")
    if x == 0:
        return Fraction(0)
    digits = format(abs(x), ".14e")
    half_ulp = Fraction(1, 2) * Fraction(10) ** (int(digits.partition("e")[2]) - 14)
    center = Fraction(digits)
    value = _simplest_between(center - half_ulp, center + half_ulp)
    return value if x > 0 else -value


_PRINT_ORDER = {"i": 0, "pi": 1, "h": 2, "w": 3}


def _format_var(var, e):
    if var == _W:  # w^e = exp(i e h)
        return f"exp({_format_poly({((_H, 1), (_I, 1)): e})})"
    return var[0] if e == 1 else f"{var[0]}**{e}"


def _format_poly(poly):
    """sympy's layout for the simple cases decline reasons name: 2*h/3,
    h**2, pi*h, i*exp(-i*h)/2 + 1."""
    text = ""
    for mono, coef in sorted(poly.items(), key=lambda t: -sum(e for _, e in t[0])):
        factors = "*".join(_format_var(v, e) for v, e in sorted(
            mono, key=lambda t: (_PRINT_ORDER.get(t[0][0], 4), t[0][0])))
        size = abs(coef)
        if not factors:
            body = str(size)
        else:
            body = factors if size.numerator == 1 else f"{size.numerator}*{factors}"
            if size.denominator != 1:
                body += f"/{size.denominator}"
        if not text:
            text = f"-{body}" if coef < 0 else body
        else:
            text += f" - {body}" if coef < 0 else f" + {body}"
    return text or "0"


class Exact:
    """An exact rational function num/den of h, pi and exp(i r h) for rational
    r: the value a coefficient takes at a symbolic step.

    num and den are polynomial dicts (see above), so the element is zero
    exactly when num is empty, and den never is. sin and cos enter in that
    form (`trig`). Numbers enter exactly: ints and Fractions as they are,
    floats through `_literal`. Nothing is cancelled: a sum over equal
    denominators keeps the denominator, any other sum or product multiplies
    them. `**` takes integer exponents only; there is no __float__ or
    __index__, so `math.cos` on an Exact raises TypeError.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        if den is not _ONE and den.keys() == {()}:
            num = {m: c / den[()] for m, c in num.items()}
            den = _ONE
        self.num = num
        self.den = den

    @classmethod
    def symbol(cls, var=_H):
        return cls({((var, 1),): Fraction(1)})

    @classmethod
    def of(cls, x):
        """x as an Exact; TypeError unless x is an Exact, int, Fraction or float."""
        if isinstance(x, Exact):
            return x
        if isinstance(x, float):
            x = _literal(x)
        elif not isinstance(x, (int, Fraction)):
            raise TypeError(f"{type(x).__name__} {x!r} has no exact value")
        return cls({(): Fraction(x)} if x else {})

    def __str__(self):
        if self.den == _ONE:
            return _format_poly(self.num)
        return f"({_format_poly(self.num)})/({_format_poly(self.den)})"

    def __add__(self, other):
        try:
            other = Exact.of(other)
        except TypeError:
            return NotImplemented
        if self.den == other.den:
            return Exact(_add_into(dict(self.num), other.num), self.den)
        return Exact(_add_into(_poly_mul(self.num, other.den),
                               _poly_mul(other.num, self.den)),
                     _poly_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Exact({m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other):
        try:
            return self + -Exact.of(other)
        except TypeError:
            return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        try:
            other = Exact.of(other)
        except TypeError:
            return NotImplemented
        return Exact(_poly_mul(self.num, other.num), _poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = Exact.of(other)
        except TypeError:
            return NotImplemented
        if not other.num:
            raise ProofDeclined("a denominator vanishes identically")
        return Exact(_poly_mul(self.num, other.den), _poly_mul(self.den, other.num))

    def __rtruediv__(self, other):
        try:
            return Exact.of(other) / self
        except TypeError:
            return NotImplemented

    def __pow__(self, exponent):
        k = _integer_value(exponent)
        if k is None:
            raise ProofDeclined(f"{self}**{exponent} is not a rational function "
                                "of h, sin and cos")
        power = Exact(_poly_pow(self.num, abs(k)), _poly_pow(self.den, abs(k)))
        return power if k >= 0 else 1 / power

    def __rpow__(self, base):
        raise ProofDeclined(f"{base}**{self} is not a rational function of h, "
                            "sin and cos")

    def trig(self, kind):
        """sin or cos of self, which must be 0 or a rational multiple r h of h:
        cos(r h) = (w^r + w^-r)/2 and sin(r h) = i (w^-r - w^r)/2."""
        if not self.num:
            return Exact.of(0 if kind == "sin" else 1)
        r = self.num.get(((_H, 1),))
        if self.den != _ONE or len(self.num) != 1 or r is None:
            raise ProofDeclined(
                f"trig argument {self} is not a rational multiple of h")
        half = Fraction(1, 2)
        if kind == "cos":
            return Exact({((_W, r),): half, ((_W, -r),): half})
        return Exact({((_I, 1), (_W, r)): -half, ((_I, 1), (_W, -r)): half})


def _integer_value(x):
    if isinstance(x, int):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    if isinstance(x, Exact) and x.den == _ONE and x.num.keys() <= {()}:
        return _integer_value(x.num.get((), Fraction(0)))
    return None


@singledispatch
def _sin(x):
    return math.sin(x)


@singledispatch
def _cos(x):
    return math.cos(x)


@singledispatch
def _pi_like(h):
    return math.pi


_sin.register(Exact, lambda x: x.trig("sin"))
_cos.register(Exact, lambda x: x.trig("cos"))
_pi_like.register(Exact, lambda h: Exact.symbol(_PI))


@dataclass(frozen=True)
class MethodDef:
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
    A_rows, b_rows = method.coefficients(h)
    A = tuple(tuple(map(float, row)) for row in A_rows)
    b = tuple(map(float, b_rows))
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
    ProofDeclined when one leaves the rational functions of h, sin and cos."""
    h = Exact.symbol()
    A_rows, b_rows = method.coefficients(h)
    A = tuple(tuple(map(Exact.of, row)) for row in A_rows)
    b = tuple(map(Exact.of, b_rows))
    return A, b, h


def coupling(A, b):
    """Position-noise coupling q = a12 b2 - a22 b1."""
    return A[0][1] * b[1] - A[1][1] * b[0]


def decreasing_sweep(h_values):
    """The steps as a float tuple, rejected unless strictly decreasing."""
    hs = tuple(float(h) for h in h_values)
    if len(hs) < 2 or any(hs[i + 1] >= hs[i] for i in range(len(hs) - 1)):
        raise ValueError("h_values must be strictly decreasing with >= 2 entries")
    return hs


# tolerance of the det = 1 and a4 tests
_CONDITION_TOL = 1e-12

# smallest sin(theta) at which the exact laws trust the rotation angle
SIN_THETA_MIN = 1e-8


class NearDegenerateError(ValueError):
    """tr(A) is too close to +-2 sqrt(det A); the rotation angle is numerically lost."""


@dataclass(frozen=True)
class ConditionReport:
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


@dataclass(frozen=True)
class ConditionBDiagnostics:
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
    hs = tuple(float(h) for h in h_values)
    # an inadmissible step is reported before a misordered sweep
    pairs = [evaluate(method, h) for h in hs]
    decreasing_sweep(hs)
    if hs[-1] ** 2 < sys.float_info.min:
        raise ValueError(f"step {hs[-1]:g}: r1 and r3 need h^2 to be a normal float")
    rows = []
    for h, (A, b) in zip(hs, pairs):
        rep = check_conditions(A, b)
        rows.append((
            (abs(A[0][0] - 1) + abs(A[1][1] - 1) + abs(A[0][1] - h) + abs(A[1][0] + h)) / h ** 2,
            (abs(b[0]) + abs(b[1] - 1)) / h,
            (1.0 - rep.tr + rep.det) / h ** 2,
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
# then complex for 0 < h < 2. m1-m6 are rational points of it.
ANSATZ_H_RANGE = (0.0, 2.0)
_HALF = Fraction(1, 2)
ANSATZ_POINTS = {
    "m1": (-1, 0, 0, _HALF, 0),
    "m2": (-_HALF, -_HALF, _HALF, _HALF, -_HALF),
    "m3": (-_HALF, -_HALF, -_HALF, _HALF, _HALF),
    "m4": (0, -1, 0, -_HALF, 0),
    "m5": (-_HALF, -_HALF, _HALF, -_HALF, -_HALF),
    "m6": (-_HALF, -_HALF, -_HALF, -_HALF, _HALF),
}


def ansatz_coefficients(c11, c22, sigma, d1, d2):
    """A = [[1 + c11 h^2, h + sigma h^2], [-h + sigma h^2, 1 + c22 h^2]] and
    b = (d1 h, 1 + d2 h), for rational or `Exact` parameters."""
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


def _build_catalog():
    entries = [
        MethodDef("em", _em_coefficients,
                  "explicit Euler step; det = 1 + h^2 > 1, so matrix powers grow "
                  "and laws stay float-representable only for small h",
                  (0.0, 1.0)),
        MethodDef("beta:0", _beta_coefficients(0.0),
                  "one-parameter volume-preserving family at beta = 0", (0.0, 2.0)),
        MethodDef("beta:0.5", _beta_coefficients(0.5),
                  "midpoint rule (beta = 1/2)", (0.0, 2.0)),
        MethodDef("beta:1", _beta_coefficients(1.0),
                  "one-parameter volume-preserving family at beta = 1", (0.0, 2.0)),
        MethodDef("ex", _ex_coefficients,
                  "EX: exact free flow, plain noise vector (0, 1)", (0.0, math.pi)),
        MethodDef("int", _int_coefficients,
                  "INT: exact free flow, rotated noise vector (sin h, cos h)",
                  (0.0, math.pi)),
        MethodDef("opt", _opt_coefficients,
                  "OPT: exact free flow, noise vector fitted to the step-average kernel",
                  (0.0, math.pi)),
        MethodDef("theta:1", _theta_coefficients(1.0),
                  "drift-implicit family at theta = 1; det = 1/(1+h^2) < 1",
                  (0.0, math.inf)),
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
        name = f"{family}:{value:g}"
        if name in _CATALOG:
            return _CATALOG[name]
        if family == "beta":
            return MethodDef(name, _beta_coefficients(value),
                             "one-parameter volume-preserving family", (0.0, 2.0))
        h_range = (0.0, math.inf) if value >= 0.5 else (0.0, 1.0)
        return MethodDef(name, _theta_coefficients(value),
                         "drift-implicit family", h_range)
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
            as_float = float(text)
            value = int(as_float) if as_float.is_integer() and "e" not in text.lower() \
                and "." not in text else as_float
            return lambda h, v=value: v
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


def format_method_file(name, expressions, h_range=None):
    """Render a method-definition text from expression strings."""
    lines = [f"name = {name}"]
    if h_range is not None:
        hi = "inf" if math.isinf(h_range[1]) else f"{h_range[1]:g}"
        lines.append(f"h_range = {h_range[0]:g}:{hi}")
    for key in COEFFICIENT_KEYS:
        lines.append(f"{key} = {expressions[key]}")
    return "\n".join(lines) + "\n"
