"""Exact rational functions of h, pi and w = exp(i h): the arithmetic that
decides the identity-level proofs and the search, which alone import it. It
needs only `math`: a rational is a reduced pair (numerator, denominator) of
ints with a positive denominator, so equal rationals are equal pairs, and
`fractions` (which loads `decimal`) stays unloaded.

Called with `Exact.symbol()` instead of a float, a coefficient evaluator
yields exact coefficients: this module registers `Exact` with the sin/cos/pi
helpers of `methods`, and sin(r h) and cos(r h) are written through w^r and
w^-r. A polynomial is a dict {monomial: nonzero rational}. A monomial is a
sorted tuple of (variable, exponent) pairs over _H, _PI, _I and _W: h and pi
to positive integer powers, the imaginary unit i to the power 1, and
w = exp(i h) to any nonzero rational power, so w^r = exp(i r h); any other
variable (("d1",), say) is free, to positive integer powers. () is 1. The
functions pi^a h^b exp(i r h) are linearly independent over the rationals
with i adjoined (pi is transcendental), so a polynomial is identically zero
exactly when its dict is empty. No other module reads these dicts.
"""

import math

from .methods import _cos, _pi_like, _sin


class ProofDeclined(Exception):
    """The coefficients lie outside the class the exactness test decides."""


_H = ("h",)
_PI = ("pi",)
_I = ("i",)
_W = ("w",)
_ONE = {(): (1, 1)}


def _ratio(n, d):
    """n/d, d != 0, as a reduced pair with a positive denominator."""
    g = math.gcd(n, d)
    return (n // g, d // g) if d > 0 else (-n // g, -d // g)


def _radd(a, b):
    (p, q), (r, s) = a, b
    return _ratio(p + r, q) if q == s else _ratio(p * s + r * q, q * s)


def _rmul(a, b):
    return _ratio(a[0] * b[0], a[1] * b[1])


def _rneg(a):
    return -a[0], a[1]


def _rpow(a, k):
    """a^k for an integer k >= 0; the powers of coprime ints stay coprime."""
    return a[0] ** k, a[1] ** k


def _add_into(out, poly):
    """out += poly in place, dropping zero coefficients; returns out."""
    for mono, coef in poly.items():
        value = _radd(out[mono], coef) if mono in out else coef
        if value[0]:
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
    for var, e in m2:  # w's exponent is rational, the others are ints
        old = exponents.get(var)
        exponents[var] = e if old is None else _radd(old, e) if var == _W else old + e
    sign = 1
    if exponents.get(_I) == 2:
        del exponents[_I]
        sign = -1
    if exponents.get(_W) == (0, 1):
        del exponents[_W]
    return tuple(sorted(exponents.items())), sign


# bounds on one product, far above the 49 term pairs and 131-bit coefficients
# the catalog's proofs form; beyond them a proof could run for minutes, so it
# declines. MAX_SUM_BITS bounds the coefficient sizes one output term may
# sum: with distinct denominators an unreduced sum grows by each addend's
# size, and reducing it costs the square of the sum's size, so 128 terms
# with 1000-bit denominators squared ran 24 s, while the products just
# inside the bound run within 0.4 s and the tests' largest sums 18484 bits
MAX_TERM_PAIRS = 16384
MAX_COEFFICIENT_BITS = 4096
MAX_SUM_BITS = 32768


def _poly_mul(p, q):
    sizes = [sorted((n.bit_length() + d.bit_length() for n, d in poly.values()),
                    reverse=True) for poly in (p, q)]
    bits = max(sizes[0][:1] + sizes[1][:1], default=0)
    if len(p) * len(q) > MAX_TERM_PAIRS or bits > MAX_COEFFICIENT_BITS:
        raise ProofDeclined(f"a product of {len(p)} by {len(q)} terms with "
                            f"{bits}-bit coefficients exceeds the proof's bounds")
    # an output term sums at most one product per term of p and per term of q
    k = min(len(p), len(q))
    summed = sum(sizes[0][:k]) + sum(sizes[1][:k])
    if summed > MAX_SUM_BITS:
        raise ProofDeclined(f"a product of {len(p)} by {len(q)} terms may sum "
                            f"{summed} bits of coefficients into one term, "
                            "beyond the proof's bounds")
    # sums of unreduced products, each reduced once at the end; a zero sum
    # leaves the dict, so the order of the terms is that of reduced sums
    out = {}
    for m1, (n1, d1) in p.items():
        for m2, (n2, d2) in q.items():
            mono, sign = _mono_mul(m1, m2)
            n, d = sign * n1 * n2, d1 * d2
            if mono in out:
                a, b = out[mono]
                n, d = (a + n, d) if b == d else (a * d + n * b, b * d)
                if not n:
                    del out[mono]
                    continue
            out[mono] = n, d
    return {mono: _ratio(n, d) for mono, (n, d) in out.items()}


def _poly_pow(p, k):
    out = _ONE
    while k:
        if k & 1:
            out = _poly_mul(out, p)
        k >>= 1
        if k:
            p = _poly_mul(p, p)
    return out


def _h_coefficients(poly, values):
    """The nonzero coefficients of the powers of h in poly once the variables
    named in values are set to those numbers, exactly (a float 0.5 is 1/2),
    shortest first; none when poly vanishes there."""
    values = {(name,): value.as_integer_ratio() for name, value in values.items()}
    groups = {}
    for mono, coef in poly.items():
        rest = []
        for var, e in mono:
            if var in values:
                coef = _rmul(coef, _rpow(values[var], e))
            else:
                rest.append((var, e))
        group = groups.setdefault(dict(mono).get(_H, 0), {})
        key = tuple(rest)
        group[key] = _radd(group[key], coef) if key in group else coef
    nonzero = ({m: c for m, c in g.items() if c[0]} for g in groups.values())
    return sorted(filter(None, nonzero), key=len)


def _simplest_between(lo, hi):
    """The rational with the least denominator in [lo, hi], 0 <= lo <= hi."""
    (p, q), (r, s) = lo, hi
    whole = p // q
    if p == whole * q or (whole + 1) * s <= r:
        return -(-p // q), 1
    # whole + 1/x for the simplest x in [1/(hi - whole), 1/(lo - whole)]
    n, d = _simplest_between((s, r - whole * s), (q, p - whole * q))
    return whole * n + d, n


def _literal(x):
    """A float literal as the simplest rational with the same 15 significant
    digits, so 0.5 is 1/2, 1e-12 is 10^-12 and 1/3 (0.333...) is 1/3."""
    if not math.isfinite(x):
        raise ProofDeclined(f"literal {x} is not finite")
    if x == 0:
        return 0, 1
    mantissa, _, exponent = format(abs(x), ".14e").partition("e")
    # the 15 digits as an integer m: the literal is (m +- 1/2) 10^k
    m, k = int(mantissa.replace(".", "")), int(exponent) - 14
    up, down = (10 ** k, 2) if k >= 0 else (1, 2 * 10 ** -k)
    n, d = _simplest_between(_ratio((2 * m - 1) * up, down),
                             _ratio((2 * m + 1) * up, down))
    return (n if x > 0 else -n), d


_PRINT_ORDER = {"i": 0, "pi": 1, "h": 2, "w": 3}


def _format_var(var, e):
    if var == _W:  # w^e = exp(i e h)
        return f"exp({_format_poly({((_H, 1), (_I, 1)): e})})"
    return var[0] if e == 1 else f"{var[0]}**{e}"


def _format_poly(poly):
    """sympy's layout for the simple cases decline reasons name: 2*h/3,
    h**2, pi*h, i*exp(-i*h)/2 + 1."""
    text = ""
    # higher degree first, w's rational exponent included: over a common
    # denominator, the degrees compare exactly as ints
    scale = math.lcm(*(e[1] for mono in poly for var, e in mono if var == _W))
    for mono, (n, d) in sorted(poly.items(), key=lambda t: -sum(
            e[0] * scale // e[1] if var == _W else e * scale for var, e in t[0])):
        factors = "*".join(_format_var(v, e) for v, e in sorted(
            mono, key=lambda t: (_PRINT_ORDER.get(t[0][0], 4), t[0][0])))
        body = str(abs(n)) if not factors else \
            factors if abs(n) == 1 else f"{abs(n)}*{factors}"
        if d != 1:
            body += f"/{d}"
        if not text:
            text = f"-{body}" if n < 0 else body
        else:
            text += f" - {body}" if n < 0 else f" + {body}"
    return text or "0"


class Exact:
    """An exact rational function num/den of h, pi and exp(i r h) for rational
    r: the value a coefficient takes at a symbolic step.

    num and den are polynomial dicts (see above), so the element is zero
    exactly when num is empty, and den never is. sin and cos enter in that
    form (`trig`). Numbers enter exactly: ints and other rationals (a value
    with integer numerator and denominator, a Fraction say) as they are,
    floats through `_literal`. Nothing is cancelled: a sum over equal
    denominators keeps the denominator, any other sum or product multiplies
    them. `**` takes integer exponents only; there is no __float__ or
    __index__, so `math.cos` on an Exact raises TypeError.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        if den is not _ONE and den.keys() == {()}:
            p, q = den[()]
            num = {m: _ratio(n * q, d * p) for m, (n, d) in num.items()}
            den = _ONE
        self.num = num
        self.den = den

    @classmethod
    def symbol(cls, var=_H):
        """The variable named var, or held in var as in the dicts (_H, say)."""
        var = (var,) if isinstance(var, str) else var
        return cls({((var, 1),): (1, 1)})

    @classmethod
    def of(cls, x):
        """x as an Exact; TypeError unless x is an Exact, a float or a value
        with integer numerator and denominator (an int or a Fraction, say)."""
        if isinstance(x, Exact):
            return x
        n, d = _literal(x) if isinstance(x, float) else (
            getattr(x, "numerator", None), getattr(x, "denominator", None))
        if not (isinstance(n, int) and isinstance(d, int) and d):
            raise TypeError(f"{type(x).__name__} {x!r} has no exact value")
        return cls({(): _ratio(n, d)} if n else {})

    def vanishes(self, values=None):
        """Whether self is zero for every h once the free variables named in
        values (a dict of names to numbers) take those values."""
        return not (_h_coefficients(self.num, values) if values else self.num)

    def h_coefficients(self, values):
        """The numerator's and the denominator's `_h_coefficients` at values,
        as two lists of Exact."""
        return ([Exact(p) for p in _h_coefficients(self.num, values)],
                [Exact(p) for p in _h_coefficients(self.den, values)])

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
        return Exact({m: _rneg(c) for m, c in self.num.items()}, self.den)

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
        # literals are floats: name 2**h as written, not 2.0**h
        raise ProofDeclined(f"{str(base).removesuffix('.0')}**{self} is not a "
                            "rational function of h, sin and cos")

    def trig(self, kind):
        """sin or cos of self, which must be 0 or a rational multiple r h of h:
        cos(r h) = (w^r + w^-r)/2 and sin(r h) = i (w^-r - w^r)/2."""
        if not self.num:
            return Exact.of(0 if kind == "sin" else 1)
        r = self.num.get(((_H, 1),))
        if self.den != _ONE or len(self.num) != 1 or r is None:
            raise ProofDeclined(
                f"trig argument {self} is not a rational multiple of h")
        half, minus_r = (1, 2), _rneg(r)
        if kind == "cos":
            return Exact({((_W, r),): half, ((_W, minus_r),): half})
        return Exact({((_I, 1), (_W, r)): (-1, 2), ((_I, 1), (_W, minus_r)): half})


def _integer_value(x):
    if isinstance(x, float):
        return int(x) if x.is_integer() else None
    try:
        x = Exact.of(x)
    except TypeError:
        return None
    n, d = x.num.get((), (0, 1))
    return n if d == 1 and x.den == _ONE and x.num.keys() <= {()} else None


_sin.register(Exact, lambda x: x.trig("sin"))
_cos.register(Exact, lambda x: x.trig("cos"))
_pi_like.register(Exact, lambda h: Exact.symbol(_PI))
