"""Test-side references: closed forms and recipes the package does not need
at run time, kept here so the tests can check the package against them.

- the continuous-time laws of the integrated and the terminal position, and
  the continuous log-MGF coefficient;
- a pure-Python splitmix64 stream, which follows the recipe of the `rng`
  docstring with Python integers and `statistics.NormalDist`, sharing no
  code with `rng.fill_normals`;
- the samplers' linear update as two rows of scalar-times-array products,
  (M00 x + M01 y) + u and (M10 x + M11 y) + v, sharing no code with
  `sim._Paths.step`;
- the finite-N decay rate -log P(observable in interval) / N, and the
  interval probability itself in 50-digit mpmath;
- a reader for the CSV documents the CLI emits;
- the constructed methods m1-m6 written out by hand, and every exact method
  of the quadratic ansatz by `sympy.solve`;
- the identity-level proof in sympy: the coefficients at a sympy symbol,
  float literals through `nsimplify`, and a reduction modulo
  sin^2 + cos^2 - 1 by `sympy.reduced`, for angles up to 32 times one base
  angle. It shares only the closed form `ldp._closed_form_log_mgf` with the
  package's exact-element proof, which writes sin and cos through
  exp(+-i r h) instead.
"""

import csv
import math
from statistics import NormalDist

import mpmath
import numpy as np
import sympy as sp

from ldp_osc import methods
from ldp_osc.laws import interval_probability
from ldp_osc.exact import ProofDeclined
from ldp_osc.ldp import PROOF_PROVED, PROOF_REFUTED, _closed_form_log_mgf, \
    observable_law
from ldp_osc.methods import COEFFICIENT_KEYS
from ldp_osc.oscillator import MEAN_POSITION, GaussianLaw, check_observable

# ---------------------------------------------------------------------------
# continuous-time laws of the oscillator


def _require_horizon(T):
    if not T > 0:
        raise ValueError(f"time horizon must be positive, got {T}")


def mean_position_law(params, T):
    """Law of the integrated position int_0^T X_t dt (T times the mean position).

    The noise part collapses to a single stochastic integral with kernel
    1 - cos(T - s), which gives the variance below by the isometry of the
    integral; the drift part integrates the free rotation.
    """
    _require_horizon(T)
    mean = params.x0 * math.sin(T) + params.y0 * (1.0 - math.cos(T))
    variance = params.alpha ** 2 * (
        1.5 * T - 2.0 * math.sin(T) + 0.25 * math.sin(2.0 * T))
    return GaussianLaw(mean, max(variance, 0.0))


def terminal_position_law(params, T):
    """Law of X_T."""
    _require_horizon(T)
    mean = params.x0 * math.cos(T) + params.y0 * math.sin(T)
    variance = params.alpha ** 2 * (0.5 * T - 0.25 * math.sin(2.0 * T))
    return GaussianLaw(mean, max(variance, 0.0))


def continuous_log_mgf_coefficient(observable, params):
    """c with lim_T (1/T) log E exp(lambda * T * observable_T) = c * lambda**2."""
    check_observable(observable)
    a2 = params.alpha ** 2
    return 0.75 * a2 if observable == MEAN_POSITION else 0.25 * a2


# ---------------------------------------------------------------------------
# splitmix64 streams in Python integers

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def stream_key(seed, path):
    return splitmix64((seed + (path + 1) * _GOLDEN) & _MASK)


def stream_uniform(key, i):
    return (float(splitmix64((key + (i + 1) * _GOLDEN) & _MASK) >> 11)
            + 0.5) * 2.0 ** -53


def stream_normals(seed, paths, start, count):
    """Draws start..start+count-1 of each path's stream, step-major: shape
    (count, len(paths)), like `rng.fill_normals`."""
    inv_cdf = NormalDist().inv_cdf
    keys = [stream_key(seed, int(p)) for p in paths]
    return np.array([[inv_cdf(stream_uniform(key, i)) for key in keys]
                     for i in range(start, start + count)])


# ---------------------------------------------------------------------------
# the samplers' linear update


def two_row_step(M, x, y, u, v):
    """(x, y) <- M (x, y) + (u, v) as (M00 x + M01 y) + u and (M10 x + M11 y)
    + v, one scalar-times-array product or sum at a time; returns the new
    (x, y) and leaves the inputs unchanged."""
    new_x = np.multiply(M[0][0], x)
    new_x += np.multiply(M[0][1], y)
    new_x += u
    new_y = np.multiply(M[1][0], x)
    new_y += np.multiply(M[1][1], y)
    new_y += v
    return new_x, new_y


# ---------------------------------------------------------------------------
# finite-N decay rates and CLI output


def finite_N_rate(method, observable, h, N, interval, params):
    """-(1/N) log P(observable in interval) at finite N."""
    law = observable_law(method, observable, h, N, params)
    return -interval_probability(law, *interval).log_p / N


def interval_probability_mp50(law, lo, hi):
    """(p, log p) of P(Z in [lo, hi]) for Z ~ law, in 50-digit mpmath.

    Intervals right of the mean are computed as ncdf(-zlo) - ncdf(-zhi), so
    no probability is formed as one minus a tail and rounded to 1.
    """
    with mpmath.workdps(50):
        sigma = mpmath.sqrt(law.variance)
        zlo = (mpmath.mpf(lo) - law.mean) / sigma
        zhi = (mpmath.mpf(hi) - law.mean) / sigma
        if zlo >= 0:
            p = mpmath.ncdf(-zlo) - mpmath.ncdf(-zhi)
        else:
            p = mpmath.ncdf(zhi) - mpmath.ncdf(zlo)
        return p, mpmath.log(p)


def parse_csv(text):
    """Data rows of an emitted CSV document, as dicts of strings."""
    lines = [line for line in text.splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    return [dict(row) for row in csv.DictReader(lines)]


# ---------------------------------------------------------------------------
# the identity-level proof in sympy

# the coefficient evaluators take sin, cos and pi from dispatching helpers;
# give sympy expressions sympy's
methods._sin.register(sp.Basic, sp.sin)
methods._cos.register(sp.Basic, sp.cos)
methods._pi_like.register(sp.Basic, lambda h: sp.pi)


def evaluate_symbolic(method):
    """Coefficients at a positive sympy symbol h, as sympy matrices."""
    h = sp.Symbol("h", positive=True)
    A_rows, b_rows = method.coefficients(h)
    return sp.Matrix(A_rows), sp.Matrix(b_rows), h


def prove_modified_rate(method, observable):
    """True when the modified rate equals the continuous one at every h,
    False when it does not; raises ProofDeclined outside rational functions
    of h and of sin, cos at rational multiples of h."""
    try:
        A, b, h = evaluate_symbolic(method)
    except TypeError as exc:
        raise ProofDeclined(
            f"coefficients do not evaluate at a symbolic h ({exc})") from None
    entries = [sp.nsimplify(e, rational=True) for e in (*A, *b)]
    entries, S, C = _trig_polynomials(entries, h)
    relation = [S ** 2 + C ** 2 - 1]

    def vanishes(expr):
        num, den = sp.fraction(sp.together(expr))
        if sp.reduced(sp.expand(den), relation, C, S, h)[1] == 0:
            raise ProofDeclined("a denominator vanishes identically")
        return sp.reduced(sp.expand(num), relation, C, S, h)[1] == 0

    A = (tuple(entries[:2]), tuple(entries[2:4]))
    b = tuple(entries[4:])
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    c = _closed_form_log_mgf(A, b, h, observable, vanishes(det - 1))
    if vanishes(c):
        return False
    target = sp.Rational(1, 3) if observable == MEAN_POSITION else sp.Integer(1)
    return vanishes(4 * c * h * target - 1)


# largest multiple of the base angle the reference expands into sin/cos
# powers; sin(k t) has degree k in sin t and cos t, and the reduction slows
# down sharply beyond this
_MAX_ANGLE_MULTIPLE = 32


def _trig_polynomials(entries, h):
    """Entries with each sin/cos(r h) written over S = sin(h/Q), C = cos(h/Q)."""
    atoms = sorted(set().union(*(e.atoms(sp.sin, sp.cos) for e in entries)),
                   key=sp.default_sort_key)
    ratios = []
    for atom in atoms:
        ratio = atom.args[0] / h
        if not ratio.is_Rational:
            raise ProofDeclined(
                f"trig argument {atom.args[0]} is not a rational multiple of h")
        ratios.append(ratio)
    Q = sp.ilcm(1, 1, *(r.q for r in ratios))
    multiples = [int(r * Q) for r in ratios]
    top = max(map(abs, multiples), default=0)
    base = h / Q
    if top > _MAX_ANGLE_MULTIPLE:
        raise ProofDeclined(
            f"trig argument {top * base} is {top} times the base angle {base}, "
            f"above the {_MAX_ANGLE_MULTIPLE} the proof expands")
    S, C = sp.Dummy("S"), sp.Dummy("C")
    sines, cosines = [sp.Integer(0)], [sp.Integer(1)]
    for _ in range(top):
        s, c = sines[-1], cosines[-1]
        sines.append(sp.expand(s * C + c * S))
        cosines.append(sp.expand(c * C - s * S))
    substitution = {}
    for atom, k in zip(atoms, multiples):
        if isinstance(atom, sp.sin):
            substitution[atom] = sines[k] if k > 0 else -sines[-k]
        else:
            substitution[atom] = cosines[abs(k)]
    rewritten = [e.xreplace(substitution) for e in entries]
    for key, original, e in zip(COEFFICIENT_KEYS, entries, rewritten):
        if not e.is_rational_function(h, S, C):
            raise ProofDeclined(
                f"{key} = {original} is not a rational function of h, "
                "sin and cos")
    return rewritten, S, C


# ---------------------------------------------------------------------------
# the constructed methods and the quadratic ansatz


def _m1(h):
    return [[1 - h ** 2, h], [-h, 1]], [h / 2, 1]


def _m2(h):
    return ([[1 - h ** 2 / 2, h + h ** 2 / 2], [-h + h ** 2 / 2, 1 - h ** 2 / 2]],
            [h / 2, 1 - h / 2])


def _m3(h):
    return ([[1 - h ** 2 / 2, h - h ** 2 / 2], [-h - h ** 2 / 2, 1 - h ** 2 / 2]],
            [h / 2, 1 + h / 2])


def _m4(h):
    return [[1, h], [-h, 1 - h ** 2]], [-h / 2, 1]


def _m5(h):
    return _m2(h)[0], [-h / 2, 1 - h / 2]


def _m6(h):
    return _m3(h)[0], [-h / 2, 1 + h / 2]


# m1-m6 as written by hand; the catalog builds them as points of the ansatz
CONSTRUCTED_METHODS = {"m1": _m1, "m2": _m2, "m3": _m3, "m4": _m4, "m5": _m5,
                       "m6": _m6}


def ansatz_exact_points(observable):
    """Every solution (c11, c22, sigma, d1, d2) of the det = 1 ansatz at which
    the modified rate equals the continuous one for every h: `sympy.solve`
    on the h-coefficients of the numerator of 4 c h I - 1, with
    c22 = -1 - c11 and c11 c22 = sigma^2. A parameter that a solution leaves
    free stays a sympy symbol."""
    h = sp.Symbol("h", positive=True)
    c11, sigma, d1, d2 = sp.symbols("c11 sigma d1 d2")
    c22 = -1 - c11
    A_rows, b_rows = methods.ansatz_coefficients(c11, c22, sigma, d1, d2)(h)
    c = _closed_form_log_mgf(A_rows, b_rows, h, observable, True)
    target = sp.Rational(1, 3) if observable == MEAN_POSITION else 1
    num, _ = sp.fraction(sp.together(4 * c * h * target - 1))
    equations = sp.Poly(sp.expand(num), h).coeffs() + [c11 * c22 - sigma ** 2]
    return [tuple(sp.sympify(v).subs(solution)
                  for v in (c11, c22, sigma, d1, d2))
            for solution in sp.solve(equations, [c11, sigma, d1, d2],
                                     dict=True)]


def proof_kind(prove, method, observable):
    """"proved", "refuted" or "declined" from prove(method, observable)."""
    try:
        return PROOF_PROVED if prove(method, observable) else PROOF_REFUTED
    except ProofDeclined:
        return "declined"
