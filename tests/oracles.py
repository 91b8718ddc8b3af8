"""Test-side references: closed forms and recipes the package does not need
at run time, kept here so the tests can check the package against them.

- the continuous-time laws of the integrated and the terminal position, and
  the continuous log-MGF coefficient;
- the sampler's per-block normal stream as one call to numpy's generator,
  which the chunked draws of `sim.step_normals` must equal bit for bit;
- the sampler's linear update as two rows of scalar-times-array products,
  (M00 x + M01 y) + u and (M10 x + M11 y) + v, sharing no code with
  `sim._Paths.step`;
- the exact solution sampled step by step beside a one-step method on the
  same Brownian increments, in vectorised numpy with a Cholesky factor of
  the one-step noise covariance, and the mean-square error law of
  `strong.mean_square_errors` recomputed in 50-digit mpmath over (z, Z);
  neither shares code with `strong`;
- the step of that law on full 4x4 matrices by `laws`' generic products,
  the zero block of its step matrix included, which the law's scalar step
  must equal bit for bit;
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

import mpmath
import numpy as np
import sympy as sp

from ldp_osc import methods
from ldp_osc.laws import _add_congruence, _product, interval_probability
from ldp_osc.exact import ProofDeclined
from ldp_osc.ldp import PROOF_PROVED, PROOF_REFUTED, _closed_form_log_mgf, \
    observable_law
from ldp_osc.methods import COEFFICIENT_KEYS
from ldp_osc.oscillator import MEAN_POSITION, GaussianLaw, check_observable
from ldp_osc.strong import _minus_sine, rotation, step_noise_covariance

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
# the samplers' per-block normal streams


def block_normals(seed, lo, n, count):
    """The first `count` draws of each of the n paths of the block whose
    first path is lo, step-major, shape (count, n), in one call: numpy's
    SFC64 seeded by a SeedSequence of (seed mod 2**64, lo), and one ziggurat
    draw of the whole array."""
    bits = np.random.SFC64(np.random.SeedSequence((seed % 2 ** 64, lo)))
    return np.random.Generator(bits).standard_normal((count, n))


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
# the exact solution beside a method, and the law of their mean-square error


def exact_step_covariance(delta):
    """Covariance of (dW, I1, I2) over one step, I1 = int sin(delta - s) dW
    and I2 = int cos(delta - s) dW, by the direct closed forms."""
    s, c, s2 = math.sin(delta), math.cos(delta), math.sin(2.0 * delta)
    return np.array([[delta, 1.0 - c, s],
                     [1.0 - c, delta / 2.0 - s2 / 4.0, s * s / 2.0],
                     [s, s * s / 2.0, delta / 2.0 + s2 / 4.0]])


def exact_and_method_paths(A, b, h, steps, paths, params, seed):
    """Yield (dW, Z, z) after each of `steps` steps of h for `paths` paths:
    the Brownian increment, shape (paths,), the exact state Z = (X, Y) and
    the method's state z, each (2, paths), both from (x0, y0). Each step
    draws (dW, I1, I2) as L d for the Cholesky factor L of the step
    covariance and standard normals d; Z <- R(h) Z + alpha (I1, I2) and
    z <- A z + alpha b dW."""
    L = np.linalg.cholesky(exact_step_covariance(h))
    c, s = math.cos(h), math.sin(h)
    R = np.array([[c, s], [-s, c]])
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)[:, None]
    draw = np.random.default_rng(seed)
    Z = np.tile([[params.x0], [params.y0]], (1, paths))
    z = Z.copy()
    for _ in range(steps):
        dW, I1, I2 = L @ draw.standard_normal((3, paths))
        Z = R @ Z + params.alpha * np.stack([I1, I2])
        z = A @ z + params.alpha * b * dW
        yield dW, Z, z


def sampled_mean_square_errors(A, b, h, steps, paths, params, seed):
    """Per grid point n = 1..steps, the sampled mean of |z_n - Z(t_n)|^2
    over `paths` paths and its standard error, as two arrays."""
    means, errors = [], []
    for _, Z, z in exact_and_method_paths(A, b, h, steps, paths, params, seed):
        square = np.sum((z - Z) ** 2, axis=0)
        means.append(square.mean())
        errors.append(square.std(ddof=1) / math.sqrt(paths))
    return np.array(means), np.array(errors)


def mean_square_errors_mp50(A, b, h, steps, params):
    """E|z_n - Z(t_n)|^2 for n = 1..steps in 50-digit mpmath, as a list of
    mpf, for the float inputs A, b, h and params taken as exact.

    The state is (z, Z), stepped block by block: the means by A and R(h), and
    the covariances Cov(z, z), Cov(z, Z) and Cov(Z, Z) by A S A^T, A S R^T
    and R S R^T plus the noise covariances of alpha b dW and alpha (I1, I2);
    the error is read off as |m_z - m_Z|^2 + tr(S_zz - 2 S_zZ + S_ZZ), whose
    cancellation 50 digits absorb."""
    def product(X, Y):
        return [[X[i][0] * Y[0][j] + X[i][1] * Y[1][j] for j in range(2)]
                for i in range(2)]

    def congruence(X, S, Y, noise):
        XS = product(X, S)
        return [[XS[i][0] * Y[j][0] + XS[i][1] * Y[j][1] + noise[i][j]
                 for j in range(2)] for i in range(2)]

    with mpmath.workdps(50):
        mpf = mpmath.mpf
        d = mpf(h)
        A = [[mpf(v) for v in row] for row in A]
        b = [mpf(v) for v in b]
        c, s, s2 = mpmath.cos(d), mpmath.sin(d), mpmath.sin(2 * d)
        R = [[c, s], [-s, c]]
        a2 = mpf(params.alpha) ** 2
        dw_i = [1 - c, s]
        i_i = [[d / 2 - s2 / 4, s * s / 2], [s * s / 2, d / 2 + s2 / 4]]
        noise_zz = [[a2 * d * b[i] * b[j] for j in range(2)] for i in range(2)]
        noise_zZ = [[a2 * b[i] * dw_i[j] for j in range(2)] for i in range(2)]
        noise_ZZ = [[a2 * i_i[i][j] for j in range(2)] for i in range(2)]
        m_z = [mpf(params.x0), mpf(params.y0)]
        m_Z = list(m_z)
        S_zz = S_zZ = S_ZZ = [[mpf(0)] * 2 for _ in range(2)]
        out = []
        for _ in range(steps):
            m_z = [A[i][0] * m_z[0] + A[i][1] * m_z[1] for i in range(2)]
            m_Z = [R[i][0] * m_Z[0] + R[i][1] * m_Z[1] for i in range(2)]
            S_zz = congruence(A, S_zz, A, noise_zz)
            S_zZ = congruence(A, S_zZ, R, noise_zZ)
            S_ZZ = congruence(R, S_ZZ, R, noise_ZZ)
            out.append(sum((m_z[i] - m_Z[i]) ** 2 + S_zz[i][i]
                           - 2 * S_zZ[i][i] + S_ZZ[i][i] for i in range(2)))
        return out


def mean_square_errors_4x4(A, b, h, steps, params):
    """`strong.mean_square_errors` on full 4x4 row tuples: the mean m and
    covariance S of u = (e, Z) step as m <- M m and S <- Q + M S M^T by
    `laws._product` and `laws._add_congruence`, with the products by the
    zero block of M = [[A, A - R], [0, R]] and of the noise map G, and Q =
    G C G^T from the same entries of A - R and C as the law."""
    (a11, a12), (a21, a22) = A
    (r11, r12), (r21, r22) = rotation(h)
    half = math.sin(0.5 * h)
    versine, minus_sine = 2.0 * half * half, _minus_sine(h)
    M = ((a11, a12, (a11 - 1.0) + versine, (a12 - h) + minus_sine),
         (a21, a22, (a21 + h) - minus_sine, (a22 - 1.0) + versine),
         (0.0, 0.0, r11, r12),
         (0.0, 0.0, r21, r22))
    alpha = params.alpha
    G = ((alpha * b[0], -alpha, 0.0),
         (alpha * (b[1] - 1.0), 0.0, -alpha),
         (0.0, alpha, 0.0),
         (alpha, 0.0, alpha))
    zero = ((0.0,) * 4,) * 4
    Q = _add_congruence(zero, G, step_noise_covariance(h))
    m = ((0.0,), (0.0,), (params.x0,), (params.y0,))
    S = zero
    for _ in range(steps):
        m = _product(M, m)
        S = _add_congruence(Q, M, S)
        yield m[0][0] * m[0][0] + m[1][0] * m[1][0] + S[0][0] + S[1][1]


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
