"""Decay-rate analysis of one-step methods over long horizons.

For an admissible method the scaled cumulant limit of each observable is
quadratic, Lambda(lambda) = c lambda^2, with c in closed form in the method
coefficients. Its Legendre transform is the per-step decay rate; dividing by
the step gives the modified rate that is comparable with the continuous-time
rate. A method preserves the decay rate exactly when the modified rate equals
the continuous one for every step size, asymptotically when the gap closes as
the step is refined.

`preservation_report` decides between those outcomes from a step sweep, and
upgrades a numerically exact verdict to an identity-level one when sympy can
prove the closed forms equal. `exact_preservation_search` scans a quadratic
perturbation family of the rotation step for methods that preserve a rate
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import sympy as sp

from .laws import interval_probability, law_NA_N, law_x_N
from .methods import MethodDef, catalog, check_conditions, coupling, \
    decreasing_sweep, evaluate, evaluate_symbolic, format_method_file
from .oscillator import MEAN_POSITION, OscillatorParams, RateFunction, \
    check_observable, continuous_rate

REGIME_VOLUME_PRESERVING = "volume-preserving"
REGIME_CONTRACTIVE = "contractive"

VERDICT_EXACT = "ExactlyPreserves"
VERDICT_EXACT_NUMERIC = "ExactlyPreserves(numeric)"
VERDICT_ASYMPTOTIC = "AsymptoticallyPreserves"
VERDICT_NONE = "DoesNotPreserve"

# step sweep used when the caller pins only the coarsest step
DEFAULT_H_SWEEP = tuple(2.0 ** -k for k in range(7))

EXACT_TOL = 1e-10

_DEFAULT_PARAMS = OscillatorParams()


class InternalInvariantError(RuntimeError):
    """A quantity that is provably positive for admissible coefficients came
    out nonpositive; the inputs violate an assumption rather than a tolerance."""


def symplectic_numerators(A, b):
    """The two quadratic forms S and T entering the volume-preserving rate
    coefficients; both are strictly positive whenever the eigenvalues form a
    complex pair, det = 1 and b != 0."""
    tr = A[0, 0] + A[1, 1]
    b1 = b[0]
    q = coupling(A, b)
    S = (b1 + q) ** 2 * (4 + tr) - 2 * b1 * q * (2 - tr)
    T = (b1 + q) ** 2 - b1 * q * (2 - tr)
    return S, T


def _closed_form_log_mgf(A, b, h, observable, volume_preserving, alpha2):
    """The log-MGF coefficient c in closed form.

    Written with + - * / ** and integer literals only, so the same expression
    serves the float matrices of `evaluate` and the symbolic ones of
    `evaluate_symbolic`. In the contractive regime (0 < det < 1) the terminal
    position stays bounded in law, so the velocity observable decays faster
    than exponentially and c = 0.
    """
    tr = A[0, 0] + A[1, 1]
    if volume_preserving:
        S, T = symplectic_numerators(A, b)
        if observable == MEAN_POSITION:
            return alpha2 * h * S / (2 * (2 + tr) * (2 - tr) ** 2)
        return alpha2 * T / ((4 - tr ** 2) * h)
    if observable == MEAN_POSITION:
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        return alpha2 * h * ((b[0] + coupling(A, b)) / (1 - tr + det)) ** 2 / 2
    return alpha2 * 0


def _log_mgf(method, h, observable, params):
    check_observable(observable)
    A, b = evaluate(method, h)
    rep = check_conditions(A, b)
    if rep.excluded:
        raise ValueError(
            f"{method.name} at h = {h:g}: det = {rep.det:.6g} > 1, powers of the "
            "update matrix diverge and no exponential decay rate exists")
    if not rep.a1:
        raise ValueError(
            f"{method.name} at h = {h:g}: eigenvalues are real "
            f"(4 det - tr^2 = {4.0 * rep.det - rep.tr ** 2:.3g} <= 0), "
            "the oscillatory analysis does not apply")
    if rep.a2:
        S, T = symplectic_numerators(A, b)
        if observable == MEAN_POSITION and not S > 0.0:
            raise InternalInvariantError(
                f"position numerator S = {S:.6g} <= 0 for {method.name} at h = {h:g}")
        if observable != MEAN_POSITION and not T > 0.0:
            raise InternalInvariantError(
                f"velocity numerator T = {T:.6g} <= 0 for {method.name} at h = {h:g}")
    c = _closed_form_log_mgf(A, b, h, observable, rep.a2, params.alpha ** 2)
    return float(c), REGIME_VOLUME_PRESERVING if rep.a2 else REGIME_CONTRACTIVE


def log_mgf_coefficient(method, h, observable, params=_DEFAULT_PARAMS):
    """c such that (1/N) log E exp(N lambda * observable) -> c lambda^2."""
    return _log_mgf(method, h, observable, params)[0]


def legendre_transform(c):
    """Rate function y -> sup_lambda (lambda y - c lambda^2)."""
    if c < 0.0:
        raise ValueError(f"log-MGF coefficient must be nonnegative, got {c}")
    if c == 0.0:
        return RateFunction.degenerate()
    return RateFunction.quadratic(1.0 / (4.0 * c))


@dataclass(frozen=True)
class LdpClassification:
    """Decay-rate data of one method at one step size."""

    regime: str
    log_mgf_coefficient: float
    rate: RateFunction
    modified_rate: RateFunction


def rate_function(method, h, observable, params=_DEFAULT_PARAMS):
    c, regime = _log_mgf(method, h, observable, params)
    rate = legendre_transform(c)
    if rate.is_degenerate:
        modified = RateFunction.degenerate()
    else:
        modified = RateFunction.quadratic(rate.coefficient / h)
    return LdpClassification(regime, c, rate, modified)


def observable_law(method, observable, h, N, params=_DEFAULT_PARAMS):
    """Exact finite-N law of the observable: the running position average, or
    the terminal position divided by the elapsed time."""
    check_observable(observable)
    if observable == MEAN_POSITION:
        return law_NA_N(method, h, N, params).scaled(1.0 / N)
    return law_x_N(method, h, N, params).scaled(1.0 / (N * h))


def finite_N_decay_rate(method, observable, h, N, interval, params=_DEFAULT_PARAMS):
    """-(1/N) log P(observable in interval) at finite N.

    Converges to the infimum of the per-step rate over the interval when the
    rate is nondegenerate; grows without bound when it is degenerate.
    """
    lo, hi = interval
    law = observable_law(method, observable, h, N, params)
    return -interval_probability(law, lo, hi).log_p / N


@dataclass(frozen=True)
class PreservationReport:
    """Verdict on whether the modified rate matches the continuous rate."""

    method_name: str
    observable: str
    h_values: tuple
    modified_coefficients: tuple
    target: float
    gaps: tuple
    verdict: str
    symbolic: bool


def preservation_report(method, observable, h_values=DEFAULT_H_SWEEP,
                        params=_DEFAULT_PARAMS):
    check_observable(observable)
    hs = decreasing_sweep(h_values)
    target = continuous_rate(observable, params).coefficient
    coefs = []
    gaps = []
    degenerate = False
    for h in hs:
        modified = rate_function(method, h, observable, params).modified_rate
        if modified.is_degenerate:
            degenerate = True
            coefs.append(math.inf)
            gaps.append(math.inf)
        else:
            coefs.append(modified.coefficient)
            gaps.append(abs(modified.coefficient - target))
    symbolic = False
    if degenerate:
        verdict = VERDICT_NONE
    elif all(g <= EXACT_TOL for g in gaps):
        symbolic = _symbolic_exact(method, observable)
        verdict = VERDICT_EXACT if symbolic else VERDICT_EXACT_NUMERIC
    elif _decays_to_zero(gaps):
        verdict = VERDICT_ASYMPTOTIC
    else:
        verdict = VERDICT_NONE
    return PreservationReport(method.name, observable, hs, tuple(coefs),
                              target, tuple(gaps), verdict, symbolic)


def _decays_to_zero(gaps):
    # non-increasing along refinement, with slack for roundoff, and the finest
    # gap must have shed at least three quarters of the coarsest one
    monotone = all(gaps[i + 1] <= gaps[i] * (1.0 + 1e-9) + 1e-14
                   for i in range(len(gaps) - 1))
    return monotone and gaps[-1] <= max(0.25 * gaps[0], EXACT_TOL)


@lru_cache(maxsize=None)
def _symbolic_exact(method, observable):
    """Identity-level proof that the modified rate equals the continuous one.

    Works on the symbolic coefficients at noise intensity 1 (both sides scale
    the same way in alpha). Any failure, including coefficients that do not
    evaluate symbolically, just declines the upgrade.
    """
    try:
        return _prove_modified_rate(method, observable)
    except Exception:
        return False


def _prove_modified_rate(method, observable):
    A, b, h = evaluate_symbolic(method)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    symplectic = sp.simplify(det - 1) == 0
    c = _closed_form_log_mgf(A, b, h, observable, symplectic, 1)
    if c == 0:
        return False  # a degenerate rate never matches a continuous one
    target = sp.Rational(1, 3) if observable == MEAN_POSITION else sp.Integer(1)
    gap = sp.together(1 / (4 * c * h) - target)
    for transform in (lambda e: sp.simplify(sp.cancel(e)),
                      sp.simplify,
                      lambda e: sp.simplify(e.rewrite(sp.exp))):
        try:
            if transform(gap) == 0:
                return True
        except Exception:
            continue
    return False


# --------------------------------------------------------------------------
# search for exactly-preserving methods

SEARCH_SIGMA_GRID = (-0.5, 0.0, 0.5)
SEARCH_D_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
SEARCH_H_PROBES = (0.05, 0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 1.9)
# steps at which a hit must reproduce a catalog method to take its name
_MATCH_H_SAMPLES = (0.3, 0.7, 1.1)

_ANSATZ_H_RANGE = (0.0, 2.0)


def _ansatz_coefficients(c11, c22, sigma, d1, d2):
    def coefficients(h):
        A = [[1 + c11 * h ** 2, h + sigma * h ** 2],
             [-h + sigma * h ** 2, 1 + c22 * h ** 2]]
        b = [d1 * h, 1 + d2 * h]
        return A, b
    return coefficients


def _ansatz_expressions(c11, c22, sigma, d1, d2):
    def affine(lead, coef, power):
        if coef == 0:
            return lead
        sign = "+" if coef > 0 else "-"
        return f"{lead} {sign} {abs(coef):g}*{power}"
    return {
        "a11": affine("1", c11, "h^2"),
        "a12": affine("h", sigma, "h^2"),
        "a21": affine("-h", sigma, "h^2"),
        "a22": affine("1", c22, "h^2"),
        "b1": f"{d1:g}*h",
        "b2": affine("1", d2, "h"),
    }


def _matches(candidate, reference):
    for h in _MATCH_H_SAMPLES:
        Ac, bc = evaluate(candidate, h)
        Ar, br = evaluate(reference, h)
        if np.max(np.abs(Ac - Ar)) > 1e-12 or np.max(np.abs(bc - br)) > 1e-12:
            return False
    return True


def exact_preservation_search(observable):
    """Scan volume-preserving quadratic perturbations of the rotation step for
    methods whose modified rate equals the continuous rate at every probe step.

    The family is A = [[1 + c11 h^2, h + sigma h^2], [-h + sigma h^2,
    1 + c22 h^2]], b = (d1 h, 1 + d2 h); det = 1 forces c11 + c22 = -1 and
    c11 c22 = sigma^2, leaving two root assignments per sigma. Hits that
    coincide with a catalog method are returned under the catalog name, each
    carrying a parseable definition text.
    """
    check_observable(observable)
    target = continuous_rate(observable, _DEFAULT_PARAMS).coefficient
    references = [m for m in catalog() if m.name.startswith("m")]
    hits = []
    seen = set()
    for sigma in SEARCH_SIGMA_GRID:
        disc = 1.0 - 4.0 * sigma * sigma
        if disc < 0.0:
            continue
        root = math.sqrt(disc)
        branches = {(-0.5 * (1.0 + root), -0.5 * (1.0 - root)),
                    (-0.5 * (1.0 - root), -0.5 * (1.0 + root))}
        for c11, c22 in sorted(branches):
            for d1 in SEARCH_D_GRID:
                for d2 in SEARCH_D_GRID:
                    key = tuple(round(v, 12) for v in (c11, c22, sigma, d1, d2))
                    if key in seen:
                        continue
                    seen.add(key)
                    name = f"found:sigma={sigma:g},d1={d1:g},d2={d2:g}"
                    candidate = MethodDef(
                        name, _ansatz_coefficients(c11, c22, sigma, d1, d2),
                        "search hit", _ANSATZ_H_RANGE)
                    if not _exact_at_probes(candidate, observable, target):
                        continue
                    exprs = _ansatz_expressions(c11, c22, sigma, d1, d2)
                    hit = candidate
                    for ref in references:
                        if _matches(candidate, ref):
                            hit = ref
                            break
                    hits.append(replace(
                        hit, definition=format_method_file(
                            hit.name, exprs, _ANSATZ_H_RANGE)))
    return sorted(hits, key=lambda m: m.name)


def _exact_at_probes(candidate, observable, target):
    for h in SEARCH_H_PROBES:
        try:
            modified = rate_function(candidate, h, observable).modified_rate
        except ValueError:
            return False
        if modified.is_degenerate or abs(modified.coefficient - target) > EXACT_TOL:
            return False
    return True
