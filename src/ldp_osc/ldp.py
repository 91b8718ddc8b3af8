"""Decay-rate analysis of one-step methods over long horizons.

For an admissible method the scaled cumulant limit of each observable is
quadratic, Lambda(lambda) = c lambda^2, with c in closed form in the method
coefficients. Its Legendre transform is the per-step decay rate; dividing by
the step gives the modified rate that is comparable with the continuous-time
rate. A method preserves the decay rate exactly when the modified rate equals
the continuous one for every step size, asymptotically when the gap closes as
the step is refined.

`preservation_report` decides between those outcomes from a step sweep, and
upgrades a numerically exact verdict to an identity-level one when the closed
forms are equal as functions of h, which exact arithmetic over h, pi and
exp(i r h) decides. `exact_preservation_search` scans a quadratic
perturbation family of the rotation step for methods that preserve a rate
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .laws import law_NA_N, law_x_N
from .methods import Exact, MethodDef, ProofDeclined, catalog, \
    check_conditions, coupling, decreasing_sweep, evaluate, evaluate_symbolic, \
    format_method_file
from .oscillator import MEAN_POSITION, OscillatorParams, RateFunction, \
    check_observable, continuous_rate

REGIME_VOLUME_PRESERVING = "volume-preserving"
REGIME_CONTRACTIVE = "contractive"

VERDICT_EXACT = "ExactlyPreserves"
VERDICT_EXACT_NUMERIC = "ExactlyPreserves(numeric)"
VERDICT_ASYMPTOTIC = "AsymptoticallyPreserves"
VERDICT_NONE = "DoesNotPreserve"

# outcomes of the identity-level proof besides "declined: <reason>"
PROOF_PROVED = "proved"
PROOF_REFUTED = "refuted"

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


def _closed_form_log_mgf(A, b, h, observable, volume_preserving):
    """The log-MGF coefficient c in closed form, at unit noise (alpha = 1).

    Written with + - * / ** and integer literals only, so the same expression
    serves the float matrices of `evaluate` and the exact ones of
    `evaluate_symbolic`. In the contractive regime (0 < det < 1) the terminal
    position stays bounded in law, so the velocity observable decays faster
    than exponentially and c = 0.
    """
    tr = A[0, 0] + A[1, 1]
    if volume_preserving:
        S, T = symplectic_numerators(A, b)
        if observable == MEAN_POSITION:
            return h * S / (2 * (2 + tr) * (2 - tr) ** 2)
        return T / ((4 - tr ** 2) * h)
    if observable == MEAN_POSITION:
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        return h * ((b[0] + coupling(A, b)) / (1 - tr + det)) ** 2 / 2
    return 0


def _log_mgf(method, h, observable):
    """c at unit noise and the regime; c scales as alpha^2."""
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
    c = _closed_form_log_mgf(A, b, h, observable, rep.a2)
    return float(c), REGIME_VOLUME_PRESERVING if rep.a2 else REGIME_CONTRACTIVE


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
    # c comes at unit noise and alpha enters last, so the rates (which scale
    # as 1/alpha^2, like the continuous target) keep full precision at the
    # extreme alphas, even where the reported c overflows
    c, regime = _log_mgf(method, h, observable)
    a2 = params.alpha ** 2
    rate = legendre_transform(c)
    if rate.is_degenerate:
        modified = RateFunction.degenerate()
    else:
        modified = RateFunction.quadratic(rate.coefficient / h / a2)
        rate = RateFunction.quadratic(rate.coefficient / a2)
    return LdpClassification(regime, c * a2, rate, modified)


def observable_law(method, observable, h, N, params=_DEFAULT_PARAMS):
    """Exact finite-N law of the observable: the running position average, or
    the terminal position divided by the elapsed time."""
    check_observable(observable)
    if observable == MEAN_POSITION:
        return law_NA_N(method, h, N, params).scaled(1.0 / N)
    return law_x_N(method, h, N, params).scaled(1.0 / (N * h))


@dataclass(frozen=True)
class PreservationReport:
    """Verdict on whether the modified rate matches the continuous rate.

    proof is the outcome of the identity-level proof: PROOF_PROVED,
    PROOF_REFUTED or "declined: <reason>"; None when the sweep was not
    numerically exact, so no proof was attempted.
    """

    method_name: str
    observable: str
    h_values: tuple
    modified_coefficients: tuple
    target: float
    gaps: tuple
    verdict: str
    symbolic: bool
    proof: str | None


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
    # the coefficients and the target all scale as 1/alpha^2, so the gates
    # read each gap relative to the target
    relative = [g / target for g in gaps]
    proof = None
    if not degenerate and all(g <= EXACT_TOL for g in relative):
        proof = _symbolic_exact(method, observable)
    if degenerate:
        verdict = VERDICT_NONE
    elif proof == PROOF_PROVED:
        verdict = VERDICT_EXACT
    elif proof is not None and proof != PROOF_REFUTED:
        # the proof declined, so the sweep is the only evidence
        verdict = VERDICT_EXACT_NUMERIC
    elif _decays_to_zero(relative):
        # a refuted identity is judged by its gaps, like any inexact one
        verdict = VERDICT_ASYMPTOTIC
    else:
        verdict = VERDICT_NONE
    return PreservationReport(method.name, observable, hs, tuple(coefs),
                              target, tuple(gaps), verdict,
                              proof == PROOF_PROVED, proof)


def _decays_to_zero(gaps):
    # non-increasing along refinement, with slack for roundoff, and the finest
    # gap must have shed at least three quarters of the coarsest one
    monotone = all(gaps[i + 1] <= gaps[i] * (1.0 + 1e-9) + 1e-14
                   for i in range(len(gaps) - 1))
    return monotone and gaps[-1] <= max(0.25 * gaps[0], EXACT_TOL)


def _symbolic_exact(method, observable):
    """Outcome of the identity-level proof: PROOF_PROVED, PROOF_REFUTED or
    "declined: <reason>"."""
    try:
        return PROOF_PROVED if _prove_modified_rate(method, observable) \
            else PROOF_REFUTED
    except ProofDeclined as exc:
        return f"declined: {exc}"


def _prove_modified_rate(method, observable):
    """Decide whether the modified rate equals the continuous one at every h.

    Returns True for an identity and False when it fails (including c = 0).
    Works on the exact coefficients at noise intensity 1 (both sides scale
    the same way in alpha): float literals are exact rationals, and every
    sin/cos(r h) is written through w^r and w^-r, w = exp(i h). The
    functions pi^a h^b exp(i r h) are linearly independent, so each
    quantity the test reads vanishes identically exactly when its numerator
    has no terms. Raises ProofDeclined for coefficients that are not
    rational functions of h and of sin, cos at rational multiples of h.
    """
    try:
        A, b, h = evaluate_symbolic(method)
    except TypeError as exc:
        raise ProofDeclined(
            f"coefficients do not evaluate at a symbolic h ({exc})") from None

    def vanishes(x):
        return not Exact.of(x).num

    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    c = _closed_form_log_mgf(A, b, h, observable, vanishes(det - 1))
    if vanishes(c):
        return False  # a degenerate rate never matches a continuous one
    target = Fraction(1, 3) if observable == MEAN_POSITION else 1
    return vanishes(4 * c * h * target - 1)


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
