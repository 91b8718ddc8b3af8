"""Decay-rate analysis of one-step methods over long horizons.

For an admissible method the scaled cumulant limit of each observable is
quadratic, Lambda(lambda) = c lambda^2, with c in closed form in the method
coefficients. Its Legendre transform is the per-step decay rate; dividing by
the step gives the modified rate that is comparable with the continuous-time
rate. A method preserves the decay rate exactly when the modified rate equals
the continuous one for every step size, asymptotically when the gap closes as
the step is refined.

`preservation_report` decides between those outcomes from the admissible
steps of a sweep (it skips the steps without a decay rate), and upgrades a
numerically exact verdict to an identity-level one when the closed forms
are equal as functions of h, which exact arithmetic over h, pi and
exp(i r h) decides. `exact_preservation_search` scans a quadratic
perturbation family of the rotation step (the ansatz of
`methods.ansatz_coefficients`) for methods that preserve a rate exactly,
deciding each rational point by the same identity test, written once over
the family's parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .laws import law_NA_N, law_x_N
from .methods import ANSATZ_H_RANGE, ANSATZ_POINTS, Exact, MethodDef, \
    ProofDeclined, ansatz_coefficients, ansatz_expressions, check_conditions, \
    coupling, decreasing_sweep, evaluate, evaluate_symbolic, format_method_file
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
    tr = A[0][0] + A[1][1]
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
    tr = A[0][0] + A[1][1]
    if volume_preserving:
        S, T = symplectic_numerators(A, b)
        if observable == MEAN_POSITION:
            return h * S / (2 * (2 + tr) * (2 - tr) ** 2)
        return T / ((4 - tr ** 2) * h)
    if observable == MEAN_POSITION:
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
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

    h_values are the admissible steps of the sweep and steps their
    classifications; skipped holds (h, reason) for every other step. verdict
    and proof are None with fewer than two admissible steps. Otherwise proof
    is the outcome of the identity-level proof: PROOF_PROVED, PROOF_REFUTED
    or "declined: <reason>"; None when the sweep was not numerically exact,
    so no proof was attempted.
    """

    method_name: str
    observable: str
    h_values: tuple
    modified_coefficients: tuple
    target: float
    gaps: tuple
    verdict: str | None
    symbolic: bool
    proof: str | None
    steps: tuple
    skipped: tuple


def preservation_report(method, observable, h_values=DEFAULT_H_SWEEP,
                        params=_DEFAULT_PARAMS):
    """Classify each step of the sweep once, skipping the steps without a
    decay rate, and judge the admissible ones, which must decrease."""
    check_observable(observable)
    sweep = tuple(float(h) for h in h_values)
    if len(sweep) < 2:
        decreasing_sweep(sweep)  # raises: one step is no refinement
    target = continuous_rate(observable, params).coefficient
    hs, steps, skipped = [], [], []
    for h in sweep:
        try:
            steps.append(rate_function(method, h, observable, params))
            hs.append(h)
        except ValueError as exc:
            skipped.append((h, str(exc)))
    coefs = tuple(math.inf if s.modified_rate.is_degenerate
                  else s.modified_rate.coefficient for s in steps)
    gaps = tuple(abs(c - target) for c in coefs)
    # the coefficients and the target all scale as 1/alpha^2, so the gates
    # read each gap relative to the target
    relative = [g / target for g in gaps]
    verdict = proof = None
    if len(hs) >= 2:
        decreasing_sweep(hs)
        if all(g <= EXACT_TOL for g in relative):
            proof = _symbolic_exact(method, observable)
        if math.inf in coefs:
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
    return PreservationReport(method.name, observable, tuple(hs), coefs,
                              target, gaps, verdict, proof == PROOF_PROVED,
                              proof, tuple(steps), tuple(skipped))


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

    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    return vanishes(_exactness_gap(A, b, h, observable, vanishes(det - 1)))


def _exactness_gap(A, b, h, observable, volume_preserving):
    """4 c h I - 1 for the continuous coefficient I, on exact coefficients:
    zero exactly when the modified rate is the continuous one; -1 for c = 0."""
    target = Fraction(1, 3) if observable == MEAN_POSITION else 1
    c = _closed_form_log_mgf(A, b, h, observable, volume_preserving)
    return 4 * c * h * target - 1


# --------------------------------------------------------------------------
# search for exactly-preserving methods

SEARCH_SIGMA_GRID = tuple(Fraction(k, 2) for k in (-1, 0, 1))
SEARCH_D_GRID = tuple(Fraction(k, 2) for k in range(-2, 3))

# the ansatz parameters as `Exact` variables, in the order of a point
_ANSATZ_VARIABLES = (("c11",), ("c22",), ("sigma",), ("d1",), ("d2",))


def _det_one_points():
    """(c11, c22, sigma) for each sigma of the grid and each (rational) root
    c11 of c^2 + c + sigma^2, with c22 = -1 - c11, so det = 1."""
    for sigma in SEARCH_SIGMA_GRID:
        disc = 1 - 4 * sigma ** 2
        root = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
        for c11 in sorted({(root - 1) / 2, -(root + 1) / 2}):
            yield c11, -1 - c11, sigma


def _h_coefficients(poly, values):
    """The nonzero coefficients of the powers of h in poly once the variables
    in values are set to those rationals, shortest first; none when poly
    vanishes there."""
    groups = {}
    for mono, coef in poly.items():
        rest = []
        for var, e in mono:
            if var in values:
                coef *= values[var] ** e
            else:
                rest.append((var, e))
        group = groups.setdefault(dict(mono).get(("h",), 0), {})
        key = tuple(rest)
        group[key] = group[key] + coef if key in group else coef
    nonzero = ({m: c for m, c in g.items() if c} for g in groups.values())
    return sorted(filter(None, nonzero), key=len)


def _exact_points(observable):
    """The grid points (c11, c22, sigma, d1, d2) whose modified rate equals
    the continuous one for every h: the ansatz's gap (`_exactness_gap`, det = 1
    branch) is built once over h and the parameters, and a point is exact
    when every h-coefficient of its numerator vanishes there and some
    h-coefficient of its denominator does not."""
    params = [Exact.symbol(var) for var in _ANSATZ_VARIABLES]
    A, b, h = evaluate_symbolic(
        MethodDef("ansatz", ansatz_coefficients(*params)))
    gap = _exactness_gap(A, b, h, observable, True)
    for outer in _det_one_points():
        values = dict(zip(_ANSATZ_VARIABLES, outer))
        # most points fail on the first, shortest coefficient
        num = _h_coefficients(gap.num, values)
        den = _h_coefficients(gap.den, values)
        for d1 in SEARCH_D_GRID:
            for d2 in SEARCH_D_GRID:
                values = {("d1",): d1, ("d2",): d2}
                if not any(_h_coefficients(p, values) for p in num) and \
                        any(_h_coefficients(p, values) for p in den):
                    yield (*outer, d1, d2)


def exact_preservation_search(observable):
    """Scan volume-preserving quadratic perturbations of the rotation step
    (`methods.ansatz_coefficients` with det = 1) for methods whose modified
    rate equals the continuous rate for every h, deciding each rational grid
    point exactly. A hit at a catalog point (`methods.ANSATZ_POINTS`) takes
    the catalog name; each hit carries a parseable definition text."""
    check_observable(observable)
    names = {point: name for name, point in ANSATZ_POINTS.items()}
    hits = []
    for point in _exact_points(observable):
        name = names.get(point) or "found:sigma={:g},d1={:g},d2={:g}".format(
            *map(float, point[2:]))
        hits.append(MethodDef(
            name, ansatz_coefficients(*point), "search hit", ANSATZ_H_RANGE,
            format_method_file(name, ansatz_expressions(*point), ANSATZ_H_RANGE)))
    return sorted(hits, key=lambda m: m.name)
