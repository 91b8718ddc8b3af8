"""Decay-rate analysis of one-step methods over long horizons.

For an admissible method the scaled cumulant limit of each observable is
quadratic, Lambda(lambda) = c lambda^2, with c in closed form in the method
coefficients. Its Legendre transform is the per-step decay rate
y -> y^2 / (4 c); dividing by the step gives the modified rate that is
comparable with the continuous-time rate. A rate is its coefficient, a float:
c = 0 (a contractive method's mean velocity) gives inf, the degenerate rate
that is 0 at y = 0 and infinite elsewhere. A method preserves the decay rate
exactly when the modified rate equals the continuous one for every step size,
asymptotically when the gap closes as the step is refined.

A step has no decay rate when det A > 1, when its eigenvalues are real, when
c leaves the float64 range, or when det = 1 holds only within tolerance and
the numerator S or T of c is not positive; `_log_mgf` raises ValueError
naming which. `preservation_report` checks that the sweep decreases, decides
between those outcomes from the steps that have a rate (it skips the
others), and upgrades a numerically exact verdict to an identity-level one
when the closed forms are equal as functions of h, which exact arithmetic
over h, pi and exp(i r h) decides (`exact`, loaded for a proof only).
`exact_preservation_search` scans a quadratic perturbation family of the
rotation step (the ansatz of `methods.ansatz_coefficients`) for methods that
preserve a rate exactly, deciding each rational point by the same identity
test, written once over the family's parameters.
"""

import math
from typing import NamedTuple

from .laws import law_NA_N, law_x_N
from .methods import ANSATZ_H_RANGE, ANSATZ_POINTS, MethodDef, \
    ansatz_coefficients, ansatz_expressions, check_conditions, coupling, \
    decreasing_sweep, evaluate, evaluate_symbolic, format_method_file
from .oscillator import MEAN_POSITION, OscillatorParams, check_observable, \
    continuous_rate

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
            f"(4 det - tr^2 = {4.0 * rep.det - rep.tr * rep.tr:.3g} <= 0), "
            "the oscillatory analysis does not apply")
    try:
        c = float(_closed_form_log_mgf(A, b, h, observable, rep.a2))
    except ArithmeticError:  # a float power out of range, a denominator of 0
        c = math.inf
    if not math.isfinite(c):
        raise ValueError(f"{method.name} at h = {h:g}: the log-MGF coefficient "
                         "is out of the float64 range")
    if rep.a2:
        # det = 1 is met within a tolerance, so tr can reach 2 and beyond
        S, T = symplectic_numerators(A, b)
        what, value = ("position numerator S", S) if observable == MEAN_POSITION \
            else ("velocity numerator T", T)
        if not value > 0.0:
            raise ValueError(
                f"{method.name} at h = {h:g}: {what} = {value:.6g} <= 0 at "
                f"tr = {rep.tr!r} (S and T are positive only for |tr| < 2), "
                "so no decay rate exists")
    return c, REGIME_VOLUME_PRESERVING if rep.a2 else REGIME_CONTRACTIVE


def legendre_transform(c):
    """Coefficient k of the rate y -> sup_lambda (lambda y - c lambda^2) = k y^2:
    1 / (4 c), or inf for c = 0."""
    if not c >= 0.0:
        raise ValueError(f"log-MGF coefficient must be nonnegative, got {c}")
    return math.inf if c == 0.0 else 1.0 / (4.0 * c)


class LdpClassification(NamedTuple):
    """Decay-rate data of one method at one step size; the rates are their
    coefficients."""

    regime: str
    log_mgf_coefficient: float
    rate: float
    modified_rate: float


def rate_function(method, h, observable, params=OscillatorParams()):
    # c comes at unit noise and alpha enters last, so the rates (which scale
    # as 1/alpha^2, like the continuous target) keep full precision at the
    # extreme alphas, even where the reported c overflows
    c, regime = _log_mgf(method, h, observable)
    a2 = params.alpha ** 2
    rate = legendre_transform(c)
    return LdpClassification(regime, c * a2, rate / a2, rate / h / a2)


def observable_law(method, observable, h, N, params=OscillatorParams()):
    """Exact finite-N law of the observable: the running position average, or
    the terminal position divided by the elapsed time."""
    check_observable(observable)
    if observable == MEAN_POSITION:
        return law_NA_N(method, h, N, params).scaled(1.0 / N)
    return law_x_N(method, h, N, params).scaled(1.0 / (N * h))


class PreservationReport(NamedTuple):
    """Verdict on whether the modified rate matches the continuous rate.

    h_values are the admissible steps of the sweep and steps their
    classifications; skipped holds (h, reason) for every other step. verdict
    and proof are None with fewer than two admissible steps. Otherwise proof
    is the outcome of the identity-level proof: PROOF_PROVED, PROOF_REFUTED
    or "declined: <reason>"; None when the sweep was not numerically exact,
    so no proof was attempted.
    """

    h_values: tuple
    target: float
    gaps: tuple
    verdict: str | None
    symbolic: bool
    proof: str | None
    steps: tuple
    skipped: tuple


def preservation_report(method, observable, h_values=DEFAULT_H_SWEEP,
                        params=OscillatorParams()):
    """Check the sweep (`methods.decreasing_sweep`), classify each step once,
    skipping the steps without a decay rate, and judge the admissible ones."""
    check_observable(observable)
    sweep = decreasing_sweep(h_values)
    target = continuous_rate(observable, params)
    hs, steps, skipped = [], [], []
    for h in sweep:
        try:
            steps.append(rate_function(method, h, observable, params))
            hs.append(h)
        except ValueError as exc:
            skipped.append((h, str(exc)))
    gaps = tuple(abs(s.modified_rate - target) for s in steps)
    # the coefficients and the target all scale as 1/alpha^2, so the gates
    # read each gap relative to the target
    relative = [g / target for g in gaps]
    verdict = proof = None
    if len(hs) >= 2:
        if all(g <= EXACT_TOL for g in relative):
            proof = _symbolic_exact(method, observable)
        if math.inf in gaps:  # a degenerate modified rate
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
    return PreservationReport(tuple(hs), target, gaps, verdict,
                              proof == PROOF_PROVED, proof, tuple(steps),
                              tuple(skipped))


def _decays_to_zero(gaps):
    # non-increasing along refinement, with slack for roundoff, and the finest
    # gap must have shed at least three quarters of the coarsest one
    monotone = all(gaps[i + 1] <= gaps[i] * (1.0 + 1e-9) + 1e-14
                   for i in range(len(gaps) - 1))
    return monotone and gaps[-1] <= max(0.25 * gaps[0], EXACT_TOL)


def _symbolic_exact(method, observable):
    """Outcome of the identity-level proof: PROOF_PROVED, PROOF_REFUTED or
    "declined: <reason>"."""
    from .exact import ProofDeclined  # the proof engine loads for a proof only
    try:
        return PROOF_PROVED if _prove_modified_rate(method, observable) \
            else PROOF_REFUTED
    except ProofDeclined as exc:
        return f"declined: {exc}"


def _prove_modified_rate(method, observable):
    """Decide whether the modified rate equals the continuous one at every h.

    Returns True for an identity and False when it fails (including c = 0).
    Works on the exact coefficients (`exact.Exact`) at noise intensity 1,
    since both sides scale the same way in alpha. Raises ProofDeclined for
    coefficients that are not rational functions of h and of sin, cos at
    rational multiples of h.
    """
    from .exact import ProofDeclined
    try:
        A, b, h = evaluate_symbolic(method)
    except TypeError as exc:
        raise ProofDeclined(
            f"coefficients do not evaluate at a symbolic h ({exc})") from None
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    return _exactness_gap(A, b, h, observable, (det - 1).vanishes()).vanishes()


def _exactness_gap(A, b, h, observable, volume_preserving):
    """4 c h I - 1 for the continuous coefficient I, on exact coefficients:
    zero exactly when the modified rate is the continuous one; -1 for c = 0."""
    from .exact import Exact  # loaded with the proof engine
    target = Exact.of(1) / 3 if observable == MEAN_POSITION else 1
    c = _closed_form_log_mgf(A, b, h, observable, volume_preserving)
    return 4 * c * h * target - 1


# --------------------------------------------------------------------------
# search for exactly-preserving methods

# halves, which floats hold exactly
SEARCH_SIGMA_GRID = tuple(k / 2 for k in (-1, 0, 1))
SEARCH_D_GRID = tuple(k / 2 for k in range(-2, 3))

# the names of the ansatz parameters, in the order of a point
_ANSATZ_VARIABLES = ("c11", "c22", "sigma", "d1", "d2")


def _det_one_points():
    """(c11, c22, sigma) for each sigma of the grid and each root c11 of
    c^2 + c + sigma^2, with c22 = -1 - c11, so det = 1; the grid's roots are
    0, -1/2 and -1, which floats hold exactly."""
    for sigma in SEARCH_SIGMA_GRID:
        root = math.sqrt(1 - 4 * sigma ** 2)
        for c11 in sorted({(root - 1) / 2, -(root + 1) / 2}):
            yield c11, -1 - c11, sigma


def _exact_points(observable):
    """The grid points (c11, c22, sigma, d1, d2) whose modified rate equals
    the continuous one for every h: the ansatz's gap (`_exactness_gap`, det = 1
    branch) is built once over h and the parameters, and a point is exact
    when every h-coefficient of its numerator vanishes there and some
    h-coefficient of its denominator does not."""
    from .exact import Exact  # the proof engine loads for the search only
    params = [Exact.symbol(name) for name in _ANSATZ_VARIABLES]
    A, b, h = evaluate_symbolic(
        MethodDef("ansatz", ansatz_coefficients(*params)))
    gap = _exactness_gap(A, b, h, observable, True)
    for outer in _det_one_points():
        # most points fail on the first, shortest coefficient
        num, den = gap.h_coefficients(dict(zip(_ANSATZ_VARIABLES, outer)))
        for d1 in SEARCH_D_GRID:
            for d2 in SEARCH_D_GRID:
                values = {"d1": d1, "d2": d2}
                if all(c.vanishes(values) for c in num) and \
                        not all(c.vanishes(values) for c in den):
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
