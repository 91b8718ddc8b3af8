"""Spectral data of the one-step update matrix: the admissibility guard of the
exact finite-N laws.

A 2x2 matrix A with 4 det(A) > tr(A)^2 has the complex eigenvalue pair
sqrt(det) * exp(+-i theta) with cos(theta) = tr / (2 sqrt(det)). The laws
themselves come from the O(log N) moment doubling in `laws`; they call
`spectral_data` first so that real spectra and rotation angles lost to
rounding are rejected before any moment is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIN_THETA_MIN = 1e-8


class NearDegenerateError(ValueError):
    """tr(A) is too close to +-2 sqrt(det A); the rotation angle is numerically lost."""


@dataclass(frozen=True)
class SpectralData:
    det: float
    tr: float
    theta: float


def spectral_data(A):
    """Rotation angle and invariants of a real 2x2 matrix with a complex pair."""
    A = np.asarray(A, dtype=float)
    det = float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    tr = float(A[0, 0] + A[1, 1])
    disc = 4.0 * det - tr * tr
    if disc <= 0.0:
        raise ValueError(
            f"complex-pair condition failed: 4 det(A) - tr(A)^2 = {disc:.6g} <= 0")
    # rounding can push the cosine a hair outside [-1, 1] even when disc > 0;
    # clamping routes such matrices into the near-degenerate error below
    cosine = min(1.0, max(-1.0, tr / (2.0 * math.sqrt(det))))
    theta = math.acos(cosine)
    if math.sin(theta) < SIN_THETA_MIN:
        raise NearDegenerateError(
            f"near-degenerate spectrum: sin(theta) = {math.sin(theta):.3g} < {SIN_THETA_MIN}")
    return SpectralData(det, tr, theta)
