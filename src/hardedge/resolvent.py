"""Resolvent diagonals and the leave-one-out identities behind them.

The Gram matrices of X and of X with one column removed differ in a way the
resolvent sees exactly: diagonal entries obey

  G_kk = 1/(|w_k|^2 - theta - w_k* W_k (W_k*W_k - theta)^(-1) W_k* w_k)
       = -1/(theta (1 + w_k* (W_k W_k* - theta)^(-1) w_k)),

with W_k the matrix minus column k and w_k the removed (scaled) column.

Both forms are evaluated from the minor's complete left singular basis
(`spectral.minor_basis`, one SVD per column, shared by every spectral point);
each takes a sequence of points and evaluates them in one pass.
The two Gram orderings of the minor share a spectrum except for one null
direction, so the second form runs over the N-1 range directions with the
minor eigenvalues and the one extra (null) direction with eigenvalue 0, whose
contribution |<null, w_k>|^2 / (0 - theta) must not be dropped.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .mp import SpectralPoint
from .spectral import MinorBasis

__all__ = [
    "empirical_stieltjes",
    "resolvent_diag_leave_one_out",
    "resolvent_diag_schur",
]


def _csum(values: np.ndarray) -> complex:
    """Exactly-rounded complex sum (fsum per part), fixed index order."""
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


def empirical_stieltjes(eigenvalues: np.ndarray, point: SpectralPoint) -> complex:
    """(1/N) sum 1/(s_a - theta) over the ascending eigenvalues, exactly-rounded
    summation in index order."""
    return _csum(1.0 / (eigenvalues - point.theta)) / len(eigenvalues)


def _thetas(points: Sequence[SpectralPoint]) -> np.ndarray:
    return np.array([p.theta for p in points], dtype=complex)[:, None]


def resolvent_diag_leave_one_out(
    minor: MinorBasis, points: Sequence[SpectralPoint]
) -> np.ndarray:
    """G_kk at each point through the removed-column identity, never touching
    the full matrix.

    The quadratic form runs over the complete left basis of the minor,
    null direction included.  The per-point tail stays in Python complex
    arithmetic, whose division rounds differently from numpy's.
    """
    quads = minor.weights / (minor.eigenvalues - _thetas(points))
    out = np.empty(len(points), dtype=complex)
    for i, p in enumerate(points):
        theta = p.theta
        quad = _csum(quads[i]) + minor.null_weight / (0.0 - theta)
        out[i] = -1.0 / (theta * (1.0 + quad))
    return out


def resolvent_diag_schur(minor: MinorBasis, points: Sequence[SpectralPoint]) -> np.ndarray:
    """G_kk at each point through the Schur complement form
    1/(|w|^2 - theta - w* W (W*W - theta)^(-1) W* w)."""
    t = minor.eigenvalues
    norm_sq = float(np.sum(np.abs(minor.column) ** 2))
    forms = minor.weights * t / (t - _thetas(points))
    out = np.empty(len(points), dtype=complex)
    for i, p in enumerate(points):
        out[i] = 1.0 / (norm_sq - p.theta - _csum(forms[i]))
    return out
