"""Resolvent diagonals and the leave-one-out identities behind them.

The Gram matrices of X and of X with one column removed differ in a way the
resolvent sees exactly: diagonal entries obey

  G_kk = 1/(|w_k|^2 - theta - w_k* W_k (W_k*W_k - theta)^(-1) W_k* w_k)
       = -1/(theta (1 + w_k* (W_k W_k* - theta)^(-1) w_k)),

with W_k the matrix minus column k and w_k the removed (scaled) column.

Both forms are evaluated from the complete eigenbases of the minor Grams
W_k W_k* (`spectral.minor_basis`, one stacked eigensolve over all N minors,
shared by every spectral point); each takes a sequence of points and
evaluates every (point, column) pair in one pass.
The two Gram orderings of the minor share a spectrum except for one null
direction, so the second form runs over the N-1 range directions with the
minor eigenvalues and the one extra (null) direction with eigenvalue 0, whose
contribution |<null, w_k>|^2 / (0 - theta) must not be dropped.
The empirical transform takes one spectrum or a (trials, N) block of them;
every sum here is a numpy reduction along the last axis.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .mp import SpectralPoint
from .spectral import MinorBasis

__all__ = [
    "empirical_stieltjes",
    "resolvent_diag_leave_one_out",
    "resolvent_diag_schur",
]


def empirical_stieltjes(eigenvalues: np.ndarray, point: SpectralPoint):
    """(1/N) sum 1/(s_a - theta) along the last axis.

    A 1-D spectrum gives one complex value; a (trials, N) block gives one
    value per row.  No order is assumed.
    """
    # where E + eta overflows (windows near float max, which mp_window_mass
    # accepts) the complex divide overflows in an intermediate step; there
    # 1/(s - theta) lies below 1e-307 and rounds to 0, so the warning is moot
    with np.errstate(over="ignore"):
        inverse = 1.0 / (eigenvalues - point.theta)
    return np.mean(inverse, axis=-1)


def resolvent_diag_leave_one_out(
    minors: MinorBasis, points: Sequence[SpectralPoint]
) -> np.ndarray:
    """G_kk at each point and column, shape (points, N), through the
    removed-column identity, never touching the full matrix.

    The quadratic form runs over the complete eigenbasis of each minor Gram,
    null direction included.
    """
    theta = np.array([p.theta for p in points])[:, None]
    quad = np.sum(minors.weights / (minors.eigenvalues - theta[:, :, None]), axis=-1)
    quad += minors.null_weights / (0.0 - theta)
    return -1.0 / (theta * (1.0 + quad))


def resolvent_diag_schur(minors: MinorBasis, points: Sequence[SpectralPoint]) -> np.ndarray:
    """G_kk at each point and column, shape (points, N), through the Schur
    complement form 1/(|w|^2 - theta - w* W (W*W - theta)^(-1) W* w)."""
    theta = np.array([p.theta for p in points])[:, None]
    t = minors.eigenvalues
    norm_sq = np.sum(np.abs(minors.columns) ** 2, axis=-1)
    return 1.0 / (norm_sq - theta - np.sum(minors.weights * t / (t - theta[:, :, None]), axis=-1))
