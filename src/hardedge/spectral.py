"""Spectral decompositions of X*X and the exact finite-N facts about them.

Eigenvalues are always obtained through the SVD of X itself and squared, so
the hard-edge values (of order 1/N^2) keep full relative precision; an
eigensolver applied to the Gram matrix would see them through an absolute
error of order machine epsilon times ||X*X||.

Decompositions are in ascending order; a MinorBasis keeps LAPACK's
descending order.  Eigenvectors of X*X are the right singular vectors of X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import MatrixSample
from .mp import Window

__all__ = [
    "DecompositionError",
    "SpectralDecomposition",
    "MinorBasis",
    "decompose",
    "eigenvalues_only",
    "minor_basis",
    "eigenvalue_count",
    "counting_bound",
    "interlacing_check",
    "eigenvector_identity_scan",
]

DEFAULT_GAP_TOL = 1e-6


class DecompositionError(RuntimeError):
    """SVD non-convergence, tagged with the trial that produced it."""

    def __init__(self, sample: MatrixSample, original: Exception):
        spec = sample.spec
        super().__init__(
            f"SVD failed for size={spec.size}, kind={spec.distribution.kind}, "
            f"seed={spec.master_seed}, trial={sample.trial_index}: {original}"
        )
        self.sample = sample


def _svd(sample: MatrixSample, matrix: np.ndarray, **kwargs):
    """np.linalg.svd of a matrix drawn from sample, failures tagged with its trial."""
    try:
        # matrix goes positionally: the benchmark's SVD tracer reads args[0]
        return np.linalg.svd(matrix, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(sample, exc) from exc


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvectors (columns) of X*X."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    @property
    def top(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class MinorBasis:
    """Left spectral data of the k-minor W_k (X with column k removed) from
    one full SVD, shared by every spectral point and identity at column k,
    interlacing included.

    eigenvalues holds the N-1 minor eigenvalues in LAPACK's descending order;
    weights and null_weight are |<v_b, w_k>|^2 over the complete left basis
    (range vectors in that order, then the null vector), w_k the removed scaled column.
    """

    k: int
    eigenvalues: np.ndarray
    column: np.ndarray
    weights: np.ndarray
    null_weight: float


def decompose(sample: MatrixSample) -> SpectralDecomposition:
    """Full decomposition of X*X via the SVD of X (eigenvalues ascending)."""
    _, sing, vh = _svd(sample, sample.entries)
    eigenvalues = (sing[::-1] ** 2).copy()
    eigenvectors = vh[::-1].conj().T.copy()
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def eigenvalues_only(sample: MatrixSample) -> np.ndarray:
    """Ascending eigenvalues of X*X without vectors (sigma-only SVD)."""
    sing = _svd(sample, sample.entries, compute_uv=False)
    return (sing[::-1] ** 2).copy()


def minor_basis(sample: MatrixSample, k: int) -> MinorBasis:
    """The k-minor's eigenvalues, removed column and the column's basis weights."""
    n = sample.size
    # np.delete would wrap a negative k around to a valid column
    if not 0 <= k < n:
        raise IndexError(f"column index {k} out of range for size {n}")
    u, sing, _ = _svd(sample, np.delete(sample.entries, k, axis=1), full_matrices=True)
    w = sample.entries[:, k].copy()
    return MinorBasis(
        k=k,
        eigenvalues=sing**2,
        column=w,
        weights=np.abs(u[:, : n - 1].conj().T @ w) ** 2,
        null_weight=abs(np.vdot(u[:, n - 1], w)) ** 2,
    )


def eigenvalue_count(eigenvalues: np.ndarray, window: Window):
    """Inclusive count of eigenvalues in [E, E+eta] along the last axis.

    A 1-D spectrum gives one count; a (trials, N) block gives one count per
    row.  No order is assumed.
    """
    return np.sum((eigenvalues >= window.energy) & (eigenvalues <= window.right), axis=-1)


def counting_bound(eigenvalues: np.ndarray, window: Window) -> float:
    """Deterministic cap 2 * eta * Im Tr (X*X - (E + i eta))^(-1) on the window count.

    On [E, E+eta] each Lorentzian weight eta^2/((s-E)^2 + eta^2) is >= 1/2,
    which is where the factor 2 comes from.
    """
    theta = complex(window.energy, window.eta)
    im_trace = math.fsum(((s - theta) ** -1).imag for s in eigenvalues)
    return 2.0 * window.eta * im_trace


def interlacing_check(decomposition: SpectralDecomposition, minor: MinorBasis) -> float:
    """Largest violation of s_a <= t_a <= s_(a+1) between X*X and its k-minor.

    Exact zero in exact arithmetic; anything above rounding noise indicates
    a broken decomposition.
    """
    s = decomposition.eigenvalues
    t = minor.eigenvalues[::-1]
    below = float(np.max(s[:-1] - t, initial=0.0))
    above = float(np.max(t - s[1:], initial=0.0))
    return max(below, above)


def eigenvector_identity_scan(
    minor: MinorBasis,
    decomposition: SpectralDecomposition,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> list[float]:
    """Identity residual of every eigenvector at the minor's removed column.

    |u_a(k)|^2 must equal 1/(1 + sum_b t_b |<v_b, w_k>|^2 / (s_a - t_b)^2)
    where t_b are the k-minor's eigenvalues and |<v_b, w_k>|^2 its weights.
    Entry a is the residual for eigenvalue index a, or inf when the
    full/minor gap falls below gap_tol * (1 + s_max): such a pair is
    uncovered and carries no accuracy claim.  An empty minor (N = 1) leaves
    the right side exactly 1.
    """
    d = decomposition
    # squared in Python (C pow), which rounds unlike numpy's array square
    lhs = [a**2 for a in np.abs(d.eigenvectors[minor.k, :]).tolist()]
    weights = minor.eigenvalues * minor.weights
    cutoff = gap_tol * (1.0 + d.top)
    # one (alpha, b) grid per column; each covered row keeps its own fsum
    gaps = d.eigenvalues[:, None] - minor.eigenvalues[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        # rows that divide by a zero gap are the uncovered ones, never summed
        terms = weights / gaps**2
    covered = (np.min(np.abs(gaps), axis=1, initial=math.inf) >= cutoff).tolist()
    return [
        abs(lhs[a] - 1.0 / (1.0 + math.fsum(terms[a].tolist()))) if covered[a] else math.inf
        for a in range(d.size)
    ]
