"""Spectral decompositions of X*X and the exact finite-N facts about them.

Eigenvalues are always obtained through the SVD of X itself and squared, so
the hard-edge values (of order 1/N^2) keep full relative precision; an
eigensolver applied to the Gram matrix would see them through an absolute
error of order machine epsilon times ||X*X||.

Ascending order everywhere.  Eigenvectors of X*X are the right singular
vectors of X.
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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvectors (columns) of X*X."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: MatrixSample

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
    vectors is the complete N x N left basis, whose first N-1 columns match
    them and whose last column spans the null direction.  weights and
    null_weight are |<v_b, w_k>|^2 for the range and null vectors, w_k being
    the removed scaled column.
    """

    k: int
    eigenvalues: np.ndarray
    vectors: np.ndarray
    column: np.ndarray
    weights: np.ndarray
    null_weight: float


def decompose(sample: MatrixSample) -> SpectralDecomposition:
    """Full decomposition of X*X via the SVD of X (eigenvalues ascending)."""
    try:
        _, sing, vh = np.linalg.svd(sample.entries)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(sample, exc) from exc
    eigenvalues = (sing[::-1] ** 2).copy()
    eigenvectors = vh[::-1].conj().T.copy()
    return SpectralDecomposition(
        eigenvalues=eigenvalues, eigenvectors=eigenvectors, source=sample
    )


def eigenvalues_only(sample: MatrixSample) -> np.ndarray:
    """Ascending eigenvalues of X*X without vectors (sigma-only SVD)."""
    try:
        sing = np.linalg.svd(sample.entries, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(sample, exc) from exc
    return (sing[::-1] ** 2).copy()


def minor_basis(sample: MatrixSample, k: int) -> MinorBasis:
    """The k-minor's eigenvalues, complete left basis and removed column."""
    n = sample.size
    # np.delete would wrap a negative k around to a valid column
    if not 0 <= k < n:
        raise IndexError(f"column index {k} out of range for size {n}")
    try:
        u, sing, _ = np.linalg.svd(np.delete(sample.entries, k, axis=1), full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(sample, exc) from exc
    w = sample.entries[:, k].copy()
    return MinorBasis(
        k=k,
        eigenvalues=sing**2,
        vectors=u,
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
    below = float(np.max(s[:-1] - t)) if len(t) else 0.0
    above = float(np.max(t - s[1:])) if len(t) else 0.0
    return max(below, above, 0.0)


def eigenvector_identity_scan(
    minor: MinorBasis,
    decomposition: SpectralDecomposition,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> list[float]:
    """Identity residual of every eigenvector at the minor's removed column.

    |u_a(k)|^2 must equal 1/(1 + (1/N) sum_b t_b |<v_b, x_k>|^2 / (s_a - t_b)^2)
    where (t_b, v_b) is the left spectral data of the k-minor and x_k the
    unscaled removed column.  Entry a is the residual for eigenvalue index a,
    or inf when the full/minor gap falls below gap_tol * (1 + s_max): such a
    pair is uncovered and carries no accuracy claim.
    """
    d, k = decomposition, minor.k
    n = d.size
    # squared in Python (C pow), which rounds unlike numpy's array square
    lhs = [a**2 for a in np.abs(d.eigenvectors[k, :]).tolist()]
    if n == 1:
        # empty minor: the right side is exactly 1
        return [abs(lhs[0] - 1.0)]
    # ascending order kept on purpose: BLAS rounds each entry of basis^H x
    # differently by column position, and the reports pin these bits
    order = np.argsort(minor.eigenvalues, kind="stable")
    t = minor.eigenvalues[order]
    weights = t * np.abs(minor.vectors[:, order].conj().T @ (minor.column * math.sqrt(n))) ** 2
    cutoff = gap_tol * (1.0 + d.top)
    # one (alpha, b) grid per column; each covered row keeps its own fsum
    gaps = d.eigenvalues[:, None] - t[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        # rows that divide by a zero gap are the uncovered ones, never summed
        terms = weights / gaps**2
    covered = (np.min(np.abs(gaps), axis=1) >= cutoff).tolist()
    return [
        abs(lhs[a] - 1.0 / (1.0 + math.fsum(terms[a].tolist()) / n)) if covered[a] else math.inf
        for a in range(n)
    ]
