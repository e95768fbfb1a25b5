"""Spectral decompositions of X*X and the exact finite-N facts about them.

Two routes, chosen by the accuracy the caller needs:

- `decompose`, `eigenvalues_only` and `minor_basis` take the SVD of X itself
  (or of its column-minors) and square it, so the hard-edge values (of order
  1/N^2) keep full relative precision.  The identity suite, interlacing and
  everything read at the hard edge use them.
- `gram_decompose` runs a Hermitian eigensolve of the formed Gram matrix
  X*X.  Its eigenvalues carry an absolute error of order machine epsilon
  times ||X*X|| (about 1e-15), so it serves only statistics whose eigenvalues
  lie far above that, such as delocalization's window [2(scale_min/(kappa
  N))^2, 4 - kappa].  It skips the left singular vectors and costs less.

`minor_basis` stacks all N column-minors of X into one (N, N, N-1) array
and runs one full SVD over it; LAPACK takes the stack a minor at a time, so
every minor gets the bits of its own SVD.  `interlacing_check` and
`eigenvector_identity_scan` read that MinorBasis and evaluate every removed
column in one call, row k for column k.

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
    "gram_decompose",
    "eigenvalues_only",
    "minor_basis",
    "eigenvalue_count",
    "counting_bound",
    "interlacing_check",
    "eigenvector_identity_scan",
]

DEFAULT_GAP_TOL = 1e-6


class DecompositionError(RuntimeError):
    """SVD or eigensolver non-convergence, tagged with the trial that produced it."""

    def __init__(self, sample: MatrixSample, original: Exception):
        spec = sample.spec
        super().__init__(
            f"decomposition failed for size={spec.size}, kind={spec.distribution.kind}, "
            f"seed={spec.master_seed}, trial={sample.trial_index}: {original}"
        )
        self.sample = sample


def _lapack(sample: MatrixSample, routine, matrix: np.ndarray, **kwargs):
    """routine(matrix) (np.linalg.svd or eigh) for a matrix drawn from sample,
    failures tagged with its trial."""
    try:
        # matrix goes positionally: the benchmark's SVD tracer reads args[0]
        return routine(matrix, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(sample, exc) from exc


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvectors (columns) of X*X."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def top(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class MinorBasis:
    """Left spectral data of every column-minor W_k (X with column k removed),
    from one stacked full SVD, shared by every spectral point and identity,
    interlacing included.  Row k of each array belongs to column k.

    eigenvalues holds each minor's N-1 eigenvalues in LAPACK's descending
    order; weights and null_weights are |<v_b, w_k>|^2 over the minor's
    complete left basis (range vectors in that order, then the null vector),
    w_k = columns[k] the removed scaled column.
    """

    eigenvalues: np.ndarray
    columns: np.ndarray
    weights: np.ndarray
    null_weights: np.ndarray


def decompose(sample: MatrixSample) -> SpectralDecomposition:
    """Full decomposition of X*X via the SVD of X (eigenvalues ascending)."""
    _, sing, vh = _lapack(sample, np.linalg.svd, sample.entries)
    eigenvalues = (sing[::-1] ** 2).copy()
    eigenvectors = vh[::-1].conj().T.copy()
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def gram_decompose(sample: MatrixSample) -> SpectralDecomposition:
    """Full decomposition of X*X by a Hermitian eigensolve of the formed Gram
    matrix (eigenvalues ascending, absolute accuracy only; see the module
    docstring)."""
    x = sample.entries
    eigenvalues, eigenvectors = _lapack(sample, np.linalg.eigh, x.conj().T @ x)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def eigenvalues_only(sample: MatrixSample) -> np.ndarray:
    """Ascending eigenvalues of X*X without vectors (sigma-only SVD)."""
    sing = _lapack(sample, np.linalg.svd, sample.entries, compute_uv=False)
    return (sing[::-1] ** 2).copy()


def minor_basis(sample: MatrixSample) -> MinorBasis:
    """Every column-minor's eigenvalues, removed column and the column's basis
    weights, from one full SVD of the (N, N, N-1) stack of minors."""
    n = sample.size
    x = sample.entries
    # row k of kept lists every column index but k, in order
    kept = np.broadcast_to(np.arange(n), (n, n))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    u, sing, _ = _lapack(sample, np.linalg.svd, x[:, kept].transpose(1, 0, 2), full_matrices=True)
    columns = x.T.copy()
    # row k makes the same BLAS product and strided dot as minor k decomposed
    # alone, so it keeps those bits; the null weight takes hypot's modulus,
    # the one the exact-identities reports are computed with
    range_proj = u[:, :, : n - 1].conj().transpose(0, 2, 1) @ columns[:, :, None]
    null_proj = np.vecdot(u[:, :, n - 1], columns)
    return MinorBasis(
        eigenvalues=sing**2,
        columns=columns,
        weights=np.abs(range_proj[:, :, 0]) ** 2,
        null_weights=np.hypot(null_proj.real, null_proj.imag) ** 2,
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
    return 2.0 * window.eta * float(np.sum((1.0 / (eigenvalues - theta)).imag))


def interlacing_check(decomposition: SpectralDecomposition, minors: MinorBasis) -> np.ndarray:
    """Largest violation of s_a <= t_a <= s_(a+1) between X*X and each
    column-minor, one value per removed column.

    Exact zero in exact arithmetic; anything above rounding noise indicates
    a broken decomposition.
    """
    s = decomposition.eigenvalues
    t = minors.eigenvalues[:, ::-1]
    below = np.max(s[:-1] - t, axis=-1, initial=0.0)
    above = np.max(t - s[1:], axis=-1, initial=0.0)
    return np.maximum(below, above)


def eigenvector_identity_scan(
    minors: MinorBasis,
    decomposition: SpectralDecomposition,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> np.ndarray:
    """Identity residual of every eigenvector at every removed column.

    |u_a(k)|^2 must equal 1/(1 + sum_b t_b |<v_b, w_k>|^2 / (s_a - t_b)^2)
    where t_b are the k-minor's eigenvalues and |<v_b, w_k>|^2 its weights.
    Entry (k, a) is the residual for column k and eigenvalue index a, or inf
    when the full/minor gap falls below gap_tol * (1 + s_max): such a pair is
    uncovered and carries no accuracy claim.  An empty minor (N = 1) leaves
    the right side exactly 1.
    """
    d = decomposition
    lhs = np.abs(d.eigenvectors) ** 2
    t = minors.eigenvalues[:, None, :]
    gaps = d.eigenvalues[None, :, None] - t
    covered = np.min(np.abs(gaps), axis=-1, initial=math.inf) >= gap_tol * (1.0 + d.top)
    with np.errstate(divide="ignore", invalid="ignore"):
        # rows that divide by a zero gap are the uncovered ones, masked below
        rhs = 1.0 / (1.0 + np.sum(t * minors.weights[:, None, :] / gaps**2, axis=-1))
    return np.where(covered, np.abs(lhs - rhs), math.inf)
