"""Spectral decompositions of X*X and the exact finite-N facts about them.

Every decomposition is a Hermitian eigensolve of a formed Gram matrix:
`decompose` and `eigenvalues_only` solve X*X, and `minor_basis` solves the N
column-minor Grams W_k W_k* = X X* - w_k w_k* in one stacked call.  Their
eigenvalues carry an absolute error of order machine epsilon times ||X*X||
(about 1e-14), so a relative error of 1e-11 to 1e-9 at a typical
lambda_1 ~ 1/N^2 for N <= 1024 (more at a rare lambda_1 far below it).  That
is far below the sampling error (1e-2 and more) of the window counts, the
near-zero counts in [0, K/N^2] and the median of N^2 lambda_1, and far below
the 1e-8 and tighter tolerances of the exact identities.  The eigenvectors
hold to the SVD's down to the hard edge (squared entries within 4e-13 at
N <= 512), as delocalization's band [0, 4 - kappa] needs.
`eigenvalues_only` clips at 0, so a zero mode never drops out of a window
that starts at 0.

The eigensolves read only the lower triangle (UPLO='L'), so `decompose` and
`eigenvalues_only` form only that, in row blocks X[:, j0:j1]* X[:, :j1] that
start at multiples of 64, the last taking the remainder (at most 127
columns): no conjugate copy of all of X, half the multiplications.  Each
entry keeps its place modulo 64 in its GEMM's output, and OpenBLAS sums an
edge tile in another order, so for the complex X every kind draws the
triangle is bit for bit that of X*X (blocks of near-equal width are not).
Both let go of the sample once the Gram is formed, so a caller that hands
over its only reference frees X before the solve.

`interlacing_check` and `eigenvector_identity_scan` read a MinorBasis and
evaluate every removed column in one call, row k for column k.

Eigenvalues are in ascending order throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleSpec, MatrixSample
from .mp import Window

__all__ = [
    "DecompositionError",
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
    """Eigensolver non-convergence, tagged with the trial that produced it:
    the family's spec and the trial index, which redraw it with
    sample_matrix.  The sample itself is not kept, since decompose and
    eigenvalues_only let it go before their solve."""

    def __init__(self, spec: EnsembleSpec, trial_index: int, original: Exception):
        super().__init__(
            f"decomposition failed for size={spec.size}, kind={spec.distribution}, "
            f"seed={spec.master_seed}, trial={trial_index}: {original}"
        )
        self.spec = spec
        self.trial_index = trial_index


def _lapack(spec: EnsembleSpec, trial_index: int, routine, matrix: np.ndarray):
    """routine(matrix) (np.linalg.eigh or eigvalsh) for a matrix made from one
    trial's draw, failures tagged with that trial."""
    try:
        return routine(matrix)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(spec, trial_index, exc) from exc


def _gram_lower(x: np.ndarray) -> np.ndarray:
    """Lower triangle of X*X, strict upper triangle 0 (blocks: module docstring)."""
    n = x.shape[1]
    gram = np.zeros((n, n), dtype=x.dtype)
    starts = range(0, max(n // 64, 1) * 64, 64)
    for j0, j1 in zip(starts, [*starts[1:], n]):
        np.matmul(x[:, j0:j1].conj().T, x[:, :j1], out=gram[j0:j1, :j1])
        gram[j0:j1, j0:j1][np.triu_indices(j1 - j0, 1)] = 0
    return gram


@dataclass(frozen=True)
class MinorBasis:
    """Left spectral data of every column-minor W_k (X with column k removed),
    from one stacked eigensolve, shared by every spectral point and identity,
    interlacing included.  Row k of each array belongs to column k.

    eigenvalues holds each minor's N-1 range eigenvalues, ascending; weights
    and null_weights are |<v_b, w_k>|^2 over the complete eigenbasis of
    W_k W_k* (range vectors in that order, then the null vector, the
    eigenvector of its smallest eigenvalue), w_k = columns[k] the removed
    scaled column.
    """

    eigenvalues: np.ndarray
    columns: np.ndarray
    weights: np.ndarray
    null_weights: np.ndarray


def decompose(sample: MatrixSample):
    """Full decomposition of X*X by a Hermitian eigensolve of the formed Gram
    matrix: numpy's eigh result unchanged, eigenvalues ascending (absolute
    accuracy only; see the module docstring) and eigenvectors as columns."""
    spec, trial_index, gram = sample.spec, sample.trial_index, _gram_lower(sample.entries)
    del sample
    return _lapack(spec, trial_index, np.linalg.eigh, gram)


def eigenvalues_only(sample: MatrixSample) -> np.ndarray:
    """Ascending eigenvalues of X*X without vectors, by a Hermitian eigensolve
    of the formed Gram matrix (absolute accuracy only; see the module
    docstring), clipped at 0: X*X is positive semidefinite, and the solve
    returns a zero mode as a value of either sign near 1e-15."""
    spec, trial_index, gram = sample.spec, sample.trial_index, _gram_lower(sample.entries)
    del sample
    eigenvalues = _lapack(spec, trial_index, np.linalg.eigvalsh, gram)
    return np.maximum(eigenvalues, 0.0, out=eigenvalues)


def minor_basis(sample: MatrixSample) -> MinorBasis:
    """Every column-minor's eigenvalues, removed column and the column's basis
    weights, from one eigensolve of the (N, N, N) stack of minor Grams."""
    x = sample.entries
    columns = x.T.copy()
    grams = x @ x.conj().T - columns[:, :, None] * columns[:, None, :].conj()
    eigenvalues, vectors = _lapack(sample.spec, sample.trial_index, np.linalg.eigh, grams)
    # W_k W_k* has rank N-1: its smallest eigenpair is the null direction
    weights = np.abs(vectors.conj().transpose(0, 2, 1) @ columns[:, :, None])[:, :, 0] ** 2
    return MinorBasis(
        eigenvalues=eigenvalues[:, 1:],
        columns=columns,
        weights=weights[:, 1:],
        null_weights=weights[:, 0],
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


def interlacing_check(decomposition, minors: MinorBasis) -> np.ndarray:
    """Largest violation of s_a <= t_a <= s_(a+1) between X*X and each
    column-minor, one value per removed column.  decomposition is what
    decompose returns; only its eigenvalues are read.

    Exact zero in exact arithmetic; anything above rounding noise indicates
    a broken decomposition.
    """
    s = decomposition.eigenvalues
    t = minors.eigenvalues
    below = np.max(s[:-1] - t, axis=-1, initial=0.0)
    above = np.max(t - s[1:], axis=-1, initial=0.0)
    return np.maximum(below, above)


def eigenvector_identity_scan(minors: MinorBasis, decomposition) -> np.ndarray:
    """Identity residual of every eigenvector at every removed column, with
    decomposition what decompose returns (numpy's eigh result).

    |u_a(k)|^2 must equal 1/(1 + sum_b t_b |<v_b, w_k>|^2 / (s_a - t_b)^2)
    where t_b are the k-minor's eigenvalues and |<v_b, w_k>|^2 its weights.
    Entry (k, a) is the residual for column k and eigenvalue index a, or inf
    when the full/minor gap falls below DEFAULT_GAP_TOL * (1 + s_max): such a
    pair is uncovered and carries no accuracy claim.  An empty minor (N = 1)
    leaves the right side exactly 1.
    """
    d = decomposition
    lhs = np.abs(d.eigenvectors) ** 2
    t = minors.eigenvalues[:, None, :]
    gaps = d.eigenvalues[None, :, None] - t
    covered = np.min(np.abs(gaps), axis=-1, initial=math.inf) >= DEFAULT_GAP_TOL * (1.0 + d.eigenvalues[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        # rows that divide by a zero gap are the uncovered ones, masked below
        rhs = 1.0 / (1.0 + np.sum(t * minors.weights[:, None, :] / gaps**2, axis=-1))
    return np.where(covered, np.abs(lhs - rhs), math.inf)
