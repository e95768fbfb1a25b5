"""Resolvent identities against dense-inversion oracles.

Everything here is exact linear algebra, so tolerances are rounding-level.
"""

import math

import numpy as np
import pytest

from hardedge import (
    EnsembleSpec,
    EntryDistribution,
    SpectralPoint,
    decompose,
    empirical_stieltjes,
    minor_basis,
    resolvent_diag_leave_one_out,
    resolvent_diag_schur,
    sample_matrix,
)

GAUSS = EntryDistribution("complex-gaussian")

THETA_GRID = [
    SpectralPoint(0.04, 0.02),
    SpectralPoint(0.5, 0.05),
    SpectralPoint(1.0, 0.2),
    SpectralPoint(2.0, 0.1),
    SpectralPoint(3.9, 0.1),
    SpectralPoint(5.0, 0.7),
]


def make_sample(n, seed=1, trial=0):
    return sample_matrix(EnsembleSpec(size=n, distribution=GAUSS, master_seed=seed), trial)


def dense_resolvent(sample, point):
    n = sample.size
    gram = sample.entries.conj().T @ sample.entries
    return np.linalg.inv(gram - point.theta * np.eye(n))


def test_empirical_stieltjes_is_normalized_trace():
    s = make_sample(18)
    d = decompose(s)
    for p in THETA_GRID:
        dense = dense_resolvent(s, p)
        assert abs(empirical_stieltjes(d.eigenvalues, p) - np.trace(dense) / 18) < 1e-12


def test_empirical_stieltjes_far_field():
    s = make_sample(30, seed=2)
    d = decompose(s)
    p = SpectralPoint(0.0, 1e6)
    # |Delta_N + 1/theta| <= max(s)/|theta|^2
    assert abs(empirical_stieltjes(d.eigenvalues, p) + 1.0 / p.theta) <= d.top / 1e12


def test_leave_one_out_diagonal_matches_dense():
    for n, seed in ((12, 4), (16, 5)):
        s = make_sample(n, seed=seed)
        dense_diags = [np.diag(dense_resolvent(s, p)) for p in THETA_GRID]
        for k in range(n):
            minor = minor_basis(s, k)
            loo = resolvent_diag_leave_one_out(minor, THETA_GRID)
            schur = resolvent_diag_schur(minor, THETA_GRID)
            for i, p in enumerate(THETA_GRID):
                assert abs(loo[i] - dense_diags[i][k]) < 1e-9, (n, k, p)
                assert abs(schur[i] - dense_diags[i][k]) < 1e-9, (n, k, p)


def test_leave_one_out_size_one():
    s = make_sample(1, seed=9)
    p = SpectralPoint(1.0, 0.5)
    expected = 1.0 / (abs(s.entries[0, 0]) ** 2 - p.theta)
    minor = minor_basis(s, 0)
    (loo,) = resolvent_diag_leave_one_out(minor, [p])
    (schur,) = resolvent_diag_schur(minor, [p])
    assert abs(loo - expected) < 1e-14
    assert abs(schur - expected) < 1e-14


def _scalar_leave_one_out(minor, point):
    theta = point.theta
    quad = _fsum_complex(minor.weights / (minor.eigenvalues - theta))
    quad += minor.null_weight / (0.0 - theta)
    return -1.0 / (theta * (1.0 + quad))


def _scalar_schur(minor, point):
    theta = point.theta
    t = minor.eigenvalues
    norm_sq = float(np.sum(np.abs(minor.column) ** 2))
    return 1.0 / (norm_sq - theta - _fsum_complex(minor.weights * t / (t - theta)))


def _fsum_complex(values):
    return complex(math.fsum(values.real), math.fsum(values.imag))


def _relative_error(values, reference):
    reference = np.asarray(reference)
    return float(np.max(np.abs(values - reference) / np.abs(reference)))


@pytest.mark.parametrize("n", [1, 2, 8])
def test_batched_points_equal_scalar_reference(n):
    # one pass over the theta grid repeats the exactly-rounded per-point
    # values up to the rounding of numpy's pairwise sums
    for seed in range(3):
        s = make_sample(n, seed=seed)
        for k in range(n):
            minor = minor_basis(s, k)
            loo = resolvent_diag_leave_one_out(minor, THETA_GRID)
            schur = resolvent_diag_schur(minor, THETA_GRID)
            reference_loo = [_scalar_leave_one_out(minor, p) for p in THETA_GRID]
            reference_schur = [_scalar_schur(minor, p) for p in THETA_GRID]
            assert _relative_error(loo, reference_loo) <= 1e-13
            assert _relative_error(schur, reference_schur) <= 1e-13
