"""Decomposition accuracy, counting, interlacing, eigenvector identity.

The dense Hermitian eigensolver (numpy.linalg.eigh on the explicitly formed
gram matrix) serves as the independent oracle for the SVD route; the Gram
route (gram_decompose, eigenvalues_only) is held to the SVD route where deloc
and the spectra pass read it.
"""

import math
import warnings

import numpy as np
import pytest

from hardedge import (
    KINDS,
    EnsembleSpec,
    EntryDistribution,
    Window,
    counting_bound,
    decompose,
    eigenvalue_count,
    eigenvalues_only,
    eigenvector_identity_scan,
    gram_decompose,
    interlacing_check,
    minor_basis,
    sample_matrix,
)
from hardedge.ensemble import MatrixSample
from hardedge.spectral import DecompositionError

GAUSS = EntryDistribution("complex-gaussian")


def make_sample(n, seed=1, trial=0, dist=GAUSS):
    return sample_matrix(EnsembleSpec(size=n, distribution=dist, master_seed=seed), trial)


@pytest.mark.parametrize("n", [16, 64])
def test_decompose_matches_dense_eigensolver(n):
    s = make_sample(n)
    d = decompose(s)
    gram = s.entries.conj().T @ s.entries
    reference = np.linalg.eigvalsh(gram)
    assert np.max(np.abs(d.eigenvalues - reference)) < 1e-9


def test_decompose_invariants():
    s = make_sample(32)
    d = decompose(s)
    assert np.all(np.diff(d.eigenvalues) >= 0.0)
    assert np.all(d.eigenvalues >= 0.0)
    assert d.eigenvalues.shape == (32,)
    assert d.top == d.eigenvalues[-1]
    v, x = d.eigenvectors, s.entries
    assert np.max(np.abs(v.conj().T @ v - np.eye(32))) <= 1e-10
    residual = x.conj().T @ (x @ v) - v * d.eigenvalues[None, :]
    assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-9 * (1 + d.top)
    assert abs(math.fsum(d.eigenvalues) - float(np.sum(np.abs(x) ** 2))) <= 1e-10 * 32


def test_eigenvectors_diagonalize_gram():
    s = make_sample(20, seed=3)
    d = decompose(s)
    gram = s.entries.conj().T @ s.entries
    for alpha in (0, 7, 19):
        v = d.eigenvectors[:, alpha]
        assert np.linalg.norm(gram @ v - d.eigenvalues[alpha] * v) < 1e-12 * (1 + d.top)


def test_eigenvalues_only_agrees_with_decompose():
    s = make_sample(24, seed=5)
    assert np.max(np.abs(eigenvalues_only(s) - decompose(s).eigenvalues)) < 1e-11


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [16, 128])
def test_gram_decompose_agrees_with_decompose(kind, n):
    s = make_sample(n, seed=11, dist=EntryDistribution(kind))
    svd, gram = decompose(s), gram_decompose(s)
    assert np.max(np.abs(gram.eigenvalues - svd.eigenvalues)) <= 1e-12 * (1.0 + svd.top)
    # deloc's statistic over its band [0, 3.5], which reaches the hard edge
    hi = [np.searchsorted(d.eigenvalues, 3.5, side="right") for d in (svd, gram)]
    assert hi[0] == hi[1] > 0
    stats = [n * np.max(np.abs(d.eigenvectors[:, : hi[0]]) ** 2) for d in (svd, gram)]
    assert stats[1] == pytest.approx(stats[0], rel=1e-10)
    # the lowest vectors, where the eigenvalues carry only absolute accuracy
    lowest = [np.abs(d.eigenvectors[:, :5]) ** 2 for d in (svd, gram)]
    assert np.max(np.abs(lowest[1] - lowest[0])) <= 1e-11


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [128, 512])
def test_eigenvalues_only_holds_to_the_svd(kind, n):
    # the spectra pass reads eigenvalues_only; the SVD route is the reference
    s = make_sample(n, seed=13, dist=EntryDistribution(kind))
    gram, svd = eigenvalues_only(s), decompose(s).eigenvalues
    assert np.max(np.abs(gram - svd)) <= 1e-12 * (1.0 + svd[-1])
    # lambda_1 ~ 1/N^2 is what the hard-edge median reads
    assert abs(gram[0] - svd[0]) <= 1e-7 * svd[0]
    # a duplicated column makes X singular: a zero mode, clipped, never negative
    x = s.entries.copy()
    x[:, 1] = x[:, 0]
    singular = MatrixSample(entries=x, spec=s.spec, trial_index=s.trial_index)
    assert 0.0 <= eigenvalues_only(singular)[0] <= 1e-12


def test_eigenvalue_count_inclusive_endpoints():
    eigs = np.array([0.1, 0.2, 0.3, 0.30000000001, 1.5])
    assert eigenvalue_count(eigs, Window(0.1, 0.1)) == 2
    assert eigenvalue_count(eigs, Window(0.2, 0.1)) == 2
    assert eigenvalue_count(eigs, Window(0.05, 0.01)) == 0
    assert eigenvalue_count(eigs, Window(0.0, 2.0)) == 5
    # a (trials, N) block gives one count per row, both endpoints still
    # inclusive; rows need not be sorted
    block = np.array([eigs, [0.1, 0.1, 0.2, 0.9, 1.0], [3.0, 0.31, 2.0, 0.05, 0.4]])
    assert eigenvalue_count(block, Window(0.1, 0.1)).tolist() == [2, 3, 0]
    assert eigenvalue_count(block, Window(0.2, 0.1)).tolist() == [2, 1, 0]
    assert eigenvalue_count(block, Window(0.0, 2.0)).tolist() == [5, 5, 4]


def test_counting_bound_single_eigenvalue():
    # one eigenvalue at the window's left end: Lorentzian weight is exactly 1/2
    assert counting_bound(np.array([1.3]), Window(1.3, 0.05)) == pytest.approx(2.0)


def test_counting_bound_dominates_count():
    d = decompose(make_sample(40, seed=9))
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = Window(float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.005, 0.5)))
        assert eigenvalue_count(d.eigenvalues, w) <= counting_bound(d.eigenvalues, w) + 1e-12


def test_interlacing_all_columns():
    s = make_sample(24, seed=4)
    d = decompose(s)
    tol = 1e-10 * max(1.0, d.top)
    violations = interlacing_check(d, minor_basis(s))
    assert violations.shape == (24,)
    assert np.all(violations <= tol)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_minor_basis_reuses_thin_svd_bits(n):
    # the identity suite's report rows rely on the stacked full SVD repeating
    # each column's own thin SVD: eigenvalues and range weights bit for bit
    for trial in range(2):
        s = make_sample(n, seed=n, trial=trial)
        minors = minor_basis(s)
        assert minors.eigenvalues.shape == minors.weights.shape == (n, n - 1)
        for k in range(n):
            w = s.entries[:, k]
            u, sing, _ = np.linalg.svd(np.delete(s.entries, k, axis=1), full_matrices=False)
            assert np.array_equal(minors.eigenvalues[k], sing**2)
            assert np.array_equal(minors.weights[k], np.abs(u.conj().T @ w) ** 2)
            assert np.array_equal(minors.columns[k], w)
            # the range and null weights split the column's squared norm
            norm_sq = float(np.sum(np.abs(w) ** 2))
            assert abs(minors.null_weights[k] + math.fsum(minors.weights[k]) - norm_sq) < 1e-12


def test_eigenvector_identity_full_scan():
    s = make_sample(16, seed=6)
    d = decompose(s)
    scan = eigenvector_identity_scan(minor_basis(s), d)
    assert scan.shape == (16, 16)
    covered = np.isfinite(scan)
    assert np.all(np.isinf(scan[~covered]))
    assert np.all(scan[covered] < 1e-8)
    assert np.count_nonzero(covered) / scan.size >= 0.95


def test_eigenvector_identity_size_one():
    s = make_sample(1, seed=2)
    ((r,),) = eigenvector_identity_scan(minor_basis(s), decompose(s))
    # empty minor: |u(0)|^2 = 1 and the identity right side is 1
    assert r < 1e-15


def _per_alpha_scan(sample, k, gap_tol, d):
    """The identity scan one eigenvalue index at a time (inf for uncovered),
    from its own full SVD of the k-minor."""
    n = len(d.eigenvalues)
    u, sing, _ = np.linalg.svd(np.delete(sample.entries, k, axis=1), full_matrices=True)
    t = sing**2
    weights = t * np.abs(u[:, : n - 1].conj().T @ sample.entries[:, k]) ** 2
    cutoff = gap_tol * (1.0 + d.top)
    out = []
    for alpha in range(n):
        gaps = d.eigenvalues[alpha] - t
        min_gap = float(np.min(np.abs(gaps))) if len(t) else math.inf
        lhs = float(np.abs(d.eigenvectors[k, alpha]) ** 2)
        if len(t) == 0:
            out.append(abs(lhs - 1.0))
        elif min_gap >= cutoff:
            out.append(abs(lhs - 1.0 / (1.0 + math.fsum(weights / gaps**2))))
        else:
            out.append(math.inf)
    return out


def _assert_same_scan(scan, reference):
    # the same uncovered (inf) pairs; covered residuals agree with the
    # exactly-rounded reference up to the rounding of numpy's pairwise sums
    reference = np.asarray(reference)
    assert np.array_equal(np.isinf(scan), np.isinf(reference))
    finite = np.isfinite(reference)
    assert np.all(np.abs(scan[finite] - reference[finite]) <= 1e-15)


@pytest.mark.parametrize("n", [1, 2, 16])
def test_eigenvector_identity_scan_matches_per_alpha(n):
    for trial in range(3):
        s = make_sample(n, seed=n + 1, trial=trial)
        d = decompose(s)
        minors = minor_basis(s)
        for gap_tol in (1e-6, 0.05):
            scan = eigenvector_identity_scan(minors, d, gap_tol)
            for k in range(n):
                _assert_same_scan(scan[k], _per_alpha_scan(s, k, gap_tol, d))


def test_eigenvector_identity_scan_uncovered_pair():
    # a diagonal X shares every eigenvalue but one with its minor: those
    # pairs are uncovered (residual inf) and their zero gaps raise no warning
    spec = EnsembleSpec(size=4, distribution=GAUSS, master_seed=0)
    entries = np.diag([0.5, 0.9, 1.3, 1.7]).astype(complex)
    s = MatrixSample(entries=entries, spec=spec, trial_index=0)
    d = decompose(s)
    minors = minor_basis(s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = eigenvector_identity_scan(minors, d)[1]
    _assert_same_scan(scan, _per_alpha_scan(s, 1, 1e-6, d))
    assert sum(math.isinf(r) for r in scan) == 3
    (covered,) = [r for r in scan if math.isfinite(r)]
    assert covered < 1e-15


def test_decomposition_error_carries_trial_identity():
    s = make_sample(4, seed=77, trial=3)
    err = DecompositionError(s.spec, s.trial_index, RuntimeError("svd failed"))
    text = str(err)
    assert "77" in text and "3" in text


@pytest.mark.parametrize(
    "decomposer, routine",
    [
        (decompose, "svd"),
        (eigenvalues_only, "eigvalsh"),
        (minor_basis, "svd"),
        (gram_decompose, "eigh"),
    ],
    ids=["decompose", "eigenvalues_only", "minor_basis", "gram_decompose"],
)
def test_svd_failure_names_seed_and_trial(decomposer, routine, monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    s = make_sample(4, seed=77, trial=3)
    monkeypatch.setattr(np.linalg, routine, failing)
    with pytest.raises(DecompositionError, match="seed=77, trial=3") as err:
        decomposer(s)
    # the spec and trial index redraw the failed sample bit for bit
    assert err.value.spec is s.spec and err.value.trial_index == s.trial_index
    redrawn = sample_matrix(err.value.spec, err.value.trial_index)
    assert np.array_equal(redrawn.entries, s.entries)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
