"""Monte Carlo probes of the two concentration inequalities the lab leans on:
quadratic-form (Hanson-Wright type) tails and projection-mass lower tails.

Shapes and monotone trends are what gets verified; the inequalities' absolute
constants are left alone.  The probes return raw hit counts; the experiments
turn them into report rows with Wilson intervals.
"""

from __future__ import annotations

import math

import numpy as np

from .ensemble import EntryDistribution, draw_entries, stream

__all__ = [
    "wilson_interval",
    "hw_tail_curve",
    "projection_mass_probe",
]

_CHUNK = 2048
# Haar trials per stacked Gram solve.  Kept small on purpose: each trial
# holds a size x m family, so _CHUNK trials would draw 52 MB at m=25, while
# 32 keeps the transient near 2 MB and is no slower than larger stacks.
_HAAR_CHUNK = 32
_Z95 = 1.959963984540054


def wilson_interval(hits: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # at p = 0 (resp. 1) the lower (upper) endpoint is exactly 0 (1);
    # the arithmetic above only gets there to rounding error
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


def _chunked_draws(kind: str, trials: int, width: int, seed: int):
    """Yield trials x width entry draws in blocks of _CHUNK rows; block i has
    its own stream, seeded derive_trial_seed(seed, i)."""
    for index, start in enumerate(range(0, trials, _CHUNK)):
        yield draw_entries(stream(seed, index), kind, (min(_CHUNK, trials - start), width))


def hw_tail_curve(
    spectrum,
    dist: EntryDistribution,
    trials: int,
    deltas,
    seed: int,
) -> tuple[np.ndarray, float]:
    """Hits of |sum_i lambda_i (|x_i|^2 - 1)| >= delta over a delta grid, and
    the normalizer T = sum_i |lambda_i|^2 = Tr A*A.

    This is the centered quadratic form of the diagonal A = diag(spectrum).
    The entries are unscaled (E|x|^2 = 1), so the centering term is exactly
    Tr A.  One sample set serves the whole grid, which makes the hits
    nonincreasing in delta by construction.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    lam = np.asarray(spectrum).astype(complex)
    if lam.ndim != 1 or not np.all(np.isfinite(lam)):
        raise ValueError(f"spectrum must be a 1-d array of finite values, got shape {lam.shape}")
    norm = float(np.sum(np.abs(lam) ** 2))
    if norm == 0.0:
        raise ValueError("degenerate matrix: Tr A*A = 0")
    deltas = np.asarray(deltas, dtype=float)
    # negated comparisons, so that nan fails them; inf can only come last
    if deltas.ndim != 1 or len(deltas) == 0 or not (
        0 <= deltas[0] and deltas[-1] < math.inf and np.all(np.diff(deltas) > 0)
    ):
        raise ValueError("deltas must be a nonempty, strictly increasing grid of finite reals >= 0")
    draws = _chunked_draws(dist.kind, trials, len(lam), seed)
    stats = np.concatenate([np.abs((np.abs(x) ** 2 - 1.0) @ lam) for x in draws])
    return np.array([int(np.sum(stats >= d)) for d in deltas]), norm


def projection_mass_probe(
    m: int,
    size: int,
    dist: EntryDistribution,
    trials: int,
    seed: int,
    family: str = "auto",
) -> tuple[int, str]:
    """Hits of sum_{a<=m} |<x, v_a>|^2 <= m/2 for an orthonormal family of
    size m, and the family used.

    family="coordinate" uses the first m coordinate vectors (statistic
    distribution is family-independent only for the gaussian kind);
    family="haar" redraws a Haar-distributed subspace each trial, the span of
    an m-column complex Gaussian matrix (trials run in stacked chunks, each
    with its own seed).  "auto" selects coordinate for complex-gaussian and
    haar otherwise.
    """
    if not 1 <= m <= size:
        raise ValueError(f"m must lie in [1, {size}], got {m}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if family == "auto":
        family = "coordinate" if dist.kind == "complex-gaussian" else "haar"
    if family not in ("coordinate", "haar"):
        raise ValueError(f"family must be auto|coordinate|haar, got {family!r}")

    threshold = m / 2.0
    hits = 0
    if family == "coordinate":
        for x in _chunked_draws(dist.kind, trials, m, seed):
            hits += int(np.sum(np.sum(np.abs(x) ** 2, axis=1) <= threshold))
    else:
        # each trial keeps its own stream: x first, then the family's draws;
        # the mass is the projection of x onto span(G), |P x|^2 = b^H (G^H G)^-1 b
        # with b = G^H x, one stacked solve per chunk
        x = np.empty((_HAAR_CHUNK, size, 1), dtype=complex)
        g = np.empty((_HAAR_CHUNK, size, m), dtype=complex)
        for start in range(0, trials, _HAAR_CHUNK):
            take = min(_HAAR_CHUNK, trials - start)
            for i in range(take):
                rng = stream(seed, start + i)
                x[i, :, 0] = draw_entries(rng, dist.kind, (size,))
                g[i] = rng.standard_normal((size, m)) + 1j * rng.standard_normal((size, m))
            gh = g[:take].conj().transpose(0, 2, 1)
            b = gh @ x[:take]
            mass = np.real(b.conj().transpose(0, 2, 1) @ np.linalg.solve(gh @ g[:take], b))
            hits += int(np.sum(mass <= threshold))
    return hits, family
