"""Monte Carlo probes of the two concentration inequalities the lab leans on:
quadratic-form (Hanson-Wright type) tails and projection-mass lower tails.

Shapes and monotone trends are what gets verified; the inequalities' absolute
constants are left alone.  All probabilities carry Wilson intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EntryDistribution, derive_trial_seed, draw_entries

__all__ = [
    "TailCurve",
    "MassProbe",
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


@dataclass(frozen=True)
class TailCurve:
    """Empirical exceedance of the centered quadratic form along a delta grid.

    slope is the least-squares decay rate of -log(exceedance) against
    min(delta/sqrt(T), delta^2/T) with T = Tr A*A, fitted on the grid points
    whose exceedance lies strictly inside (0, 1); nan when fewer than two
    such points exist.
    """

    deltas: np.ndarray
    exceedance: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    trials: int
    normalizer: float
    slope: float
    kind: str


@dataclass(frozen=True)
class MassProbe:
    """Empirical lower-tail probability P(sum of first m projections <= m/2)."""

    m: int
    size: int
    probability: float
    ci_lo: float
    ci_hi: float
    trials: int
    family: str
    kind: str


def _as_operator(a) -> tuple[np.ndarray | None, np.ndarray | None, float, complex, int]:
    """Normalise the matrix argument: dense 2-d, or 1-d spectral descriptor."""
    arr = np.asarray(a)
    if arr.ndim == 1:
        lam = arr.astype(complex)
        norm = float(np.sum(np.abs(lam) ** 2))
        return None, lam, norm, complex(np.sum(lam)), len(lam)
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        if arr.shape[0] > 128:
            raise ValueError(
                f"dense matrices limited to N <= 128 (got {arr.shape[0]}); "
                "pass a spectral descriptor instead"
            )
        dense = arr.astype(complex)
        norm = float(np.sum(np.abs(dense) ** 2))
        return dense, None, norm, complex(np.trace(dense)), arr.shape[0]
    raise ValueError(f"matrix descriptor must be square 2-d or 1-d, got shape {arr.shape}")


def _chunked_draws(kind: str, trials: int, width: int, seed: int):
    """Yield trials x width entry draws in blocks of _CHUNK rows; block i has
    its own stream, seeded derive_trial_seed(seed, i)."""
    for index, start in enumerate(range(0, trials, _CHUNK)):
        rng = np.random.Generator(np.random.Philox(key=derive_trial_seed(seed, index)))
        yield draw_entries(rng, kind, (min(_CHUNK, trials - start), width))


def hw_tail_curve(
    a,
    dist: EntryDistribution,
    trials: int,
    deltas,
    seed: int,
) -> TailCurve:
    """Exceedance of |sum_ij a_ij (x_i conj(x_j) - delta_ij)| over a delta grid.

    The entries are unscaled (E|x|^2 = 1), so the centering term is exactly
    Tr A.  One sample set serves the whole grid, which makes the curve
    nonincreasing by construction.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    dense, lam, norm, trace_a, n = _as_operator(a)
    if norm == 0.0:
        raise ValueError("degenerate matrix: Tr A*A = 0")
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or len(deltas) == 0 or np.any(deltas < 0):
        raise ValueError("deltas must be a nonempty grid of nonnegative reals")

    def centered(x: np.ndarray) -> np.ndarray:
        if lam is not None:
            return (np.abs(x) ** 2 - 1.0) @ lam
        return np.sum((x @ dense) * x.conj(), axis=1) - trace_a

    stats = np.concatenate([np.abs(centered(x)) for x in _chunked_draws(dist.kind, trials, n, seed)])

    hits = np.array([int(np.sum(stats >= d)) for d in deltas])
    exceedance = hits / trials
    bounds = [wilson_interval(int(h), trials) for h in hits]
    ci_lo = np.array([b[0] for b in bounds])
    ci_hi = np.array([b[1] for b in bounds])

    shape = np.minimum(deltas / math.sqrt(norm), deltas**2 / norm)
    inside = (exceedance > 0.0) & (exceedance < 1.0)
    if int(np.sum(inside)) >= 2:
        slope = float(np.polyfit(shape[inside], -np.log(exceedance[inside]), 1)[0])
    else:
        slope = math.nan
    return TailCurve(
        deltas=deltas,
        exceedance=exceedance,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        trials=trials,
        normalizer=norm,
        slope=slope,
        kind=dist.kind,
    )


def projection_mass_probe(
    m: int,
    size: int,
    dist: EntryDistribution,
    trials: int,
    seed: int,
    family: str = "auto",
) -> MassProbe:
    """P(sum_{a<=m} |<x, v_a>|^2 <= m/2) for an orthonormal family of size m.

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
                rng = np.random.Generator(
                    np.random.Philox(key=derive_trial_seed(seed, start + i))
                )
                x[i, :, 0] = draw_entries(rng, dist.kind, (size,))
                g[i] = rng.standard_normal((size, m)) + 1j * rng.standard_normal((size, m))
            gh = g[:take].conj().transpose(0, 2, 1)
            b = gh @ x[:take]
            mass = np.real(b.conj().transpose(0, 2, 1) @ np.linalg.solve(gh @ g[:take], b))
            hits += int(np.sum(mass <= threshold))

    lo, hi = wilson_interval(hits, trials)
    return MassProbe(
        m=m,
        size=size,
        probability=hits / trials,
        ci_lo=lo,
        ci_hi=hi,
        trials=trials,
        family=family,
        kind=dist.kind,
    )
