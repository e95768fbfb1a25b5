"""Monte Carlo probes of the two concentration inequalities the lab leans on:
quadratic-form (Hanson-Wright type) tails of the identity operator and
projection-mass lower tails.

Shapes and monotone trends are what gets verified; the inequalities' absolute
constants are left alone.  The probes return raw hit counts; the experiments
turn them into report rows with Wilson intervals.  Each probe serves its whole
grid from one sample set: hw's deltas share the row sums of |x_i|^2 - 1, and
projmass's m grid shares one nested frame per trial, read a prefix per m
(Haar: a Gaussian frame for the first m, the exact Dirichlet law past it).
"""

from __future__ import annotations

import math

import numpy as np

from .ensemble import draw_entries, stream

__all__ = [
    "wilson_interval",
    "hw_tail_curve",
    "projection_mass_probe",
]

_CHUNK = 2048
# Haar trials per stacked Cholesky solve.  The per-trial draws dominate, so
# the probe's time is flat from 8 to 4,000 per stack (size 64, m_1 = 4); 32
# keeps a frame of m_1 = size = 64 columns at 2 MB, where _CHUNK takes 134 MB.
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


def _chunks(trials: int, seed: int):
    """Yield (generator, rows) for blocks of _CHUNK trials; block i draws from
    its own stream, seeded derive_trial_seed(seed, i).  The generator is valid
    until the next block is taken."""
    for index, start in enumerate(range(0, trials, _CHUNK)):
        yield stream(seed, index), min(_CHUNK, trials - start)


def hw_tail_curve(
    size: int,
    kind: str,
    trials: int,
    deltas,
    seed: int,
) -> np.ndarray:
    """Hits of |sum_i (|x_i|^2 - 1)| >= delta over a delta grid, for x of
    length size with iid entries of the given kind.

    This is the centered quadratic form of the identity of that size.  The
    entries are unscaled (E|x|^2 = 1), so the centering term is exactly
    Tr A = size.  One sample set serves the whole grid, which makes the hits
    nonincreasing in delta by construction.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    deltas = np.asarray(deltas, dtype=float)
    # negated comparisons, so that nan fails them; inf can only come last
    if deltas.ndim != 1 or len(deltas) == 0 or not (
        0 <= deltas[0] and deltas[-1] < math.inf and np.all(np.diff(deltas) > 0)
    ):
        raise ValueError("deltas must be a nonempty, strictly increasing grid of finite reals >= 0")
    stats = np.concatenate([
        np.abs(np.sum(np.abs(draw_entries(rng, kind, (rows, size))) ** 2 - 1.0, axis=1))
        for rng, rows in _chunks(trials, seed)
    ])
    return np.array([int(np.sum(stats >= d)) for d in deltas])


def _coordinate_hits(m_grid, kind: str, trials: int, seed: int) -> np.ndarray:
    """Hits of the mass on the first m coordinate vectors, sum_{a<=m} |x_a|^2
    <= m/2, for every m of the grid.  Each block draws x's coordinates in grid
    steps from its stream, and the mass of m is the running sum up to m."""
    hits = np.zeros(len(m_grid), dtype=np.int64)
    for rng, rows in _chunks(trials, seed):
        mass = np.zeros(rows)
        for j, (lo, hi) in enumerate(zip((0, *m_grid), m_grid)):
            mass += np.sum(np.abs(draw_entries(rng, kind, (rows, hi - lo))) ** 2, axis=1)
            hits[j] += int(np.sum(mass <= hi / 2.0))
    return hits


def _haar_masses(m_grid, size: int, kind: str, trials: int, seed: int) -> np.ndarray:
    """|P_m x|^2 on the first m vectors of a nested Haar frame, per trial (rows)
    and m of the grid (columns).  Each trial's own stream draws x, a complex
    Gaussian G_1 of m_1 columns (real and imaginary parts in one call into a
    real block), then size - m_1 Exp(1) values e.  With G_1^H G_1 = L L^H and
    w = L^-1 G_1^H x, mass_1 = |w|^2, one stacked solve per chunk.  Given
    (x, G_1), the rest of a Haar flag is a Haar basis of span(G_1)'s
    complement, where a fixed vector's squared coordinates are Dirichlet(1,
    ..., 1) = e / sum(e); so later m have exactly an independent frame's law:
    mass_1 + (|x|^2 - mass_1) * cumsum(e)[m - m_1 - 1] / sum(e)."""
    grid = np.asarray(m_grid)
    masses = np.empty((trials, len(grid)))
    x = np.empty((_HAAR_CHUNK, size, 1), dtype=complex)
    parts = np.empty((_HAAR_CHUNK, 2, size, grid[0]))
    e = np.empty((_HAAR_CHUNK, size - grid[0]))
    for start in range(0, trials, _HAAR_CHUNK):
        take = min(_HAAR_CHUNK, trials - start)
        for i in range(take):
            rng = stream(seed, start + i)
            x[i, :, 0] = draw_entries(rng, kind, (size,))
            rng.standard_normal(out=parts[i])
            rng.standard_exponential(out=e[i])
        g = parts[:take, 0] + 1j * parts[:take, 1]
        gh = g.conj().transpose(0, 2, 1)
        w = np.linalg.solve(np.linalg.cholesky(gh @ g), gh @ x[:take])[..., 0]
        mass = np.sum(np.abs(w) ** 2, axis=1, keepdims=True)
        rest = np.sum(np.abs(x[:take]) ** 2, axis=1) - mass
        cumulative = np.cumsum(e[:take], axis=1)
        share = cumulative[:, grid[1:] - grid[0] - 1] / cumulative[:, -1:]
        masses[start:start + take] = np.hstack([mass, mass + rest * share])
    return masses


def projection_mass_probe(
    m_grid, size: int, kind: str, trials: int, seed: int
) -> tuple[np.ndarray, str]:
    """Hits of sum_{a<=m} |<x, v_a>|^2 <= m/2 for each m of the strictly
    increasing m_grid, where v_1..v_M (M the last m) is an orthonormal family
    independent of x, and the family used.

    The families are nested: each trial draws one x and the law of one
    M-frame, and every m reads its first m vectors, so the rows share their
    random numbers, and each row depends only on the grid up to its own m.

    complex-gaussian x is rotation invariant, so every such family sees the
    same law as the first m coordinate vectors, Gamma(m, 1); the probe takes
    that cheap family.  No other kind has that invariance (for rademacher-pair
    the coordinate mass is m surely), so the others redraw a Haar family
    each trial (`_haar_masses`).
    """
    grid = tuple(m_grid)
    if not (grid and 1 <= grid[0] and grid[-1] <= size and all(a < b for a, b in zip(grid, grid[1:]))):
        raise ValueError(
            f"m_grid must be a nonempty, strictly increasing grid in [1, {size}], got {m_grid}"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if kind == "complex-gaussian":
        return _coordinate_hits(grid, kind, trials, seed), "coordinate"
    return np.sum(_haar_masses(grid, size, kind, trials, seed) <= np.divide(grid, 2), axis=0), "haar"
