"""Independent recomputation of report rows, straight from numpy.

The seed derivation and the entry draws are re-implemented here from the
documented scheme (SplitMix64 step keying a Philox4x64-10 stream, real parts
drawn before imaginary parts, entries scaled by 1/sqrt(N)); nothing is
imported from the program.  Each check recomputes the rows of one report at
the smallest size and returns a list of problems, empty when all agree.

Counts and exceedances are compared exactly, except that a value lying
within a relative 1e-9 of a window edge or threshold may fall either way:
the oracle sums in another order than the program does.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

_MASK64 = (1 << 64) - 1
_EDGE = 1e-9


def _trial_seed(master: int, index: int) -> int:
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _draw(rng, kind: str, shape) -> np.ndarray:
    if kind == "complex-gaussian":
        re = rng.standard_normal(shape) * math.sqrt(0.5)
        im = rng.standard_normal(shape) * math.sqrt(0.5)
    elif kind == "uniform-symmetric":
        a = math.sqrt(1.5)
        re = rng.uniform(-a, a, size=shape)
        im = rng.uniform(-a, a, size=shape)
    else:
        raise ValueError(f"oracle has no sampler for {kind!r}")
    return re + 1j * im


def _matrices(seed: int, size: int, trials: int, kind: str):
    master = _trial_seed(seed, size)
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=_trial_seed(master, t)))
        yield _draw(rng, kind, (size, size)) / math.sqrt(size)


def _rows(path: Path, **match) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [r for r in rows if all(float(r[k]) == v for k, v in match.items())]


def _count_range(eigs: np.ndarray, lo: float, hi: float) -> tuple[int, int]:
    """Fewest and most eigenvalues in [lo, hi] once edges are blurred by _EDGE."""
    tol = _EDGE * (1.0 + abs(hi))
    inner = int(np.searchsorted(eigs, hi - tol, "right") - np.searchsorted(eigs, lo + tol, "left"))
    outer = int(np.searchsorted(eigs, hi + tol, "right") - np.searchsorted(eigs, lo - tol, "left"))
    return max(inner, 0), outer


def _check_exceedance(label, row, ranges, threshold, problems) -> None:
    """ranges holds, per trial, the fewest and most counts the oracle allows."""
    trials = len(ranges)
    fewest = sum(1 for lo, _ in ranges if lo >= threshold)
    most = sum(1 for _, hi in ranges if hi >= threshold)
    hits = round(float(row["statistic"]) * trials)
    if not fewest <= hits <= most:
        problems.append(f"{label}: report has {hits}/{trials} hits, oracle {fewest}..{most}")


def check_eigen(reports: dict, seed: int, size: int, trials: int, kind: str) -> list[str]:
    """apriori, wegner and hard-edge rows at one size, from sigma-only SVDs."""
    eigs = [np.sort(np.linalg.svd(x, compute_uv=False) ** 2) for x in _matrices(seed, size, trials, kind)]
    problems = []
    if "apriori" in reports:
        rows = _rows(reports["apriori"], size=size)
        if not rows:
            problems.append(f"apriori: no rows at N={size}")
        for r in rows:
            e, eta = float(r["energy"]), float(r["eta"])
            ranges = [_count_range(v, e, e + eta) for v in eigs]
            _check_exceedance(f"apriori E={e:.6g} K={r['K']}", r, ranges, float(r["threshold"]), problems)
    if "wegner" in reports:
        rows = _rows(reports["wegner"], size=size)
        if not rows:
            problems.append(f"wegner: no rows at N={size}")
        for r in rows:
            ranges = [_count_range(v, 0.0, float(r["K"]) / size**2) for v in eigs]
            _check_exceedance(f"wegner K={r['K']} L={r['L']}", r, ranges, float(r["L"]), problems)
    if "hardedge" in reports:
        rows = _rows(reports["hardedge"], size=size)
        expected = float(np.median([v[0] * size**2 for v in eigs]))
        if len(rows) != 1 or not math.isclose(float(rows[0]["statistic"]), expected, rel_tol=1e-9):
            problems.append(f"hardedge: N^2*s_1 median at N={size} is not {expected!r}")
    return problems


def check_deloc(report: Path, seed: int, size: int, trials: int, kind: str) -> list[str]:
    """Median of N*max|u|^2 over eigenvectors inside the report's energy band."""
    rows = _rows(report, size=size)
    if len(rows) != 1:
        return [f"deloc: expected one row at N={size}, found {len(rows)}"]
    lower, upper = float(rows[0]["lower_edge"]), float(rows[0]["upper_edge"])
    stats = []
    for x in _matrices(seed, size, trials, kind):
        _, sing, vh = np.linalg.svd(x)
        mask = (sing**2 >= lower) & (sing**2 <= upper)
        stats.append(size * float(np.max(np.abs(vh[mask]) ** 2)))
    expected = float(np.median(stats))
    if not math.isclose(float(rows[0]["median_max_supsq"]), expected, rel_tol=1e-8):
        return [f"deloc: median N*max|u|^2 at N={size} is not {expected!r}"]
    return []


def check_hw(report: Path, seed: int, size: int, trials: int, kind: str) -> list[str]:
    """Exceedance of |sum_i (|x_i|^2 - 1)| on the identity operator, 2048-trial chunks."""
    stats = []
    for chunk, start in enumerate(range(0, trials, 2048)):
        rng = np.random.Generator(np.random.Philox(key=_trial_seed(seed, chunk)))
        x = _draw(rng, kind, (min(2048, trials - start), size))
        stats.append(np.abs(np.sum(np.abs(x) ** 2 - 1.0, axis=1)))
    stats = np.concatenate(stats)
    rows = _rows(report)
    problems = [] if rows else ["hw: no rows"]
    for r in rows:
        delta = float(r["delta"])
        ranges = [(int(s >= delta * (1 + _EDGE)), int(s >= delta * (1 - _EDGE))) for s in stats]
        _check_exceedance(f"hw delta={delta:g}", r, ranges, 1, problems)
    return problems


def check_projmass(report: Path, seed: int, size: int, trials: int, kind: str, m: int) -> list[str]:
    """P(mass of x on a Haar m-frame <= m/2) for one m, one QR per trial."""
    rows = _rows(report, m=m)
    if len(rows) != 1:
        return [f"projmass: expected one row at m={m}, found {len(rows)}"]
    master = _trial_seed(seed, m)
    ranges = []
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=_trial_seed(master, t)))
        x = _draw(rng, kind, (size,))
        q, _ = np.linalg.qr(rng.standard_normal((size, m)) + 1j * rng.standard_normal((size, m)))
        mass = float(np.sum(np.abs(q.conj().T @ x) ** 2))
        ranges.append((int(mass <= m / 2 * (1 - _EDGE)), int(mass <= m / 2 * (1 + _EDGE))))
    problems = []
    _check_exceedance(f"projmass m={m}", rows[0], ranges, 1, problems)
    return problems
