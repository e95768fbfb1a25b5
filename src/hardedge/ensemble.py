"""Seeded sampling of square random matrices with iid complex entries.

Entry normalisation: each of the three distribution kinds draws real and
imaginary parts independently with mean 0 and variance 1/2, so E|x|^2 = 1 per
unscaled entry; the stored matrix is X/sqrt(N) and (1/N) Tr of its Gram
matrix concentrates at 1.  A kind is a plain string, one of KINDS:
EnsembleSpec checks it, so every matrix draw meets that check, and
draw_entries checks the kind it is handed.  BOUNDED_DENSITY_KINDS lists the
kinds whose part density is bounded; rademacher-pair (|x| = 1 exactly) is
the one that is not.

Seed derivation is counter-based so trials can run in any order, on any
number of workers, and still reproduce bit for bit:

    derive_trial_seed(master, index) = mix64((master + (index + 1) * GOLDEN) mod 2^64)

with GOLDEN = 0x9E3779B97F4A7C15 and mix64 the SplitMix64 finaliser
(xor-shift 30, multiply 0xBF58476D1CE4E5B9, xor-shift 27, multiply
0x94D049BB133111EB, xor-shift 31).  The affine step is injective for a fixed
master (GOLDEN is odd) and mix64 is a bijection on 64-bit words, so distinct
indices never collide.  The derived word keys a Philox4x64-10 counter-based
bit generator; one call draws a real (2, N, N) block, row-major: the
real-part matrix first, then the imaginary-part matrix, which pins the byte
stream.
`stream` hands out these keyed streams: each thread keeps one Philox and
resets its whole state to the key, which draws the same bits as a freshly
built generator without seeding an unused SeedSequence from OS entropy.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KINDS",
    "EnsembleSpec",
    "MatrixSample",
    "derive_trial_seed",
    "stream",
    "draw_entries",
    "sample_matrix",
    "check_entry_statistics",
]

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

KINDS = ("complex-gaussian", "rademacher-pair", "uniform-symmetric")
# kinds with a bounded part density: the ones the hard-edge statements admit
BOUNDED_DENSITY_KINDS = ("complex-gaussian", "uniform-symmetric")

# half-width of the uniform part: variance a^2/3 = 1/2
_UNIFORM_HALF_WIDTH = math.sqrt(1.5)


@dataclass(frozen=True)
class EnsembleSpec:
    """Matrix size, entry kind (one of KINDS), and the 64-bit master seed of a
    trial family."""

    size: int
    distribution: str
    master_seed: int

    def __post_init__(self) -> None:
        if self.distribution not in KINDS:
            raise ValueError(f"unknown distribution kind {self.distribution!r}; choose from {KINDS}")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if not (0 <= self.master_seed <= _MASK64):
            raise ValueError(f"master_seed must be a u64, got {self.master_seed}")


@dataclass(frozen=True)
class MatrixSample:
    """One drawn matrix, entries already scaled by 1/sqrt(N)."""

    entries: np.ndarray
    spec: EnsembleSpec
    trial_index: int

    @property
    def size(self) -> int:
        return self.spec.size


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Collision-free 64-bit stream seed for one (master, index) pair."""
    if not (0 <= master_seed <= _MASK64):
        raise ValueError(f"master_seed must be a u64, got {master_seed}")
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    z = (master_seed + (index + 1) * _GOLDEN) & _MASK64
    return _mix64(z)


_STREAMS = threading.local()


def stream(master_seed: int, index: int) -> np.random.Generator:
    """Generator at the start of the Philox stream keyed derive_trial_seed(master_seed, index).

    The generator is this thread's one Philox, re-keyed in place, so it is
    valid only until the next call to stream on the same thread.
    """
    key = derive_trial_seed(master_seed, index)
    rng = getattr(_STREAMS, "rng", None)
    if rng is None:
        rng = _STREAMS.rng = np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([key, 0], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def draw_entries(
    rng: np.random.Generator, kind: str, shape: tuple[int, ...], scale: float = 1.0
) -> np.ndarray:
    """iid entries of the given kind times scale (E|x|^2 = scale^2).

    One RNG call fills a real (2, *shape) block, real parts first, then
    imaginary parts; the scaled block is copied into the .real and .imag
    views of the complex result, with no complex arithmetic.
    """
    size = (2, *shape)
    if kind == "complex-gaussian":
        parts = rng.standard_normal(size)
        parts *= math.sqrt(0.5)
    elif kind == "rademacher-pair":
        parts = 2.0 * rng.integers(0, 2, size=size) - 1.0
        parts *= math.sqrt(0.5)
    elif kind == "uniform-symmetric":
        parts = rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=size)
    else:
        raise ValueError(f"unknown distribution kind {kind!r}; choose from {KINDS}")
    parts *= scale
    entries = np.empty(shape, dtype=complex)
    entries.real, entries.imag = parts
    return entries


def sample_matrix(spec: EnsembleSpec, trial_index: int) -> MatrixSample:
    """Draw trial `trial_index` of the family: deterministic in (spec, index)."""
    n = spec.size
    rng = stream(spec.master_seed, trial_index)
    # scaling the real block is bit for bit a complex division by sqrt(N):
    # numpy divides a complex by a real as a multiply by its reciprocal
    entries = draw_entries(rng, spec.distribution, (n, n), 1.0 / math.sqrt(n))
    sample = MatrixSample(entries=entries, spec=spec, trial_index=trial_index)
    check_entry_statistics(sample)
    return sample


def check_entry_statistics(sample: MatrixSample) -> tuple[float, float]:
    """Soft sanity check on the unscaled entries.

    |mean| <= 5/sqrt(2 N^2) and |mean(|x|^2) - 1| <= 10/N hold with
    overwhelming probability; a violation logs a warning.  It raises only at
    N >= 64, and there only past the modulus band or past twice the mean band
    (10 sigma): honest draws cross the 5-sigma mean band with probability
    about exp(-12.5) ~ 4e-6 per matrix, which a long sweep does meet.
    Returns the two measured deviations.
    """
    n = sample.size
    # both deviations come from the stored X/sqrt(N): the mean scales by
    # sqrt(N), and mean(|x|^2) over N^2 unscaled entries is sum(|X|^2)/N
    parts = np.ravel(sample.entries).view(np.float64)
    mean_dev = float(abs(np.mean(sample.entries))) * math.sqrt(n)
    modsq_dev = abs(float(np.einsum("i,i->", parts, parts)) / n - 1.0)
    mean_band = 5.0 / math.sqrt(2.0 * n * n)
    modsq_band = 10.0 / n
    if mean_dev > mean_band or modsq_dev > modsq_band:
        msg = (
            f"entry statistics out of band for N={n}, kind={sample.spec.distribution}, "
            f"seed={sample.spec.master_seed}, trial={sample.trial_index}: "
            f"|mean|={mean_dev:.3e} (band {mean_band:.3e}), "
            f"|mean|x|^2 - 1|={modsq_dev:.3e} (band {modsq_band:.3e})"
        )
        if n >= 64 and (mean_dev > 2.0 * mean_band or modsq_dev > modsq_band):
            raise ValueError(msg)
        logger.warning(msg)
    return mean_dev, modsq_dev
