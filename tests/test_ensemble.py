"""Entry distributions, seed derivation, sampling determinism, binary dumps."""

import logging
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hardedge import (
    KINDS,
    EnsembleSpec,
    EntryDistribution,
    MatrixSample,
    check_entry_statistics,
    derive_trial_seed,
    read_sample,
    sample_matrix,
    write_sample,
)
from hardedge.ensemble import draw_entries, stream

GAUSS = EntryDistribution("complex-gaussian")
RAD = EntryDistribution("rademacher-pair")
UNIF = EntryDistribution("uniform-symmetric")


def spec_of(n, dist=GAUSS, seed=1):
    return EnsembleSpec(size=n, distribution=dist, master_seed=seed)


# the derivation from master 0 must reproduce the published SplitMix64 stream
def test_seed_derivation_known_vectors():
    assert derive_trial_seed(0, 0) == 0xE220A8397B1DCDAF
    assert derive_trial_seed(0, 1) == 0x6E789E6AA1B965F4
    assert derive_trial_seed(0, 2) == 0x06C45D188009454F


def _mirror(master, idx):
    # independent vectorized reimplementation of the documented mixing
    g = np.uint64(0x9E3779B97F4A7C15)
    z = np.uint64(master) + (idx.astype(np.uint64) + np.uint64(1)) * g
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def test_seed_derivation_matches_mirror():
    rng = np.random.default_rng(7)
    masters = rng.integers(0, 2**64, size=200, dtype=np.uint64)
    indices = rng.integers(0, 2**32, size=200, dtype=np.uint64)
    for m, i in zip(masters, indices):
        assert derive_trial_seed(int(m), int(i)) == int(_mirror(int(m), np.array([i]))[0])


def test_seed_derivation_collision_scan():
    idx = np.arange(10**6, dtype=np.uint64)
    out = _mirror(1, idx)
    assert len(np.unique(out)) == 10**6


def test_seed_derivation_pure():
    assert derive_trial_seed(42, 9) == derive_trial_seed(42, 9)
    assert derive_trial_seed(42, 9) != derive_trial_seed(42, 10)
    assert derive_trial_seed(42, 9) != derive_trial_seed(43, 9)


def test_sample_determinism():
    a = sample_matrix(spec_of(32), 5)
    b = sample_matrix(spec_of(32), 5)
    assert np.array_equal(a.entries, b.entries)
    c = sample_matrix(spec_of(32), 6)
    assert not np.array_equal(a.entries, c.entries)


def test_sample_shape_and_dtype():
    s = sample_matrix(spec_of(17), 0)
    assert s.entries.shape == (17, 17)
    assert s.entries.dtype == np.complex128
    assert s.size == 17
    assert np.all(np.isfinite(s.entries.view(float)))


def test_rademacher_unit_modulus():
    s = sample_matrix(spec_of(24, RAD), 0)
    # |x| = 1 exactly before the 1/sqrt(N) scaling
    mods = np.abs(s.entries) * math.sqrt(24)
    assert np.allclose(mods, 1.0, atol=1e-12)


def test_rademacher_size_one():
    s = sample_matrix(spec_of(1, RAD), 3)
    assert abs(s.entries[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_uniform_bounds_and_halfwidth():
    s = sample_matrix(spec_of(64, UNIF), 1)
    half = math.sqrt(1.5)
    parts = np.concatenate([s.entries.real.ravel(), s.entries.imag.ravel()]) * 8.0
    assert np.max(np.abs(parts)) <= half + 1e-12
    # per-part variance 1/2: sample variance of 8192 draws
    assert np.var(parts) == pytest.approx(0.5, rel=0.1)


def test_trace_statistic_near_one():
    for dist in (GAUSS, RAD, UNIF):
        s = sample_matrix(spec_of(256, dist), 0)
        trace = float(np.sum(np.abs(s.entries) ** 2))
        assert abs(trace / 256 - 1.0) < 0.2


def test_kind_table():
    assert set(KINDS) == {"complex-gaussian", "rademacher-pair", "uniform-symmetric"}
    assert GAUSS.density_bounded and UNIF.density_bounded
    assert not RAD.density_bounded
    with pytest.raises(ValueError):
        EntryDistribution("real-gaussian")


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(size=0, distribution=GAUSS, master_seed=1)
    with pytest.raises(ValueError):
        EnsembleSpec(size=4, distribution=GAUSS, master_seed=-1)
    with pytest.raises(ValueError):
        EnsembleSpec(size=4, distribution=GAUSS, master_seed=2**64)


def test_entry_statistics_pass_for_honest_samples():
    mean_dev, modsq_dev = check_entry_statistics(sample_matrix(spec_of(64), 2))
    assert mean_dev <= 5.0 / math.sqrt(2 * 64**2)
    assert modsq_dev <= 10.0 / 64


def test_entry_statistics_reject_doctored_large_n():
    doctored = MatrixSample(
        entries=np.full((64, 64), 0.5 + 0.0j) / 8.0,
        spec=spec_of(64),
        trial_index=0,
    )
    with pytest.raises(ValueError):
        check_entry_statistics(doctored)


def test_entry_statistics_six_sigma_mean_warns_without_raising(caplog):
    # an honest N=64 draw shifted so its mean sits at 6 sigma: rare (about
    # exp(-18) per matrix) but no defect; only 10 sigma or a bad modulus raises
    n = 64
    sigma = 1.0 / math.sqrt(2 * n * n)
    x = sample_matrix(spec_of(n), 2).entries * math.sqrt(n)
    doctored = MatrixSample(
        entries=(x - np.mean(x) + 6.0 * sigma) / math.sqrt(n),
        spec=spec_of(n),
        trial_index=0,
    )
    with caplog.at_level(logging.WARNING):
        mean_dev, modsq_dev = check_entry_statistics(doctored)
    assert mean_dev == pytest.approx(6.0 * sigma)
    assert modsq_dev <= 10.0 / n
    assert any("entry statistics" in r.message for r in caplog.records)


def test_entry_statistics_warn_below_threshold(caplog):
    doctored = MatrixSample(
        entries=np.full((8, 8), 0.9 + 0.0j) / math.sqrt(8),
        spec=spec_of(8),
        trial_index=0,
    )
    with caplog.at_level(logging.WARNING):
        check_entry_statistics(doctored)
    assert any("entry statistics" in r.message for r in caplog.records)


def test_dump_roundtrip(tmp_path):
    path = tmp_path / "sample.bin"
    s = sample_matrix(spec_of(12, UNIF, seed=99), 7)
    write_sample(s, path)
    # 40-byte header (magic, N, kind, reserved, seed, trial) + interleaved doubles
    assert path.stat().st_size == 40 + 16 * 12 * 12
    back = read_sample(path)
    assert np.array_equal(back.entries, s.entries)
    assert back.spec == s.spec
    assert back.trial_index == 7


def test_dump_rejects_corruption(tmp_path):
    path = tmp_path / "sample.bin"
    s = sample_matrix(spec_of(6), 0)
    write_sample(s, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_sample(bad)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_sample(trunc)


def test_kinds_differ_for_same_seed():
    a = sample_matrix(spec_of(16, GAUSS), 0)
    b = sample_matrix(spec_of(16, RAD), 0)
    assert not np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("halfwords", [1, 2])
def test_stream_matches_a_fresh_philox(kind, halfwords):
    def fresh(seed, index):
        return np.random.Generator(np.random.Philox(key=derive_trial_seed(seed, index)))

    rng = fresh(7, 2)
    expected = [draw_entries(rng, kind, (3, 5)), draw_entries(rng, kind, (2,))]
    expected_threaded = draw_entries(fresh(9, 1), kind, (3, 5))
    # another stream keyed and partly drawn first: the normal draw leaves a
    # partly used block, and one of the two integers() sizes leaves a cached
    # half word whatever the generator held before
    other = stream(9, 0)
    other.integers(0, 2, size=halfwords)
    other.standard_normal(1)
    rng = stream(7, 2)
    first = draw_entries(rng, kind, (3, 5))
    # a second thread keys a stream of its own meanwhile
    with ThreadPoolExecutor(max_workers=1) as pool:
        threaded = pool.submit(lambda: draw_entries(stream(9, 1), kind, (3, 5))).result()
    second = draw_entries(rng, kind, (2,))
    assert np.array_equal(first, expected[0])
    assert np.array_equal(second, expected[1])
    assert np.array_equal(threaded, expected_threaded)


def _reference_parts(rng, kind, shape):
    """The documented draw scheme, one call per part: the real block, then
    the imaginary block, each row-major and with variance 1/2."""
    if kind == "complex-gaussian":
        return [rng.standard_normal(shape) * math.sqrt(0.5) for _ in range(2)]
    if kind == "rademacher-pair":
        return [(2.0 * rng.integers(0, 2, size=shape) - 1.0) * math.sqrt(0.5) for _ in range(2)]
    return [rng.uniform(-math.sqrt(1.5), math.sqrt(1.5), size=shape) for _ in range(2)]


def _keyed(seed, index, cached_half):
    rng = np.random.Generator(np.random.Philox(key=derive_trial_seed(seed, index)))
    if cached_half:
        # three 32-bit draws leave the upper half of a 64-bit word cached
        rng.integers(0, 2, size=3)
    return rng


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(1,), (7,), (4, 6), (3, 5)])
@pytest.mark.parametrize("cached_half", [False, True])
def test_draw_layout_matches_the_documented_scheme(kind, shape, cached_half):
    ours = _keyed(5, 3, cached_half)
    reference = _keyed(5, 3, cached_half)
    re, im = _reference_parts(reference, kind, shape)
    assert _same_bits(draw_entries(ours, kind, shape), re + 1j * im)
    # the one-call draw consumes exactly the words of the two part draws
    assert np.array_equal(ours.integers(0, 2**32, size=3), reference.integers(0, 2**32, size=3))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_sample_matrix_layout_matches_the_documented_scheme(kind, n):
    # a stream left with a cached half word must not leak into the next sample
    stream(6, 0).integers(0, 2, size=3)
    spec = spec_of(n, EntryDistribution(kind), seed=6)
    re, im = _reference_parts(_keyed(6, 4, cached_half=False), kind, (n, n))
    # the stored matrix is X / sqrt(N), signed zeros included
    assert _same_bits(sample_matrix(spec, 4).entries, (re + 1j * im) / math.sqrt(n))


def test_stream_per_thread_under_contention():
    # more workers than cores and a short switch interval: a generator shared
    # between threads would hand one trial's draws to another
    def draw(index):
        ours = draw_entries(stream(3, index), "rademacher-pair", (5,))
        fresh = np.random.Generator(np.random.Philox(key=derive_trial_seed(3, index)))
        return np.array_equal(ours, draw_entries(fresh, "rademacher-pair", (5,)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(draw, i) for i in range(400)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(results)
