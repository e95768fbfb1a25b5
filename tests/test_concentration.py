"""Tail probes against closed-form laws.

For 1x1 operators both statistics have elementary distributions, so the
Monte Carlo estimates can be pinned to exact probabilities through their
Wilson intervals.  Wider-than-default intervals (z = 4) keep the checks
deterministic-in-practice without hiding a real discrepancy.
"""

import math

import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import ks_2samp

from hardedge import (
    derive_trial_seed,
    experiments,
    hw_tail_curve,
    projection_mass_probe,
    run_hw_experiment,
    run_projection_mass_experiment,
    wilson_interval,
)
from hardedge.concentration import _coordinate_hits, _haar_masses
from hardedge.ensemble import draw_entries

GAUSS = "complex-gaussian"
RADEMACHER = "rademacher-pair"
UNIFORM = "uniform-symmetric"


def wide_interval(prob: float, trials: int) -> tuple[float, float]:
    """Wilson interval at z = 4 around an exact probability."""
    return wilson_interval(round(prob * trials), trials, z=4.0)


# --- wilson_interval ---------------------------------------------------


def test_wilson_endpoints():
    lo, hi = wilson_interval(0, 500)
    assert lo == 0.0
    assert 0.0 < hi < 0.01
    lo, hi = wilson_interval(500, 500)
    assert hi == 1.0
    assert 0.99 < lo < 1.0


def test_wilson_frozen_value():
    # hand-recomputed: z=1.959963984540054, hits=25, trials=1000
    lo, hi = wilson_interval(25, 1000)
    z2 = 1.959963984540054**2
    center = (25 + z2 / 2) / (1000 + z2)
    half = (
        1.959963984540054
        * math.sqrt(25 * (1 - 25 / 1000) + z2 / 4)
        / (1000 + z2)
    )
    assert math.isclose(lo, center - half, rel_tol=1e-12)
    assert math.isclose(hi, center + half, rel_tol=1e-12)
    assert lo < 25 / 1000 < hi


def test_wilson_monotone_in_hits():
    los, his = zip(*(wilson_interval(h, 200) for h in range(0, 201, 10)))
    assert all(a < b for a, b in zip(los, los[1:]))
    assert all(a < b for a, b in zip(his, his[1:]))


# --- quadratic-form tails ----------------------------------------------


def test_hw_exponential_oracle_1x1():
    # statistic is | |x|^2 - 1 | with |x|^2 ~ Exp(1):
    # P(>= d) = exp(-(1+d)) + max(0, 1 - exp(-(1-d)))
    trials = 20000
    hits = hw_tail_curve(1, GAUSS, trials, [0.5, 2.0], seed=11)
    for d, h in zip([0.5, 2.0], hits):
        est = h / trials
        exact = math.exp(-(1 + d)) + max(0.0, 1.0 - math.exp(-(1 - d)))
        lo, hi = wide_interval(exact, trials)
        assert lo <= est <= hi, (d, est, exact)


def test_hw_zero_delta_saturates():
    for dist in (GAUSS, RADEMACHER, UNIFORM):
        hits = hw_tail_curve(4, dist, 200, [0.0], seed=3)
        assert hits[0] == 200


def test_hw_rademacher_identity_degenerates():
    # |x|^2 = 1 surely, so the diagonal statistic vanishes
    deltas = (0.0, 0.1, 1.0)
    hits = hw_tail_curve(8, RADEMACHER, 500, deltas, seed=5)
    assert list(hits) == [500, 0, 0]
    report = run_hw_experiment("rademacher-pair", 500, 5)
    assert [row["statistic"] for row in report.rows] == [0.0] * len(experiments._HW_DELTAS)
    assert math.isnan(report.summary["slope"])


def test_hw_curve_shape():
    deltas = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    assert np.all(np.diff(hw_tail_curve(16, GAUSS, 4000, deltas, seed=2)) <= 0)
    report = run_hw_experiment("complex-gaussian", 4000, 2)
    hits = hw_tail_curve(experiments._PROBE_SIZE, GAUSS, 4000, experiments._HW_DELTAS, seed=2)
    assert [row["statistic"] for row in report.rows] == [h / 4000 for h in hits]
    assert all(row["ci_lo"] <= row["statistic"] <= row["ci_hi"] for row in report.rows)
    assert all(row["trials"] == 4000 for row in report.rows)
    assert report.summary["slope"] > 0


def test_hw_slope_nan_when_degenerate(monkeypatch):
    # one interior cell is not enough for a fit
    deltas = (0.0, 1.0, 50.0)
    hits = hw_tail_curve(2, GAUSS, 400, deltas, seed=9)
    assert hits[0] == 400
    assert hits[2] == 0
    one_interior = np.array([400, 200] + [0] * (len(experiments._HW_DELTAS) - 2))
    monkeypatch.setattr(experiments, "hw_tail_curve", lambda *args: one_interior)
    report = run_hw_experiment("complex-gaussian", 400, 9)
    assert math.isnan(report.summary["slope"])


def test_hw_deterministic():
    a = hw_tail_curve(4, UNIFORM, 1500, [1.0, 3.0], seed=42)
    b = hw_tail_curve(4, UNIFORM, 1500, [1.0, 3.0], seed=42)
    assert np.array_equal(a, b)
    c = hw_tail_curve(4, UNIFORM, 1500, [1.0, 3.0], seed=43)
    assert not np.array_equal(a, c)


def test_hw_chunking_invisible():
    # straddling the chunk boundary must not change the law of the estimate;
    # prefix property: the first 2048 draws are chunk 0 in both runs
    deltas = [2.0]
    small = hw_tail_curve(4, GAUSS, 2048, deltas, seed=7)
    big = hw_tail_curve(4, GAUSS, 2048 + 512, deltas, seed=7)
    assert abs(big[0] - small[0]) <= 512


def test_hw_rejects_bad_arguments():
    with pytest.raises(ValueError, match="trials"):
        hw_tail_curve(4, GAUSS, 99, [1.0], seed=0)
    # the identity of size 0 has no quadratic form to probe
    with pytest.raises(ValueError, match="size"):
        hw_tail_curve(0, GAUSS, 200, [1.0], seed=0)
    with pytest.raises(ValueError, match="deltas"):
        hw_tail_curve(4, GAUSS, 200, [-1.0], seed=0)
    with pytest.raises(ValueError, match="deltas"):
        hw_tail_curve(4, GAUSS, 200, [], seed=0)
    with pytest.raises(ValueError, match="deltas"):
        hw_tail_curve(4, GAUSS, 200, [8.0, 1.0, 2.0], seed=0)
    with pytest.raises(ValueError, match="deltas"):
        hw_tail_curve(4, GAUSS, 200, [1.0, 1.0], seed=0)


# --- projection mass ---------------------------------------------------


def test_projmass_gaussian_gamma_oracle():
    # coordinate mass is Gamma(m, 1); P(<= m/2) = gammainc(m, m/2), row by row
    # (the rows share their draws, and each has its own marginal law)
    trials = 20000
    hits, family = projection_mass_probe((1, 4, 9), 32, GAUSS, trials, seed=1)
    assert family == "coordinate"
    for m, h in zip((1, 4, 9), hits):
        lo, hi = wide_interval(float(gammainc(m, m / 2)), trials)
        assert lo <= h / trials <= hi, (m, h)


def test_projmass_haar_matches_gamma_for_gaussian():
    # rotation invariance: a Haar family sees the same law, at every m of the nested frame
    hits = np.sum(_haar_masses((4, 9), 16, GAUSS, 4000, seed=1) <= (2.0, 4.5), axis=0)
    for m, h in zip((4, 9), hits):
        lo, hi = wide_interval(float(gammainc(m, m / 2)), 4000)
        assert lo <= h / 4000 <= hi, (m, h)


def test_projmass_uniform_coordinate_m1():
    # P(a^2 + b^2 <= 1/2) for (a, b) uniform on [-sqrt(1.5), sqrt(1.5)]^2
    trials = 20000
    (hits,) = _coordinate_hits((1,), UNIFORM, trials, seed=6)
    lo, hi = wide_interval(math.pi / 12, trials)
    assert lo <= hits / trials <= hi


def test_projmass_rademacher_coordinate_is_zero():
    # coordinate mass equals m surely, never <= m/2
    assert _coordinate_hits((1, 5), RADEMACHER, 300, seed=0).tolist() == [0, 0]
    # a zero-hit row: P(Gamma(64, 1) <= 32) = 4e-7
    assert projection_mass_probe((64,), 64, GAUSS, 300, seed=0)[0].tolist() == [0]


def test_projmass_auto_family_selection():
    assert projection_mass_probe((2,), 8, GAUSS, 50, seed=0)[1] == "coordinate"
    assert projection_mass_probe((2,), 8, RADEMACHER, 50, seed=0)[1] == "haar"
    assert projection_mass_probe((2,), 8, UNIFORM, 50, seed=0)[1] == "haar"


def test_projmass_deterministic():
    a, family_a = projection_mass_probe((1, 3), 12, UNIFORM, 500, seed=13)
    b, family_b = projection_mass_probe((1, 3), 12, UNIFORM, 500, seed=13)
    assert a.tolist() == b.tolist() and family_a == family_b


def _haar_hits_per_trial(m_grid, size, dist, trials, seed):
    """Haar hit counts one trial at a time: x, then a Gaussian frame of the
    grid's first m columns (real then imaginary parts), projected through its
    QR basis, then size - m_1 exponentials whose prefix shares of their total
    give each later m its part of the rest of |x|^2."""
    first = m_grid[0]
    hits = [0] * len(m_grid)
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(key=derive_trial_seed(seed, trial)))
        x = draw_entries(rng, dist, (size,))
        parts = rng.standard_normal((2, size, first))
        q, _ = np.linalg.qr(parts[0] + 1j * parts[1])
        mass = float(np.sum(np.abs(q.conj().T @ x) ** 2))
        rest = float(np.sum(np.abs(x) ** 2)) - mass
        e = rng.standard_exponential(size - first)
        for j, m in enumerate(m_grid):
            share = float(np.sum(e[: m - first]) / np.sum(e)) if m > first else 0.0
            hits[j] += mass + rest * share <= m / 2
    return hits


# ids read (last m)-size-trials; the cases take trial counts off the chunk
# grid, one-entry grids (the last with no exponentials), and grids ending at
# m = size
@pytest.mark.parametrize("dist", [UNIFORM, RADEMACHER])
@pytest.mark.parametrize(
    "m_grid, size, trials",
    [
        pytest.param((1,), 8, 33, id="1-8-33"),
        pytest.param((1, 2, 4), 16, 65, id="4-16-65"),
        pytest.param((3, 8), 8, 40, id="8-8-40"),
        pytest.param((1, 2), 2, 40, id="2-2-40"),
        pytest.param((8,), 8, 33, id="8-8-33"),
    ],
)
def test_projmass_haar_chunks_match_per_trial_qr(dist, m_grid, size, trials):
    seed = size + m_grid[-1]
    hits, _ = projection_mass_probe(m_grid, size, dist, trials, seed=seed)
    assert hits.tolist() == _haar_hits_per_trial(m_grid, size, dist, trials, seed)


@pytest.mark.parametrize("dist", [UNIFORM, RADEMACHER])
def test_projmass_nested_masses_have_the_law_of_independent_frames(dist):
    # past the Gaussian first m, each m reads a Dirichlet prefix; two-sample KS
    # against x's mass on an independent QR frame per trial and m
    size, trials = 64, 2000
    nested = _haar_masses((4, 9, 16), size, dist, trials, seed=11)
    rng = np.random.Generator(np.random.Philox(key=12))
    x = draw_entries(rng, dist, (trials, size, 1))
    for j, m in [(1, 9), (2, 16)]:
        q, _ = np.linalg.qr(rng.standard_normal((trials, size, m)) + 1j * rng.standard_normal((trials, size, m)))
        independent = np.sum(np.abs(q.conj().transpose(0, 2, 1) @ x) ** 2, axis=(1, 2))
        assert ks_2samp(nested[:, j], independent).pvalue > 1e-3, m


@pytest.mark.parametrize("dist", [UNIFORM, GAUSS])
def test_projmass_rows_depend_only_on_the_grid_up_to_their_m(dist):
    # the draws of a trial do not depend on the last m, so a shorter grid reads the same prefix
    full = projection_mass_probe((4, 9, 16, 25), 32, dist, 2000, seed=5)
    prefix = projection_mass_probe((4, 9), 32, dist, 2000, seed=5)
    assert prefix[0].tolist() == full[0][:2].tolist()
    assert prefix[1] == full[1]


def test_projmass_reports_an_unresolved_m_once():
    # one trial resolves no m: each row fails as zero hits, and no pair of them again as a trend
    report = run_projection_mass_experiment("uniform-symmetric", 1, 1)
    assert [row["statistic"] for row in report.rows] == [0.0] * 4
    assert [row["ci_lo"] for row in report.rows] == [0.0] * 4
    assert report.failures == tuple(
        f"m={m}: zero hits at 1 trials; grid beyond the estimator's resolution" for m in (4, 9, 16, 25)
    )


def test_projmass_trend_rule_fails_a_zero_hit_row_before_a_resolved_one(monkeypatch):
    # m = 9, 16, 25 resolved with -log P / sqrt(m) increasing, so only the first pair fails the trend
    monkeypatch.setattr(experiments, "projection_mass_probe", lambda *args: (np.array([0, 40, 10, 1]), "haar"))
    report = run_projection_mass_experiment("uniform-symmetric", 100, 1)
    assert report.failures[-1].startswith("-log P / sqrt(m) did not increase from m=4 (inf) to m=9 (")


def test_projmass_rejects_bad_arguments():
    for m_grid in [(9,), (0,), (), (4, 4), (4, 2), (2, 9)]:
        with pytest.raises(ValueError, match="m_grid must"):
            projection_mass_probe(m_grid, 8, GAUSS, 100, seed=0)
    with pytest.raises(ValueError, match="trials"):
        projection_mass_probe((2,), 8, GAUSS, 0, seed=0)
