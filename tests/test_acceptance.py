"""Acceptance suite: exact identities plus calibrated Monte Carlo checks.

One test per criterion, fixed seeds throughout, so every verdict is
reproducible.  Every criterion but 1, 2 and 7 runs the shipped runners, so it
certifies the code the CLI and the benchmark run: 3 to 6 `run_identity_suite`,
8 `run_local_law`, 9 `run_delocalization`, 10 `run_hard_edge_scaling`, 11
`run_wegner`, 12 `run_hw_experiment` and `run_projection_mass_experiment`, 13
`run_apriori`.  They check literal thresholds on the report rows, and 5, 6
and 8 to 12 also require the report to pass.  Criteria 1, 2 and 7 have no
runner and compute their own statistics.  Each test also asserts its own
runtime ceiling; the terminal summary hook prints a PASS/FAIL line per
criterion.

What the runners set, the criteria inherit: criterion 6 checks the counting
inequality on the identity suite's four windows (`[0, 0.05]` spans the hard
edge at N=64), and criterion 9 checks the eigenvectors of deloc's band
`[0, 4 - kappa]`, so the soft edge above 3.95 (6e-4 of the limiting mass),
which the paper also excludes, is not covered.

Monte Carlo thresholds (KS 0.05, local-law 0.15 band, delocalization cap 15,
hard-edge factor 2) are the desk-scale calibrations that the experiments
module keeps as constants (`LOCALLAW_EPSILON`, `DELOC_CAP`,
`HARDEDGE_MEDIAN_FACTOR`, ...).  The criteria state them as literals, so
editing a constant cannot loosen a criterion.  The exact-identity tolerances
are rounding budgets, not fitted numbers.
"""

import time

import numpy as np
import pytest

from hardedge import (
    EnsembleSpec,
    ExperimentConfig,
    SpectralPoint,
    Window,
    eigenvalues_only,
    file_digest,
    fixed_point_residual,
    mp_cdf,
    mp_moment_quadrature,
    mp_stieltjes,
    render_csv,
    run_apriori,
    run_delocalization,
    run_hard_edge_scaling,
    run_hw_experiment,
    run_identity_suite,
    run_local_law,
    run_projection_mass_experiment,
    run_wegner,
    sample_matrix,
    write_report,
)
from hardedge import experiments
from mp_oracle import density_quadrature


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


@pytest.fixture(scope="module")
def identity_suite():
    # shared by criteria 3 and 4: 20 samples at N in {16, 32}, all k, 10 theta
    with Timer() as t:
        report = run_identity_suite(sizes=(16, 32), trials=20, seed=1)
    return report, t.seconds


@pytest.fixture(scope="module")
def n64_suite():
    # shared by criteria 5 and 6: 100 samples at N=64
    with Timer() as t:
        report = run_identity_suite(sizes=(64,), trials=100, seed=2026)
    return report, t.seconds


def rows_for(report, check: str, size: int | None = None):
    return [
        r
        for r in report.rows
        if r["check"] == check and (size is None or r["size"] == size)
    ]


def test_criterion_01_fixed_point_identity():
    with Timer() as t:
        energies = np.logspace(-3, 1, 10)
        etas = np.logspace(-4, 1, 10)
        worst = 0.0
        for energy in energies:
            for eta in etas:
                point = SpectralPoint(float(energy), float(eta))
                residual = fixed_point_residual(mp_stieltjes(point), point)
                worst = max(worst, residual)
    assert worst < 1e-12, f"fixed-point residual {worst:.3g} on the 100-point grid"
    assert t.seconds < 1.0


def test_criterion_02_normalization_and_moments():
    with Timer() as t:
        total = density_quadrature()
        moments = {k: mp_moment_quadrature(k) for k in (1, 2, 5)}
    assert abs(total - 1.0) < 1e-10
    # Catalan numbers C_1, C_2, C_5
    assert moments[1] == pytest.approx(1.0, abs=1e-6)
    assert moments[2] == pytest.approx(2.0, abs=1e-6)
    assert moments[5] == pytest.approx(42.0, abs=1e-6)
    assert t.seconds < 1.0


def test_criterion_03_leave_one_out_exactness(identity_suite):
    report, build_seconds = identity_suite
    for size in (16, 32):
        for check in ("leave_one_out_vs_dense", "schur_vs_dense"):
            (row,) = rows_for(report, check, size)
            assert row["statistic"] < 1e-9, (size, check, row["statistic"])
    assert build_seconds < 30.0


def test_criterion_04_eigenvector_identity(identity_suite):
    report, build_seconds = identity_suite
    (residual_row,) = rows_for(report, "eigenvector_identity_residual", 16)
    (coverage_row,) = rows_for(report, "coverage_fraction", 16)
    assert residual_row["statistic"] < 1e-8
    assert coverage_row["statistic"] >= 0.95
    assert build_seconds < 30.0


def test_criterion_05_interlacing(n64_suite):
    report, build_seconds = n64_suite
    (row,) = rows_for(report, "interlacing_violation", 64)
    assert row["statistic"] <= 1e-10, row["statistic"]
    assert report.passed, report.failures
    assert build_seconds < 60.0


def test_criterion_06_counting_inequality(n64_suite):
    report, _ = n64_suite
    (row,) = rows_for(report, "counting_inequality_ok", 64)
    assert row["statistic"] == 1.0
    assert report.passed, report.failures


def test_criterion_07_global_mp_convergence():
    with Timer() as t:
        n = 1024
        spec = EnsembleSpec(size=n, distribution="complex-gaussian", master_seed=101)
        grid = np.arange(1, n + 1) / n
        for trial in range(10):
            eigs = eigenvalues_only(sample_matrix(spec, trial))
            cdf = np.array([mp_cdf(float(x)) for x in eigs])
            ks = max(float(np.max(grid - cdf)), float(np.max(cdf - grid + 1.0 / n)))
            assert ks < 0.05, f"trial {trial}: KS distance {ks:.4f}"
    assert t.seconds < 120.0


def test_criterion_08_local_law_desk_scale():
    with Timer() as t:
        report = run_local_law(
            ExperimentConfig(
                sizes=(128, 512),
                trials=200,
                seed=102,
                windows=(Window(2.0, 0.1),),
            )
        )
        exceedance = {
            r["size"]: r["statistic"]
            for r in report.rows
            if r["form"] == "transform" and r["epsilon"] == 0.15
        }
        assert exceedance[512] <= 0.05, f"exceedance {exceedance[512]:.3f} at N=512"
        assert exceedance[512] <= exceedance[128], exceedance
        assert report.passed, report.failures
    assert t.seconds < 300.0


def test_criterion_09_delocalization():
    with Timer() as t:
        report = run_delocalization(
            ExperimentConfig(sizes=(128, 512, 1024), trials=50, seed=103, kappa=0.05)
        )
        assert [r["size"] for r in report.rows] == [128, 512, 1024]
        for row in report.rows:
            assert row["max_over_ln"] <= 15.0, row
        # ln N growth: medians of the normalized statistic stay in a tight band
        medians = [r["median_over_ln"] for r in report.rows]
        spread = max(medians) / min(medians)
        assert spread <= 1.5, medians
        assert report.passed, report.failures
    assert t.seconds < 300.0


def test_criterion_10_hard_edge_scaling():
    with Timer() as t:
        report = run_hard_edge_scaling(ExperimentConfig(sizes=(128, 256, 512), trials=200, seed=104))
        medians = report.summary["medians"]
        spread = max(medians.values()) / min(medians.values())
        assert spread <= 2.0, medians
        assert report.passed, report.failures
    assert t.seconds < 180.0


def test_criterion_11_wegner_decay():
    with Timer() as t:
        report = run_wegner(ExperimentConfig(sizes=(256,), trials=2000, seed=105))
        # the K = 1 window at L = 2..5; report.passed judges every (K, L) cell
        hits = [round(r["statistic"] * r["trials"]) for r in report.rows if r["K"] == 1.0 and r["L"] >= 2]
        assert len(hits) == 4
        # -log P strictly increasing where the data resolves it: positive cells
        # must decay strictly, and the first cell must be resolvable at all
        assert hits[0] >= 2, f"P(count >= 2) unresolved: {hits}"
        for h1, h2 in zip(hits, hits[1:]):
            if h2 > 0:
                assert h2 < h1, f"no strict decay: {hits}"
        assert report.passed, report.failures
    assert t.seconds < 180.0


def test_criterion_12_concentration_shapes():
    with Timer() as t:
        hw = run_hw_experiment(trials=10_000, seed=1)
        mass = run_projection_mass_experiment(trials=40_000, seed=1)
    assert hw.passed, hw.failures
    assert hw.summary["slope"] > 0
    assert mass.passed, mass.failures
    ratios = mass.summary["ratios"]
    assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios
    assert t.seconds < 120.0


def test_criterion_13_deterministic_reports(tmp_path):
    cfg = ExperimentConfig(sizes=(128,), trials=30, seed=11, scale_min=20.0)
    digests = []
    for label in ("serial", "serial-again"):
        experiments._SPECTRA.clear()  # each run computes its own spectra
        report = run_apriori(cfg)
        paths = write_report(report, tmp_path / label)
        digests.append(file_digest(paths["csv"]))
        assert render_csv(report) == (tmp_path / label / "apriori-counting.csv").read_text()
    assert digests[0] == digests[1]
