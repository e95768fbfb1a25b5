"""Power panel: each verdict must be able to fail on a corrupted ensemble.

Every matrix cell wraps `experiments.sample_matrix` to corrupt each draw and
runs a shipped runner on it.  The spectra cache is swapped for an empty one
per cell, so corrupted spectra never reach another test.  The concentration
cells wrap `concentration.draw_entries` instead.  An honest-draw cell
(no corruption) pins a verdict that must pass.  A cell the math says must
fail, on a runner whose band passes it today, is a strict xfail naming the
ROADMAP item that flips it.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from hardedge import (
    ExperimentConfig,
    concentration,
    experiments,
    run_apriori,
    run_delocalization,
    run_hard_edge_scaling,
    run_hw_experiment,
    run_local_law,
    run_projection_mass_experiment,
    run_wegner,
)
from hardedge.cli import main

# the panel config of ROADMAP item 1's power scan
PANEL = ExperimentConfig(sizes=(128, 256), trials=30, seed=7)


def _corrupt_draws(monkeypatch, mutate):
    real = experiments.sample_matrix

    def corrupted(spec, t):
        sample = real(spec, t)
        return dataclasses.replace(sample, entries=mutate(sample.entries.copy()))

    monkeypatch.setattr(experiments, "sample_matrix", corrupted)
    monkeypatch.setattr(experiments, "_SPECTRA", {})


def _zero_column(entries):
    entries[:, 0] = 0.0
    return entries


def _small_column(entries):
    entries[:, 0] *= 1e-3
    return entries


def _real_part(entries):
    # the real ensemble (beta = 1) at the same entry variance
    return math.sqrt(2.0) * entries.real


def _block_diagonal(entries):
    # two independent N/2 blocks, rescaled to keep the spectrum on [0, 4]
    half = entries.shape[0] // 2
    blocks = np.zeros_like(entries)
    blocks[:half, :half] = entries[:half, :half]
    blocks[half:, half:] = entries[half:, half:]
    return math.sqrt(2.0) * blocks


def _variance(factor):
    return lambda entries: math.sqrt(factor) * entries


def test_zero_column_fails_hardedge_without_a_traceback(tmp_path, capsys, monkeypatch):
    # an exact zero mode: every trial's smallest eigenvalue is 0, so every
    # N^2*s_1 median is 0 and the cross-size spread is undefined
    start = time.perf_counter()
    _corrupt_draws(monkeypatch, _zero_column)
    data = {"sizes": [32, 64], "trials": 30, "seed": 3}
    rep = run_hard_edge_scaling(ExperimentConfig.from_dict(data))
    assert not rep.passed
    assert [f for f in rep.failures if "nonpositive" in f] == [
        "N=32: nonpositive smallest eigenvalue observed",
        "N=64: nonpositive smallest eigenvalue observed",
    ]
    assert rep.summary["medians"] == {"32": 0.0, "64": 0.0}

    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["hardedge", "--config", str(path), "--out", str(tmp_path / "r")])
    out = capsys.readouterr().out
    assert code == 1
    assert "hard-edge-scaling: FAIL" in out
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("mutate", [_zero_column, _small_column], ids=["zero-column", "column-0-times-1e-3"])
def test_deloc_sees_a_localized_hard_edge_vector(monkeypatch, mutate):
    # a (near-)zero column puts a near-coordinate vector at the hard edge, with
    # N*|u|^2 close to N: far above the cap in every trial
    _corrupt_draws(monkeypatch, mutate)
    rep = run_delocalization(PANEL)
    assert not rep.passed
    assert [row["statistic"] for row in rep.rows] == [1.0, 1.0]


@pytest.mark.parametrize(
    "mutate, passed",
    [
        (_variance(2.0), False),
        (_variance(1.2), False),
        # the real ensemble (beta = 1) obeys the same local law
        (_real_part, True),
        (lambda entries: entries, True),
    ],
    ids=["variance-2", "variance-1.2", "real-part-beta-1", "none"],
)
def test_local_law_transform_cells(monkeypatch, mutate, passed):
    # a rescaled spectrum moves the empirical transform off the MP limit
    _corrupt_draws(monkeypatch, mutate)
    rep = run_local_law(PANEL)
    assert rep.passed is passed
    exceedance = rep.summary["max_transform_exceedance_at_reference"]
    if passed:
        assert exceedance <= experiments.LOCALLAW_EXCEEDANCE
    else:
        assert exceedance > experiments.LOCALLAW_EXCEEDANCE
        assert all("transform exceedance" in f for f in rep.failures)


@pytest.mark.parametrize("distribution", ["complex-gaussian", "uniform-symmetric"])
def test_wegner_passes_honest_draws_at_the_benchmark_config(distribution):
    # the eigen-suite benchmark config (sizes 256/512, 30 trials, seed 1), where
    # both kinds see a single hit at L=2 and none above it at N=256 and N=512, K=2
    cfg = ExperimentConfig(sizes=(256, 512), trials=30, seed=1, distribution=distribution)
    rep = run_wegner(cfg)
    assert rep.passed, rep.failures


@pytest.mark.parametrize(
    "runner, mutate",
    [
        # counting and the local law hold for the real ensemble and for a
        # block-diagonal X, whose spectrum is two draws of the same MP law
        (run_apriori, _real_part),
        (run_apriori, _block_diagonal),
        (run_local_law, _block_diagonal),
    ],
    ids=["apriori-real-part-beta-1", "apriori-block-diagonal", "locallaw-block-diagonal"],
)
def test_cells_the_math_says_must_pass(monkeypatch, runner, mutate):
    _corrupt_draws(monkeypatch, mutate)
    rep = runner(PANEL)
    assert rep.passed, rep.failures


def _until_item(item, why):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"{why}; ROADMAP item {item} flips it")


@pytest.mark.parametrize(
    "runner, mutate",
    [
        pytest.param(
            run_hard_edge_scaling,
            _variance(2.0),
            marks=_until_item(2, "the spread of the N^2*s_1 medians across sizes cannot see a global rescaling"),
            id="hardedge-variance-2",
        ),
        pytest.param(
            run_hard_edge_scaling,
            _variance(1.2),
            marks=_until_item(5, "neither the median spread nor the spacing band sees a 1.2 rescaling"),
            id="hardedge-variance-1.2",
        ),
        pytest.param(
            run_hard_edge_scaling,
            _real_part,
            marks=_until_item(2, "the real law's N^2*s_1 medians (about 0.297) agree across sizes"),
            id="hardedge-real-part-beta-1",
        ),
        pytest.param(
            run_hard_edge_scaling,
            _block_diagonal,
            marks=_until_item(2, "the block minimum's N^2*s_1 median (2 ln 2) agrees across sizes"),
            id="hardedge-block-diagonal",
        ),
        pytest.param(
            run_delocalization,
            _block_diagonal,
            marks=_until_item(3, "the cap and the cross-size spread band do not fire on localized blocks"),
            id="deloc-block-diagonal",
        ),
        pytest.param(
            run_wegner,
            _zero_column,
            marks=_until_item(2, "a zero mode hits L=1 in every trial, and neither rule reads the hit rate"),
            id="wegner-zero-column",
        ),
        pytest.param(
            run_wegner,
            _variance(2.0),
            marks=_until_item(2, "a rescaled spectrum keeps hits at the first level and a strict decay"),
            id="wegner-variance-2",
        ),
        pytest.param(
            run_wegner,
            _real_part,
            marks=_until_item(2, "the real law's near-zero counts keep hits at the first level and a strict decay"),
            id="wegner-real-part-beta-1",
        ),
    ],
)
def test_cells_the_math_says_must_fail(monkeypatch, runner, mutate):
    _corrupt_draws(monkeypatch, mutate)
    assert not runner(PANEL).passed


@pytest.mark.parametrize(
    "runner, distribution, trials",
    [
        # fails today only through "fitted decay rate nan": every row reads
        # 1.0, so no grid point lies strictly inside (0, 1)
        pytest.param(run_hw_experiment, "uniform-symmetric", 10_000, id="hw-uniform-symmetric-variance-2"),
        # fails today only through "zero hits" at m = 16 and m = 25
        pytest.param(
            run_projection_mass_experiment, "uniform-symmetric", 4_000, id="projmass-uniform-symmetric-variance-2"
        ),
        pytest.param(
            run_hw_experiment,
            "complex-gaussian",
            10_000,
            marks=_until_item(18, "rows read 0.9966-1.0 and the fitted decay rate stays positive (0.0015)"),
            id="hw-complex-gaussian-variance-2",
        ),
    ],
)
def test_concentration_cells_the_math_says_must_fail(monkeypatch, runner, distribution, trials):
    # every entry the probes draw gets variance 2 in place of 1; the Haar
    # frame of projmass is drawn apart from draw_entries and stays honest
    real = concentration.draw_entries
    monkeypatch.setattr(
        concentration,
        "draw_entries",
        lambda rng, kind, shape, scale=1.0: real(rng, kind, shape, math.sqrt(2.0) * scale),
    )
    assert not runner(distribution=distribution, trials=trials, seed=1).passed
