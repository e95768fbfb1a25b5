"""Config validation and experiment runner behaviour at desk scale.

Runner checks here use small sizes and trial counts with fixed seeds; the
full-scale sweeps live in the acceptance tests.  Statistical verdicts are
deterministic because every runner derives its stream from (seed, size).
"""

import dataclasses
import json
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from hardedge import experiments
from hardedge import (
    ConfigError,
    ExperimentConfig,
    Window,
    derived_windows,
    run_apriori,
    run_delocalization,
    run_hard_edge_scaling,
    run_hw_experiment,
    run_identity_suite,
    run_local_law,
    run_projection_mass_experiment,
    run_wegner,
)
from hardedge.reports import render_csv

SMALL = dict(sizes=(96, 128), trials=30, seed=5, scale_min=20.0)


@pytest.fixture(scope="module")
def small_cfg():
    return ExperimentConfig(**SMALL)


# --- config ------------------------------------------------------------


def test_config_defaults_round_trip():
    cfg = ExperimentConfig()
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_round_trip_with_windows():
    cfg = ExperimentConfig(
        sizes=(64,),
        trials=40,
        windows=(Window(1.0, 0.5), Window(2.0, 0.25)),
        kappa=0.3,
    )
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.windows == (Window(1.0, 0.5), Window(2.0, 0.25))


@pytest.mark.parametrize(
    "field,value",
    [
        ("sizes", ()),
        pytest.param("sizes[0]", (0,), id="sizes-value1"),
        ("trials", 29),
        ("distribution", "cauchy"),
        ("b", 0.0),
        ("b", math.inf),
        ("kappa", 0.0),
        ("kappa", 1.0),
        ("epsilon_grid", ()),
        pytest.param("epsilon_grid[1]", (0.1, -0.2), id="epsilon_grid-value9"),
        pytest.param("k_grid[0]", (0.0,), id="k_grid-value10"),
        ("l_grid", (2, 1)),
        ("l_grid", (1, 1)),
        pytest.param("l_grid[0]", (0, 1), id="l_grid-value13"),
        ("seed", -1),
        ("seed", 2**64),
        ("scale_min", 0.0),
        ("n_windows", 0),
        ("windows", ()),
        ("sizes[1]", (128, 128)),
        ("sizes[2]", (64, 96, 64)),
        ("sizes[0]", (64.0,)),
        ("trials", 30.5),
        ("k_grid", (4.0, 0.25)),
        ("k_grid", (1.0, 1.0)),
        ("l_grid[1]", (1, 2.5)),
        ("seed", 1.5),
        ("n_windows", 2.5),
        pytest.param("epsilon_grid[0]", (math.nan,), id="epsilon_grid-value28"),
        pytest.param("epsilon_grid[1]", (0.1, math.inf), id="epsilon_grid-value29"),
        pytest.param("k_grid[1]", (1.0, math.inf), id="k_grid-value30"),
        pytest.param("k_grid[0]", (math.nan, 1.0), id="k_grid-value31"),
        pytest.param("k_grid[1]", (1.0, math.nan, 2.0), id="k_grid-value32"),
        ("b", True),
        ("scale_min", True),
        ("epsilon_grid[0]", (True,)),
    ],
)
def test_config_rejects_and_names_the_field(field, value):
    # field is the path the message starts with: a config field, or one entry
    # of it; an entry's own rule (type, finiteness, range) names the entry,
    # a rule over the whole list (nonempty, increasing) names the field.  A
    # case whose path names an entry may keep an id that names only the field.
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**{field.split("[")[0]: value})
    assert str(err.value).startswith(f"{field}:")


def test_from_dict_rejects_unknown_key():
    with pytest.raises(ConfigError, match="scale_mni"):
        ExperimentConfig.from_dict({"scale_mni": 50.0})
    # the pass/fail bands are module constants, not config keys
    with pytest.raises(ConfigError, match="^thresholds: unknown config key"):
        ExperimentConfig.from_dict({"thresholds": {"deloc_cap": 15.0}})


def test_from_dict_rejects_non_object():
    with pytest.raises(ConfigError, match="config"):
        ExperimentConfig.from_dict([1, 2])


def test_from_dict_parses_windows():
    cfg = ExperimentConfig.from_dict(
        {"windows": [{"energy": 2.0, "eta": 0.1}], "trials": 50}
    )
    assert cfg.windows == (Window(2.0, 0.1),)
    with pytest.raises(ConfigError, match=r"windows\[0\]"):
        ExperimentConfig.from_dict({"windows": [{"energy": 2.0}]})
    with pytest.raises(ConfigError, match=r"windows\[1\]"):
        ExperimentConfig.from_dict(
            {"windows": [{"energy": 2.0, "eta": 0.1}, {"energy": 1.0, "eta": -0.1}]}
        )


def test_from_dict_parses_every_field():
    # one parser per field, run in field order
    assert list(experiments._FIELDS) == [f.name for f in dataclasses.fields(ExperimentConfig)]


@pytest.mark.parametrize(
    "data, path",
    [
        ({"n_windows": True}, "n_windows"),
        ({"trials": 30.0}, "trials"),
        ({"l_grid": [1, 2.5]}, "l_grid[1]"),
        ({"k_grid": [1.0, False]}, "k_grid[1]"),
        ({"windows": [{"energy": 2.0, "eta": None}]}, "windows[0].eta"),
        # Python's json reads NaN and Infinity as floats
        ({"epsilon_grid": [math.nan]}, "epsilon_grid[0]"),
        ({"k_grid": [1.0, math.inf]}, "k_grid[1]"),
        ({"scale_min": -math.inf}, "scale_min"),
        ({"windows": [{"energy": 2.0, "eta": math.nan}]}, "windows[0].eta"),
        ({"b": 10**400}, "b"),
    ],
)
def test_from_dict_accepts_only_json_numbers(data, path):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(data)
    assert str(err.value).startswith(f"{path}: ")


def test_from_dict_coerces_lists():
    cfg = ExperimentConfig.from_dict({"sizes": [64, 96], "epsilon_grid": [0.1, 0.2]})
    assert cfg.sizes == (64, 96)
    assert cfg.epsilon_grid == (0.1, 0.2)


def test_every_construction_path_normalises():
    # lists become tuples and ints in number fields floats, however the config is built
    canonical = ExperimentConfig(sizes=(64, 96), k_grid=(1.0, 2.0), b=4.0)
    for cfg in (
        ExperimentConfig(sizes=[64, 96], k_grid=[1, 2], b=4),
        ExperimentConfig.from_dict({"sizes": [64, 96], "k_grid": [1, 2], "b": 4}),
        dataclasses.replace(ExperimentConfig(), sizes=[64, 96], k_grid=[1, 2], b=4),
    ):
        assert cfg == canonical and hash(cfg) == hash(canonical)
        assert type(cfg.b) is float and {type(k) for k in cfg.k_grid} == {float}


def test_direct_windows_from_objects():
    cfg = ExperimentConfig(windows=[{"energy": 2.0, "eta": 0.1}, Window(1.0, 0.5)])
    assert cfg.windows == (Window(2.0, 0.1), Window(1.0, 0.5))
    with pytest.raises(ConfigError, match=r"^windows\[1\]: expected an object"):
        ExperimentConfig(windows=[Window(2.0, 0.1), (2.0, 0.1)])


def test_readme_config_example_is_the_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Experiment configuration\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    assert blocks
    for block in blocks:
        assert ExperimentConfig.from_dict(json.loads(block)) == ExperimentConfig()


# --- window ladder ------------------------------------------------------


def test_derived_windows_formula():
    cfg = ExperimentConfig(sizes=(96,), scale_min=20.0, kappa=0.5, n_windows=4)
    windows = derived_windows(cfg, 96)
    lo = 2.0 * (20.0 / (0.5 * 96)) ** 2
    hi = 3.5
    ratio = (hi / lo) ** (1.0 / 3.0)
    assert len(windows) == 4
    for j, w in enumerate(windows):
        assert w.energy == pytest.approx(lo * ratio**j, rel=1e-12)
        assert w.eta == pytest.approx(20.0 * math.sqrt(w.energy) / 96, rel=1e-12)
    assert windows[-1].energy == pytest.approx(hi, rel=1e-12)


def test_derived_windows_single():
    cfg = ExperimentConfig(sizes=(96,), n_windows=1, kappa=0.5, scale_min=20.0)
    (w,) = derived_windows(cfg, 96)
    assert w.energy == pytest.approx(1.75)


def test_derived_windows_rejects_small_size():
    cfg = ExperimentConfig(sizes=(64,))
    with pytest.raises(ConfigError, match="cannot host"):
        derived_windows(cfg, 64)


def test_explicit_windows_scale_enforced():
    cfg = ExperimentConfig(sizes=(96,), trials=30, windows=(Window(2.0, 0.001),))
    with pytest.raises(ConfigError, match="below scale_min"):
        run_apriori(cfg)


# --- counting tails -----------------------------------------------------


def test_apriori_small(small_cfg):
    rep = run_apriori(small_cfg)
    assert rep.passed
    assert rep.theorem == "apriori-counting"
    assert len(rep.rows) == 2 * 4 * 5
    assert rep.config == small_cfg.to_dict()
    by_cell = {}
    for row in rep.rows:
        assert row["threshold"] == pytest.approx(row["K"] * row["scale"], rel=1e-12)
        assert row["ci_lo"] <= row["statistic"] <= row["ci_hi"]
        by_cell.setdefault((row["size"], row["energy"], row["eta"]), []).append(row["statistic"])
    assert len(by_cell) == 2 * 4
    for stats in by_cell.values():
        # one set of counts per window: the tail is nonincreasing in K
        assert all(a >= b for a, b in zip(stats, stats[1:]))
    assert rep.summary["max_reference_exceedance"] <= 0.01


@pytest.mark.parametrize(
    "runner",
    [
        pytest.param(run_apriori, id="apriori"),
        pytest.param(run_local_law, id="locallaw"),
        pytest.param(run_delocalization, id="deloc"),
        pytest.param(run_wegner, id="wegner"),
        pytest.param(run_hard_edge_scaling, id="hardedge"),
        pytest.param(lambda cfg: run_identity_suite(sizes=(8,), trials=2, seed=7), id="identities"),
        pytest.param(lambda cfg: run_hw_experiment(trials=100, size=8, deltas=(1.0, 2.0)), id="hw"),
        pytest.param(
            lambda cfg: run_projection_mass_experiment(trials=100, size=8, m_grid=(2, 4)), id="projmass"
        ),
    ],
)
def test_report_columns_come_from_rows(small_cfg, runner):
    rep = runner(small_cfg)
    for row in rep.rows:
        assert list(row) == list(rep.columns)
    assert render_csv(rep).splitlines()[0] == ",".join(rep.columns)


def test_report_config_survives_from_dict(small_cfg):
    rep = run_apriori(small_cfg)
    assert ExperimentConfig.from_dict(rep.config) == small_cfg


# --- spectra engine ------------------------------------------------------


@pytest.fixture
def draw_counter(monkeypatch):
    calls = []
    real = experiments.sample_matrix

    def counting(spec, t):
        calls.append((spec.size, spec.master_seed, t))
        return real(spec, t)

    monkeypatch.setattr(experiments, "sample_matrix", counting)
    experiments._SPECTRA.clear()
    return calls


def test_spectra_drawn_once_per_config(small_cfg, draw_counter):
    run_apriori(small_cfg)
    assert len(draw_counter) == len(small_cfg.sizes) * small_cfg.trials
    assert len(set(draw_counter)) == len(draw_counter)
    for runner in (run_local_law, run_wegner, run_hard_edge_scaling):
        runner(small_cfg)
    assert len(draw_counter) == len(small_cfg.sizes) * small_cfg.trials


def test_spectra_pass_frees_each_draw_before_its_eigensolve(small_cfg, monkeypatch):
    drawn = []
    real_draw, real_solve = experiments.sample_matrix, np.linalg.eigvalsh

    def recording(spec, t):
        sample = real_draw(spec, t)
        drawn.append(weakref.ref(sample.entries))
        return sample

    def solve(gram):
        # the solve runs beside the Gram only: the trial's X is gone
        assert drawn[-1]() is None
        return real_solve(gram)

    monkeypatch.setattr(experiments, "sample_matrix", recording)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    monkeypatch.setattr(experiments, "_SPECTRA", {})
    experiments._spectra(small_cfg)
    assert len(drawn) == len(small_cfg.sizes) * small_cfg.trials


def test_spectra_are_read_only_and_ascending(small_cfg):
    spectra = experiments._spectra(small_cfg)
    assert sorted(spectra) == sorted(small_cfg.sizes)
    for size, eigs in spectra.items():
        assert eigs.shape == (small_cfg.trials, size)
        assert eigs.dtype == np.float64
        assert not eigs.flags.writeable
        assert np.all(np.diff(eigs, axis=1) >= 0)
        assert np.all(eigs >= 0)
        with pytest.raises(ValueError):
            eigs[0, 0] = 1.0


@pytest.mark.parametrize(
    "change",
    [{"seed": 6}, {"trials": 31}, {"sizes": (96,)}, {"distribution": "uniform-symmetric"}],
)
def test_spectra_recomputed_and_old_entry_evicted(small_cfg, draw_counter, change):
    experiments._spectra(small_cfg)
    before = len(draw_counter)
    other = dataclasses.replace(small_cfg, **change)
    experiments._spectra(other)
    assert len(draw_counter) == before + len(other.sizes) * other.trials
    assert list(experiments._SPECTRA) == [
        (other.distribution, other.seed, tuple(other.sizes), other.trials)
    ]
    # fields that do not decide the draws share the pass
    experiments._spectra(dataclasses.replace(other, kappa=0.3, scale_min=30.0))
    assert len(draw_counter) == before + len(other.sizes) * other.trials


RUNNER_COMMANDS = {
    "run_apriori": "apriori",
    "run_local_law": "locallaw",
    "run_wegner": "wegner",
    "run_hard_edge_scaling": "hardedge",
    "run_delocalization": "deloc",
}


@pytest.mark.parametrize("threads", [0, -1])
@pytest.mark.parametrize(
    "runner",
    [run_apriori, run_local_law, run_wegner, run_hard_edge_scaling, run_delocalization],
)
def test_threads_below_one_rejected(small_cfg, runner, threads, tmp_path, capsys, monkeypatch):
    # the runners take no thread count; the command that reaches each one
    # rejects --threads below one before the runner is called
    import hardedge.cli as cli

    def refuse(cfg):
        raise AssertionError(f"{runner.__name__} called with threads={threads}")

    monkeypatch.setattr(cli, runner.__name__, refuse)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_cfg.to_dict()), encoding="utf-8")
    out = tmp_path / "r"
    argv = [RUNNER_COMMANDS[runner.__name__], "--config", str(config), "--threads", str(threads), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: threads:")
    assert not out.exists()


# --- local law ----------------------------------------------------------


def test_local_law_small(small_cfg):
    rep = run_local_law(small_cfg)
    assert rep.passed
    forms = {row["form"] for row in rep.rows}
    assert forms == {"transform", "count"}
    # per (size, window, form): one row per grid epsilon plus the reference
    n_eps = len(set(small_cfg.epsilon_grid) | {experiments.LOCALLAW_EPSILON})
    assert len(rep.rows) == 2 * 4 * 2 * n_eps
    assert rep.summary["max_transform_exceedance_at_reference"] <= 0.05
    for row in rep.rows:
        assert 0.0 < row["nominal_tail"]


def test_local_law_rejects_atomic_entries(small_cfg):
    cfg = dataclasses.replace(small_cfg, distribution="rademacher-pair")
    with pytest.raises(ConfigError, match="excluded"):
        run_local_law(cfg)


# --- delocalization -----------------------------------------------------


def test_delocalization_small(small_cfg):
    rep = run_delocalization(small_cfg)
    assert rep.passed
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert row["statistic"] == 0.0
        assert 1.0 < row["median_over_ln"] < 2.5
        # one band per size, down to the hard edge
        assert (row["lower_edge"], row["upper_edge"]) == (0.0, 3.5)
    sizes = [row["size"] for row in rep.rows]
    assert sizes == sorted(sizes)
    assert rep.summary["empty_window_trials"] == {str(n): 0 for n in small_cfg.sizes}


def test_delocalization_ignores_scale_min(small_cfg):
    # scale_min sets the resolution of counting windows; it means nothing for eigenvectors
    rep = run_delocalization(small_cfg)
    again = run_delocalization(dataclasses.replace(small_cfg, scale_min=500.0))
    assert again.rows == rep.rows and again.failures == rep.failures


def test_delocalization_checks_every_window_before_drawing(draw_counter):
    # N=64 is a valid size, N=1 is not: the config fails before any draw
    cfg = ExperimentConfig(sizes=(64, 1), trials=30, scale_min=0.1)
    with pytest.raises(ConfigError, match=r"^sizes\[1\]: must be >= 2 \(the statistic is divided by ln N"):
        run_delocalization(cfg)
    assert draw_counter == []


def test_delocalization_cap_failure(small_cfg, monkeypatch):
    monkeypatch.setattr(experiments, "DELOC_CAP", 0.0001)
    rep = run_delocalization(dataclasses.replace(small_cfg, sizes=(96,)))
    assert not rep.passed
    assert any("cap" in f for f in rep.failures)


def test_delocalization_empty_window_reports_nan_row(draws_above_the_band):
    rep = run_delocalization(ExperimentConfig(sizes=(2,), trials=30))
    assert not rep.passed
    assert "N=2: no trial had an eigenvalue in the band [0, 3.5]" in rep.failures
    (row,) = rep.rows
    assert row["size"] == 2 and row["trials"] == 30
    for column in ("median_max_supsq", "median_over_ln", "q95_over_ln", "max_over_ln",
                   "statistic", "ci_lo", "ci_hi"):
        assert math.isnan(row[column]), column
    assert rep.summary["medians_over_ln"] == {}
    assert rep.summary["empty_window_trials"] == {"2": 30}


def test_delocalization_rejects_atomic_entries(small_cfg):
    cfg = dataclasses.replace(small_cfg, distribution="rademacher-pair")
    with pytest.raises(ConfigError, match="excluded"):
        run_delocalization(cfg)


# --- near-zero counting ---------------------------------------------------


def test_wegner_small():
    cfg = ExperimentConfig(sizes=(128,), trials=120, seed=5, scale_min=20.0)
    rep = run_wegner(cfg)
    assert rep.passed
    assert len(rep.rows) == len(cfg.k_grid) * len(cfg.l_grid)
    by_cell = {}
    for row in rep.rows:
        by_cell.setdefault(row["K"], []).append(row["statistic"])
    for stats in by_cell.values():
        assert stats[0] > 0
        assert all(a >= b for a, b in zip(stats, stats[1:]))
    assert all(s > 0 for s in rep.summary["decay_slopes"].values())


def test_wegner_equal_hits_fail_on_strict_decay_alone(monkeypatch):
    # every trial counting 2 gives equal positive hits at L=1 and L=2: the
    # strict-decay rule names the cell, and no separate slope failure follows
    monkeypatch.setattr(
        experiments, "eigenvalue_count", lambda eigenvalues, window: np.full(len(eigenvalues), 2)
    )
    cfg = ExperimentConfig(sizes=(16,), trials=30, seed=5, k_grid=(1.0,))
    rep = run_wegner(cfg)
    assert rep.failures == ("N=16, K=1: no strict decay from L=1 to L=2",)
    assert rep.summary["decay_slopes"] == {"N=16, K=1": 0.0}


def test_wegner_rejects_atomic_entries():
    cfg = ExperimentConfig(sizes=(128,), trials=30, distribution="rademacher-pair")
    with pytest.raises(ConfigError, match="excluded"):
        run_wegner(cfg)


# --- hard edge ------------------------------------------------------------


def test_hard_edge_small(small_cfg):
    rep = run_hard_edge_scaling(small_cfg)
    assert rep.passed
    medians = [row["statistic"] for row in rep.rows]
    assert max(medians) <= 2.0 * min(medians)
    for row in rep.rows:
        assert 0.5 < row["spacing_median"] < 2.0


# --- exact identities ------------------------------------------------------


@pytest.fixture(scope="module")
def identity_report():
    return run_identity_suite(sizes=(8, 16), trials=3, seed=7)


def test_identity_suite_small(identity_report):
    rep = identity_report
    assert rep.passed
    assert len(rep.rows) == 16
    checks = {row["check"] for row in rep.rows}
    assert "interlacing_violation" in checks and len(checks) == 8
    for row in rep.rows:
        assert math.isfinite(row["statistic"])


def test_identity_suite_one_minor_svd_per_column(monkeypatch):
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    run_identity_suite(sizes=(8,), trials=2, seed=7)
    # per trial: the decomposition, then one full SVD of the stack of all 8
    # minors, shared by every column, theta, identity and the interlacing check
    assert len(calls) == 2 * (1 + 1)
    assert calls.count(False) == 0


def test_identity_suite_pools_coverage():
    # coverage counts every (trial, alpha, k) pair: one near-degenerate pair
    # at N=3 no longer fails the size on its own
    rep = run_identity_suite(sizes=(3,), trials=20, seed=1)
    assert rep.passed
    (row,) = [r for r in rep.rows if r["check"] == "coverage_fraction"]
    assert row["statistic"] == 179 / 180
    # atomic entries make exact full/minor degeneracies at N=2: still a FAIL
    rep = run_identity_suite(sizes=(2,), trials=20, seed=1, distribution="rademacher-pair")
    assert [f.split(" = ")[0] for f in rep.failures] == ["N=2: coverage_fraction"]


def test_identity_suite_rejects_zero_trials():
    with pytest.raises(ConfigError, match="trials"):
        run_identity_suite(sizes=(8,), trials=0)


@pytest.mark.parametrize(
    "runner, trials, message",
    [
        (run_hw_experiment, 0, "must be >= 100, got 0"),
        (run_hw_experiment, 99, "must be >= 100, got 99"),
        (run_hw_experiment, 400.0, "expected an integer"),
        (run_projection_mass_experiment, 0, "must be >= 1, got 0"),
        (run_projection_mass_experiment, True, "expected an integer"),
    ],
)
def test_direct_runners_reject_bad_trials(runner, trials, message):
    # trials is parsed like every other field, and before any draw
    with pytest.raises(ConfigError, match=f"^trials: {message}"):
        runner(trials=trials, size=8)


@pytest.mark.parametrize(
    "sizes, path",
    [((), "sizes"), ((0,), "sizes[0]"), ((8, 8), "sizes[1]"), ((8.5,), "sizes[0]")],
)
def test_identity_suite_rejects_bad_sizes(sizes, path):
    # the same rules as ExperimentConfig.sizes
    with pytest.raises(ConfigError) as err:
        run_identity_suite(sizes=sizes, trials=2)
    assert str(err.value).startswith(f"{path}:")


# --- tail experiments -------------------------------------------------------


def test_hw_experiment_small():
    rep = run_hw_experiment(trials=400, seed=3, size=16, deltas=(1.0, 2.0, 4.0, 8.0))
    assert rep.passed
    assert rep.summary["slope"] > 0
    assert rep.summary["normalizer"] == pytest.approx(16.0)
    stats = [row["statistic"] for row in rep.rows]
    assert all(a >= b for a, b in zip(stats, stats[1:]))


def test_hw_row_shape_is_the_fitted_shape():
    # a non-integer delta whose scalar square differs in the last bit from
    # the array square; each row must carry the shape the slope is fitted on
    deltas = (12.428327649956394, 20.0)
    rep = run_hw_experiment(size=256, trials=400, deltas=deltas)
    grid = np.asarray(deltas)
    norm = rep.summary["normalizer"]
    shapes = np.minimum(grid / math.sqrt(norm), grid**2 / norm)
    assert shapes[0] == (grid**2 / norm)[0]  # T = 256: the first row takes the delta^2/T branch
    assert [row["shape"] for row in rep.rows] == shapes.tolist()


@pytest.mark.parametrize("m_grid", [(), (9, 4), (4, 4)])
def test_projection_mass_experiment_rejects_empty_or_unsorted_grid(m_grid):
    # every entry lies in [1, size], so only the order is at fault
    with pytest.raises(ConfigError, match="^m_grid: "):
        run_projection_mass_experiment(trials=100, size=16, m_grid=m_grid)



def test_projection_mass_experiment_small():
    rep = run_projection_mass_experiment(trials=4000, seed=3, size=32, m_grid=(4, 9, 16))
    assert rep.passed
    ratios = rep.summary["ratios"]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    for row, ratio in zip(rep.rows, ratios):
        assert ratio == pytest.approx(
            -math.log(row["statistic"]) / row["sqrt_m"], rel=1e-12
        )
