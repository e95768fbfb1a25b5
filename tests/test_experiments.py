"""Config validation and experiment runner behaviour at desk scale.

Runner checks here use small sizes and trial counts with fixed seeds; the
full-scale sweeps live in the acceptance tests.  Statistical verdicts are
deterministic because every runner derives its stream from (seed, size).
"""

import ast
import dataclasses
import json
import math
import re
import warnings
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


# the desk config on which each verdict rule is made to fire
RULES = ExperimentConfig(sizes=(16, 32), trials=30, scale_min=2.0)


@pytest.fixture
def redraw(monkeypatch):
    """redraw(f) makes f(spec, t, honest draw) each trial's draw, behind an empty spectra cache."""
    real = experiments.sample_matrix
    monkeypatch.setattr(experiments, "_SPECTRA", {})

    def install(f):
        monkeypatch.setattr(experiments, "sample_matrix", lambda spec, t: f(spec, t, real(spec, t)))

    return install


def _two_identity(sample):
    return dataclasses.replace(sample, entries=2.0 * np.eye(sample.size, dtype=complex))


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
        ("scale_min", -0.0),
        ("scale_min", math.inf),
        ("kappa", 0.0),
        ("kappa", 1.0),
        ("seed", -1),
        ("seed", 2**64),
        ("scale_min", 0.0),
        pytest.param("windows", (), id="windows-value18"),
        pytest.param("sizes[1]", (128, 128), id="sizes[1]-value19"),
        pytest.param("sizes[2]", (64, 96, 64), id="sizes[2]-value20"),
        pytest.param("sizes[0]", (64.0,), id="sizes[0]-value21"),
        ("trials", 30.5),
        ("seed", 1.5),
        ("scale_min", False),
        ("scale_min", True),
    ],
)
def test_config_rejects_and_names_the_field(field, value):
    # field is the path the message starts with: a config field, or one entry
    # of it; an entry's own rule (type, finiteness, range) names the entry,
    # a rule over the whole list (nonempty) names the field.  A
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
    # no report reads the log-power exponent b, so it is no config key
    with pytest.raises(ConfigError, match="^b: unknown config key"):
        ExperimentConfig.from_dict({"b": 4})
    # nor are the grids the verdicts read: they are module constants
    with pytest.raises(ConfigError, match="^n_windows: unknown config key"):
        ExperimentConfig.from_dict({"n_windows": 4})
    with pytest.raises(ConfigError, match="^epsilon_grid: unknown config key"):
        ExperimentConfig.from_dict({"epsilon_grid": [0.15]})
    # wegner's K and L grids are module constants as well
    with pytest.raises(ConfigError, match="^k_grid: unknown config key"):
        ExperimentConfig.from_dict({"k_grid": [1.0]})
    with pytest.raises(ConfigError, match="^l_grid: unknown config key"):
        ExperimentConfig.from_dict({"l_grid": [2, 3, 4, 5]})


def test_verdict_grids_are_no_config_fields():
    # apriori's K grid, wegner's K and L grids, locallaw's epsilon grid and
    # the window count are module constants
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "sizes", "trials", "distribution", "kappa", "seed", "scale_min", "windows",
    ]
    with pytest.raises(TypeError):
        ExperimentConfig(n_windows=4)
    with pytest.raises(TypeError):
        ExperimentConfig(epsilon_grid=(0.15,))
    with pytest.raises(TypeError):
        ExperimentConfig(k_grid=(1.0,))
    with pytest.raises(TypeError):
        ExperimentConfig(l_grid=(2, 3, 4, 5))


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
        # Python counts a bool as an int; JSON does not
        ({"seed": True}, "seed"),
        ({"trials": 30.0}, "trials"),
        pytest.param({"windows": [{"energy": 2.0, "eta": None}]}, "windows[0].eta", id="data4-windows[0].eta"),
        # Python's json reads NaN and Infinity as floats
        pytest.param({"scale_min": -math.inf}, "scale_min", id="data7-scale_min"),
        pytest.param({"windows": [{"energy": 2.0, "eta": math.nan}]}, "windows[0].eta", id="data8-windows[0].eta"),
        pytest.param({"scale_min": 10**400}, "scale_min", id="data9-scale_min"),
    ],
)
def test_from_dict_accepts_only_json_numbers(data, path):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(data)
    assert str(err.value).startswith(f"{path}: ")


def test_from_dict_coerces_lists():
    cfg = ExperimentConfig.from_dict({"sizes": [64, 96], "windows": [{"energy": 0.1, "eta": 0.2}]})
    assert cfg.sizes == (64, 96)
    assert cfg.windows == (Window(0.1, 0.2),)


def test_every_construction_path_normalises():
    # lists become tuples and ints in number fields floats, however the config is built
    windows = [{"energy": 1, "eta": 2}]
    canonical = ExperimentConfig(sizes=(64, 96), windows=(Window(1.0, 2.0),), scale_min=20.0)
    for cfg in (
        ExperimentConfig(sizes=[64, 96], windows=windows, scale_min=20),
        ExperimentConfig.from_dict({"sizes": [64, 96], "windows": windows, "scale_min": 20}),
        dataclasses.replace(ExperimentConfig(), sizes=[64, 96], windows=windows, scale_min=20),
    ):
        assert cfg == canonical and hash(cfg) == hash(canonical)
        assert type(cfg.scale_min) is float
        assert {type(x) for w in cfg.windows for x in (w.energy, w.eta)} == {float}


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


def test_readme_constants_table_matches_the_module():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Experiment configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, re.M)
    assert rows
    for name, value in rows:
        assert getattr(experiments, name) == ast.literal_eval(value.strip()), name


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    ns = {}
    exec(block, ns)
    # the two facts the block's comments state
    assert ns["fixed_point_residual"](ns["delta"], ns["point"]) < 1e-12
    assert ns["eigenvalue_count"](ns["eigs"], ns["w"]) <= ns["counting_bound"](ns["eigs"], ns["w"])


# --- window ladder ------------------------------------------------------


def test_derived_windows_formula():
    cfg = ExperimentConfig(sizes=(96,), scale_min=20.0, kappa=0.5)
    windows = derived_windows(cfg, 96)
    lo = 2.0 * (20.0 / (0.5 * 96)) ** 2
    hi = 3.5
    ratio = (hi / lo) ** (1.0 / 3.0)
    assert len(windows) == experiments.N_WINDOWS == 4
    for j, w in enumerate(windows):
        assert w.energy == pytest.approx(lo * ratio**j, rel=1e-12)
        assert w.eta == pytest.approx(20.0 * math.sqrt(w.energy) / 96, rel=1e-12)
    assert windows[-1].energy == pytest.approx(hi, rel=1e-12)


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


def test_apriori_verdict_can_fail_whatever_k_grid_says(monkeypatch):
    # apriori reads its own K grid, not wegner's, so its reference cells exist
    # and its tail bound is judged even when wegner's grid holds one K
    monkeypatch.setattr(experiments, "WEGNER_K_GRID", (1.0,))
    cfg = ExperimentConfig(sizes=(256,), trials=30, seed=105)
    rep = run_apriori(cfg)
    assert sorted({row["K"] for row in rep.rows}) == list(experiments.APRIORI_K_GRID)
    assert rep.summary["cells"] == experiments.N_WINDOWS * len(experiments.APRIORI_K_GRID)
    assert isinstance(rep.summary["max_reference_exceedance"], float)
    monkeypatch.setattr(experiments, "APRIORI_TAIL", -1.0)
    assert not run_apriori(cfg).passed


def test_apriori_tail_rule_line(monkeypatch):
    # no desk draw puts a count at K=4 times the scale, so only a negative bound shows the line
    monkeypatch.setattr(experiments, "APRIORI_TAIL", -1.0)
    rep = run_apriori(dataclasses.replace(RULES, sizes=(16,), windows=(Window(2.0, 0.5),)))
    assert rep.failures == ("N=16, window E=2, eta=0.5: exceedance 0 at K=4.0 above -1.0",)


@pytest.mark.parametrize(
    "runner",
    [
        pytest.param(run_apriori, id="apriori"),
        pytest.param(run_local_law, id="locallaw"),
        pytest.param(run_delocalization, id="deloc"),
        pytest.param(run_wegner, id="wegner"),
        pytest.param(run_hard_edge_scaling, id="hardedge"),
        pytest.param(lambda cfg: run_identity_suite(sizes=(8,), trials=2, seed=7), id="identities"),
        pytest.param(lambda cfg: run_hw_experiment(trials=100), id="hw"),
        pytest.param(lambda cfg: run_projection_mass_experiment(trials=100), id="projmass"),
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


def _record_draws_freed_before(routine, monkeypatch):
    """Weak references to every X drawn; np.linalg.<routine> asserts that the
    trial's X is gone when it is called."""
    drawn = []
    real_draw, real_solve = experiments.sample_matrix, getattr(np.linalg, routine)

    def recording(spec, t):
        sample = real_draw(spec, t)
        drawn.append(weakref.ref(sample.entries))
        return sample

    def solve(gram):
        # the solve runs beside the Gram only: the trial's X is gone
        assert drawn[-1]() is None
        return real_solve(gram)

    monkeypatch.setattr(experiments, "sample_matrix", recording)
    monkeypatch.setattr(np.linalg, routine, solve)
    return drawn


def test_spectra_pass_frees_each_draw_before_its_eigensolve(small_cfg, monkeypatch):
    drawn = _record_draws_freed_before("eigvalsh", monkeypatch)
    monkeypatch.setattr(experiments, "_SPECTRA", {})
    experiments._spectra(small_cfg)
    assert len(drawn) == len(small_cfg.sizes) * small_cfg.trials


def test_deloc_frees_each_draw_before_its_eigensolve(small_cfg, monkeypatch):
    drawn = _record_draws_freed_before("eigh", monkeypatch)
    run_delocalization(small_cfg)
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
    # per (size, window, form): one row per grid epsilon, the reference among them
    assert experiments.LOCALLAW_EPSILON in experiments.LOCALLAW_EPSILON_GRID
    assert len(rep.rows) == 2 * experiments.N_WINDOWS * 2 * len(experiments.LOCALLAW_EPSILON_GRID)
    assert rep.summary["max_transform_exceedance_at_reference"] <= 0.05


def test_local_law_rejects_atomic_entries(small_cfg):
    cfg = dataclasses.replace(small_cfg, distribution="rademacher-pair")
    with pytest.raises(ConfigError, match="excluded"):
        run_local_law(cfg)


def test_local_law_size_trend_rule_line(redraw):
    # twice the variance at the larger size only: the transform tail grows with N
    def doubled(spec, t, sample):
        if spec.size == 32:
            return dataclasses.replace(sample, entries=math.sqrt(2.0) * sample.entries)
        return sample

    redraw(doubled)
    rep = run_local_law(dataclasses.replace(RULES, windows=(Window(2.0, 0.5),)))
    assert "window E=2: exceedance grew from N=16 (0.03333) to N=32 (1) beyond interval slack" in rep.failures


def test_local_law_window_near_float_max_runs_without_warning():
    # E + eta overflows, so each 1/(s - theta) rounds to 0 inside an overflowing complex divide
    cfg = ExperimentConfig.from_dict(
        {"sizes": [8, 16], "trials": 30, "windows": [{"energy": 1e308, "eta": 1e308}]}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_local_law(cfg)
    assert rep.passed


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


def test_delocalization_partly_empty_rule_line(redraw):
    # X = 2 I on even trials: X*X = 4 I has no eigenvalue in the band [0, 3.5]
    redraw(lambda spec, t, sample: _two_identity(sample) if t % 2 == 0 else sample)
    rep = run_delocalization(RULES)
    assert rep.failures == (
        "N=16: 15 of 30 trials had no eigenvalues in the band",
        "N=32: 15 of 30 trials had no eigenvalues in the band",
    )


def test_delocalization_spread_rule_line(monkeypatch):
    monkeypatch.setattr(experiments, "DELOC_RATIO_BAND", 1.04)
    rep = run_delocalization(RULES)
    assert rep.failures == ("median(max N*||u||_inf^2)/ln N spread 1.05 across sizes exceeds band 1.04",)


def test_delocalization_rejects_atomic_entries(small_cfg):
    cfg = dataclasses.replace(small_cfg, distribution="rademacher-pair")
    with pytest.raises(ConfigError, match="excluded"):
        run_delocalization(cfg)


# --- near-zero counting ---------------------------------------------------


def test_wegner_small():
    cfg = ExperimentConfig(sizes=(128,), trials=120, seed=5, scale_min=20.0)
    rep = run_wegner(cfg)
    assert rep.passed
    assert len(rep.rows) == len(experiments.WEGNER_K_GRID) * len(experiments.WEGNER_L_GRID)
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
    monkeypatch.setattr(experiments, "WEGNER_K_GRID", (1.0,))
    cfg = ExperimentConfig(sizes=(16,), trials=30, seed=5)
    rep = run_wegner(cfg)
    assert rep.failures == ("N=16, K=1: no strict decay from L=1 to L=2",)
    assert rep.summary["decay_slopes"] == {"N=16, K=1": 0.0}


def test_wegner_single_hit_at_the_last_positive_level_passes(monkeypatch):
    # hits 30, 1, 0, 0, 0 at L=1..5: one trial counts 2, the rest count 1.  A
    # single hit at the last level the trials resolve is a limit of the trial
    # count (P(count >= 3) is about 8e-9 at N=256), not a failure
    monkeypatch.setattr(
        experiments,
        "eigenvalue_count",
        lambda eigenvalues, window: np.where(np.arange(len(eigenvalues)) == 0, 2, 1),
    )
    monkeypatch.setattr(experiments, "WEGNER_K_GRID", (1.0,))
    cfg = ExperimentConfig(sizes=(16,), trials=30, seed=5)
    rep = run_wegner(cfg)
    assert [round(row["statistic"] * row["trials"]) for row in rep.rows] == [30, 1, 0, 0, 0]
    assert rep.failures == ()


def test_wegner_first_level_rule_line(redraw):
    # X = 2 I: every eigenvalue is 4, so no near-zero window holds one
    redraw(lambda spec, t, sample: _two_identity(sample))
    rep = run_wegner(RULES)
    assert rep.failures == tuple(
        f"N={n}, K={k:.6g}: first level L=1 already has zero hits"
        for n in RULES.sizes
        for k in experiments.WEGNER_K_GRID
    )


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


def test_hard_edge_spacing_rule_line(monkeypatch):
    monkeypatch.setattr(experiments, "SPACING_HI", 1.0)
    rep = run_hard_edge_scaling(RULES)
    assert rep.failures == ("N=32: central spacing ratio 1.096 outside (0.5, 1.0)",)


def test_hard_edge_median_spread_rule_line(monkeypatch):
    monkeypatch.setattr(experiments, "HARDEDGE_MEDIAN_FACTOR", 1.4)
    rep = run_hard_edge_scaling(RULES)
    assert rep.failures == ("N^2*s_1 medians spread by factor 1.44 > 1.4 across sizes",)


def test_central_gaps_is_the_mean_of_the_slice_gaps():
    spectra = experiments._spectra(ExperimentConfig(sizes=(8, 128), trials=200, seed=3))
    for size, rtol in ((128, 0.0), (8, 1e-15)):
        block = spectra[size]
        expected = []
        for eigs in block:
            center = int(np.argmin(np.abs(eigs - 2.0)))
            expected.append(np.mean(np.diff(eigs[max(0, center - 5) : center + 6])))
        got = experiments._central_gaps(block)
        if rtol == 0.0:
            # the span over the gap count is the slice mean bit for bit
            assert np.array_equal(got, expected), size
        else:
            # eigenvalues below 1 at N=8: the telescoped sum rounds differently
            np.testing.assert_allclose(got, expected, rtol=rtol, atol=0.0)


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
    # the Gram eigensolves keep every residual two decades inside its
    # tolerance at the benchmark's identity config
    residuals = {"leave_one_out_vs_dense", "schur_vs_dense", "mean_diag_vs_transform",
                 "interlacing_violation", "eigenvector_identity_residual", "trace_identity"}
    for seed in (1, 5):
        rows = [r for r in run_identity_suite(sizes=(16, 32), trials=20, seed=seed).rows if r["check"] in residuals]
        assert len(rows) == 2 * len(residuals)
        for row in rows:
            assert row["statistic"] <= 1e-2 * row["tolerance"], (seed, row)


def test_identity_suite_one_minor_svd_per_column(monkeypatch):
    calls = []
    for routine in ("svd", "eigh"):
        original = getattr(np.linalg, routine)

        def counting(*args, routine=routine, original=original, **kwargs):
            calls.append(routine)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, routine, counting)
    run_identity_suite(sizes=(8,), trials=2, seed=7)
    # per trial: the decomposition, then one eigensolve of the stack of all 8
    # minor Grams, shared by every column, theta, identity and the
    # interlacing check; no SVD
    assert calls == ["eigh", "eigh"] * 2


def test_identity_suite_pools_coverage(monkeypatch):
    # coverage counts every (trial, alpha, k) pair: one near-degenerate pair
    # at N=3 no longer fails the size on its own
    rep = run_identity_suite(sizes=(3,), trials=20, seed=1)
    assert rep.passed
    (row,) = [r for r in rep.rows if r["check"] == "coverage_fraction"]
    assert row["statistic"] == 179 / 180
    # atomic entries make exact full/minor degeneracies at N=2: still a FAIL.
    # identities draws complex-gaussian only, so the rademacher draws of the
    # same (seed, size, trial) keys come in through sample_matrix
    rademacher = "rademacher-pair"
    draw = experiments.sample_matrix
    monkeypatch.setattr(
        experiments,
        "sample_matrix",
        lambda spec, trial: draw(dataclasses.replace(spec, distribution=rademacher), trial),
    )
    rep = run_identity_suite(sizes=(2,), trials=20, seed=1)
    assert [f.split(" = ")[0] for f in rep.failures] == ["N=2: coverage_fraction"]


def test_identity_suite_tolerance_rule_line(monkeypatch):
    # eigenvalues shifted by 1e-6 move the trace by N * 1e-6 and break the
    # two checks that read them beside the minors
    decompose = experiments.decompose

    def shifted(sample):
        d = decompose(sample)
        return d._replace(eigenvalues=d.eigenvalues + 1e-6)

    monkeypatch.setattr(experiments, "decompose", shifted)
    rep = run_identity_suite(sizes=(16, 32), trials=30)
    assert [f.split(" = ")[0] for f in rep.failures] == [
        f"N={n}: {check}"
        for n in (16, 32)
        for check in ("mean_diag_vs_transform", "eigenvector_identity_residual", "trace_identity")
    ]
    assert "N=16: trace_identity = 1.6e-05 vs tolerance 1.6e-09" in rep.failures


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
        runner(trials=trials)


@pytest.mark.parametrize(
    "sizes, path",
    [((), "sizes"), ((0,), "sizes[0]"), ((8, 8), "sizes[1]"), ((8.5,), "sizes[0]")],
)
def test_identity_suite_rejects_bad_sizes(sizes, path):
    # the same rules as ExperimentConfig.sizes
    with pytest.raises(ConfigError) as err:
        run_identity_suite(sizes=sizes, trials=2)
    assert str(err.value).startswith(f"{path}:")


@pytest.mark.parametrize(
    "runner",
    [
        pytest.param(lambda: run_hw_experiment(distribution="nope", trials=100), id="hw"),
        pytest.param(lambda: run_projection_mass_experiment(distribution="nope", trials=100), id="projmass"),
    ],
)
def test_direct_runners_name_a_bad_distribution(runner):
    with pytest.raises(ConfigError, match="^distribution: unknown kind 'nope'"):
        runner()


# --- tail experiments -------------------------------------------------------


def test_hw_experiment_small():
    rep = run_hw_experiment(trials=400, seed=3)
    assert rep.passed
    assert rep.summary["slope"] > 0
    assert rep.summary["normalizer"] == 64.0
    stats = [row["statistic"] for row in rep.rows]
    assert all(a >= b for a, b in zip(stats, stats[1:]))


def test_hw_row_shape_is_the_fitted_shape():
    # each row must carry the shape the slope is fitted on, min(delta/sqrt(T), delta^2/T)
    rep = run_hw_experiment(trials=400)
    grid = np.asarray(experiments._HW_DELTAS)
    norm = rep.summary["normalizer"]
    shapes = np.minimum(grid / math.sqrt(norm), grid**2 / norm)
    assert shapes[0] == (grid**2 / norm)[0]  # T = 64: the first row takes the delta^2/T branch
    assert [row["delta"] for row in rep.rows] == grid.tolist()
    assert [row["shape"] for row in rep.rows] == shapes.tolist()


def test_projection_mass_experiment_small():
    rep = run_projection_mass_experiment(seed=3)
    assert rep.passed
    ratios = rep.summary["ratios"]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    for row, ratio in zip(rep.rows, ratios):
        assert ratio == pytest.approx(
            -math.log(row["statistic"]) / row["sqrt_m"], rel=1e-12
        )
