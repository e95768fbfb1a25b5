"""Command-line surface: output formats, exit codes, artifact round-trips.

Everything drives hardedge.cli.main directly with argv lists; exit code 0 is
success, 1 a failed experiment verdict, 2 a usage or config error.
"""

import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardedge
from hardedge import cli, experiments, file_digest
from hardedge.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- mp ----------------------------------------------------------------


def test_mp_single_value_is_bare(capsys):
    code, out, _ = run(capsys, ["mp", "--density", "2"])
    assert code == 0
    assert out == "0.159155\n"


def _fresh_python(probe: str) -> str:
    """Standard output of probe run in a new interpreter that imports this hardedge."""
    src = str(Path(hardedge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_cli_import_defers_scipy_integrate(capsys):
    # only the quadrature oracles need scipy.integrate; importing the CLI must not load it
    assert _fresh_python("import sys, hardedge.cli; print('scipy.integrate' in sys.modules)") == "False\n"
    code, out, _ = run(capsys, ["mp", "--moment", "5"])
    assert code == 0
    assert out == "42\n"


def test_cli_and_deloc_do_not_load_scipy():
    # scipy.linalg alone costs about 0.3 s and 23 MB at import; the CLI and
    # the delocalization path run on numpy
    probe = (
        "import sys, hardedge.cli\n"
        "from hardedge.experiments import ExperimentConfig, run_delocalization\n"
        "run_delocalization(ExperimentConfig(sizes=(64,), trials=30, scale_min=5.0))\n"
        "print('scipy' in sys.modules)"
    )
    assert _fresh_python(probe) == "False\n"


def test_package_runs_without_scipy():
    # scipy is a test dependency only: no hardedge module imports it, and
    # the mp, deloc, hw and projmass paths run on numpy alone
    probe = (
        "import importlib, pkgutil, sys, hardedge\n"
        "for info in pkgutil.iter_modules(hardedge.__path__):\n"
        "    importlib.import_module('hardedge.' + info.name)\n"
        "from hardedge.cli import main\n"
        "from hardedge.experiments import ExperimentConfig, run_delocalization\n"
        "assert main(['mp', '--moment', '5']) == 0\n"
        "run_delocalization(ExperimentConfig(sizes=(64,), trials=30, scale_min=5.0))\n"
        "hardedge.run_hw_experiment(trials=100)\n"
        "hardedge.run_projection_mass_experiment(trials=200)\n"
        "print('scipy' in sys.modules)"
    )
    assert _fresh_python(probe) == "42\nFalse\n"


def test_mp_multiple_values_are_labelled(capsys):
    code, out, _ = run(capsys, ["mp", "--density", "2", "--moment", "2"])
    assert code == 0
    assert out.splitlines() == ["density 0.159155", "moment 2"]


def test_mp_cdf_and_mass(capsys):
    code, out, _ = run(capsys, ["mp", "--cdf", "2"])
    assert (code, out) == (0, "0.81831\n")
    code, out, _ = run(capsys, ["mp", "--mass", "2", "2"])
    assert (code, out) == (0, "0.18169\n")


def test_mp_stieltjes_format(capsys):
    code, out, _ = run(capsys, ["mp", "--stieltjes", "2", "0.1"])
    assert code == 0
    assert out.endswith("i\n")
    assert "+" in out or out.count("-") >= 1


def test_mp_density_at_a_subnormal_energy(capsys):
    # (4-E)/E overflows at E = 1e-320; the density there is finite
    assert run(capsys, ["mp", "--density", "1e-320"])[:2] == (0, "3.18312e+159\n")


def test_mp_mass_beyond_the_support(capsys):
    # E + eta overflows to inf; the window lies beyond the support, so its mass is 0
    assert run(capsys, ["mp", "--mass", "1e308", "1e308"])[:2] == (0, "0\n")


def test_mp_stieltjes_at_huge_theta(capsys):
    # about -1/theta, subnormal but finite and in the upper half plane
    assert run(capsys, ["mp", "--stieltjes", "1e308", "1e308"])[:2] == (0, "-5e-309+5e-309i\n")


def test_mp_cdf_and_mass_at_a_tiny_energy(capsys):
    # 1 - E/2 rounds to 1 at E = 1e-20; the CDF there is 2 sqrt(E)/pi to leading order
    assert run(capsys, ["mp", "--cdf", "1e-20"])[:2] == (0, "6.3662e-11\n")
    assert run(capsys, ["mp", "--mass", "0", "1e-20"])[:2] == (0, "6.3662e-11\n")


@pytest.mark.parametrize(
    "argv, printed",
    [
        pytest.param(["mp", "--cdf", "-1e-3"], "0\n", id="cdf"),
        pytest.param(["mp", "--stieltjes", "-1e2", "1e-3"], "0.00990195+9.80581e-08i\n", id="stieltjes"),
    ],
)
def test_mp_reads_negative_numbers_with_an_exponent(capsys, argv, printed):
    # argparse's own negative-number pattern has no exponent: "-1e-3" was a flag
    assert run(capsys, argv)[:2] == (0, printed)


def test_mp_stieltjes_at_subnormal_theta(capsys):
    # 4/theta overflows at |theta| = 1e-310; the transform is about 1/sqrt(-theta)
    assert run(capsys, ["mp", "--stieltjes", "0", "1e-310"])[:2] == (0, "7.07107e+154+7.07107e+154i\n")


def test_mp_stieltjes_at_an_underflowing_imaginary_part(capsys):
    # Im m is about 1e-916 there, and its lower bound eta / (|theta| + 4)^2 underflows too
    assert run(capsys, ["mp", "--stieltjes", "-1e308", "1e-300"])[:2] == (0, "1e-308+0i\n")


def test_mp_bounds_line(capsys):
    code, out, _ = run(capsys, ["mp", "--bounds", "2", "0.1"])
    assert code == 0
    assert out.startswith("all_ok=True ")
    assert "im_margin=" in out


def test_mp_without_quantity_errors(capsys):
    code, _, err = run(capsys, ["mp"])
    assert code == 2
    assert "request at least one quantity" in err


def test_mp_moment_prints_the_catalan_number(capsys):
    # C_15 = 9694845 is a tie for %.6g: a moment one ulp high would print 9.69485e+06
    for k, text in ((0, "1"), (3, "5"), (15, "9.69484e+06"), (30, "3.81499e+15")):
        assert run(capsys, ["mp", "--moment", str(k)])[:2] == (0, f"{text}\n")


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["mp", "--stieltjes", "2", "0"], "error: stieltjes: "),
        (["mp", "--bounds", "1e308", "1e308"], "error: bounds: "),
        (["mp", "--moment", "600"], "error: moment: "),
        (["mp", "--moment", "-1"], "error: moment: "),
        (["mp", "--moment", str(10**30)], "error: moment: "),
        (["mp", "--mass", "2", "0"], "error: mass: "),
        (["mp", "--density", "nan"], "error: density: "),
        # a fixed id, so adding or removing a row above leaves it named
        pytest.param(["mp", "--bounds", "1e-170", "1e-170"], "error: bounds: ", id="argv11-error: bounds: "),
    ],
)
def test_mp_bad_input_exits_2_and_names_the_flag(capsys, argv, prefix):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(prefix)


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["mp", "--nope"])[0] == 2
    assert run(capsys, ["not-a-command"])[0] == 2
    out = tmp_path / "draw.bin"
    code, _, err = run(capsys, ["sample", "--n", "4", "--out", str(out)])
    assert code == 2
    assert "invalid choice: 'sample'" in err
    assert not out.exists()


def test_readme_command_table_lists_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("```text\n", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in table.splitlines()]
    (subs,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(listed) == sorted(subs.choices)


# --- experiments -------------------------------------------------------


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


BASE = {"sizes": [96], "trials": 30, "seed": 5, "scale_min": 20.0}


def test_apriori_pass_writes_reports(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    outdir = tmp_path / "reports"
    code, out, _ = run(capsys, ["apriori", "--config", cfg, "--out", str(outdir)])
    assert code == 0
    assert "apriori-counting: PASS (20 rows)" in out
    data = json.loads((outdir / "apriori-counting.json").read_text())
    assert data["passed"] is True
    assert data["config"]["seed"] == 5
    assert (outdir / "apriori-counting.csv").exists()
    assert (outdir / "manifest.json").exists()


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    outdir = tmp_path / "reports"
    code, _, _ = run(
        capsys, ["apriori", "--config", cfg, "--seed", "6", "--out", str(outdir)]
    )
    assert code == 0
    data = json.loads((outdir / "apriori-counting.json").read_text())
    assert data["config"]["seed"] == 6


def test_failed_verdict_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "DELOC_CAP", 0.0001)
    cfg = write_config(tmp_path, BASE)
    outdir = tmp_path / "reports"
    code, out, _ = run(capsys, ["deloc", "--config", cfg, "--out", str(outdir)])
    assert code == 1
    assert "delocalization: FAIL" in out
    assert any(line.startswith("FAIL ") for line in out.splitlines())
    data = json.loads((outdir / "delocalization.json").read_text())
    assert data["passed"] is False


def test_deloc_empty_window_exits_1_with_nan_row(tmp_path, capsys, draws_above_the_band):
    cfg = write_config(tmp_path, {"sizes": [2], "trials": 30})
    outdir = tmp_path / "reports"
    code, out, _ = run(capsys, ["deloc", "--config", cfg, "--out", str(outdir)])
    assert code == 1
    assert any(line.startswith("FAIL N=2: no trial") for line in out.splitlines())
    data = json.loads((outdir / "delocalization.json").read_text())
    assert data["rows"][0]["median_over_ln"] == "nan"
    assert data["summary"]["empty_window_trials"] == {"2": 30}


@pytest.mark.parametrize(
    "command, data",
    [
        # ln 1 = 0 would divide the statistic by zero
        ("deloc", {"sizes": [1, 64], "trials": 30, "scale_min": 0.1}),
        # one eigenvalue leaves no gap for the central spacing
        ("hardedge", {"sizes": [1, 2], "trials": 30}),
    ],
    ids=["deloc", "hardedge"],
)
def test_n1_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, command, data):
    monkeypatch.setattr(experiments, "sample_matrix", lambda spec, t: pytest.fail(f"drew N={spec.size}"))
    monkeypatch.setattr(experiments, "_SPECTRA", {})
    outdir = tmp_path / "reports"
    code, out, err = run(capsys, [command, "--config", write_config(tmp_path, data), "--out", str(outdir)])
    assert code == 2
    assert err.startswith("config error: sizes[0]: must be >= 2 (")
    assert out == "" and not outdir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sizes", [[1, 2], [2, 3]], ids=["sizes-1-2", "sizes-2-3"])
@pytest.mark.parametrize("command", ["apriori", "locallaw", "wegner", "hardedge", "deloc", "all"])
def test_config_commands_at_tiny_sizes(tmp_path, capsys, command, sizes):
    # a verdict, or one config error line naming sizes; never a traceback or a warning
    cfg = write_config(tmp_path, {"sizes": sizes, "trials": 30})
    code, _, err = run(capsys, [command, "--config", cfg, "--out", str(tmp_path / "r")])
    if code == 2:
        assert err.startswith("config error: sizes") and err.count("\n") == 1
    else:
        assert code in (0, 1) and err == ""


def test_config_error_exits_2_and_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BASE, "kappa": 1.5})
    code, _, err = run(capsys, ["apriori", "--config", cfg])
    assert code == 2
    assert err.startswith("config error: kappa:")


@pytest.mark.parametrize(
    "key, value, path",
    [
        ("trials", None, "trials"),
        ("sizes", ["a"], "sizes[0]"),
        ("seed", 1.5, "seed"),
        ("scale_min", "50", "scale_min"),
        ("windows", [{"energy": "2", "eta": 0.1}], "windows[0].energy"),
        ("thresholds", {"deloc_cap": 15.0}, "thresholds"),
        # like thresholds, the log-power exponent b is no config key: no report reads it
        ("b", 4, "b"),
        # nor are the verdict grids: apriori's K, locallaw's epsilon, the window count
        ("n_windows", 4, "n_windows"),
        pytest.param("epsilon_grid", [0.15], "epsilon_grid", id="epsilon_grid-value9-epsilon_grid"),
    ],
)
def test_config_of_wrong_json_type_exits_2_and_names_field(tmp_path, capsys, key, value, path):
    cfg = write_config(tmp_path, {**BASE, key: value})
    code, out, err = run(capsys, ["hardedge", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 2
    assert err.startswith(f"config error: {path}: ")
    assert not (tmp_path / "r").exists()


def test_zero_energy_window_exits_2_and_names_it(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BASE, "windows": [{"energy": 0.0, "eta": 0.1}]})
    for command in ("apriori", "locallaw"):
        code, _, err = run(capsys, [command, "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        assert err.startswith("config error: windows[0]: energy must be > 0")
    assert not (tmp_path / "r").exists()


# argparse's message for a flag the command does not have
_REFUSED = "hardedge: error: unrecognized arguments: "


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["identities", "--n", "0"], "config error: sizes[0]: "),
        (["identities", "--n", "8", "8"], "config error: sizes[1]: "),
        # hw runs on the identity of size 64 over a fixed delta grid, and
        # projmass at size 64 over a fixed m grid: their old flags are refused
        (["hw", "--deltas", "1"], _REFUSED + "--deltas 1"),
        (["hw", "--size", "64"], _REFUSED + "--size 64"),
        (["projmass", "--size", "64"], _REFUSED + "--size 64"),
        (["hw", "--seed", "-1"], "config error: seed: "),
        (["projmass", "--seed", "-1"], "config error: seed: "),
        (["identities", "--seed", "-1"], "config error: seed: "),
        (["hw", "--spectrum", "1"], _REFUSED + "--spectrum 1"),
        (["projmass", "--m-grid", "4"], _REFUSED + "--m-grid 4"),
        # the trials rows carry fixed ids, so adding or removing a row above leaves them named
        pytest.param(["hw", "--trials", "0"], "config error: trials: must be >= 100",
                     id="argv14-config error: trials: must be >= 100"),
        pytest.param(["hw", "--trials", "99"], "config error: trials: must be >= 100",
                     id="argv15-config error: trials: must be >= 100"),
        pytest.param(["projmass", "--trials", "0"], "config error: trials: must be >= 1",
                     id="argv16-config error: trials: must be >= 1"),
        # identities draws complex-gaussian entries only
        pytest.param(["identities", "--dist", "uniform-symmetric"], _REFUSED + "--dist uniform-symmetric",
                     id="argv17-identities --dist"),
    ],
)
def test_direct_command_bad_grid_exits_2_and_names_it(tmp_path, capsys, argv, prefix):
    # argv's own flags come last, so a --trials case overrides the valid 200;
    # argparse prints its usage before its error, so the message is the last line
    command, *flags = argv
    code, _, err = run(capsys, [command, "--trials", "200", *flags, "--out", str(tmp_path / "r")])
    assert code == 2
    assert err.splitlines()[-1].startswith(prefix)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["hw", "projmass", "identities"])
def test_direct_flags_are_the_runner_parameters(command):
    # a flag without a parameter, or a parameter without a flag, is an option
    # only one side of the command line can reach
    parser = cli._build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest for a in subs.choices[command]._actions if not isinstance(a, argparse._HelpAction)}
    runner = cli._direct_experiments()[command]
    assert flags == set(inspect.signature(runner).parameters) | {"out"}


def test_all_matches_single_commands_and_merges_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, _ = run(capsys, ["all", "--config", cfg, "--out", str(tmp_path / "all")])
    verdicts = [line.split(":")[0] for line in out.splitlines() if not line.startswith("FAIL ")]
    assert verdicts == ["apriori-counting", "local-law", "near-zero-counting", "hard-edge-scaling"]
    single_codes = []
    experiments._SPECTRA.clear()  # as in a fresh process per single command
    for name in ("apriori", "locallaw", "wegner", "hardedge"):
        single_codes.append(run(capsys, [name, "--config", cfg, "--out", str(tmp_path / name)])[0])
        (report,) = (tmp_path / name).glob("*.csv")
        for suffix in (".json", ".csv"):
            path = report.with_suffix(suffix)
            assert file_digest(tmp_path / "all" / path.name) == file_digest(path)
    assert code == max(single_codes)
    manifest = json.loads((tmp_path / "all" / "manifest.json").read_text())
    assert len(manifest["artifacts"]) == 8
    for name, digest in manifest["artifacts"].items():
        assert file_digest(tmp_path / "all" / name) == digest


def test_experiment_commands_call_the_current_module_attribute(tmp_path, capsys, monkeypatch):
    import hardedge.cli as cli

    seen = []
    real = cli.run_wegner

    def recording(cfg):
        seen.append(cfg.seed)
        return real(cfg)

    monkeypatch.setattr(cli, "run_wegner", recording)
    cfg = write_config(tmp_path, BASE)
    run(capsys, ["wegner", "--config", cfg, "--out", str(tmp_path / "w")])
    run(capsys, ["all", "--config", cfg, "--seed", "9", "--threads", "2", "--out", str(tmp_path / "a")])
    assert seen == [BASE["seed"], 9]


def test_all_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "APRIORI_TAIL", 1e-9)
    monkeypatch.setattr(experiments, "APRIORI_REFERENCE_K", 0.25)
    cfg = write_config(tmp_path, BASE)
    code, out, _ = run(capsys, ["all", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 1
    assert "apriori-counting: FAIL" in out
    cfg = write_config(tmp_path, {**BASE, "distribution": "rademacher-pair"})
    code, _, err = run(capsys, ["all", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 2
    assert err.startswith("config error: distribution:")


def test_all_writes_nothing_when_a_runner_refuses_the_config(tmp_path, capsys):
    # apriori admits rademacher-pair and locallaw refuses it: no apriori
    # report or manifest may be left behind the config error
    cfg = write_config(tmp_path, {**BASE, "distribution": "rademacher-pair"})
    code, out, err = run(capsys, ["all", "--config", cfg, "--out", str(tmp_path / "r")])
    assert (code, out) == (2, "")
    assert err.startswith("config error: distribution:")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["apriori", "locallaw", "wegner", "hardedge", "all", "deloc"])
def test_threads_below_one_exits_2(tmp_path, capsys, monkeypatch, command):
    # the runners take no thread count; the command rejects --threads below
    # one before any runner is called
    def refuse(cfg):
        raise AssertionError(f"a runner was called by {command}")

    for runner in ("run_apriori", "run_local_law", "run_wegner", "run_hard_edge_scaling", "run_delocalization"):
        monkeypatch.setattr(f"hardedge.cli.{runner}", refuse)
    cfg = write_config(tmp_path, BASE)
    for threads in ("0", "-1"):
        argv = [command, "--config", cfg, "--threads", threads, "--out", str(tmp_path / "r")]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("config error: threads:")
    assert not (tmp_path / "r").exists()


def test_hardedge_report_bytes_ignore_the_threads_flag(tmp_path, capsys):
    # the benchmark's untimed reference run passes --threads 2 and must write
    # the bytes of its --threads 1 runs
    cfg = write_config(tmp_path, BASE)
    digests = []
    for threads in ("1", "2"):
        experiments._SPECTRA.clear()  # as in a fresh process per command
        out = tmp_path / f"threads-{threads}"
        code, _, _ = run(capsys, ["hardedge", "--config", cfg, "--threads", threads, "--out", str(out)])
        assert code in (0, 1)
        digests.append(file_digest(out / "hard-edge-scaling.csv"))
    assert digests[0] == digests[1]


def test_identities_rejects_the_threads_flag(tmp_path, capsys):
    code, _, err = run(capsys, ["identities", "--threads", "2", "--out", str(tmp_path / "r")])
    assert code == 2
    assert "--threads" in err


def test_missing_config_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, ["apriori", "--config", str(tmp_path / "none.json")])
    assert code == 2
    assert "config error" in err


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["apriori", "--config", str(path)])
    assert code == 2
    assert "config error" in err


def test_out_env_var_sets_default_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HARDEDGE_OUT", str(tmp_path / "env-reports"))
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, ["identities", "--n", "8", "--trials", "1", "--seed", "3"])
    assert code == 0
    assert (tmp_path / "env-reports" / "exact-identities.csv").exists()


def test_identities_rerun_is_byte_identical(tmp_path, capsys):
    digests = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        code, out, _ = run(
            capsys,
            ["identities", "--n", "8", "--trials", "2", "--seed", "7",
             "--out", str(outdir)],
        )
        assert code == 0
        assert "exact-identities: PASS" in out
        digests.append(file_digest(outdir / "exact-identities.csv"))
    assert digests[0] == digests[1]


def test_hw_and_projmass_commands(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["hw", "--trials", "400", "--seed", "3", "--out", str(tmp_path / "hw")],
    )
    assert code == 0
    assert "quadratic-form-tail: PASS" in out
    code, out, _ = run(
        capsys,
        ["projmass", "--trials", "40000", "--seed", "3", "--out", str(tmp_path / "pm")],
    )
    assert code == 0
    assert "projection-mass-tail: PASS" in out
    rows = (tmp_path / "pm" / "projection-mass-tail.csv").read_text().splitlines()
    assert rows[0].split(",")[0] == "m"
    assert len(rows) == 5

