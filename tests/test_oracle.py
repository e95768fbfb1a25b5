"""The benchmark's independent oracle agrees with the CLI's reports.

`perfbench/oracle.py` re-derives report rows from the documented seed and
draw scheme, importing nothing from the program.  Running it here on small
configs makes a change that breaks that agreement fail the test suite, not
only a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

from hardedge.cli import main

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
SEED = 3
SIZES = [96, 128]
TRIALS = 30


def _oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def _run(tmp_path, label, argv, kind=None):
    out = tmp_path / label
    if kind is not None:
        config = tmp_path / f"{label}.json"
        data = {"sizes": SIZES, "trials": TRIALS, "distribution": kind, "seed": SEED}
        config.write_text(json.dumps(data), encoding="utf-8")
        argv = [*argv, "--config", str(config)]
    # the verdict is not the point here (wegner may fail honest draws): only
    # a usage or config error would leave no report to check
    assert main([*argv, "--out", str(out)]) in (0, 1)
    return out


def test_oracle_agrees_with_the_cli_reports(tmp_path, capsys):
    oracle = _oracle()
    eigen = _run(tmp_path, "all", ["all"], "complex-gaussian")
    deloc = _run(tmp_path, "deloc", ["deloc"], "uniform-symmetric")
    hw = _run(tmp_path, "hw", ["hw", "--dist", "uniform-symmetric", "--trials", "1000", "--seed", str(SEED)])
    projmass = _run(
        tmp_path, "projmass", ["projmass", "--dist", "uniform-symmetric", "--trials", "400", "--seed", str(SEED)]
    )
    reports = {
        "apriori": eigen / "apriori-counting.csv",
        "wegner": eigen / "near-zero-counting.csv",
        "hardedge": eigen / "hard-edge-scaling.csv",
    }
    problems = oracle.check_eigen(reports, SEED, SIZES[0], TRIALS, "complex-gaussian")
    problems += oracle.check_deloc(deloc / "delocalization.csv", SEED, SIZES[0], TRIALS, "uniform-symmetric")
    problems += oracle.check_hw(hw / "quadratic-form-tail.csv", SEED, 64, 1000, "uniform-symmetric")
    problems += oracle.check_projmass(projmass / "projection-mass-tail.csv", SEED, 64, 400, "uniform-symmetric", 4)
    assert problems == []
