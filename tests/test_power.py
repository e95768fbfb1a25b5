"""Power panel: each verdict must be able to fail on a corrupted ensemble.

Every cell wraps `experiments.sample_matrix` to corrupt each draw and runs a
shipped runner on it.  The spectra cache is swapped for an empty one per
cell, so corrupted spectra never reach another test.
"""

import dataclasses
import json
import math
import time

import pytest

from hardedge import ExperimentConfig, experiments, run_hard_edge_scaling, run_local_law
from hardedge.cli import main


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


@pytest.mark.parametrize(
    "mutate, passed",
    [
        (lambda entries: entries * math.sqrt(2.0), False),
        (lambda entries: entries * math.sqrt(1.2), False),
        # the real ensemble (beta = 1) obeys the same local law
        (lambda entries: math.sqrt(2.0) * entries.real, True),
        (lambda entries: entries, True),
    ],
    ids=["variance-2", "variance-1.2", "real-part-beta-1", "none"],
)
def test_local_law_transform_cells(monkeypatch, mutate, passed):
    # a rescaled spectrum moves the empirical transform off the MP limit
    _corrupt_draws(monkeypatch, mutate)
    rep = run_local_law(ExperimentConfig(sizes=(128, 256), trials=30, seed=7))
    assert rep.passed is passed
    exceedance = rep.summary["max_transform_exceedance_at_reference"]
    if passed:
        assert exceedance <= experiments.LOCALLAW_EXCEEDANCE
    else:
        assert exceedance > experiments.LOCALLAW_EXCEEDANCE
        assert all("transform exceedance" in f for f in rep.failures)
