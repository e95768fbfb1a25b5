"""Report serialization: byte-stable CSV/JSON and the digest manifest."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from hardedge import TheoremReport, file_digest, render_csv, render_json, write_report
from hardedge.reports import run_id_for


def toy_report(**overrides):
    base = dict(
        theorem="toy",
        config={"seed": 1, "ratio": math.inf},
        rows=(
            {"size": 8, "statistic": 0.1 + 0.2, "ok": True},
            {"size": np.int64(16), "statistic": np.float64(0.25), "ok": False},
        ),
        summary={"worst": math.nan, "count": 2},
        failures=(),
    )
    base.update(overrides)
    return TheoremReport(**base)


def test_csv_cells():
    text = render_csv(toy_report())
    lines = text.splitlines()
    assert lines[0] == "size,statistic,ok"
    # 17 significant digits round-trips the double exactly
    assert lines[1] == "8,0.30000000000000004,true"
    assert lines[2] == "16,0.25,false"
    assert text.endswith("\n")
    assert float(lines[1].split(",")[1]) == 0.1 + 0.2


def test_json_is_sorted_and_nan_free():
    text = render_json(toy_report())
    data = json.loads(text)
    assert data["summary"]["worst"] == "nan"
    assert data["config"]["ratio"] == "inf"
    assert data["rows"][1]["size"] == 16
    assert list(data) == sorted(data)
    # stable across calls
    assert render_json(toy_report()) == text


def test_run_id_shape():
    a = run_id_for({"seed": 1}, when=0.0)
    b = run_id_for({"seed": 1}, when=0.0)
    c = run_id_for({"seed": 2}, when=0.0)
    assert a == b != c
    assert a.startswith("19700101T000000Z-")
    assert len(a.split("-")[1]) == 12


def test_write_report_and_manifest(tmp_path):
    paths = write_report(toy_report(), tmp_path)
    assert paths["csv"].name == "toy.csv"
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["tool"] == "hardedge"
    assert manifest["artifacts"]["toy.csv"] == file_digest(paths["csv"])
    assert manifest["artifacts"]["toy.json"] == file_digest(paths["json"])
    raw = paths["csv"].read_bytes()
    assert file_digest(paths["csv"]) == hashlib.sha256(raw).hexdigest()


def test_manifest_merges_reports_in_one_directory(tmp_path):
    first = write_report(toy_report(), tmp_path)
    second = write_report(toy_report(theorem="other", config={"seed": 2}), tmp_path)
    manifest = json.loads(second["manifest"].read_text())
    assert manifest["artifacts"] == {
        "toy.json": file_digest(first["json"]),
        "toy.csv": file_digest(first["csv"]),
        "other.json": file_digest(second["json"]),
        "other.csv": file_digest(second["csv"]),
    }
    assert manifest["config"] == {"seed": 2}
    # rewriting a report replaces its digests and leaves no temporary file
    write_report(toy_report(summary={"count": 3}), tmp_path)
    manifest = json.loads(second["manifest"].read_text())
    assert manifest["artifacts"]["toy.json"] == file_digest(first["json"])
    assert len(manifest["artifacts"]) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["manifest.json", "toy.json", "toy.csv", "other.json", "other.csv"]
    )


def test_manifest_records_the_environment_across_a_merge(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    first = write_report(toy_report(), tmp_path)
    second = write_report(toy_report(theorem="other"), tmp_path)
    manifest = json.loads(second["manifest"].read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["environment"] == {
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": None,
    }
    assert len(manifest["artifacts"]) == 4
    # the environment lives in the manifest only
    assert first["json"].read_text() == render_json(toy_report())


def test_unreadable_manifest_is_not_overwritten(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="manifest"):
        write_report(toy_report(), tmp_path)
    assert (tmp_path / "manifest.json").read_text(encoding="utf-8") == "{not json"
