"""Deterministic report files: JSON, CSV, and a digest manifest.

Reports must be byte-identical for identical (config, seed) runs, so CSV
floats are written with 17 significant digits (`%.17g`) and JSON floats in
Python's shortest round-trip form (both read back to the same double), JSON
keys are sorted, and nothing except the manifest run id carries a
timestamp.  Non-finite floats (possible in summaries, e.g. an exceedance
ratio at a zero-hit cell) are encoded as the strings "inf"/"-inf"/"nan"
because JSON has no literal for them.  The manifest records the numpy and
BLAS build and the BLAS thread settings, on which the last bits depend.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from ._version import __version__
from .experiments import TheoremReport

__all__ = ["render_csv", "render_json", "write_report", "file_digest", "run_id_for"]


def _plain(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, (dict,)):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _cell(value) -> str:
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def render_csv(report: TheoremReport) -> str:
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(_cell(row[c]) for c in report.columns))
    return "\n".join(lines) + "\n"


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_json(report: TheoremReport) -> str:
    payload = {
        "theorem": report.theorem,
        "passed": report.passed,
        "config": _plain(report.config),
        "columns": list(report.columns),
        "rows": [_plain(row) for row in report.rows],
        "summary": _plain(report.summary),
        "failures": list(report.failures),
    }
    return _dump(payload)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_id_for(config: dict, when: float | None = None) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime(when))
    blob = json.dumps(_plain(config), sort_keys=True).encode()
    return f"{stamp}-{hashlib.sha256(blob).hexdigest()[:12]}"


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_report(report: TheoremReport, outdir) -> dict:
    """Write {theorem}.json, {theorem}.csv, and manifest.json under outdir.

    Returns {"json": path, "csv": path, "manifest": path}.  The manifest's
    artifact digests are merged with those of earlier reports in the same
    directory; run id, config and environment are the latest report's.  Every
    file is written to a temporary name and renamed into place.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_path = outdir / "manifest.json"
    artifacts = {}
    if manifest_path.exists():
        try:
            artifacts = dict(json.loads(manifest_path.read_text(encoding="utf-8"))["artifacts"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{manifest_path}: cannot merge into an unreadable manifest: {exc}") from exc
    json_path = outdir / f"{report.theorem}.json"
    csv_path = outdir / f"{report.theorem}.csv"
    _write_atomic(json_path, render_json(report))
    _write_atomic(csv_path, render_csv(report))
    artifacts[json_path.name] = file_digest(json_path)
    artifacts[csv_path.name] = file_digest(csv_path)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "run_id": run_id_for(report.config),
        "tool": "hardedge",
        "version": __version__,
        "config": _plain(report.config),
        "artifacts": artifacts,
        "environment": {
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "cpu_count": os.cpu_count(),
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
    }
    _write_atomic(manifest_path, _dump(manifest))
    return {"json": json_path, "csv": csv_path, "manifest": manifest_path}
