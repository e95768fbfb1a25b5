import dataclasses

import numpy as np
import pytest

from hardedge import experiments


@pytest.fixture
def draws_above_the_band(monkeypatch):
    """Every draw becomes 2 I, so X*X = 4 I has no eigenvalue in deloc's band [0, 4 - kappa]."""
    real = experiments.sample_matrix

    def scaled_identity(spec, t):
        return dataclasses.replace(real(spec, t), entries=2.0 * np.eye(spec.size, dtype=complex))

    monkeypatch.setattr(experiments, "sample_matrix", scaled_identity)


def pytest_terminal_summary(terminalreporter):
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid and getattr(rep, "when", "call") == "call":
                rows.append((nodeid.split("::")[-1], status == "passed", rep.duration))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, ok, seconds in sorted(rows):
            # the call's wall time, to read against each criterion's ceiling
            terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}  {seconds:.1f} s")
