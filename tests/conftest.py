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
