"""Print a pass/fail line per acceptance criterion after the test run."""


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    ids = {}
    for outcome in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                name = nodeid.split("::")[-1]
                label = outcome.upper() if outcome != "passed" else "PASS"
                if outcome == "failed" or outcome == "error":
                    label = "FAIL"
                elif outcome == "skipped":
                    label = "SKIP"
                ids[name] = label
    if not ids:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ids, key=lambda s: int(s.split("_")[2])):
        num = name.split("_")[2]
        desc = name.split("_", 3)[3] if name.count("_") >= 3 else ""
        terminalreporter.write_line(
            f"criterion {num:>2} ({desc.replace('_', ' ')}): {ids[name]}"
        )
