"""Shared pytest wiring: print one line per acceptance criterion at the end, and
the `outcome` fixture of the per-module rejection tables."""

import pytest


@pytest.fixture
def outcome():
    """What a call gives: its value, or the type and text of what it raised."""

    def run(call):
        try:
            return call()
        except Exception as err:  # the tables compare the exact type and message
            return type(err), str(err)

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if getattr(report, "when", "call") != "call":
                continue
            if "test_acceptance.py" not in report.nodeid:
                continue
            name = report.nodeid.split("::")[-1]
            rows.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for name, status in sorted(rows):
        terminalreporter.write_line(f"{status} {name}")
