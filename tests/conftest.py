"""Suite-wide hooks.

Every test must run and pass: a session in which a test or a module is
skipped, xfailed or xpassed fails, and its summary names each one.
"""

import pytest

_NOT_RUN: list = []  # (node id, outcome) of each report skipped, xfailed or xpassed


def _note(report) -> None:
    if hasattr(report, "wasxfail"):
        _NOT_RUN.append((report.nodeid, "xfailed" if report.skipped else "xpassed"))
    elif report.skipped:
        _NOT_RUN.append((report.nodeid, "skipped"))


pytest_runtest_logreport = pytest_collectreport = _note


def pytest_sessionfinish(session) -> None:
    if _NOT_RUN and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter) -> None:
    for nodeid, outcome in _NOT_RUN:
        terminalreporter.write_line(f"not allowed: {outcome} {nodeid}", red=True)
