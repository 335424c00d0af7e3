"""Shared fixtures: acceptance-verdict registry with end-of-run summary,
and the environment for subprocesses that import picardlab."""

import os

import pytest

ACCEPT_RESULTS = {}


@pytest.fixture
def src_env():
    """os.environ with the source directory of the imported picardlab put
    first on PYTHONPATH, so a child process runs the code the tests do."""
    import picardlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(picardlab.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def accept():
    def _record(number, ok):
        ACCEPT_RESULTS[number] = bool(ok)
        print("ACCEPT-%d %s" % (number, "PASS" if ok else "FAIL"))
    return _record


def pytest_terminal_summary(terminalreporter):
    if not ACCEPT_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPT_RESULTS):
        verdict = "PASS" if ACCEPT_RESULTS[number] else "FAIL"
        terminalreporter.write_line("ACCEPT-%d %s" % (number, verdict))
