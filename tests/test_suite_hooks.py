import subprocess
import sys
from pathlib import Path

CONFTEST = Path(__file__).resolve().parent / "conftest.py"

THROWAWAY = """\
import pytest


def test_runs():
    pass


def test_skipped():
    pytest.skip("not run")


@pytest.mark.xfail
def test_xfailed():
    assert False


@pytest.mark.xfail
def test_xpassed():
    pass
"""


def _pytest(directory: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args, str(directory)],
        cwd=directory,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_a_session_with_a_test_not_run_fails(tmp_path):
    (tmp_path / "conftest.py").write_text(CONFTEST.read_text())
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY)
    clean = _pytest(tmp_path, "-k", "test_runs")
    assert clean.returncode == 0 and "not allowed" not in clean.stdout
    run = _pytest(tmp_path)
    assert run.returncode == 1
    for outcome in ("skipped", "xfailed", "xpassed"):
        assert f"not allowed: {outcome} test_throwaway.py::test_{outcome}\n" in run.stdout
    assert run.stdout.count("not allowed") == 3
