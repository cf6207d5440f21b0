"""The pytest settings in pyproject.toml, run on a scratch test file."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass


def test_warns():
    warnings.warn("deprecated", DeprecationWarning)
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Hypothesis reports a failing example through libcst, whose import
    # warns that mypy_extensions.TypedDict is deprecated. As an error, that
    # warning ended the session after the first test; every other
    # DeprecationWarning must still fail its test.
    (tmp_path / "test_pair.py").write_text(TESTS)
    command = [
        sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
        "-p", "no:cacheprovider", "-q", "-rf", "test_pair.py",
    ]
    run = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout[-3000:]
    assert "FAILED test_pair.py::test_fails" in run.stdout, run.stdout[-3000:]
    assert "FAILED test_pair.py::test_warns - DeprecationWarning" in run.stdout, run.stdout[-3000:]
    assert "2 failed, 1 passed" in run.stdout, run.stdout[-3000:]
