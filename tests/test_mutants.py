"""The mutant runner (tests/mutants.py) on one killed mutant and one that
must survive; CI runs the whole list."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

RUNNER = Path(__file__).resolve().parent / "mutants.py"


def load_runner():
    spec = importlib.util.spec_from_file_location("mutants", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runner_kills_the_rms_mutant():
    # The runner first checks every entry's text, run or listed.
    run = subprocess.run(
        [sys.executable, str(RUNNER), "rms_array_low_side"], capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[0].split() == ["killed", "rms_array_low_side"]


def test_runner_reports_a_survivor():
    mutants = load_runner()
    (rms,) = (m for m in mutants.KILLED if m.name == "rms_array_low_side")
    comment = rms._replace(name="comment", new=rms.old + "  # a comment changes nothing")
    assert mutants.run([comment]) == {"comment": "survived"}
