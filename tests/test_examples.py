"""The example scripts must run to completion (they are the documented
entry points for new users)."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=420):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_examples_directory_contents():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert "quickstart.py" in names
    assert len(names) >= 3
    # An example no test runs can rot unnoticed: every one must be run
    # by a test in this file.
    run = set(re.findall(r'run_example\("([^"]+)"',
                         Path(__file__).read_text()))
    assert names <= run, f"examples no test runs: {sorted(names - run)}"


def test_quickstart():
    out = run_example("quickstart.py")
    assert "thermometer" in out
    assert "opt (oracle)" in out


def test_custom_workload():
    out = run_example("custom_workload.py")
    assert "temperature classes" in out
    assert "cross-input temperature agreement" in out


def test_frontend_anatomy_small_app():
    out = run_example("frontend_anatomy.py", "python")
    assert "limit study" in out
    assert "perfect BTB" in out


@pytest.mark.slow
def test_datacenter_speedups_single_app():
    out = run_example("datacenter_speedups.py", "tomcat")
    assert "thermometer" in out


@pytest.mark.slow
def test_btb_size_sweep():
    out = run_example("btb_size_sweep.py")
    assert "entries" in out
