"""The test harness reports a failing hypothesis property instead of crashing."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

_FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_prints_its_example(tmp_path):
    # the repo's pytest settings (warnings as errors) and its conftest
    (tmp_path / "test_fails.py").write_text(_FAILING)
    shutil.copy(TESTS / "conftest.py", tmp_path)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
                          "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
