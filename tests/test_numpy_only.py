"""The package runs on numpy alone: scipy, sympy and mpmath serve test oracles only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# None in sys.modules makes any import of these packages raise ImportError
_SCRIPT = """
import sys
for name in ("scipy", "sympy", "mpmath"):
    sys.modules[name] = None
import phoncirc
from phoncirc import cli
sys.exit(cli.main(["memory", "fidelity", "--ratio", "0.3333"]))
"""


def test_package_imports_and_runs_without_scipy_sympy_mpmath():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert '"a1"' in run.stdout
