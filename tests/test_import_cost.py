"""Importing the CLI must not pull in heavyweight optional modules."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_leaves_scipy_stats_unloaded():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, repro.cli; "
             "print('scipy.stats' in sys.modules)")
    completed = subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True,
                               timeout=60, check=True)
    assert completed.stdout.strip() == "False"
