"""Smoke test for the demos: each Python demo runs to completion.

Each of ``demos/01``-``04`` runs in a fresh interpreter with ``src`` on
``PYTHONPATH`` and must exit 0. ``demos/05_cli_session.sh`` is left out: it
drives the installed ``flowgad`` command, which a source checkout does not
provide.
"""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = ("01_autodiff_tour.py", "02_data_and_splits.py", "03_flow_density.py",
         "04_end_to_end.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")}
    proc = subprocess.run([sys.executable, os.path.join(REPO_ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
