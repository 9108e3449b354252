"""Smoke test for the demos: each demo runs to completion.

Each of ``demos/01``-``04`` runs in a fresh interpreter with ``src`` on
``PYTHONPATH`` and must exit 0. ``demos/05_cli_session.sh`` drives the
``flowgad`` command, which a source checkout does not install, so it runs
with a ``flowgad`` shim on ``PATH`` that execs ``python -m flowgad.cli``.
"""

import os
import shlex
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = ("01_autodiff_tour.py", "02_data_and_splits.py", "03_flow_density.py",
         "04_end_to_end.py")


def _env():
    return {**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(REPO_ROOT, "demos", demo)],
                          cwd=tmp_path, env=_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_session_demo_runs(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "flowgad"
    shim.write_text("#!/bin/sh\n"
                    f"exec {shlex.quote(sys.executable)} -m flowgad.cli \"$@\"\n")
    shim.chmod(0o755)
    env = {**_env(), "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"}
    proc = subprocess.run(["sh", os.path.join(REPO_ROOT, "demos", "05_cli_session.sh")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
