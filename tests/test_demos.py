"""Smoke test for the demos and the digest script: each runs to completion.

Each of ``demos/01``-``04`` runs in a fresh interpreter with ``src`` on
``PYTHONPATH`` and must exit 0. ``demos/05_cli_session.sh`` drives the
``flowgad`` command, which a source checkout does not install, so it runs
with a ``flowgad`` shim on ``PATH`` that execs ``python -m flowgad.cli``.
``scripts/digests.py``, which byte-identity claims are checked with, must
print each of its lines in order.
"""

import os
import re
import shlex
import subprocess
import sys

import pytest

from flowgad.pipeline import VARIANTS

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


def test_digests_script_prints_every_line(tmp_path):
    proc = subprocess.run([sys.executable,
                           os.path.join(REPO_ROOT, "scripts", "digests.py")],
                          cwd=tmp_path, env=_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    digest = "[0-9a-f]{64}"
    expected = [r"environment numpy=\S+ .* blas_threads=\S+ cpu_count=\d+"]
    for graphs in ("default", "large"):
        expected += [rf"encoding {graphs} +{digest}",
                     rf"inputs +{graphs} +adjacency \d+ +a_hat \d+ "
                     r"+x_init \d+",
                     rf"held +{graphs} +train \d+ \(\d+ graphs\) "
                     r"+score \d+ \(\d+ graphs\)"]
    expected += [rf"parse +default +{digest} +transient [\d.]+ x edge table"]
    expected += [rf"nodes +batch {b} +source [\d.]+ +flow [\d.]+ "
                 r"+target [\d.]+" for b in (1, 4)]
    expected += [rf"workspace {graphs} +batch {b} +source \d+ B mappings \d+ "
                 r"+flow \d+ B mappings \d+ +target \d+ B mappings \d+"
                 for graphs in ("default", "large") for b in (1, 4)]
    runs = [(variant, b, "") for variant in VARIANTS for b in (1, 4)]
    runs += [("full", b, " large") for b in (1, 4)]
    expected += [rf"{variant} +batch {b}{large} +report {digest} "
                 rf"+per_seed {digest} +auc( [\d.]+)+"
                 for variant, b, large in runs]
    lines = proc.stdout.splitlines()
    assert len(lines) == len(expected), proc.stdout
    for line, pattern in zip(lines, expected):
        assert re.fullmatch(pattern, line), line
