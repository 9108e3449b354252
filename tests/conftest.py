"""Shared fixtures: benchmark-data discovery, a tiny on-disk dataset, and
the scalar reference for the student/flow distance.

Real benchmark directories are looked up under $FLOWGAD_DATA_DIR, falling
back to <repo>/data. Tests that need them skip with a pointer when the
files are absent, so the suite stays runnable on a fresh checkout.
"""

import os

import numpy as np
import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def data_root() -> str:
    return os.environ.get("FLOWGAD_DATA_DIR",
                          os.path.join(REPO_ROOT, "data"))


def dataset_dir(name: str) -> str | None:
    path = os.path.join(data_root(), name)
    if os.path.isfile(os.path.join(path, f"{name}_A.txt")):
        return path
    return None


def require_dataset(name: str) -> str:
    path = dataset_dir(name)
    if path is None:
        pytest.skip(
            f"benchmark dataset {name} not found under {data_root()}; "
            f"place the TUDataset files in {os.path.join(data_root(), name)} "
            f"(scripts/fetch_datasets.sh downloads them on a networked machine)")
    return path


def reference_distance(u, v, kind: str = "cosine") -> float:
    """Scalar oracle for ``target.pair_distances`` on one row pair, written
    with vector norms and an explicit zero-vector policy: (1 - cos)/2 with
    cos clipped to [-1, 1]; two zero vectors agree (0), exactly one zero
    vector is maximally uninformative (0.5)."""
    u = np.ravel(np.asarray(u, dtype=np.float64))
    v = np.ravel(np.asarray(v, dtype=np.float64))
    assert u.shape == v.shape
    if kind == "sqeuclidean":
        return float(np.sum((u - v) ** 2))
    assert kind == "cosine"
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 and nv == 0.0:
        return 0.0
    if nu == 0.0 or nv == 0.0:
        return 0.5
    cos = float(np.dot(u, v) / (nu * nv))
    return (1.0 - min(1.0, max(-1.0, cos))) / 2.0


@pytest.fixture
def hand_fixture_dir(tmp_path):
    """Two graphs: a 2-node single-edge graph and an isolated node."""
    d = tmp_path / "TINY"
    d.mkdir()
    (d / "TINY_A.txt").write_text("1, 2\n2, 1\n")
    (d / "TINY_graph_indicator.txt").write_text("1\n1\n2\n")
    (d / "TINY_graph_labels.txt").write_text("0\n1\n")
    return str(d)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
