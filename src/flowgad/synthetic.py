"""Seeded synthetic benchmark with structurally planted anomalies.

Normal graphs carry two dense communities: nodes split into halves, edges
drawn independently with high probability inside a half and low probability
across. Anomalous graphs are uniformly sparse Erdos-Renyi draws over the
same size range, so the two populations differ in topology alone. No node
attributes are attached; detection has to work from structure.

Every graph is drawn from its own derived RNG stream, so the set is fully
determined by (seed, counts, size range, probabilities).
"""

from __future__ import annotations

import numpy as np

from .data import Graph, GraphSet
from .optim import make_rng

NORMAL_LABEL = 0
ANOMALY_LABEL = 1


def _symmetric_bernoulli(n: int, prob: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """A bool adjacency whose upper triangle draws each entry with ``prob``."""
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    return upper | upper.T


def _community_graph(n: int, rng: np.random.Generator, p_in: float,
                     p_out: float) -> Graph:
    half = n // 2
    prob = np.full((n, n), p_out)
    prob[:half, :half] = p_in
    prob[half:, half:] = p_in
    a = _symmetric_bernoulli(n, prob, rng)
    return Graph(n=n, adjacency=a, features=np.zeros((n, 0)),
                 label=NORMAL_LABEL).validate()


def _sparse_graph(n: int, rng: np.random.Generator, p: float) -> Graph:
    a = _symmetric_bernoulli(n, np.full((n, n), p), rng)
    return Graph(n=n, adjacency=a, features=np.zeros((n, 0)),
                 label=ANOMALY_LABEL).validate()


def planted_anomaly_set(num_normal: int = 50, num_anomalous: int = 10,
                        seed: int = 0, n_range: tuple[int, int] = (10, 16),
                        p_in: float = 0.85, p_out: float = 0.08,
                        p_sparse: float = 0.12,
                        name: str = "planted") -> GraphSet:
    """Build the benchmark set; normal label 0, anomalous label 1."""
    graphs = []
    lo, hi = n_range
    for i in range(num_normal):
        rng = make_rng(seed, 0, i)
        n = int(rng.integers(lo, hi + 1))
        graphs.append(_community_graph(n, rng, p_in, p_out))
    for i in range(num_anomalous):
        rng = make_rng(seed, 1, i)
        n = int(rng.integers(lo, hi + 1))
        graphs.append(_sparse_graph(n, rng, p_sparse))
    return GraphSet(name=name, graphs=graphs)
