"""Attributed-graph containers, TUDataset text-format I/O, anomaly splits,
and the canonical JSON encoding that every fingerprint hashes.

The on-disk format is the public TUDataset convention: per-dataset directory
holding ``<DS>_A.txt`` (comma-separated 1-based edge endpoints),
``<DS>_graph_indicator.txt`` (graph id per node), ``<DS>_graph_labels.txt``
(class per graph), plus optional ``<DS>_node_labels.txt`` (one-hot encoded
into features) and ``<DS>_node_attributes.txt`` (real feature rows).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolation, DatasetError


@dataclass
class Graph:
    """One undirected attributed graph: dense 0/1 adjacency plus features."""

    n: int
    adjacency: np.ndarray          # n x n symmetric, {0,1}
    features: np.ndarray           # n x d_attr (d_attr may be 0)
    label: int

    def validate(self):
        if self.n < 1:
            raise ContractViolation("graph must have at least one node")
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise ContractViolation(f"adjacency shape {a.shape} != ({self.n}, {self.n})")
        if not np.array_equal(a, a.T):
            raise ContractViolation("adjacency must be symmetric")
        if not np.all((a == 0) | (a == 1)):
            raise ContractViolation("adjacency entries must be 0 or 1")
        if self.features.shape[0] != self.n:
            raise ContractViolation("feature rows must match node count")
        return self

    @property
    def num_edges(self) -> int:
        """Undirected edge count (self-loops counted once)."""
        a = self.adjacency
        return int((a.sum() + np.trace(a)) // 2)


@dataclass
class GraphSet:
    name: str
    graphs: list[Graph]
    label_vocabulary: set[int] = field(default_factory=set)

    def __post_init__(self):
        if not self.label_vocabulary:
            self.label_vocabulary = {g.label for g in self.graphs}

    def __len__(self):
        return len(self.graphs)


@dataclass
class AnomalySplit:
    """Train indices (all normal) and test indices with anomaly flags."""

    train: list[int]
    test: list[tuple[int, bool]]
    normal_class: int
    seed: int

    def test_indices(self) -> list[int]:
        return [i for i, _ in self.test]


# ---------------------------------------------------------------------------
# TUDataset parsing
# ---------------------------------------------------------------------------

def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _parse_int(text: str, path: str, line_no: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        # some label files carry floats like "1.0"; accept exact integers only
        try:
            v = float(text.strip())
        except ValueError:
            raise DatasetError(f"expected an integer, got {text.strip()!r}",
                               path=path, line=line_no) from None
        if v != int(v):
            raise DatasetError(f"expected an integer, got {text.strip()!r}",
                               path=path, line=line_no)
        return int(v)


def parse_tudataset(directory: str, dataset_name: str) -> GraphSet:
    """Parse one TUDataset directory into a GraphSet.

    Node labels become one-hot columns (vocabulary over the whole dataset),
    node attributes real columns; features are ``[one-hot || attributes]``.
    Edges are symmetrized, duplicates collapsed, self-loops kept as given,
    node indices re-based per graph.
    """
    prefix = os.path.join(directory, dataset_name)
    a_path = prefix + "_A.txt"
    ind_path = prefix + "_graph_indicator.txt"
    lab_path = prefix + "_graph_labels.txt"
    for path in (a_path, ind_path, lab_path):
        if not os.path.isfile(path):
            raise DatasetError("required dataset file is missing", path=path)

    indicator = [
        _parse_int(line, ind_path, i + 1)
        for i, line in enumerate(_read_lines(ind_path)) if line.strip()
    ]
    if not indicator:
        raise DatasetError("graph indicator file is empty", path=ind_path)
    num_nodes = len(indicator)
    num_graphs = max(indicator)

    graph_labels = [
        _parse_int(line, lab_path, i + 1)
        for i, line in enumerate(_read_lines(lab_path)) if line.strip()
    ]
    if len(graph_labels) != num_graphs:
        raise DatasetError(
            f"expected {num_graphs} graph labels, found {len(graph_labels)}",
            path=lab_path)

    # node id -> (graph index, local index); indicator ids are 1-based
    sizes = [0] * num_graphs
    graph_of = np.empty(num_nodes, dtype=np.int64)
    local_of = np.empty(num_nodes, dtype=np.int64)
    for node, gid in enumerate(indicator):
        if not (1 <= gid <= num_graphs):
            raise DatasetError(f"graph indicator {gid} out of range",
                               path=ind_path, line=node + 1)
        graph_of[node] = gid - 1
        local_of[node] = sizes[gid - 1]
        sizes[gid - 1] += 1
    if min(sizes) == 0:
        empty = sizes.index(0) + 1
        raise DatasetError(f"graph {empty} has no nodes", path=ind_path)

    adjacencies = [np.zeros((s, s), dtype=np.float64) for s in sizes]
    for line_no, line in enumerate(_read_lines(a_path), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DatasetError(f"expected 'i, j', got {line.strip()!r}",
                               path=a_path, line=line_no)
        u = _parse_int(parts[0], a_path, line_no)
        v = _parse_int(parts[1], a_path, line_no)
        if not (1 <= u <= num_nodes and 1 <= v <= num_nodes):
            raise DatasetError(f"edge endpoint out of range: {u}, {v}",
                               path=a_path, line=line_no)
        gu, gv = graph_of[u - 1], graph_of[v - 1]
        if gu != gv:
            raise DatasetError(
                f"edge ({u}, {v}) crosses graphs {gu + 1} and {gv + 1}",
                path=a_path, line=line_no)
        a = adjacencies[gu]
        a[local_of[u - 1], local_of[v - 1]] = 1.0
        a[local_of[v - 1], local_of[u - 1]] = 1.0

    onehot = _parse_node_labels(prefix + "_node_labels.txt", num_nodes)
    attrs = _parse_node_attributes(prefix + "_node_attributes.txt", num_nodes)
    blocks = [b for b in (onehot, attrs) if b is not None]
    if blocks:
        features = np.concatenate(blocks, axis=1)
    else:
        features = np.zeros((num_nodes, 0), dtype=np.float64)

    graphs = []
    for gi in range(num_graphs):
        rows = np.flatnonzero(graph_of == gi)
        graphs.append(Graph(n=sizes[gi], adjacency=adjacencies[gi],
                            features=features[rows], label=graph_labels[gi]).validate())
    return GraphSet(name=dataset_name, graphs=graphs)


def _parse_node_labels(path: str, num_nodes: int):
    if not os.path.isfile(path):
        return None
    labels = [
        _parse_int(line, path, i + 1)
        for i, line in enumerate(_read_lines(path)) if line.strip()
    ]
    if len(labels) != num_nodes:
        raise DatasetError(f"expected {num_nodes} node labels, found {len(labels)}",
                           path=path)
    vocab = sorted(set(labels))
    column = {lab: j for j, lab in enumerate(vocab)}
    onehot = np.zeros((num_nodes, len(vocab)), dtype=np.float64)
    for i, lab in enumerate(labels):
        onehot[i, column[lab]] = 1.0
    return onehot


def _parse_node_attributes(path: str, num_nodes: int):
    if not os.path.isfile(path):
        return None
    rows = []
    width = None
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            row = [float(x) for x in line.split(",")]
        except ValueError:
            raise DatasetError(f"malformed attribute row {line.strip()!r}",
                               path=path, line=line_no) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DatasetError(
                f"attribute row has {len(row)} values, expected {width}",
                path=path, line=line_no)
        rows.append(row)
    if len(rows) != num_nodes:
        raise DatasetError(f"expected {num_nodes} attribute rows, found {len(rows)}",
                           path=path)
    return np.asarray(rows, dtype=np.float64)


def write_tudataset(gs: GraphSet, directory: str, dataset_name: str | None = None):
    """Write a GraphSet back to TUDataset files (features as attributes)."""
    name = dataset_name or gs.name
    os.makedirs(directory, exist_ok=True)
    prefix = os.path.join(directory, name)
    edges, indicator, labels, attr_rows = [], [], [], []
    offset = 0
    has_attrs = any(g.features.shape[1] > 0 for g in gs.graphs)
    for gi, g in enumerate(gs.graphs, start=1):
        indicator.extend([gi] * g.n)
        labels.append(g.label)
        for i in range(g.n):
            if has_attrs:
                attr_rows.append(", ".join(repr(float(v)) for v in g.features[i]))
            # every nonzero entry gets a line, so undirected edges appear
            # in both directions like the public files
            for j in np.flatnonzero(g.adjacency[i]):
                edges.append((offset + i + 1, offset + int(j) + 1))
        offset += g.n
    with open(prefix + "_A.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(f"{u}, {v}\n" for u, v in edges))
    with open(prefix + "_graph_indicator.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(f"{g}\n" for g in indicator))
    with open(prefix + "_graph_labels.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(f"{l}\n" for l in labels))
    if has_attrs:
        with open(prefix + "_node_attributes.txt", "w", encoding="utf-8") as fh:
            fh.write("".join(row + "\n" for row in attr_rows))


# ---------------------------------------------------------------------------
# canonical JSON dump (debugging, round-trips, fingerprints)
# ---------------------------------------------------------------------------

def graphset_to_dict(gs: GraphSet) -> dict:
    """Canonical JSON-ready form: per graph n, sorted edge list, features, label."""
    out = {"name": gs.name, "graphs": []}
    for g in gs.graphs:
        iu, ju = np.nonzero(np.triu(g.adjacency))
        out["graphs"].append({
            "n": g.n,
            "edges": sorted([int(a), int(b)] for a, b in zip(iu, ju)),
            "features": [[float(v) for v in row] for row in g.features],
            "label": int(g.label),
        })
    return out


def graphset_from_dict(d: dict) -> GraphSet:
    graphs = []
    for gd in d["graphs"]:
        n = gd["n"]
        a = np.zeros((n, n), dtype=np.float64)
        for u, v in gd["edges"]:
            a[u, v] = a[v, u] = 1.0
        feats = np.asarray(gd["features"], dtype=np.float64)
        if feats.size == 0:
            feats = feats.reshape(n, 0)
        graphs.append(Graph(n=n, adjacency=a, features=feats,
                            label=gd["label"]).validate())
    return GraphSet(name=d["name"], graphs=graphs)


def canonical_bytes(payload) -> bytes:
    """Sorted-key, whitespace-free JSON: what every fingerprint hashes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def payload_fingerprint(payload) -> str:
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def dataset_fingerprint(gs: GraphSet) -> str:
    return payload_fingerprint(graphset_to_dict(gs))


# ---------------------------------------------------------------------------
# anomaly split and propagation operator
# ---------------------------------------------------------------------------

def make_anomaly_split(gs: GraphSet, normal_class: int, test_fraction: float,
                       seed: int) -> AnomalySplit:
    """Hold out ``test_fraction`` of the normal class for testing; every
    graph of any other class goes to the test side flagged anomalous."""
    if normal_class not in gs.label_vocabulary:
        raise ConfigError(
            f"normal class {normal_class} not among labels {sorted(gs.label_vocabulary)}")
    if not (0.0 < test_fraction < 1.0):
        raise ConfigError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    normal = [i for i, g in enumerate(gs.graphs) if g.label == normal_class]
    anomalous = [i for i, g in enumerate(gs.graphs) if g.label != normal_class]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
    order = rng.permutation(len(normal))
    n_test = int(np.floor(test_fraction * len(normal) + 0.5))
    test_normal = sorted(normal[i] for i in order[:n_test])
    train = sorted(normal[i] for i in order[n_test:])
    if not train:
        raise ConfigError("split left the training set empty")
    test = [(i, False) for i in test_normal] + [(i, True) for i in anomalous]
    test.sort()
    return AnomalySplit(train=train, test=test, normal_class=normal_class, seed=seed)


def majority_class(gs: GraphSet) -> int:
    """Most frequent graph label; ties broken toward the smaller label."""
    counts: dict[int, int] = {}
    for g in gs.graphs:
        counts[g.label] = counts.get(g.label, 0) + 1
    return max(sorted(counts), key=lambda lab: counts[lab])


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Symmetric degree-normalized propagation operator over A plus self-loops."""
    a_tilde = g.adjacency + np.eye(g.n)
    inv_sqrt_deg = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]
