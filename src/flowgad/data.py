"""Attributed-graph containers, TUDataset text-format I/O, anomaly splits,
the array fingerprint of a graph set, and the canonical JSON encoding that
config and checkpoint fingerprints hash.

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
import warnings
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .errors import ConfigError, ContractViolation, DatasetError
from .optim import make_rng


@dataclass
class Graph:
    """One undirected attributed graph: dense 0/1 adjacency plus features.

    The library's producers (``parse_tudataset``, ``synthetic``) store the
    adjacency as a bool array, one byte per entry; a caller's float or int
    0/1 matrix works as well and gives the same bits everywhere. Only the
    GIN student multiplies by A as floats, and it makes its float64 copy
    per step (``autodiff.as_float``)."""

    n: int
    adjacency: np.ndarray          # n x n symmetric, {0,1}; bool from the library
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
        # a bool matrix holds nothing but 0 and 1
        if a.dtype != np.bool_ and not np.all((a == 0) | (a == 1)):
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

def _read_table(path: str, dtype=np.float64):
    """The file's non-blank lines as one ``dtype`` table (a row per line,
    fields split at commas), or None when some line does not fit.

    Read by ``np.loadtxt``, with no list of lines built. As float64 a
    field is a decimal or ``inf``/``nan`` literal; as ``np.int32`` it is an
    optional sign and decimal digits, within int32's range. Either may
    have surrounding whitespace, and every row must have the first row's
    width. ``#`` is not a comment marker, so it makes a field malformed.
    Every field the int32 reader accepts, the float64 reader accepts with
    the same value (tests/test_data.py pins this), so an integer file the
    int32 reader rejects can be read again as float64 with nothing lost.
    """
    with open(path, "r", encoding="utf-8") as fh:
        if not any(map(str.strip, fh)):
            return np.zeros((0, 0), dtype=dtype)
        fh.seek(0)
        # numpy reads a path about twice as fast as a stream of lines
        # (2-vCPU Xeon, numpy 2.4.6, 12 alternating pairs: 27 vs 58 ms for
        # the cli-roundtrip benchmark's three files, 0.22 vs 0.42 s for 1.1M
        # edge lines), but skips only empty lines. On a whitespace-only line
        # (or a fault) it fails, and the file is read again as a stream of
        # lines with every blank one dropped
        for source in (path, filter(str.strip, fh)):
            try:
                with warnings.catch_warnings():
                    # numpy releases that read "1.5" into an integer dtype
                    # through a float warn instead of failing
                    warnings.simplefilter("error", DeprecationWarning)
                    return np.loadtxt(source, dtype=dtype, delimiter=",",
                                      comments=None, ndmin=2,
                                      encoding="utf-8")
            except (ValueError, DeprecationWarning):
                pass
    return None


def _read_int_table(path: str):
    """The file as an int32 table when every field is an int32 literal,
    else as ``_read_table``'s float64 table (None if that fails too)."""
    table = _read_table(path, np.int32)
    return _read_table(path) if table is None else table


def _first_bad_line(path: str, check) -> NoReturn:
    """Runs ``check(line, line_no)`` on each non-blank line so that it raises
    for the first offending one. Called only after the whole-file pass
    found a fault, to name its 1-based line.

    The checks accept exactly the fields and rows the array reader accepts
    (tests/test_data.py pins this on every whitespace character and the
    Python-only spellings), so the last line is a guard that no known
    input reaches; should the two ever disagree, it names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                check(line, line_no)
    raise DatasetError("file rejected by the array reader, though every "
                       "line passes the per-line check", path=path)


def _number(text: str):
    """One field as ``np.loadtxt`` reads it, or None: whitespace stripped,
    ASCII only, no ``_`` digit separators (which Python's ``float`` allows)."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _integral(values):
    """Integral values below 2**53 in magnitude: above that, a float64 may
    be the rounding of another integer's digits."""
    return np.isfinite(values) & (np.floor(values) == values) & (
        np.abs(values) < 2.0 ** 53)


def _parse_int(text: str, path: str, line_no: int) -> int:
    # some label files carry floats like "1.0"; accept exact integers only
    value = _number(text)
    if value is None or not _integral(value):
        raise DatasetError(f"expected an integer, got {text.strip()!r}",
                           path=path, line=line_no)
    return int(value)


def _read_ints(path: str) -> np.ndarray:
    """One integer per non-blank line, as int64. An int32 read takes the
    usual file; one with integral float spellings (``1.0``, ``2e0``) or
    values beyond int32 is read as float64 and checked to be exact."""
    table = _read_int_table(path)
    if (table is None or table.shape[1] > 1
            or table.dtype == np.float64 and not _integral(table).all()):
        _first_bad_line(path, lambda line, no: _parse_int(line, path, no))
    return table.reshape(-1).astype(np.int64)


def parse_tudataset(directory: str, dataset_name: str) -> GraphSet:
    """Parse one TUDataset directory into a GraphSet.

    Node labels become one-hot columns (vocabulary over the whole dataset),
    node attributes real columns; features are ``[one-hot || attributes]``.
    Edges are symmetrized, duplicates collapsed, self-loops kept as given,
    node indices re-based per graph; each adjacency is a bool array. Each
    file is read in one array pass, an integer file as int32 unless that
    read rejects it (then as float64); a fault is reported with the file
    and the 1-based line it is on.
    """
    prefix = os.path.join(directory, dataset_name)
    a_path = prefix + "_A.txt"
    ind_path = prefix + "_graph_indicator.txt"
    lab_path = prefix + "_graph_labels.txt"
    for path in (a_path, ind_path, lab_path):
        if not os.path.isfile(path):
            raise DatasetError("required dataset file is missing", path=path)

    indicator = _read_ints(ind_path)
    if indicator.size == 0:
        raise DatasetError("graph indicator file is empty", path=ind_path)
    num_nodes = len(indicator)
    num_graphs = int(indicator.max())

    graph_labels = _read_ints(lab_path)
    if len(graph_labels) != num_graphs:
        raise DatasetError(
            f"expected {num_graphs} graph labels, found {len(graph_labels)}",
            path=lab_path)

    # node id -> (graph index, local index); indicator ids are 1-based and
    # local indices follow node-id order within each graph
    if (indicator < 1).any():
        def check(line, line_no):
            value = _parse_int(line, ind_path, line_no)
            if value < 1:
                raise DatasetError(f"graph indicator {value} out of range",
                                   path=ind_path, line=line_no)
        _first_bad_line(ind_path, check)
    graph_of = indicator - 1
    sizes = np.bincount(graph_of, minlength=num_graphs)
    if not sizes.all():
        empty = int(np.flatnonzero(sizes == 0)[0]) + 1
        raise DatasetError(f"graph {empty} has no nodes", path=ind_path)
    node_order = np.argsort(graph_of, kind="stable")
    starts = np.cumsum(sizes) - sizes
    local_of = np.empty(num_nodes, dtype=np.int64)
    local_of[node_order] = np.arange(num_nodes) - np.repeat(starts, sizes)

    ends = _read_edges(a_path, num_nodes, graph_of)
    edge_graph = graph_of[ends[:, 0]]
    edge_bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(edge_graph, minlength=num_graphs))))
    # TUDataset files (and write_tudataset) list edges graph by graph, and
    # a stable sort of keys already in order is the identity
    if (edge_graph[1:] < edge_graph[:-1]).any():
        ends = ends[np.argsort(edge_graph, kind="stable")]
    del edge_graph
    rows = local_of[ends[:, 0]]
    cols = local_of[ends[:, 1]]
    del ends

    onehot = _parse_node_labels(prefix + "_node_labels.txt", num_nodes)
    attrs = _parse_node_attributes(prefix + "_node_attributes.txt", num_nodes)
    blocks = [b for b in (onehot, attrs) if b is not None]
    if blocks:
        features = np.concatenate(blocks, axis=1)[node_order]
    else:
        features = np.zeros((num_nodes, 0), dtype=np.float64)

    graphs = []
    for gi, (n, start, label) in enumerate(
            zip(sizes.tolist(), starts.tolist(), graph_labels.tolist())):
        lo, hi = edge_bounds[gi], edge_bounds[gi + 1]
        adjacency = np.zeros((n, n), dtype=np.bool_)
        adjacency[rows[lo:hi], cols[lo:hi]] = True
        adjacency[cols[lo:hi], rows[lo:hi]] = True
        graphs.append(Graph(n=n, adjacency=adjacency,
                            features=features[start:start + n],
                            label=label).validate())
    return GraphSet(name=dataset_name, graphs=graphs)


def _read_edges(path: str, num_nodes: int, graph_of: np.ndarray) -> np.ndarray:
    """The ``i, j`` lines as an (edges, 2) integer array of 0-based node
    ids, each edge inside one graph: int32 when the file reads as int32,
    else int64 from the float64 table."""
    table = _read_int_table(path)
    fits = table is not None and (table.size == 0 or table.shape[1] == 2)
    if fits:
        table = table.reshape(-1, 2)
        in_range = (table >= 1) & (table <= num_nodes)
        if table.dtype == np.float64:
            in_range &= _integral(table)
        fits = bool(in_range.all())
        del in_range
    if fits:
        # an int32 table is used as it is; a float one gives one int64 copy
        # and goes before the next pass
        ends = table.astype(np.int64) if table.dtype == np.float64 else table
        del table
        ends -= 1
        fits = bool((graph_of[ends[:, 0]] == graph_of[ends[:, 1]]).all())
    if fits:
        return ends

    def check(line, line_no):
        parts = line.split(",")
        if len(parts) != 2:
            raise DatasetError(f"expected 'i, j', got {line.strip()!r}",
                               path=path, line=line_no)
        u = _parse_int(parts[0], path, line_no)
        v = _parse_int(parts[1], path, line_no)
        if not (1 <= u <= num_nodes and 1 <= v <= num_nodes):
            raise DatasetError(f"edge endpoint out of range: {u}, {v}",
                               path=path, line=line_no)
        gu, gv = graph_of[u - 1], graph_of[v - 1]
        if gu != gv:
            raise DatasetError(
                f"edge ({u}, {v}) crosses graphs {gu + 1} and {gv + 1}",
                path=path, line=line_no)
    _first_bad_line(path, check)


def _parse_node_labels(path: str, num_nodes: int):
    if not os.path.isfile(path):
        return None
    labels = _read_ints(path)
    if len(labels) != num_nodes:
        raise DatasetError(f"expected {num_nodes} node labels, found {len(labels)}",
                           path=path)
    vocab, column = np.unique(labels, return_inverse=True)
    onehot = np.zeros((num_nodes, len(vocab)), dtype=np.float64)
    onehot[np.arange(num_nodes), column] = 1.0
    return onehot


def _parse_node_attributes(path: str, num_nodes: int):
    if not os.path.isfile(path):
        return None
    table = _read_table(path)
    if table is None:
        width = None

        def check(line, line_no):
            nonlocal width
            row = [_number(x) for x in line.split(",")]
            if None in row:
                raise DatasetError(f"malformed attribute row {line.strip()!r}",
                                   path=path, line=line_no)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DatasetError(
                    f"attribute row has {len(row)} values, expected {width}",
                    path=path, line=line_no)
        _first_bad_line(path, check)
    if len(table) != num_nodes:
        raise DatasetError(f"expected {num_nodes} attribute rows, found {len(table)}",
                           path=path)
    return table


def write_tudataset(gs: GraphSet, directory: str, dataset_name: str | None = None):
    """Write a GraphSet back to TUDataset files (features as attributes).

    Every nonzero adjacency entry gets an edge line, so undirected edges
    appear in both directions like the public files; attribute values are
    written as ``repr`` floats, which parse back to the same bits. Lines
    are streamed graph by graph, so memory stays at one graph's rows."""
    name = dataset_name or gs.name
    os.makedirs(directory, exist_ok=True)
    prefix = os.path.join(directory, name)
    sizes = np.array([g.n for g in gs.graphs], dtype=np.int64)
    offsets = (np.cumsum(sizes) - sizes + 1).tolist()
    with open(prefix + "_A.txt", "w", encoding="utf-8") as fh:
        for g, off in zip(gs.graphs, offsets):
            fh.writelines(f"{u}, {v}\n"
                          for u, v in (np.argwhere(g.adjacency) + off).tolist())
    with open(prefix + "_graph_indicator.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{gid}\n" for gid in
                      np.repeat(np.arange(1, len(sizes) + 1), sizes).tolist())
    with open(prefix + "_graph_labels.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{g.label}\n" for g in gs.graphs)
    if any(g.features.shape[1] > 0 for g in gs.graphs):
        with open(prefix + "_node_attributes.txt", "w", encoding="utf-8") as fh:
            for g in gs.graphs:
                fh.writelines(", ".join(map(repr, row)) + "\n"
                              for row in g.features.astype(np.float64).tolist())


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def canonical_bytes(payload) -> bytes:
    """Sorted-key, whitespace-free JSON: what config and checkpoint
    fingerprints hash."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def payload_fingerprint(payload) -> str:
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def dataset_fingerprint(gs: GraphSet) -> str:
    """The identity of a graph set: a sha256 over its graphs in order.

    Each graph adds an int64 header (n, label, feature width), then
    ``np.packbits(adjacency != 0)``, then its float64 feature bytes. The
    header keeps graph boundaries apart, so two sets whose concatenated
    bits agree but whose graph sizes differ hash differently. Features are
    hashed bit for bit (0.0 and -0.0 differ). The set's name is left out:
    the config already names the dataset. Graphs are hashed one at a time,
    so no copy of the whole set is built."""
    digest = hashlib.sha256()
    for g in gs.graphs:
        features = np.ascontiguousarray(g.features, dtype=np.float64)
        digest.update(np.array([g.n, g.label, features.shape[1]],
                               dtype=np.int64))
        digest.update(np.packbits(g.adjacency != 0))
        digest.update(features)
    return digest.hexdigest()


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
    rng = make_rng(seed, 0)
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


def normalized_adjacency(g: Graph | np.ndarray) -> np.ndarray:
    """Symmetric degree-normalized propagation operator over A plus self-loops,
    dense: D^-1/2 (A + I) D^-1/2, D the degrees of A + I.

    Takes a Graph, its (n, n) adjacency, or a (G, n, n) stack of same-size
    adjacencies, whose A_hat it returns stacked: each slice is the 2-D
    call's bits, since every step is elementwise or a row sum of small
    integers, which is exact in any order. Built in its one output
    buffer; ``pipeline.precompute_inputs`` keeps only each graph's
    nonzeros (``autodiff.Nonzeros``) and drops it at once."""
    adjacency = g.adjacency if isinstance(g, Graph) else g
    a_hat = adjacency.astype(np.float64, order="C")
    n = a_hat.shape[-1]
    # the diagonal of each n x n slice is every (n + 1)-th entry
    a_hat.reshape(-1, n * n)[:, ::n + 1] += 1.0
    inv_sqrt_deg = 1.0 / np.sqrt(a_hat.sum(axis=-1))
    a_hat *= inv_sqrt_deg[..., :, None]
    a_hat *= inv_sqrt_deg[..., None, :]
    return a_hat
