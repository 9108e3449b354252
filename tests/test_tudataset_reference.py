"""The array-pass TUDataset parser and writer against line-by-line references.

``_reference_parse`` and ``_reference_write`` are the per-line
implementations ``flowgad.data`` used before it read and wrote each file
in one array pass. They stay here as oracles: on every input the
references accept, the parser must give byte-identical arrays, the same
labels and the same fingerprint, and the writer the same file bytes.
"""

import os

import numpy as np
import pytest

from flowgad.data import (Graph, GraphSet, dataset_fingerprint,
                          parse_tudataset, write_tudataset)
from flowgad.errors import DatasetError
from flowgad.synthetic import planted_anomaly_set


# ---------------------------------------------------------------------------
# line-by-line references
# ---------------------------------------------------------------------------

def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _ref_int(text, path, line_no):
    try:
        return int(text.strip())
    except ValueError:
        try:
            v = float(text.strip())
        except ValueError:
            raise DatasetError(f"expected an integer, got {text.strip()!r}",
                               path=path, line=line_no) from None
        if v != int(v):
            raise DatasetError(f"expected an integer, got {text.strip()!r}",
                               path=path, line=line_no)
        return int(v)


def _reference_parse(directory, dataset_name):
    prefix = os.path.join(directory, dataset_name)
    a_path = prefix + "_A.txt"
    ind_path = prefix + "_graph_indicator.txt"
    lab_path = prefix + "_graph_labels.txt"
    indicator = [_ref_int(line, ind_path, i + 1)
                 for i, line in enumerate(_read_lines(ind_path)) if line.strip()]
    num_nodes = len(indicator)
    num_graphs = max(indicator)
    graph_labels = [_ref_int(line, lab_path, i + 1)
                    for i, line in enumerate(_read_lines(lab_path)) if line.strip()]
    assert len(graph_labels) == num_graphs
    sizes = [0] * num_graphs
    graph_of = np.empty(num_nodes, dtype=np.int64)
    local_of = np.empty(num_nodes, dtype=np.int64)
    for node, gid in enumerate(indicator):
        assert 1 <= gid <= num_graphs
        graph_of[node] = gid - 1
        local_of[node] = sizes[gid - 1]
        sizes[gid - 1] += 1
    assert min(sizes) > 0
    adjacencies = [np.zeros((s, s), dtype=bool) for s in sizes]
    for line_no, line in enumerate(_read_lines(a_path), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        assert len(parts) == 2
        u = _ref_int(parts[0], a_path, line_no)
        v = _ref_int(parts[1], a_path, line_no)
        assert 1 <= u <= num_nodes and 1 <= v <= num_nodes
        gu, gv = graph_of[u - 1], graph_of[v - 1]
        assert gu == gv
        a = adjacencies[gu]
        a[local_of[u - 1], local_of[v - 1]] = 1.0
        a[local_of[v - 1], local_of[u - 1]] = 1.0

    blocks = []
    lab_file = prefix + "_node_labels.txt"
    if os.path.isfile(lab_file):
        labels = [_ref_int(line, lab_file, i + 1)
                  for i, line in enumerate(_read_lines(lab_file)) if line.strip()]
        column = {lab: j for j, lab in enumerate(sorted(set(labels)))}
        onehot = np.zeros((num_nodes, len(column)), dtype=np.float64)
        for i, lab in enumerate(labels):
            onehot[i, column[lab]] = 1.0
        blocks.append(onehot)
    attr_file = prefix + "_node_attributes.txt"
    if os.path.isfile(attr_file):
        rows = [[float(x) for x in line.split(",")]
                for line in _read_lines(attr_file) if line.strip()]
        blocks.append(np.asarray(rows, dtype=np.float64))
    features = (np.concatenate(blocks, axis=1) if blocks
                else np.zeros((num_nodes, 0), dtype=np.float64))
    graphs = [Graph(n=sizes[gi], adjacency=adjacencies[gi],
                    features=features[np.flatnonzero(graph_of == gi)],
                    label=graph_labels[gi]).validate()
              for gi in range(num_graphs)]
    return GraphSet(name=dataset_name, graphs=graphs)


def _reference_write(gs, directory, dataset_name):
    os.makedirs(directory, exist_ok=True)
    prefix = os.path.join(directory, dataset_name)
    edges, indicator, labels, attr_rows = [], [], [], []
    offset = 0
    has_attrs = any(g.features.shape[1] > 0 for g in gs.graphs)
    for gi, g in enumerate(gs.graphs, start=1):
        indicator.extend([gi] * g.n)
        labels.append(g.label)
        for i in range(g.n):
            if has_attrs:
                attr_rows.append(", ".join(repr(float(v)) for v in g.features[i]))
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
# random TUDataset files in the forms real files take
# ---------------------------------------------------------------------------

def _attribute_text(rng, value):
    """One attribute value as repr, %g, %e or a padded integral float."""
    form = rng.integers(4)
    if form == 0:
        return repr(value)
    if form == 1:
        return f"{value:g}"
    if form == 2:
        return f" {value:.6e}"
    return f"{float(np.round(value)):.1f} "


def _index_text(rng, value):
    """An integer as written by different tools: plain, padded or '7.0'."""
    form = rng.integers(5)
    if form == 0:
        return f"{value}.0"
    if form == 1:
        return f"  {value}\t"
    return str(value)


def _with_blanks(rng, lines):
    """The file text: some blank lines, and \\n, \\r\\n or \\r endings."""
    out = []
    for line in lines:
        if rng.random() < 0.08:
            out.append(["", "   ", "\t", " \t "][rng.integers(4)])
        out.append(line)
    end = ["\n", "\n", "\r\n", "\r"][rng.integers(4)]
    return "".join(line + end for line in out)


def _random_files(rng, d, name):
    """A dataset with interleaved or grouped indicators, self-loops,
    duplicate and one-way edges, edgeless graphs, node labels and
    attributes; returns the directory."""
    num_graphs = int(rng.integers(1, 9))
    sizes = rng.integers(1, 10, size=num_graphs)
    graph_of = np.repeat(np.arange(num_graphs), sizes)
    if rng.random() < 0.5:
        graph_of = rng.permutation(graph_of)        # graphs interleave
    members = [np.flatnonzero(graph_of == gi) + 1 for gi in range(num_graphs)]
    edge_lines = []
    for nodes in members:
        if rng.random() < 0.25:
            continue                                # edgeless graph
        for _ in range(int(rng.integers(0, 3 * len(nodes) + 1))):
            u, v = rng.choice(nodes, size=2)
            if rng.random() < 0.15:
                v = u                               # self-loop
            pairs = [(u, v)]
            if rng.random() < 0.5:
                pairs.append((v, u))                # both directions
            if rng.random() < 0.2:
                pairs.append((u, v))                # duplicate
            edge_lines += [f"{_index_text(rng, a)},{_index_text(rng, b)}"
                           if rng.random() < 0.3 else f"{a}, {b}"
                           for a, b in pairs]
    order = rng.permutation(len(edge_lines))
    edge_lines = [edge_lines[i] for i in order]
    num_nodes = len(graph_of)
    files = {
        "A": edge_lines,
        "graph_indicator": [_index_text(rng, g + 1) for g in graph_of],
        "graph_labels": [_index_text(rng, int(lab))
                         for lab in rng.integers(-2, 3, size=num_graphs)],
    }
    if rng.random() < 0.6:
        vocab = rng.choice([-3, 0, 1, 2, 7, 40], size=int(rng.integers(1, 5)),
                           replace=False)
        files["node_labels"] = [_index_text(rng, int(lab))
                                for lab in rng.choice(vocab, size=num_nodes)]
    if rng.random() < 0.6:
        width = int(rng.integers(1, 4))
        values = rng.normal(size=(num_nodes, width)) * 10.0 ** rng.integers(
            -9, 9, size=(num_nodes, width))
        values[rng.random(values.shape) < 0.1] = -0.0
        values[rng.random(values.shape) < 0.05] = 0.0
        files["node_attributes"] = [
            ",".join(_attribute_text(rng, float(v)) for v in row)
            for row in values]
    os.makedirs(d)
    for suffix, lines in files.items():
        with open(os.path.join(d, f"{name}_{suffix}.txt"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(_with_blanks(rng, lines))
    return d


def _assert_byte_identical(got, want):
    assert got.name == want.name
    assert len(got) == len(want)
    for g, w in zip(got.graphs, want.graphs):
        assert g.n == w.n and type(g.n) is type(w.n) is int
        assert g.label == w.label and type(g.label) is type(w.label) is int
        for a, b in ((g.adjacency, w.adjacency), (g.features, w.features)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    assert got.label_vocabulary == want.label_vocabulary
    assert dataset_fingerprint(got) == dataset_fingerprint(want)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_parser_bit_equals_line_by_line_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    d = _random_files(rng, str(tmp_path / "R"), "R")
    _assert_byte_identical(parse_tudataset(d, "R"), _reference_parse(d, "R"))


def test_parser_bit_equals_reference_on_written_planted_sets(tmp_path):
    for seed, n_range in ((0, (20, 40)), (1, (1, 4)), (2, (60, 90))):
        gs = planted_anomaly_set(num_normal=12, num_anomalous=5, seed=seed,
                                 n_range=n_range)
        d = str(tmp_path / f"P{seed}")
        write_tudataset(gs, d, "P")
        _assert_byte_identical(parse_tudataset(d, "P"), _reference_parse(d, "P"))


def _graphset_with(rng, widths, label_type=int):
    graphs = []
    for width in widths:
        n = int(rng.integers(1, 8))
        a = (rng.random((n, n)) < 0.35).astype(np.float64)
        a = np.maximum(a, a.T)                      # self-loops kept
        feats = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-7, 7, size=(n, width))
        feats[rng.random(feats.shape) < 0.1] = -0.0
        graphs.append(Graph(n=n, adjacency=a, features=feats,
                            label=label_type(rng.integers(-1, 3))))
    return GraphSet(name="W", graphs=graphs)


@pytest.mark.parametrize("widths", [(3, 3, 3, 3), (0, 0, 0), (2,), (1, 1, 1, 1, 1, 1, 1),
                                    (0, 2, 2), ()])
def test_writer_bytes_equal_reference(tmp_path, rng, widths):
    for label_type in (int, np.int64):
        gs = _graphset_with(rng, widths, label_type)
        new, ref = tmp_path / f"new{label_type.__name__}", tmp_path / f"ref{label_type.__name__}"
        write_tudataset(gs, str(new), "W")
        _reference_write(gs, str(ref), "W")
        assert sorted(os.listdir(new)) == sorted(os.listdir(ref))
        for fname in os.listdir(ref):
            assert (new / fname).read_bytes() == (ref / fname).read_bytes(), fname


def test_writer_bytes_equal_reference_on_planted_set(tmp_path):
    gs = planted_anomaly_set(num_normal=30, num_anomalous=10, seed=5,
                             n_range=(20, 40))
    write_tudataset(gs, str(tmp_path / "new"), "P")
    _reference_write(gs, str(tmp_path / "ref"), "P")
    for fname in os.listdir(tmp_path / "ref"):
        assert ((tmp_path / "new" / fname).read_bytes()
                == (tmp_path / "ref" / fname).read_bytes()), fname
