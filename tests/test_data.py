import os
import tracemalloc

import numpy as np
import pytest

from flowgad.data import (Graph, GraphSet, dataset_fingerprint,
                          majority_class, make_anomaly_split,
                          normalized_adjacency, parse_tudataset,
                          write_tudataset)
from flowgad import data as data_module
from flowgad.errors import ConfigError, ContractViolation, DatasetError
from flowgad.synthetic import planted_anomaly_set


def test_hand_fixture_parses_to_two_graphs(hand_fixture_dir):
    gs = parse_tudataset(hand_fixture_dir, "TINY")
    assert len(gs) == 2
    g0, g1 = gs.graphs
    assert g0.n == 2 and g0.num_edges == 1 and g0.label == 0
    assert np.array_equal(g0.adjacency, [[0.0, 1.0], [1.0, 0.0]])
    assert g1.n == 1 and g1.num_edges == 0 and g1.label == 1
    assert g0.features.shape == (2, 0)


def test_library_graphs_keep_one_byte_per_adjacency_entry(hand_fixture_dir):
    for gs in (parse_tudataset(hand_fixture_dir, "TINY"),
               planted_anomaly_set(num_normal=4, num_anomalous=2)):
        for g in gs.graphs:
            assert g.adjacency.dtype == np.bool_
            assert g.adjacency.nbytes == g.n * g.n


@pytest.mark.parametrize("adjacency, message", [
    (np.array([[False, True], [False, False]]), "symmetric"),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), "symmetric"),
    (np.array([[0.0, 2.0], [2.0, 0.0]]), "0 or 1"),
], ids=["bool-asymmetric", "float-asymmetric", "float-two"])
def test_validate_rejects_a_bad_adjacency(adjacency, message):
    g = Graph(n=2, adjacency=adjacency, features=np.zeros((2, 0)), label=0)
    with pytest.raises(ContractViolation, match=message):
        g.validate()


def test_empty_edge_file_gives_single_edgeless_graph(tmp_path):
    d = tmp_path / "ONE"
    d.mkdir()
    (d / "ONE_A.txt").write_text("")
    (d / "ONE_graph_indicator.txt").write_text("1\n")
    (d / "ONE_graph_labels.txt").write_text("0\n")
    gs = parse_tudataset(str(d), "ONE")
    assert len(gs) == 1
    assert gs.graphs[0].n == 1
    assert gs.graphs[0].num_edges == 0


def test_missing_mandatory_file_names_it(tmp_path):
    d = tmp_path / "GONE"
    d.mkdir()
    (d / "GONE_A.txt").write_text("")
    (d / "GONE_graph_labels.txt").write_text("0\n")
    with pytest.raises(DatasetError, match="GONE_graph_indicator.txt"):
        parse_tudataset(str(d), "GONE")


def test_cross_graph_edge_reports_line(tmp_path):
    d = tmp_path / "XG"
    d.mkdir()
    (d / "XG_A.txt").write_text("1, 2\n2, 3\n")
    (d / "XG_graph_indicator.txt").write_text("1\n1\n2\n")
    (d / "XG_graph_labels.txt").write_text("0\n0\n")
    with pytest.raises(DatasetError, match=r"crosses graphs.*XG_A.txt:2"):
        parse_tudataset(str(d), "XG")


def test_non_integer_reports_line(tmp_path):
    d = tmp_path / "BAD"
    d.mkdir()
    (d / "BAD_A.txt").write_text("")
    (d / "BAD_graph_indicator.txt").write_text("1\noops\n")
    (d / "BAD_graph_labels.txt").write_text("0\n")
    with pytest.raises(DatasetError, match=r"BAD_graph_indicator.txt:2"):
        parse_tudataset(str(d), "BAD")


def test_node_labels_and_attributes_concatenate(tmp_path):
    d = tmp_path / "FEAT"
    d.mkdir()
    (d / "FEAT_A.txt").write_text("1, 2\n2, 1\n")
    (d / "FEAT_graph_indicator.txt").write_text("1\n1\n")
    (d / "FEAT_graph_labels.txt").write_text("0\n")
    (d / "FEAT_node_labels.txt").write_text("3\n7\n")
    (d / "FEAT_node_attributes.txt").write_text("0.5, 1.5\n-2.0, 0.25\n")
    gs = parse_tudataset(str(d), "FEAT")
    # one-hot over {3, 7} first, then the two attribute columns
    assert np.array_equal(gs.graphs[0].features,
                          [[1.0, 0.0, 0.5, 1.5], [0.0, 1.0, -2.0, 0.25]])


def test_duplicate_edges_collapse_and_self_loops_survive(tmp_path):
    d = tmp_path / "DUP"
    d.mkdir()
    (d / "DUP_A.txt").write_text("1, 2\n1, 2\n2, 1\n1, 1\n")
    (d / "DUP_graph_indicator.txt").write_text("1\n1\n")
    (d / "DUP_graph_labels.txt").write_text("0\n")
    gs = parse_tudataset(str(d), "DUP")
    assert np.array_equal(gs.graphs[0].adjacency, [[1.0, 1.0], [1.0, 0.0]])


def test_parse_peak_stays_near_the_edge_table(tmp_path):
    # the edge file's float64 table, one int64 copy of it and a few masks
    # are what a parse must hold at once; the graphs it keeps are on top
    gs = planted_anomaly_set(num_normal=60, num_anomalous=20,
                             n_range=(20, 40), seed=5)
    write_tudataset(gs, str(tmp_path), "P")
    with open(tmp_path / "P_A.txt") as fh:
        table = 16 * sum(1 for _ in fh)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        back = parse_tudataset(str(tmp_path), "P")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back) == len(gs)
    assert peak - kept < 2.5 * table
    assert kept - start < table


def _random_graphset(rng, m=6, with_features=True):
    graphs = []
    for _ in range(m):
        n = int(rng.integers(1, 7))
        upper = np.triu((rng.random((n, n)) < 0.4).astype(np.float64), k=1)
        a = upper + upper.T
        feats = rng.normal(size=(n, 3)) if with_features else np.zeros((n, 0))
        graphs.append(Graph(n=n, adjacency=a, features=feats,
                            label=int(rng.integers(0, 2))).validate())
    return GraphSet(name="RAND", graphs=graphs)


def test_tudataset_roundtrip(tmp_path, rng):
    gs = _random_graphset(rng)
    write_tudataset(gs, str(tmp_path / "rt"), "RAND")
    back = parse_tudataset(str(tmp_path / "rt"), "RAND")
    assert len(back) == len(gs)
    for a, b in zip(gs.graphs, back.graphs):
        assert a.n == b.n
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.features, b.features)
        assert a.label == b.label


def test_tudataset_roundtrip_without_features(tmp_path, rng):
    gs = _random_graphset(rng, with_features=False)
    write_tudataset(gs, str(tmp_path / "rt0"), "RAND")
    back = parse_tudataset(str(tmp_path / "rt0"), "RAND")
    for a, b in zip(gs.graphs, back.graphs):
        assert np.array_equal(a.adjacency, b.adjacency)
        assert b.features.shape == (b.n, 0)


def _edited(gs, edit):
    """A copy of ``gs`` with fresh arrays, changed in place by ``edit``."""
    copy = GraphSet(name=gs.name, graphs=[
        Graph(n=g.n, adjacency=g.adjacency.copy(), features=g.features.copy(),
              label=g.label) for g in gs.graphs])
    edit(copy.graphs)
    return copy


def _flip_edge(graphs):
    g = max(graphs, key=lambda g: g.n)
    g.adjacency[0, 1] = g.adjacency[1, 0] = 1.0 - g.adjacency[0, 1]


def _zero_feature(graphs):
    graphs[0].features[0, 0] = 0.0


def _negate_zero_feature(graphs):
    _zero_feature(graphs)
    graphs[0].features[0, 0] = -0.0


@pytest.mark.parametrize("edit", [
    lambda graphs: setattr(graphs[0], "label", graphs[0].label + 1),
    _flip_edge,
    lambda graphs: graphs.pop(),
    lambda graphs: graphs.insert(0, graphs.pop(1)),
], ids=["label", "edge", "drop", "swap"])
def test_fingerprint_changes_with_any_graph(rng, edit):
    gs = _random_graphset(rng)
    assert (dataset_fingerprint(_edited(gs, lambda graphs: None))
            == dataset_fingerprint(gs))
    assert dataset_fingerprint(_edited(gs, edit)) != dataset_fingerprint(gs)


def test_fingerprint_hashes_feature_bits(rng):
    gs = _random_graphset(rng)
    zero, negative = _edited(gs, _zero_feature), _edited(gs, _negate_zero_feature)
    assert zero.graphs[0].features[0, 0] == negative.graphs[0].features[0, 0]
    assert dataset_fingerprint(zero) != dataset_fingerprint(negative)


def test_fingerprint_keeps_graph_boundaries():
    # one 4-node and one 2-node graph against one 2-node and one 4-node
    # graph: 16 + 4 adjacency bits, all zero, on both sides, and no features
    def graph(n):
        return Graph(n=n, adjacency=np.zeros((n, n)),
                     features=np.zeros((n, 0)), label=0)
    a = GraphSet(name="A", graphs=[graph(4), graph(2)])
    b = GraphSet(name="A", graphs=[graph(2), graph(4)])
    bits = [np.concatenate([np.ravel(g.adjacency != 0) for g in gs.graphs])
            for gs in (a, b)]
    assert np.array_equal(*bits)
    assert dataset_fingerprint(a) != dataset_fingerprint(b)


def test_fingerprint_leaves_out_the_name(rng):
    gs = _random_graphset(rng)
    renamed = GraphSet(name="OTHER", graphs=gs.graphs)
    assert dataset_fingerprint(renamed) == dataset_fingerprint(gs)


def test_split_counts_by_stated_rule():
    graphs = [Graph(n=1, adjacency=np.zeros((1, 1)),
                    features=np.zeros((1, 0)), label=1 if i < 5 else 0)
              for i in range(10)]
    gs = GraphSet(name="S", graphs=graphs)
    split = make_anomaly_split(gs, normal_class=1, test_fraction=0.2, seed=0)
    assert len(split.train) == 4
    assert len(split.test) == 6
    flags = dict(split.test)
    anomalous = [i for i, f in split.test if f]
    normals = [i for i, f in split.test if not f]
    assert sorted(anomalous) == [5, 6, 7, 8, 9]
    assert len(normals) == 1
    assert all(i < 5 for i in split.train)
    assert not any(flags.get(i, False) for i in split.train)


def test_split_partition_property(rng):
    gs = _random_graphset(rng, m=30)
    split = make_anomaly_split(gs, normal_class=0, test_fraction=0.3, seed=9)
    normal_idx = {i for i, g in enumerate(gs.graphs) if g.label == 0}
    anom_idx = {i for i, g in enumerate(gs.graphs) if g.label != 0}
    covered = set(split.train) | {i for i, f in split.test if not f}
    assert covered == normal_idx
    assert {i for i, f in split.test if f} == anom_idx
    assert not (set(split.train) & set(split.test_indices()))


def test_split_determinism_and_seed_sensitivity(rng):
    gs = _random_graphset(rng, m=40)
    a = make_anomaly_split(gs, 0, 0.25, seed=3)
    b = make_anomaly_split(gs, 0, 0.25, seed=3)
    c = make_anomaly_split(gs, 0, 0.25, seed=4)
    assert a.train == b.train and a.test == b.test
    assert a.train != c.train


def test_split_absent_class_rejected(rng):
    gs = _random_graphset(rng)
    with pytest.raises(ConfigError):
        make_anomaly_split(gs, normal_class=99, test_fraction=0.2, seed=0)
    with pytest.raises(ConfigError):
        make_anomaly_split(gs, normal_class=0, test_fraction=1.5, seed=0)


def test_split_all_normal_is_legal():
    graphs = [Graph(n=1, adjacency=np.zeros((1, 1)),
                    features=np.zeros((1, 0)), label=0) for _ in range(8)]
    gs = GraphSet(name="N", graphs=graphs)
    split = make_anomaly_split(gs, 0, 0.25, seed=1)
    assert len(split.train) == 6
    assert all(not f for _, f in split.test)


def test_normalized_adjacency_single_node():
    g = Graph(n=1, adjacency=np.zeros((1, 1)), features=np.zeros((1, 0)),
              label=0)
    assert np.array_equal(normalized_adjacency(g), [[1.0]])


def test_normalized_adjacency_two_node_path():
    g = Graph(n=2, adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
              features=np.zeros((2, 0)), label=0)
    assert np.allclose(normalized_adjacency(g), 0.5)


def test_normalized_adjacency_is_its_formula_bit_for_bit(rng):
    # (A + I) scaled by D^-1/2 on the left, then on the right, with the
    # input adjacency left untouched
    for g in _random_graphset(rng, m=5).graphs:
        before = g.adjacency.copy()
        a_tilde = g.adjacency + np.eye(g.n)
        inv_sqrt_deg = 1.0 / np.sqrt(a_tilde.sum(axis=1))
        expected = a_tilde * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]
        assert np.array_equal(normalized_adjacency(g), expected)
        assert np.array_equal(g.adjacency, before)


def test_normalized_adjacency_permutation_equivariance(rng):
    gs = _random_graphset(rng, m=5)
    for g in gs.graphs:
        perm = rng.permutation(g.n)
        p = np.eye(g.n)[perm]
        permuted = Graph(n=g.n, adjacency=p @ g.adjacency @ p.T,
                         features=np.zeros((g.n, 0)), label=0)
        assert np.allclose(normalized_adjacency(permuted),
                           p @ normalized_adjacency(g) @ p.T)


def test_normalized_adjacency_spectrum_bounded(rng):
    # independent dense eigensolver as the oracle
    for _ in range(20):
        n = int(rng.integers(1, 9))
        upper = np.triu((rng.random((n, n)) < 0.5).astype(np.float64), k=1)
        g = Graph(n=n, adjacency=upper + upper.T,
                  features=np.zeros((n, 0)), label=0)
        eigs = np.linalg.eigvalsh(normalized_adjacency(g))
        assert eigs.min() >= -1.0 - 1e-12
        assert eigs.max() <= 1.0 + 1e-12


def test_majority_class_prefers_smaller_label_on_tie():
    graphs = [Graph(n=1, adjacency=np.zeros((1, 1)),
                    features=np.zeros((1, 0)), label=l)
              for l in (1, 1, 0, 0, 2)]
    assert majority_class(GraphSet(name="T", graphs=graphs)) == 0
    graphs.append(Graph(n=1, adjacency=np.zeros((1, 1)),
                        features=np.zeros((1, 0)), label=1))
    assert majority_class(GraphSet(name="T", graphs=graphs)) == 1


# ---------------------------------------------------------------------------
# parser error paths: each names the error class, the file and the 1-based
# line of the first offending line (line None where no single line is at fault)
# ---------------------------------------------------------------------------

def _write_dataset(root, name, **files):
    """Writes <name>_<suffix>.txt for each keyword; returns the directory."""
    d = root / name
    d.mkdir()
    for suffix, text in files.items():
        (d / f"{name}_{suffix}.txt").write_text(text, encoding="utf-8")
    return str(d)


_TWO_NODES = {"graph_indicator": "1\n1\n", "graph_labels": "0\n"}

PARSE_ERRORS = [
    # (files, message pattern, offending file suffix, line)
    ({"A": "1, 2\n2\n", **_TWO_NODES}, r"^expected 'i, j', got '2' ", "A", 2),
    ({"A": "1, 2, 1\n", **_TWO_NODES}, r"^expected 'i, j', got '1, 2, 1' ", "A", 1),
    ({"A": "1,\n", **_TWO_NODES}, r"^expected an integer, got '' ", "A", 1),
    ({"A": "2, 1\n1.5, 2\n", **_TWO_NODES},
     r"^expected an integer, got '1.5' ", "A", 2),
    ({"A": "1, 2\n2, 1e0x\n", **_TWO_NODES},
     r"^expected an integer, got '1e0x' ", "A", 2),
    ({"A": "1, 3\n", **_TWO_NODES}, r"^edge endpoint out of range: 1, 3 ", "A", 1),
    ({"A": "1, 2\n0, 1\n", **_TWO_NODES},
     r"^edge endpoint out of range: 0, 1 ", "A", 2),
    ({"A": "1, 2\n-1, 2\n", **_TWO_NODES},
     r"^edge endpoint out of range: -1, 2 ", "A", 2),
    ({"A": "1, 2 # both ways\n", **_TWO_NODES},
     r"^expected an integer, got '2 # both ways' ", "A", 1),
    ({"A": "# header\n1, 2\n", **_TWO_NODES},
     r"^expected 'i, j', got '# header' ", "A", 1),
    # the first bad line wins, whatever kind of fault a later line has
    ({"A": "1, 2\n\n1, 9\n1, x\n", **_TWO_NODES},
     r"^edge endpoint out of range: 1, 9 ", "A", 3),
    ({"A": "1, 2\n1, x\n1, 9\n", **_TWO_NODES},
     r"^expected an integer, got 'x' ", "A", 2),
    ({"A": "", "graph_indicator": "1\n1.5\n", "graph_labels": "0\n"},
     r"^expected an integer, got '1.5' ", "graph_indicator", 2),
    ({"A": "", "graph_indicator": "1\n1 # two\n", "graph_labels": "0\n"},
     r"^expected an integer, got '1 # two' ", "graph_indicator", 2),
    ({"A": "", "graph_indicator": "1\n1, 1\n", "graph_labels": "0\n"},
     r"^expected an integer, got '1, 1' ", "graph_indicator", 2),
    ({"A": "", "graph_indicator": "1\n0\n", "graph_labels": "0\n"},
     r"^graph indicator 0 out of range ", "graph_indicator", 2),
    ({"A": "", "graph_indicator": "1\n-2\n1\n", "graph_labels": "0\n"},
     r"^graph indicator -2 out of range ", "graph_indicator", 2),
    # an out-of-range id is named by its line in the file, blank lines counted
    ({"A": "", "graph_indicator": "\n1\n\n0\n", "graph_labels": "0\n"},
     r"^graph indicator 0 out of range ", "graph_indicator", 4),
    ({"A": "", "graph_indicator": "1\n3\n", "graph_labels": "0\n0\n0\n"},
     r"^graph 2 has no nodes ", "graph_indicator", None),
    ({"A": "", "graph_indicator": "\n  \n", "graph_labels": "0\n"},
     r"^graph indicator file is empty ", "graph_indicator", None),
    ({"A": "", "graph_indicator": "1\n2\n", "graph_labels": "0\n"},
     r"^expected 2 graph labels, found 1 ", "graph_labels", None),
    ({"A": "", "graph_indicator": "1\n", "graph_labels": "0\n1\n"},
     r"^expected 1 graph labels, found 2 ", "graph_labels", None),
    ({"A": "", "graph_indicator": "1\n", "graph_labels": "zero\n"},
     r"^expected an integer, got 'zero' ", "graph_labels", 1),
    ({"A": "", "graph_indicator": "1\n", "graph_labels": "\n0.5\n"},
     r"^expected an integer, got '0.5' ", "graph_labels", 2),
    ({"A": "1, 2\n", **_TWO_NODES, "node_labels": "3\n"},
     r"^expected 2 node labels, found 1 ", "node_labels", None),
    ({"A": "1, 2\n", **_TWO_NODES, "node_labels": "3\n4.25\n"},
     r"^expected an integer, got '4.25' ", "node_labels", 2),
    ({"A": "1, 2\n", **_TWO_NODES, "node_attributes": "0.5\n"},
     r"^expected 2 attribute rows, found 1 ", "node_attributes", None),
    ({"A": "1, 2\n", **_TWO_NODES, "node_attributes": "0.5\n0.5\n0.5\n"},
     r"^expected 2 attribute rows, found 3 ", "node_attributes", None),
    ({"A": "1, 2\n", **_TWO_NODES, "node_attributes": "0.5, 1\n\n2.0\n"},
     r"^attribute row has 1 values, expected 2 ", "node_attributes", 3),
    ({"A": "1, 2\n", **_TWO_NODES, "node_attributes": "0.5\n1.0, 2.0\n"},
     r"^attribute row has 2 values, expected 1 ", "node_attributes", 2),
    ({"A": "1, 2\n", **_TWO_NODES, "node_attributes": "0.5\n1.0 # x\n"},
     r"^malformed attribute row '1.0 # x' ", "node_attributes", 2),
    ({"A": "1, 2\n", **_TWO_NODES, "node_attributes": "0.5, \n1.0, 2\n"},
     r"^malformed attribute row '0.5,' ", "node_attributes", 1),
    # earlier files are checked first: a bad indicator hides a bad edge file
    ({"A": "1, 2, 3\n", "graph_indicator": "1\nx\n", "graph_labels": "0\n"},
     r"^expected an integer, got 'x' ", "graph_indicator", 2),
    ({"A": "1, 2\n", **_TWO_NODES, "node_labels": "3\n",
      "node_attributes": "1, 2\n3\n"},
     r"^expected 2 node labels, found 1 ", "node_labels", None),
]


@pytest.mark.parametrize("case", range(len(PARSE_ERRORS)))
def test_parse_error_names_file_and_line(tmp_path, case):
    files, pattern, suffix, line = PARSE_ERRORS[case]
    d = _write_dataset(tmp_path, "ERR", **files)
    with pytest.raises(DatasetError, match=pattern) as info:
        parse_tudataset(d, "ERR")
    assert type(info.value) is DatasetError
    assert info.value.path == os.path.join(d, f"ERR_{suffix}.txt")
    assert info.value.line == line
    expected_loc = info.value.path + ("" if line is None else f":{line}")
    assert str(info.value).endswith(f"[{expected_loc}]")


def test_integral_floats_are_accepted_as_integers(tmp_path):
    d = _write_dataset(tmp_path, "INTF", A="1.0, 2\n2, 1.0\n",
                       graph_indicator="1.0\n1\n2.0\n",
                       graph_labels="3.0\n-1\n", node_labels="1.0\n0\n1\n")
    gs = parse_tudataset(d, "INTF")
    g0, g1 = gs.graphs
    assert (g0.n, g1.n) == (2, 1)
    assert [type(g.label) for g in gs.graphs] == [int, int]
    assert (g0.label, g1.label) == (3, -1)
    assert np.array_equal(g0.adjacency, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(g0.features, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(g1.features, [[0.0, 1.0]])


def test_blank_and_whitespace_only_lines_are_skipped(tmp_path):
    d = _write_dataset(
        tmp_path, "WS",
        A="\n1, 2\n   \n\t\n 2 ,1 \n\n",
        graph_indicator="1\n \n1\n\t\n2\n",
        graph_labels="  \n0\n\n1\n",
        node_labels="5\n\n6\n \t \n5\n",
        node_attributes="0.5, -1\n   \n1e-3,2\n\n-0.0, 7\n")
    gs = parse_tudataset(d, "WS")
    g0, g1 = gs.graphs
    assert (g0.n, g1.n, g0.label, g1.label) == (2, 1, 0, 1)
    assert np.array_equal(g0.adjacency, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(g0.features, [[1.0, 0.0, 0.5, -1.0],
                                        [0.0, 1.0, 1e-3, 2.0]])
    assert np.array_equal(g1.features, [[1.0, 0.0, -0.0, 7.0]])
    assert np.signbit(g1.features[0, 2])


def test_line_numbers_count_blank_lines(tmp_path):
    d = _write_dataset(tmp_path, "LN", A="\n \n1, 2\n\n\t\n2, 5\n",
                       **_TWO_NODES)
    with pytest.raises(DatasetError) as info:
        parse_tudataset(d, "LN")
    assert info.value.line == 6


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "9007199254740992",
                                  "9007199254740993", "1e300", "1_000", "١"])
def test_integer_fields_reject_non_finite_inexact_and_python_only_forms(
        tmp_path, text):
    d = _write_dataset(tmp_path, "BIG", A="", graph_indicator="1\n",
                       graph_labels=f"\n{text}\n")
    with pytest.raises(DatasetError, match="^expected an integer") as info:
        parse_tudataset(d, "BIG")
    assert (info.value.path, info.value.line) == (
        os.path.join(d, "BIG_graph_labels.txt"), 2)


def test_largest_exact_integer_label_is_kept(tmp_path):
    d = _write_dataset(tmp_path, "TOP", A="", graph_indicator="1\n",
                       graph_labels="-9007199254740991\n")
    assert parse_tudataset(d, "TOP").graphs[0].label == 1 - 2 ** 53


@pytest.mark.parametrize("text", ["1_0.5", "0.5#", "0x1p3", "1e5e5"])
def test_attribute_fields_reject_python_only_and_comment_forms(tmp_path, text):
    d = _write_dataset(tmp_path, "ATT", A="", graph_indicator="1\n",
                       graph_labels="0\n", node_attributes=f"{text}\n")
    with pytest.raises(DatasetError, match="^malformed attribute row") as info:
        parse_tudataset(d, "ATT")
    assert info.value.line == 1


# every whitespace character but the line breaks, around and inside a field,
# plus spellings where Python's float and numpy's reader could part ways
_SPACES = [chr(c) for c in range(0x110000)
           if chr(c).isspace() and chr(c) not in "\n\r"]
_FIELD_FORMS = (
    [f"{w}1{w}" for w in _SPACES] + [f"1{w}0" for w in _SPACES]
    + ["", "1_0", "١", "0x10", "1d5", "1j", "(1)", "1e", "e1", "--1", "+-1",
       "#", "1#", "\x00", "﻿1", "1\x00", "infinity", "+nan", "-0.0",
       "1e400", "1e-400", ".5", "1.", "+1", "1E+0", "٫5"])


@pytest.mark.parametrize("form", _FIELD_FORMS)
def test_line_check_and_array_reader_accept_the_same_fields(tmp_path, form):
    """The array reader and the per-line check must agree on each field:
    a file one rejects and the other accepts would either change what
    parses or end in an error that names no line."""
    value = data_module._number(form)
    integral = value is not None and np.isfinite(value) and value == int(value)
    edges = _write_dataset(tmp_path, "EDG", A=f"1, {form}\n", **_TWO_NODES)
    try:
        adjacency = parse_tudataset(edges, "EDG").graphs[0].adjacency
    except DatasetError as err:
        assert not integral or value not in (1, 2)
        assert err.line == 1
    else:
        assert integral and value in (1, 2)
        assert adjacency[0, int(value) - 1] == 1.0
    attrs = _write_dataset(tmp_path, "ATR", A="", graph_indicator="1\n",
                           graph_labels="0\n",
                           node_attributes=f"0.25, {form}\n")
    try:
        row = parse_tudataset(attrs, "ATR").graphs[0].features[0]
    except DatasetError as err:
        assert value is None
        assert err.line == 1
    else:
        assert value is not None
        assert row.tobytes() == np.array([0.25, value]).tobytes()


def test_reader_disagreement_still_names_the_file(tmp_path, monkeypatch):
    d = _write_dataset(tmp_path, "DIS", A="1, 2\n", **_TWO_NODES)
    monkeypatch.setattr(data_module, "_read_table", lambda path: None)
    with pytest.raises(DatasetError,
                       match="^file rejected by the array reader") as info:
        parse_tudataset(d, "DIS")
    assert info.value.path == os.path.join(d, "DIS_graph_indicator.txt")
    assert info.value.line is None
