import math
import tracemalloc

import numpy as np
import pytest

from flowgad import autodiff as ad
from flowgad import pipeline
from flowgad.data import Graph, GraphSet, normalized_adjacency
from flowgad.encoding import product_plan, rw_structural_encoding
from flowgad.errors import ContractViolation
from flowgad.pipeline import ExperimentConfig, precompute_inputs


def _graph(a, feats=None):
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if feats is None:
        feats = np.zeros((n, 0))
    return Graph(n=n, adjacency=a, features=np.asarray(feats, np.float64),
                 label=0).validate()


def test_isolated_node_encodes_to_zeros():
    g = _graph(np.zeros((1, 1)))
    assert np.array_equal(rw_structural_encoding(g.adjacency, 4),
                          [[0.0, 0.0, 0.0, 0.0]])


def test_single_edge_alternates():
    # the walk flips between the two endpoints every step
    g = _graph([[0, 1], [1, 0]])
    enc = rw_structural_encoding(g.adjacency, 4)
    assert np.array_equal(enc, [[0, 1, 0, 1], [0, 1, 0, 1]])


def test_triangle_return_probability():
    g = _graph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    enc = rw_structural_encoding(g.adjacency, 2)
    assert np.allclose(enc[:, 0], 0.0)
    assert np.allclose(enc[:, 1], 0.5)


def test_matches_dense_power_oracle(rng):
    for _ in range(15):
        n = int(rng.integers(1, 9))
        upper = np.triu((rng.random((n, n)) < 0.5).astype(np.float64), k=1)
        g = _graph(upper + upper.T)
        deg = g.adjacency.sum(axis=1)
        walk = np.divide(g.adjacency, deg[:, None],
                         out=np.zeros_like(g.adjacency), where=deg[:, None] > 0)
        enc = rw_structural_encoding(g.adjacency, 6)
        for t in range(1, 7):
            expected = np.diagonal(np.linalg.matrix_power(walk, t))
            assert np.allclose(enc[:, t - 1], expected, atol=1e-12)
        assert enc.min() >= 0.0 and enc.max() <= 1.0


def test_permutation_equivariance(rng):
    n = 6
    upper = np.triu((rng.random((n, n)) < 0.5).astype(np.float64), k=1)
    g = _graph(upper + upper.T)
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    permuted = _graph(p @ g.adjacency @ p.T)
    assert np.allclose(rw_structural_encoding(permuted.adjacency, 5),
                       p @ rw_structural_encoding(g.adjacency, 5))


def test_disconnected_union_is_blockwise(rng):
    a1 = np.array([[0, 1], [1, 0]], dtype=np.float64)
    upper = np.triu((rng.random((3, 3)) < 0.7).astype(np.float64), k=1)
    a2 = upper + upper.T
    union = np.zeros((5, 5))
    union[:2, :2] = a1
    union[2:, 2:] = a2
    enc_union = rw_structural_encoding(union, 4)
    assert np.allclose(enc_union[:2], rw_structural_encoding(a1, 4))
    assert np.allclose(enc_union[2:], rw_structural_encoding(a2, 4))


def test_invalid_step_count_rejected():
    with pytest.raises(ContractViolation):
        rw_structural_encoding(np.zeros((1, 1)), 0)


def _initial_features(g, k_se):
    return precompute_inputs(GraphSet(name="one", graphs=[g]),
                             ExperimentConfig(k_se=k_se), [0])[0].x_init


def test_init_features_attribute_free_is_pure_structure():
    g = _graph([[0, 1], [1, 0]])
    x = _initial_features(g, k_se=3)
    assert np.array_equal(x, rw_structural_encoding(g.adjacency, 3))


def test_init_features_concatenation_order():
    g = _graph([[0, 1], [1, 0]], feats=[[1.0], [2.0]])
    x = _initial_features(g, k_se=2)
    assert np.array_equal(x, [[1.0, 0.0, 1.0], [2.0, 0.0, 1.0]])


def _power_loop_encoding(a, k_se):
    """The k_se - 1 dense products of D^-1 A that the encoding replaced."""
    deg = a.sum(axis=1)
    inv_deg = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
    walk = a * inv_deg[:, None]
    out = np.empty((a.shape[0], k_se))
    power = walk.copy()
    out[:, 0] = np.diagonal(power)
    for t in range(1, k_se):
        power = power @ walk
        out[:, t] = np.diagonal(power)
    return out


def _sparse_graph(rng, n, mean_degree, loop_p=0.1, isolated_p=0.1):
    """Random graph with self-loops and isolated nodes."""
    upper = np.triu((rng.random((n, n)) < mean_degree / max(n, 1))
                    .astype(np.float64), k=1)
    a = upper + upper.T
    a[np.diag_indices(n)] = rng.random(n) < loop_p
    cut = rng.random(n) < isolated_p
    a[cut, :] = 0.0
    a[:, cut] = 0.0
    return _graph(a)


K_SE_VALUES = (1, 2, 3, 8, 16, 17)


def test_two_power_walk_matches_power_loop(rng):
    graphs = [_graph(np.zeros((1, 1))), _graph([[1.0]]),
              _graph([[0, 1], [1, 0]]), _graph([[1, 1], [1, 0]]),
              _graph([[0, 1, 0], [1, 1, 1], [0, 1, 0]]),
              _graph(np.zeros((3, 3))), _graph(np.ones((3, 3)))]
    graphs += [_sparse_graph(rng, int(rng.integers(1, 61)),
                             mean_degree=float(rng.uniform(0.5, 12)))
               for _ in range(40)]
    graphs += [_sparse_graph(rng, 300, 5.0), _sparse_graph(rng, 600, 5.0),
               _sparse_graph(rng, 300, 60.0, loop_p=0.5, isolated_p=0.0)]
    for g in graphs:
        oracle = _power_loop_encoding(g.adjacency, max(K_SE_VALUES))
        for k_se in K_SE_VALUES:
            enc = rw_structural_encoding(g.adjacency, k_se)
            assert enc.shape == (g.n, k_se)
            assert np.max(np.abs(enc - oracle[:, :k_se])) <= 1e-12
            assert enc.min() >= 0.0 and enc.max() <= 1.0


# column t = vecdot(S^a, S^b) for these (a, b), as the product plan takes them
_PLAN_PAIRS = {2: (1, 1), 3: (1, 2), 4: (2, 2), 5: (1, 4), 6: (2, 4), 7: (2, 5),
               8: (4, 4), 9: (4, 5), 10: (5, 5), 11: (1, 10), 12: (4, 8),
               13: (5, 8), 14: (4, 10), 15: (5, 10), 16: (8, 8), 17: (8, 9)}


def _graph_by_graph_encoding(a, k_se):
    """The product plan written out for one graph on plain 2-D arrays, up
    to k_se = 17: the in-suite reference for the encoding's bits."""
    assert k_se <= max(_PLAN_PAIRS)
    deg = a.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    s = a * inv_sqrt[:, None] * inv_sqrt[None, :]

    p = {1: s}
    p[2] = s @ s.T
    p[4] = p[2] @ p[2].T
    p[5] = p[4] @ s
    p[10] = p[5] @ p[5].T
    p[8] = p[4] @ p[4].T
    p[9] = p[8] @ s
    out = np.empty((a.shape[0], k_se), dtype=np.float64)
    out[:, 0] = np.diagonal(s)
    for t in range(2, k_se + 1):
        x, y = _PLAN_PAIRS[t]
        out[:, t - 1] = np.vecdot(p[x], p[y])
    return out


def _same_size_graphs(rng, n, count):
    """``count`` n-node graphs: the empty graph, a self-loop-only one, a
    complete one, then random ones with self-loops and isolated nodes."""
    graphs = [_graph(np.zeros((n, n))), _graph(np.eye(n)),
              _graph(np.ones((n, n)) - np.eye(n))]
    graphs += [_sparse_graph(rng, n, mean_degree=float(rng.uniform(0.5, 6)),
                             loop_p=0.2, isolated_p=0.2)
               for _ in range(count - len(graphs))]
    return graphs


@pytest.mark.parametrize("k_se", K_SE_VALUES)
def test_stack_bit_equals_each_graph_alone(rng, k_se):
    # a stack runs the same arithmetic on each slice, so every row keeps
    # the bits of its graph encoded alone, squares (syrk) included, up to
    # 256 nodes, the largest graphs that precompute_inputs stacks
    for n, count in ((1, 9), (2, 9), (7, 9), (40, 9), (256, 4)):
        graphs = _same_size_graphs(rng, n, count)
        stack = np.stack([g.adjacency for g in graphs])
        enc = rw_structural_encoding(stack, k_se)
        assert enc.shape == (len(graphs), n, k_se)
        for g, rows in zip(graphs, enc):
            alone = rw_structural_encoding(g.adjacency, k_se)
            assert np.array_equal(rows, alone)
            assert np.array_equal(alone,
                                  _graph_by_graph_encoding(g.adjacency, k_se))


def _mixed_set(rng):
    """Graphs of sizes 1-12 in shuffled order, some sizes repeated often,
    plus one attribute column so the concatenation is exercised."""
    sizes = [1, 1, 3, 5, 5, 5, 5, 5, 5, 5, 12, 9, 12, 3, 5, 9, 1, 12]
    graphs = []
    for n in rng.permutation(sizes):
        g = _sparse_graph(rng, int(n), mean_degree=2.5)
        g.features = rng.normal(size=(int(n), 1))
        graphs.append(g)
    return GraphSet(name="mixed", graphs=graphs)


@pytest.mark.parametrize("budget", [pipeline.STACK_ELEMENTS, 100, 75, 1])
def test_precompute_inputs_bit_equals_the_per_graph_formula(rng, monkeypatch,
                                                           budget):
    # at 100 elements the 5-node group of eight is cut into chunks of four,
    # the 9- and 12-node graphs are encoded one at a time; at 1 only the
    # single-node graphs are stacked
    monkeypatch.setattr(pipeline, "STACK_ELEMENTS", budget)
    calls = []

    def spy(adjacency, k_se, scratch):
        calls.append(adjacency.shape)
        return rw_structural_encoding(adjacency, k_se, scratch)

    monkeypatch.setattr(pipeline, "rw_structural_encoding", spy)
    gs = _mixed_set(rng)
    indices = list(range(len(gs)))[::-1]
    inputs = precompute_inputs(gs, ExperimentConfig(k_se=7), indices)
    assert list(inputs) == indices
    for i, gi in inputs.items():
        g = gs.graphs[i]
        assert gi.adjacency is g.adjacency
        [dense] = ad.as_float(ad.BlockDiag([gi.a_hat])).blocks
        assert dense.tobytes() == normalized_adjacency(g).tobytes()
        expected = np.concatenate(
            [g.features, _graph_by_graph_encoding(g.adjacency, 7)], axis=1)
        assert np.array_equal(gi.x_init, expected)
    sizes = [g.n for g in gs.graphs]
    for n in set(sizes):
        encoded = sum(shape[0] if len(shape) == 3 else 1
                      for shape in calls if shape[-1] == n)
        assert encoded == sizes.count(n)
        if n * n > budget:
            assert calls.count((n, n)) == sizes.count(n)
        else:
            step = budget // (n * n)
            chunks = [shape[0] for shape in calls if shape[1:] == (n, n)]
            assert chunks == [min(step, sizes.count(n) - start)
                              for start in range(0, sizes.count(n), step)]
    if budget == 100:
        assert [s for s in calls if s[1:] == (5, 5)] == [(4, 5, 5), (4, 5, 5)]


def test_precompute_inputs_builds_only_the_indices_asked_for(rng):
    gs = _mixed_set(rng)
    inputs = precompute_inputs(gs, ExperimentConfig(k_se=4), [3, 0, 17])
    assert list(inputs) == [3, 0, 17]
    assert precompute_inputs(gs, ExperimentConfig(k_se=4), []) == {}


def _run_plan(k_se):
    """Walk ``product_plan(k_se)`` on exponents alone: the columns in the
    order taken, the products as (made, left, right), and the most powers of
    S alive at once, S included."""
    alive, columns, products, most = {1}, [1], [], 1
    for op, i, a, b in product_plan(k_se):
        if op == "free":
            alive.remove(i)
            continue
        assert a in alive and b in alive
        if op == "product":
            assert i == a + b and i not in alive
            alive.add(i)
            products.append((i, a, b))
            most = max(most, len(alive))
        else:
            assert op == "column" and i == a + b
            columns.append(i)
    return columns, products, most


@pytest.mark.parametrize("k_se", range(1, 41))
def test_product_plan_takes_each_column_once_in_few_products(k_se):
    columns, products, most = _run_plan(k_se)
    assert sorted(columns) == list(range(1, k_se + 1))
    assert len(products) <= max(math.ceil(k_se / 2) - 1, 0)
    assert most <= 4
    if k_se == 16:
        assert len(products) == 5
        assert sum(a == b for _, a, b in products) >= 3


def test_peak_memory_is_four_n_by_n_arrays(rng):
    n = 600
    a = _sparse_graph(rng, n, 5.0).adjacency
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rw_structural_encoding(a, 16)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4.05 * n * n * 8


def test_scratch_holds_every_power(rng):
    # with a scratch buffer the call allocates no n x n array, and the
    # bits are those of the call without one
    n = 300
    a = _sparse_graph(rng, n, 5.0).adjacency
    scratch = np.empty(4 * n * n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        enc = rw_structural_encoding(a, 16, scratch)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    assert np.array_equal(enc, rw_structural_encoding(a, 16))
    with pytest.raises(ContractViolation, match="scratch"):
        rw_structural_encoding(a, 16, scratch[:-1])
