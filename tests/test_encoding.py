import numpy as np
import pytest

from flowgad.data import Graph
from flowgad.encoding import build_init_features, rw_structural_encoding
from flowgad.errors import ContractViolation


def _graph(a, feats=None):
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if feats is None:
        feats = np.zeros((n, 0))
    return Graph(n=n, adjacency=a, features=np.asarray(feats, np.float64),
                 label=0).validate()


def test_isolated_node_encodes_to_zeros():
    g = _graph(np.zeros((1, 1)))
    assert np.array_equal(rw_structural_encoding(g, 4), [[0.0, 0.0, 0.0, 0.0]])


def test_single_edge_alternates():
    # the walk flips between the two endpoints every step
    g = _graph([[0, 1], [1, 0]])
    enc = rw_structural_encoding(g, 4)
    assert np.array_equal(enc, [[0, 1, 0, 1], [0, 1, 0, 1]])


def test_triangle_return_probability():
    g = _graph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    enc = rw_structural_encoding(g, 2)
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
        enc = rw_structural_encoding(g, 6)
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
    assert np.allclose(rw_structural_encoding(permuted, 5),
                       p @ rw_structural_encoding(g, 5))


def test_disconnected_union_is_blockwise(rng):
    a1 = np.array([[0, 1], [1, 0]], dtype=np.float64)
    upper = np.triu((rng.random((3, 3)) < 0.7).astype(np.float64), k=1)
    a2 = upper + upper.T
    union = np.zeros((5, 5))
    union[:2, :2] = a1
    union[2:, 2:] = a2
    enc_union = rw_structural_encoding(_graph(union), 4)
    assert np.allclose(enc_union[:2], rw_structural_encoding(_graph(a1), 4))
    assert np.allclose(enc_union[2:], rw_structural_encoding(_graph(a2), 4))


def test_invalid_step_count_rejected():
    with pytest.raises(ContractViolation):
        rw_structural_encoding(_graph(np.zeros((1, 1))), 0)


def test_init_features_attribute_free_is_pure_structure():
    g = _graph([[0, 1], [1, 0]])
    x = build_init_features(g, k_se=3)
    assert np.array_equal(x, rw_structural_encoding(g, 3))


def test_init_features_concatenation_order():
    g = _graph([[0, 1], [1, 0]], feats=[[1.0], [2.0]])
    x = build_init_features(g, k_se=2)
    assert np.array_equal(x, [[1.0, 0.0, 1.0], [2.0, 0.0, 1.0]])


def test_init_features_degree_column_optional():
    g = _graph([[0, 1], [1, 0]], feats=[[5.0], [6.0]])
    with_deg = build_init_features(g, k_se=2, include_degree=True)
    assert with_deg.shape == (2, 4)
    assert np.array_equal(with_deg[:, 1], [1.0, 1.0])   # degree column


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
            enc = rw_structural_encoding(g, k_se)
            assert enc.shape == (g.n, k_se)
            assert np.max(np.abs(enc - oracle[:, :k_se])) <= 1e-12
            assert enc.min() >= 0.0 and enc.max() <= 1.0
