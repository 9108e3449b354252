import tracemalloc

import numpy as np
import pytest

from flowgad import autodiff as ad
from flowgad.autodiff import Tape, Tensor, gradcheck
from flowgad.errors import ConfigError, ContractViolation
from flowgad.optim import fit, make_rng
from flowgad.source import GcnEncoder
from flowgad.target import GinLayer, GinNetwork, graph_target_loss, train_target

from conftest import (composed_cosine_distance, composed_gcn_layer,
                      composed_gin_layer, reference_distance, tape_bits)


def _rows(u, v):
    """The rowwise cosine distances of constant rows, as a flat array."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    return ad.cosine_distance(ad.constant(u), ad.constant(v)).data.ravel()


def _identity_gin(d, layers=1):
    net = GinNetwork(d, d, d, layers, make_rng(0))
    for layer in net.layers:
        layer.w1.data = np.eye(d)
        layer.b1.data = np.zeros((1, d))
        layer.w2.data = np.eye(d)
        layer.b2.data = np.zeros((1, d))
    return net


def test_single_isolated_node_identity_mlp_passes_through():
    net = _identity_gin(3)
    x = np.array([[1.0, 2.0, 3.0]])   # positive, so the relu is transparent
    out = net.forward(ad.BlockDiag([np.zeros((1, 1))]), ad.constant(x))
    assert np.array_equal(out.data, x)


def test_two_node_path_aggregation():
    net = _identity_gin(2)
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = net.forward(ad.BlockDiag([a]),
                      ad.constant([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(out.data, [[1.0, 1.0], [1.0, 1.0]])


def test_gin_permutation_equivariance(rng):
    n, d = 6, 4
    net = GinNetwork(d, d, d, 2, make_rng(5))
    upper = np.triu((rng.random((n, n)) < 0.5).astype(np.float64), k=1)
    a = upper + upper.T
    x = rng.normal(size=(n, d))
    out = net.forward(ad.BlockDiag([a]), ad.constant(x)).data
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    out_p = net.forward(ad.BlockDiag([p @ a @ p.T]), ad.constant(p @ x)).data
    assert np.allclose(out_p, p @ out)


def test_readout_max_values():
    # the student loss pools each graph by its columnwise max
    h = Tensor(np.array([[1.0, 4.0], [3.0, 2.0]]))
    assert np.array_equal(ad.segment_max(h, (0, 2)).data, [[3.0, 4.0]])
    single = Tensor(np.array([[7.0, -2.0]]))
    assert np.array_equal(ad.segment_max(single, (0, 1)).data, [[7.0, -2.0]])


def test_readout_permutation_invariance(rng):
    h = rng.normal(size=(6, 3))
    perm = rng.permutation(6)
    assert np.array_equal(ad.segment_max(Tensor(h), (0, 6)).data,
                          ad.segment_max(Tensor(h[perm]), (0, 6)).data)


def test_distance_basic_values(rng):
    u = rng.normal(size=(1, 5))
    assert _rows(u, u)[0] == pytest.approx(0.0, abs=1e-12)
    assert _rows(u, -u)[0] == pytest.approx(1.0, abs=1e-12)
    assert _rows([1.0, 0.0], [0.0, 1.0])[0] == pytest.approx(0.5)


def test_distance_zero_policies():
    z = np.zeros(4)
    u = np.array([1.0, 2.0, 0.0, -1.0])
    assert np.array_equal(_rows([z, z, u, u], [z, u, z, u]),
                          [0.0, 0.5, 0.5, 0.0])


def test_distance_properties(rng):
    u = rng.normal(size=(30, 6))
    v = rng.normal(size=(30, 6))
    c = np.abs(rng.normal(size=(30, 1))) + 0.1
    d1 = _rows(u, v)
    assert np.all((0.0 <= d1) & (d1 <= 1.0))
    assert np.allclose(_rows(v, u), d1, rtol=0.0, atol=1e-12)
    assert np.allclose(_rows(c * u, v), d1, rtol=0.0, atol=1e-12)


def test_cosine_distance_rejects_shape_mismatch():
    with pytest.raises(ContractViolation, match="shape mismatch"):
        _rows(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(ContractViolation, match="shape mismatch"):
        _rows(np.ones((2, 3)), np.ones((3, 3)))


def test_pair_distances_match_scalar_route(rng):
    u = rng.normal(size=(5, 3))
    v = rng.normal(size=(5, 3))
    u[3] = v[3] = 0.0
    v[4] = 0.0
    rows = _rows(u, v)
    for i in range(5):
        assert rows[i] == pytest.approx(reference_distance(u[i], v[i]),
                                        abs=1e-15)


def test_zero_row_pair_costs_nothing_and_passes_no_gradient(rng):
    # rows 0 and 1 agree and disagree as usual; row 2 is zero on both sides
    u_data = np.vstack([rng.normal(size=(2, 4)), np.zeros((1, 4))])
    v_data = np.vstack([u_data[:1], rng.normal(size=(1, 4)), np.zeros((1, 4))])
    u = Tensor(u_data, requires_grad=True)
    v = Tensor(v_data, requires_grad=True)
    with ad.Tape() as tape:
        dist = ad.cosine_distance(u, v)
        loss = ad.reduce_sum(dist)
    tape.backward(loss)
    assert dist.data[2, 0] == 0.0
    assert np.array_equal(dist.data[:2, 0], _rows(u_data[:2], v_data[:2]))
    assert np.array_equal(u.grad[2], np.zeros(4))
    assert np.array_equal(v.grad[2], np.zeros(4))
    assert np.all(np.isfinite(u.grad)) and np.any(u.grad[1] != 0.0)
    # a whole loss made of zero/zero pairs is 0 with a zero gradient
    out = Tensor(np.zeros((3, 4)), requires_grad=True)
    with ad.Tape() as tape:
        loss = graph_target_loss(out, np.zeros((3, 4)), beta=0.5,
                                 offsets=(0, 3))
    tape.backward(loss)
    assert loss.item() == 0.0
    assert np.array_equal(out.grad, np.zeros((3, 4)))


def test_one_zero_row_pair_has_a_bounded_gradient():
    # row 0 of u is zero against a nonzero v row: it costs 0.5, and its
    # gradient is -v/2 (d cos = v / |v| |u| would blow up at |u| = 0)
    u = Tensor(np.array([[0.0, 0.0], [1.0, 2.0]]), requires_grad=True)
    v = Tensor(np.array([[0.3, -0.4], [1.0, 0.0]]), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.cosine_distance(u, v))
    tape.backward(loss)
    assert loss.item() == 0.7763932022500211
    assert np.allclose(u.grad[0], [-0.15, 0.2], rtol=0.0, atol=1e-15)
    assert np.array_equal(v.grad[0], np.zeros(2))
    assert np.all(np.abs(u.grad) < 1.0) and np.all(np.abs(v.grad) < 1.0)


def _distance_bits(distances, u_data, v_data, track, weights, reread):
    """A weighted sum of the rowwise distances of u and v, built through
    ``distances``: the distances, the loss and each tracked side's
    gradient, as bytes. With ``reread`` a term recorded after the distance
    reads u and v, so their gradient buffers are already written when the
    distance's backward runs."""
    u = Tensor(u_data.copy(), requires_grad=track[0])
    v = Tensor(v_data.copy(), requires_grad=track[1])
    with Tape() as tape:
        dist = distances(u, v)
        loss = ad.reduce_sum(ad.mul(dist, ad.constant(weights)))
        if reread:
            loss = ad.add(loss, ad.reduce_sum(ad.mul(u, v)))
    tape.backward(loss)
    return [dist.data.tobytes(), loss.data.tobytes()] + [
        t.grad.tobytes() for t, tracked in zip((u, v), track) if tracked]


def _distance_cases(rng):
    for n in [1, 2, 5] + [int(k) for k in rng.integers(6, 40, size=4)]:
        d = int(rng.integers(1, 9))
        u, v = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        yield "random", u, v
        # one zero row on either side, and zero/zero pairs
        rows = rng.random(n)
        u[rows < 0.3] = 0.0
        v[(rows >= 0.2) & (rows < 0.5)] = 0.0
        yield "zero rows", u, v
        u[0] = v[0] = 0.0
        yield "zero/zero", u, v
        yield "parallel", u, u * np.abs(rng.normal(size=(n, 1)))


@pytest.mark.parametrize("track", [(True, False), (False, True), (True, True)])
@pytest.mark.parametrize("reread", [False, True])
def test_fused_cosine_distance_bit_equals_composed_chain(rng, track, reread):
    for kind, u, v in _distance_cases(rng):
        weights = rng.normal(size=(u.shape[0], 1))
        fused = _distance_bits(ad.cosine_distance, u, v, track, weights,
                               reread)
        chain = _distance_bits(composed_cosine_distance, u, v, track, weights,
                               reread)
        assert fused == chain, (kind, u.shape, track, reread)


def test_cosine_distance_records_one_tape_node(rng):
    u = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    with Tape() as tape:
        ad.cosine_distance(u, ad.constant(np.zeros((4, 3))))
    assert [node.op for node in tape.nodes] == ["cosine_distance"]


def test_target_loss_zero_when_outputs_match(rng):
    out = rng.normal(size=(4, 3))
    loss = graph_target_loss(Tensor(out), out.copy(), beta=0.6,
                             offsets=(0, 4))
    assert loss.item() < 1e-12


def test_target_loss_beta_extremes(rng):
    out = rng.normal(size=(3, 2))
    z_nodes = rng.normal(size=(3, 2))
    node_only = graph_target_loss(Tensor(out), z_nodes, beta=1.0,
                                  offsets=(0, 3))
    expected = np.mean([reference_distance(out[i], z_nodes[i])
                        for i in range(3)])
    assert node_only.item() == pytest.approx(expected, abs=1e-9)
    graph_only = graph_target_loss(Tensor(out), z_nodes, beta=0.0,
                                   offsets=(0, 3))
    assert graph_only.item() == pytest.approx(
        reference_distance(out.max(axis=0), z_nodes.max(axis=0)), abs=1e-9)


def test_target_loss_anticolinear_saturates():
    out = np.array([[1.0, 2.0]])
    loss = graph_target_loss(Tensor(out), -out, beta=0.3, offsets=(0, 1))
    assert loss.item() == pytest.approx(1.0, abs=1e-9)


def test_target_loss_validation(rng):
    out = Tensor(rng.normal(size=(3, 2)))
    z = rng.normal(size=(3, 2))
    with pytest.raises(ConfigError):
        graph_target_loss(out, z, beta=-0.1, offsets=(0, 3))
    with pytest.raises(ContractViolation):
        graph_target_loss(out, rng.normal(size=(4, 2)), beta=0.5,
                          offsets=(0, 3))


def test_train_target_zero_epochs_noop(rng):
    net = GinNetwork(3, 4, 4, 2, make_rng(1))
    before = [p.data.copy() for p in net.params()]
    inputs = [(ad.BlockDiag([np.zeros((2, 2))]), rng.normal(size=(2, 3)),
               rng.normal(size=(2, 4)))]
    trace = train_target(net, inputs, beta=0.6, epochs=0, lr=1e-3)
    assert trace == []
    for b, p in zip(before, net.params()):
        assert np.array_equal(b, p.data)


def test_train_target_descends(rng):
    a = ad.BlockDiag([np.array([[0.0, 1.0], [1.0, 0.0]])])
    inputs = [(a, rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))]
    net = GinNetwork(3, 4, 4, 2, make_rng(2))
    trace = train_target(net, inputs, beta=0.6, epochs=100, lr=1e-2)
    assert trace[-1] < trace[0]


def test_train_target_determinism(rng):
    a = ad.BlockDiag([np.array([[0.0]])])
    inputs = [(a, rng.normal(size=(1, 3)), rng.normal(size=(1, 4)))]

    def run():
        net = GinNetwork(3, 4, 4, 2, make_rng(3))
        trace = train_target(net, inputs, beta=0.6, epochs=6, lr=1e-3)
        return trace, [p.data.copy() for p in net.params()]

    t1, p1 = run()
    t2, p2 = run()
    assert t1 == t2
    for x, y in zip(p1, p2):
        assert np.array_equal(x, y)


def test_second_step_allocates_no_float_adjacency(rng):
    # numpy reports its data buffers to tracemalloc; the first step grows
    # the workspace by the float64 copy of the bool adjacency, and the
    # steps after it cast into the same region
    n = 200
    upper = np.triu(rng.random((n, n)) < 0.03, k=1)
    pack = (ad.BlockDiag([upper | upper.T]), rng.normal(size=(n, 4)),
            rng.normal(size=(n, 3)))
    net = GinNetwork(4, 3, 3, 2, make_rng(0))
    marks = []

    def pack_loss(p):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        prop, x_init, z_nodes = p
        out = net.forward(prop, ad.constant(x_init))
        return graph_target_loss(out, z_nodes, 0.6, prop.offsets)

    tracemalloc.start()
    try:
        fit(net.params(), [pack], pack_loss, epochs=3, lr=1e-3,
            what="distillation")
    finally:
        tracemalloc.stop()
    # each mark's peak covers the step before it
    (start1, _), (start2, peak1), (_, peak2) = marks
    assert peak1 - start1 >= n * n * 8
    assert peak2 - start2 < n * n * 8


def test_target_loss_gradcheck_away_from_ties(rng):
    a = ad.BlockDiag([np.array([[0.0, 1.0], [1.0, 0.0]])])
    x = rng.normal(size=(2, 3))
    z_nodes = rng.normal(size=(2, 4))
    net = GinNetwork(3, 4, 4, 2, make_rng(9))

    def fn(*params):
        out = net.forward(a, ad.constant(x))
        return graph_target_loss(out, z_nodes, beta=0.6, offsets=a.offsets)

    assert gradcheck(fn, net.params()) < 1e-4


def _adjacency(rng, n):
    upper = np.triu(rng.random((n, n)) < 0.4, k=1)
    return upper | upper.T


def _gin_operands(rng, n):
    """(kind, A, rows) over the packs a GIN layer receives: one graph's
    float matrix, and the float cast of a bool pack that holds 1-node
    graphs."""
    yield "graph", ad.BlockDiag([_adjacency(rng, n).astype(np.float64)]), n
    sizes = [1] + [int(k) for k in rng.integers(1, 9, size=3)] + [1]
    pack = ad.as_float(ad.BlockDiag([_adjacency(rng, k) for k in sizes]))
    yield "pack", pack, sum(sizes)


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("reread", [False, True])
def test_fused_gin_layer_bit_equals_composed_chain(rng, track, reread):
    for trial in range(5):
        d_in, hidden, d_out = (int(k) for k in rng.integers(1, 6, size=3))
        layer = GinLayer(d_in, hidden, d_out, make_rng(trial))
        for bias in (layer.b1, layer.b2):
            bias.data = rng.normal(size=bias.shape)
        n = 1 if trial == 0 else int(rng.integers(2, 9))
        for kind, a, rows in _gin_operands(rng, n):
            h = Tensor(rng.normal(size=(rows, d_in)), requires_grad=track)
            tensors = [h] + layer.params()
            fused = tape_bits(lambda h, *p: ad.gin_layer(a, h, *p), tensors,
                              reread)
            chain = tape_bits(lambda h, *p: composed_gin_layer(a, h, *p),
                              tensors, reread)
            assert len(fused) == 6 + track
            assert fused == chain, (kind, rows, track, reread)


def test_gin_layer_rejects_a_misfit_operand(rng):
    layer = GinLayer(2, 3, 2, make_rng(0))
    h = Tensor(rng.normal(size=(3, 2)))
    with pytest.raises(ContractViolation, match="do not fit"):
        layer.forward(ad.BlockDiag([np.eye(4)]), h)


def test_gcn_student_trains_bit_equal_to_the_composed_chain(monkeypatch, rng):
    # the asy_st student is a GcnEncoder trained on A_hat packs
    sizes = [1, 7, 12, 5]
    a_hats = []
    for n in sizes:
        a = _adjacency(rng, n).astype(np.float64) + np.eye(n)
        scale = 1.0 / np.sqrt(a.sum(axis=1))
        a_hats.append(a * scale[:, None] * scale[None, :])
    packs = [(ad.BlockDiag(a_hats[:2]), rng.normal(size=(8, 3)),
              rng.normal(size=(8, 4))),
             (ad.BlockDiag(a_hats[2:]), rng.normal(size=(17, 3)),
              rng.normal(size=(17, 4)))]

    def run():
        student = GcnEncoder(3, 5, 4, 2, make_rng(4))
        trace = train_target(student, packs, beta=0.6, epochs=3, lr=1e-2)
        return trace, [p.data.tobytes() for p in student.params()]

    fused = run()
    monkeypatch.setattr(ad, "gcn_layer", composed_gcn_layer)
    assert fused == run()
