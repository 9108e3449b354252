import tracemalloc
import weakref

import numpy as np
import pytest

from flowgad import autodiff as ad
from flowgad.autodiff import Tape, Tensor, gradcheck
from flowgad.data import Graph, normalized_adjacency
from flowgad.encoding import rw_structural_encoding
from flowgad.errors import ConfigError, ContractViolation, TrainingFault
from flowgad.optim import fit, glorot_init, is_frozen, make_rng
from flowgad.pipeline import (ExperimentConfig, precompute_inputs, score_seed,
                              train_seed)
from flowgad.source import (CLAMP_HI, CLAMP_LO, FeatureDecoder, GcnEncoder,
                            adjacency_recon_loss, feature_recon_loss,
                            graph_source_loss, pretrain_source, source_loss)
from flowgad.synthetic import planted_anomaly_set

from conftest import composed_gcn_layer, tape_bits


def _identity_encoder(d):
    enc = GcnEncoder(d, d, d, 1, make_rng(0))
    enc.weights[0].data = np.eye(d)
    return enc


def test_single_node_identity_propagation():
    enc = _identity_encoder(3)
    h = enc.forward(ad.BlockDiag([np.array([[1.0]])]),
                    ad.constant([[2.0, -1.0, 0.5]]))
    assert np.array_equal(h.data, [[2.0, -1.0, 0.5]])


def test_two_node_path_hand_product():
    enc = _identity_encoder(2)
    a_hat = ad.BlockDiag([np.array([[0.5, 0.5], [0.5, 0.5]])])
    h = enc.forward(a_hat, ad.constant([[2.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(h.data, [[1.0, 1.0], [1.0, 1.0]])


def test_gcn_permutation_equivariance(rng):
    n, d = 5, 4
    enc = GcnEncoder(d, 6, 4, 2, make_rng(3))
    upper = np.triu((rng.random((n, n)) < 0.5).astype(np.float64), k=1)
    g = Graph(n=n, adjacency=upper + upper.T, features=rng.normal(size=(n, d)),
              label=0)
    a_hat = normalized_adjacency(g)
    h = enc.forward(ad.BlockDiag([a_hat]), ad.constant(g.features)).data
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    h_p = enc.forward(ad.BlockDiag([p @ a_hat @ p.T]),
                      ad.constant(p @ g.features)).data
    assert np.allclose(h_p, p @ h)


def _a_hat(rng, n):
    upper = np.triu((rng.random((n, n)) < 0.4).astype(np.float64), k=1)
    g = Graph(n=n, adjacency=upper + upper.T, features=np.zeros((n, 0)),
              label=0)
    return normalized_adjacency(g)


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("relu", [False, True])
def test_fused_gcn_layer_bit_equals_composed_chain(rng, track, relu):
    for trial in range(5):
        d_in, d_out = (int(k) for k in rng.integers(1, 6, size=2))
        w = glorot_init(d_in, d_out, make_rng(trial))
        n = 1 if trial == 0 else int(rng.integers(2, 9))
        a_hat = _a_hat(rng, n)
        sizes = [1] + [int(k) for k in rng.integers(1, 9, size=3)] + [1]
        pack = ad.BlockDiag([_a_hat(rng, k) for k in sizes])
        for kind, operand, rows in (("graph", ad.BlockDiag([a_hat]), n),
                                    ("pack", pack, sum(sizes))):
            h = Tensor(rng.normal(size=(rows, d_in)), requires_grad=track)
            for reread in (False, True):
                fused = tape_bits(
                    lambda h, w: ad.gcn_layer(operand, h, w, relu), [h, w],
                    reread)
                chain = tape_bits(
                    lambda h, w: composed_gcn_layer(operand, h, w, relu),
                    [h, w], reread)
                assert len(fused) == 3 + track
                assert fused == chain, (kind, rows, track, reread)


def test_gcn_layer_rejects_a_misfit_operand(rng):
    w = glorot_init(2, 3, make_rng(0))
    h = Tensor(rng.normal(size=(3, 2)))
    with pytest.raises(ContractViolation, match="do not fit"):
        ad.gcn_layer(ad.BlockDiag([np.eye(4)]), h, w, True)


def test_recon_loss_single_node_zero_embedding():
    h = Tensor(np.zeros((1, 2)))
    loss = adjacency_recon_loss(h, ad.BlockDiag([np.zeros((1, 1))]))
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_recon_loss_saturates_to_zero_on_perfect_fit():
    # logits +-900: sigmoid(h_i . h_j) matches A up to clamping
    h = Tensor(np.array([[30.0, 0.0], [30.0, 0.0], [-30.0, 0.0]]))
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert adjacency_recon_loss(h, ad.BlockDiag([a])).item() < 1e-6


def test_recon_loss_permutation_invariant(rng):
    h_data = rng.normal(size=(5, 3))
    upper = np.triu((rng.random((5, 5)) < 0.5).astype(np.float64), k=1)
    a = upper + upper.T
    perm = rng.permutation(5)
    p = np.eye(5)[perm]
    l1 = adjacency_recon_loss(Tensor(h_data), ad.BlockDiag([a])).item()
    l2 = adjacency_recon_loss(Tensor(p @ h_data),
                              ad.BlockDiag([p @ a @ p.T])).item()
    assert l1 == pytest.approx(l2, rel=1e-12)


def _composed_recon_loss(h, adjacency):
    """The adjacency term as the chain of tape primitives it was built from
    before it became one fused node: the reference it must bit-equal."""
    probs = ad.clip(ad.sigmoid(ad.matmul(h, ad.transpose(h))), CLAMP_LO, CLAMP_HI)
    a = ad.constant(adjacency)
    not_a = ad.constant(1.0 - adjacency)
    hit = ad.mul(a, ad.log(probs))
    miss = ad.mul(not_a, ad.log(ad.add_scalar(ad.scale(probs, -1.0), 1.0)))
    return ad.scale(ad.reduce_sum(ad.add(hit, miss)), -1.0)


def _graph_recon_loss(h, adjacency):
    """``adjacency_recon_loss`` of one graph's matrix, as a pack of one."""
    return adjacency_recon_loss(h, ad.BlockDiag([adjacency]))


def _recon_value_and_grad(recon, h_data, adjacency, weight, feature_term):
    """Value of ``weight * recon`` and the gradient reaching h, optionally
    after another term has already written h's gradient buffer (as the
    feature decoder does in ``source_loss``)."""
    h = Tensor(h_data.copy(), requires_grad=True)
    with Tape() as tape:
        loss = ad.scale(recon(h, adjacency), weight)
        if feature_term:
            loss = ad.add(loss, ad.scale(ad.reduce_sum(ad.mul(h, h)),
                                         1.0 - weight))
    tape.backward(loss)
    return loss.data.tobytes(), h.grad.tobytes()


def _recon_cases(rng):
    for n in [1, 2, 3] + [int(v) for v in rng.integers(4, 60, size=12)]:
        d = int(rng.integers(1, 6))
        upper = np.triu((rng.random((n, n)) < rng.random()).astype(np.float64), k=1)
        yield "random", rng.normal(size=(n, d)), upper + upper.T
        # logits in the hundreds: sigmoid hits exactly 0 and 1, so the
        # clamp binds at both ends, and some entries stay unclamped
        big = rng.normal(size=(n, d)) * np.where(rng.random((n, 1)) < 0.5, 30.0, 1.0)
        yield "saturated", big, upper + upper.T
        yield "all-zero", rng.normal(size=(n, d)), np.zeros((n, n))
        yield "all-one", big, np.ones((n, n))


@pytest.mark.parametrize("weight", [0.0, 0.3, 1.0])
def test_fused_recon_loss_bit_equals_composed_chain(rng, weight):
    for kind, h_data, adjacency in _recon_cases(rng):
        for feature_term in (False, True):
            fused = _recon_value_and_grad(_graph_recon_loss, h_data,
                                          adjacency, weight, feature_term)
            chain = _recon_value_and_grad(_composed_recon_loss, h_data,
                                          adjacency, weight, feature_term)
            assert fused == chain, (kind, h_data.shape, feature_term)


def test_packed_recon_loss_bit_equals_the_chain_per_graph(rng):
    # each graph of a pack gets the value and the gradient rows that the
    # composed chain gives it alone, with its own incoming gradient
    for _ in range(6):
        d = int(rng.integers(1, 6))
        hs, adjacencies = [], []
        for n in [1] + [int(v) for v in rng.integers(2, 40, size=3)]:
            upper = np.triu((rng.random((n, n)) < rng.random()).astype(np.float64), k=1)
            hs.append(rng.normal(size=(n, d))
                      * np.where(rng.random((n, 1)) < 0.5, 30.0, 1.0))
            adjacencies.append(upper + upper.T)
        weights = rng.normal(size=(len(hs), 1))
        pack = ad.BlockDiag(adjacencies)
        h = Tensor(np.concatenate(hs), requires_grad=True)
        with Tape() as tape:
            losses = ad.mul(adjacency_recon_loss(h, pack), ad.constant(weights))
            tape.backward(ad.reduce_sum(losses))
        assert [node.op for node in tape.nodes][0] == "gram_bce"
        for b, (lo, hi) in enumerate(zip(pack.offsets[:-1], pack.offsets[1:])):
            value, grad = _recon_value_and_grad(_composed_recon_loss, hs[b],
                                                adjacencies[b], weights[b, 0],
                                                False)
            assert losses.data[b].tobytes() == value
            assert h.grad[lo:hi].tobytes() == grad


def _recon_graph(rng, n, d=3):
    """Embeddings (half the rows scaled so the clamp binds) and a random
    0/1 adjacency of one graph."""
    upper = np.triu((rng.random((n, n)) < 0.3).astype(np.float64), k=1)
    return (rng.normal(size=(n, d)) * np.where(rng.random((n, 1)) < 0.5, 30.0, 1.0),
            upper + upper.T)


def _workspace_step_matches_chain(workspace, graphs, rng):
    """One tape over a pack of ``graphs`` that borrows ``workspace``; each
    graph's weighted loss and gradient rows must bit-equal the chain's."""
    hs, adjacencies = zip(*graphs)
    weights = rng.normal(size=(len(hs), 1))
    pack = ad.BlockDiag(adjacencies)
    h = Tensor(np.concatenate(hs), requires_grad=True)
    with Tape(workspace) as tape:
        losses = ad.mul(adjacency_recon_loss(h, pack), ad.constant(weights))
        tape.backward(ad.reduce_sum(losses))
    for b, (lo, hi) in enumerate(zip(pack.offsets[:-1], pack.offsets[1:])):
        value, grad = _recon_value_and_grad(_composed_recon_loss, hs[b],
                                            adjacencies[b], weights[b, 0], False)
        assert losses.data[b].tobytes() == value
        assert h.grad[lo:hi].tobytes() == grad


def test_workspace_reuse_across_tapes_bit_equals_the_chain(rng):
    # large, then small (stale values of the large step stay in the
    # buffer), then large again and a pack of equal-size blocks, all on
    # one workspace; then a pack whose blocks together need more than any
    # earlier step, and 1-node blocks inside a pack
    workspace = ad.Workspace()
    for sizes in ([70], [5], [64], [20, 20, 20], [1, 70], [60, 1, 60, 30],
                  [3, 1, 1, 9, 1]):
        graphs = [_recon_graph(rng, n) for n in sizes]
        _workspace_step_matches_chain(workspace, graphs, rng)


def test_two_recon_nodes_on_one_tape_get_disjoint_buffers(rng):
    # one tensor in two gram_bce nodes, and a third node on another
    # tensor, all recorded before the backward pass reads any of them
    (h1, a1), (_, a2), (h3, a3) = (_recon_graph(rng, n) for n in (30, 30, 12))

    def value_and_grads(recon, workspace):
        t1 = Tensor(h1.copy(), requires_grad=True)
        t3 = Tensor(h3.copy(), requires_grad=True)
        with Tape(workspace) as tape:
            loss = ad.add(ad.add(ad.scale(recon(t1, a1), 0.3),
                                 ad.scale(recon(t1, a2), 0.7)),
                          recon(t3, a3))
        tape.backward(loss)
        return loss.data.tobytes(), t1.grad.tobytes(), t3.grad.tobytes()

    # the first tape sizes the workspace; the second carves all three
    # nodes' buffers from it
    chain = value_and_grads(_composed_recon_loss, None)
    workspace = ad.Workspace()
    for _ in range(2):
        assert value_and_grads(_graph_recon_loss, workspace) == chain


def test_abandoned_tape_leaves_the_next_step_exact(rng):
    workspace = ad.Workspace()
    h_big, a_big = _recon_graph(rng, 50)
    with Tape(workspace) as abandoned:
        loss = _graph_recon_loss(Tensor(h_big, requires_grad=True), a_big)
    _workspace_step_matches_chain(workspace, [_recon_graph(rng, 40)], rng)
    # its buffers now hold the later step's values
    with pytest.raises(ContractViolation, match="reused"):
        abandoned.backward(loss)


def _one_graph_packs(rng, sizes):
    """Training packs of one sparse graph each, as a phase builds them, of
    graphs with ``sizes`` nodes."""
    return [pack for n in sizes
            for pack in _toy_inputs(rng, n=n, count=1, density=0.03)]


def test_pretrain_reuses_one_buffer_and_keeps_none_after_it_returns(
        monkeypatch, rng):
    buffers, reused = [], []

    class Recording(ad.Workspace):
        def take(self, nbytes):
            region = super().take(nbytes)
            owner = region if region.base is None else region.base
            reused.append(bool(buffers) and buffers[-1]() is owner)
            buffers.append(weakref.ref(owner))
            return region

    monkeypatch.setattr(ad, "Workspace", Recording)
    packs = _one_graph_packs(rng, (40, 25, 60))
    enc, dec = _teacher(4, 3)
    pretrain_source(enc, dec, packs, alpha=0.7, epochs=2, lr=1e-3)
    # the buffer grows for the first pack and for the largest, then every
    # step of the second epoch reuses it
    assert reused == [False, True, False, True, True, True]
    assert all(ref() is None for ref in buffers)


def test_second_step_allocates_no_gram_buffer(rng):
    # numpy reports its data buffers to tracemalloc; the first step grows
    # the workspace to two n x n float buffers and one mask, and the
    # steps after it reuse them
    n = 200
    [pack] = _one_graph_packs(rng, [n])
    enc, dec = _teacher(4, 3)
    marks = []

    def pack_loss(p):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return graph_source_loss(enc, dec, *p, 0.7)

    tracemalloc.start()
    try:
        fit(enc.params() + dec.params(), [pack], pack_loss, epochs=3,
            lr=1e-3, what="reconstruction")
    finally:
        tracemalloc.stop()
    # each mark's peak covers the step before it
    (start1, _), (start2, peak1), (_, peak2) = marks
    assert peak1 - start1 >= 2 * n * n * 8
    assert peak2 - start2 < n * n * 8


def test_second_step_allocates_no_a_hat(rng):
    # a compact A_hat is written out into the workspace: the first step
    # grows it by the n x n floats, and the steps after it reuse them
    n = 200
    [(a_hat, adjacency, x_init)] = _one_graph_packs(rng, [n])
    pack = (ad.BlockDiag([ad.Nonzeros(a_hat.blocks[0])]), adjacency, x_init)
    enc, dec = _teacher(4, 3)
    marks = []

    def pack_loss(p):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return graph_source_loss(enc, dec, *p, 0.7)

    tracemalloc.start()
    try:
        fit(enc.params() + dec.params(), [pack], pack_loss, epochs=3,
            lr=1e-3, what="reconstruction")
    finally:
        tracemalloc.stop()
    (start1, _), (start2, peak1), (_, peak2) = marks
    assert peak1 - start1 >= 3 * n * n * 8
    assert peak2 - start2 < n * n * 8


def _mapping(workspace):
    """The memory mapping under ``workspace``'s buffer."""
    return workspace._buffer.base.base.obj


def _traced():
    return tracemalloc.get_traced_memory()[0]


def test_workspace_unmaps_an_outgrown_mapping_and_its_last_when_dropped():
    workspace = ad.Workspace()
    maps = []
    for nbytes in (1000, 2000, 3000, 4000):
        workspace.begin()
        workspace.take(nbytes)
        if not maps or _mapping(workspace) is not maps[-1]():
            maps.append(weakref.ref(_mapping(workspace)))
    # a growth maps at least twice the old size, so the fourth tape's
    # 4,032 bytes fit the third's 4,096-byte reserve
    assert len(maps) == 3 and [m() is None for m in maps] == [True, True, False]
    assert workspace._buffer.size == 4032 and len(maps[-1]()) == 4096
    del workspace
    assert maps[-1]() is None


def test_a_growth_mid_tape_keeps_the_tapes_earlier_regions():
    workspace = ad.Workspace()
    workspace.begin()
    first = workspace.take(1000)
    first[:] = 7
    old = weakref.ref(_mapping(workspace))
    second = workspace.take(100_000)
    second[:] = 9
    # the second region comes from a new mapping, after the first one's
    # bytes; the first region keeps its mapping until it is dropped
    assert _mapping(workspace) is not old() is not None
    assert np.shares_memory(second, workspace._buffer)
    assert (first == 7).all()
    del first
    assert old() is None
    # the next tape's regions both come from the grown buffer
    workspace.begin()
    assert all(np.shares_memory(workspace.take(nbytes), workspace._buffer)
               for nbytes in (1000, 100_000))


def test_workspace_is_traced_at_its_buffer_size_until_it_is_unmapped():
    tracemalloc.start()
    try:
        start = _traced()
        workspace = ad.Workspace()
        for nbytes, buffer in ((100_000, 100_032), (150_000, 150_016),
                               (180_000, 180_032)):
            workspace.begin()
            workspace.take(nbytes)
            assert workspace._buffer.size == buffer
            # the buffer counts, not the 200,064-byte mapping under it;
            # the rest is the mapping's Python objects
            assert 0 <= _traced() - start - buffer < 4096
        del workspace
        assert _traced() - start < 4096
    finally:
        tracemalloc.stop()


class _NoUntrack:
    """ctypes.pythonapi without PyTraceMalloc_Untrack."""
    PyTraceMalloc_Track = ad.ctypes.pythonapi.PyTraceMalloc_Track


@pytest.mark.parametrize("api", [object(), _NoUntrack()],
                         ids=["no-calls", "no-untrack"])
def test_workspace_maps_untraced_when_the_tracemalloc_calls_are_missing(
        monkeypatch, api):
    monkeypatch.setattr(ad.ctypes, "pythonapi", api)
    tracemalloc.start()
    try:
        start = _traced()
        workspace = ad.Workspace()
        workspace.begin()
        region = workspace.take(100_000)
        region[:] = 1
        mapping = weakref.ref(_mapping(workspace))
        assert np.shares_memory(region, workspace._buffer)
        assert _traced() - start < 4096
        del workspace, region
        assert mapping() is None
    finally:
        tracemalloc.stop()


def test_a_region_of_an_abandoned_tape_outlives_its_mapping(rng):
    workspace = ad.Workspace()
    small = rng.random((8, 8)) > 0.5
    with Tape(workspace):
        cast = ad.as_float(ad.BlockDiag([small])).blocks[0]
    old = weakref.ref(_mapping(workspace))
    with Tape(workspace):
        ad.as_float(ad.BlockDiag([rng.random((40, 40)) > 0.5])).blocks[0][:] = 2
    # the workspace has moved to a larger mapping; the abandoned tape's
    # region keeps the old one mapped and readable until it is dropped
    assert _mapping(workspace) is not old() is not None
    assert np.array_equal(cast, small)
    del cast
    assert old() is None


def test_fit_leaves_tracemalloc_where_it_started(rng):
    n = 120
    packs = _one_graph_packs(rng, [n // 2, n])
    enc, dec = _teacher(4, 3)

    def train():
        fit(enc.params() + dec.params(), packs,
            lambda p: graph_source_loss(enc, dec, *p, 0.7), epochs=2,
            lr=1e-3, what="reconstruction")

    train()     # caches the packs' edge indices
    tracemalloc.start()
    try:
        start = _traced()
        train()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the workspace was traced at its two n x n float buffers and two
    # masks, and after fit drops it only the parameters stay traced, which
    # each fit's Adam moves into one new flat buffer (about 2 KiB here)
    assert peak - start >= 2 * n * n * 8
    assert end - start < 8192


def test_fused_recon_loss_records_one_tape_node(rng):
    h = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    with Tape() as tape:
        _graph_recon_loss(h, np.eye(6))
    assert [node.op for node in tape.nodes] == ["gram_bce"]
    with Tape() as tape:
        _graph_recon_loss(Tensor(h.data), np.eye(6))
    assert tape.nodes == []


def test_fused_recon_loss_rejects_mismatched_target(rng):
    with pytest.raises(ContractViolation, match="3x3"):
        _graph_recon_loss(Tensor(rng.normal(size=(3, 2))), np.zeros((4, 4)))


def test_source_loss_weighting(rng):
    h = Tensor(rng.normal(size=(3, 2)))
    a = ad.BlockDiag([np.zeros((3, 3))])
    x = rng.normal(size=(3, 4))
    # alpha=1 with perfect feature reconstruction kills the adjacency term
    assert source_loss(h, a, x, Tensor(x.copy()), alpha=1.0).item() == 0.0
    # alpha=0 reduces to the adjacency term
    x_star = Tensor(rng.normal(size=(3, 4)))
    l0 = source_loss(h, a, x, x_star, alpha=0.0).item()
    assert l0 == pytest.approx(adjacency_recon_loss(h, a).item())
    with pytest.raises(ConfigError):
        source_loss(h, a, x, x_star, alpha=1.5)


def test_source_loss_convex_combination_arithmetic(rng):
    h = Tensor(rng.normal(size=(2, 2)))
    a = ad.BlockDiag([np.zeros((2, 2))])
    x = rng.normal(size=(2, 3))
    x_star = Tensor(rng.normal(size=(2, 3)))
    l1 = adjacency_recon_loss(h, a).item()
    l2 = feature_recon_loss(x, x_star, a.offsets).item()
    combo = source_loss(h, a, x, x_star, alpha=0.5).item()
    assert combo == pytest.approx(0.5 * l1 + 0.5 * l2, rel=1e-12)
    assert l1 >= 0.0 and l2 >= 0.0


def _toy_inputs(rng, n=4, k_se=4, count=3, density=0.6):
    """(a_hat, adjacency, x_init) training packs of one graph each."""
    out = []
    for _ in range(count):
        upper = np.triu((rng.random((n, n)) < density).astype(np.float64), k=1)
        g = Graph(n=n, adjacency=upper + upper.T, features=np.zeros((n, 0)),
                  label=0)
        out.append((ad.BlockDiag([normalized_adjacency(g)]),
                    ad.BlockDiag([g.adjacency]),
                    rw_structural_encoding(g.adjacency, k_se)))
    return out


def _teacher(hidden, seed):
    """Encoder, then decoder, from one stream, as the source phase builds them."""
    rng = make_rng(seed, 1)
    return GcnEncoder(4, hidden, 4, 2, rng), FeatureDecoder(4, 4, rng)


def test_pretrain_zero_epochs_returns_initialization(rng):
    inputs = _toy_inputs(rng)
    enc, dec = _teacher(4, 11)
    trace = pretrain_source(enc, dec, inputs, alpha=0.7, epochs=0, lr=1e-3)
    fresh, fresh_dec = _teacher(4, 11)
    for p, fp in zip(enc.params() + dec.params(),
                     fresh.params() + fresh_dec.params()):
        assert np.array_equal(p.data, fp.data)
    assert trace == []


def test_pretrain_descends_on_single_graph(rng):
    inputs = _toy_inputs(rng, count=1)
    enc, dec = _teacher(6, 5)
    trace = pretrain_source(enc, dec, inputs, alpha=0.7, epochs=50, lr=1e-3)
    assert trace[-1] < trace[0]


def test_pretrain_determinism(rng):
    inputs = _toy_inputs(rng)

    def run():
        enc, dec = _teacher(4, 2)
        trace = pretrain_source(enc, dec, inputs, alpha=0.7, epochs=5,
                                lr=1e-3)
        return [w.data.copy() for w in enc.weights], trace

    w1, t1 = run()
    w2, t2 = run()
    assert t1 == t2
    for a, b in zip(w1, w2):
        assert np.array_equal(a, b)


def test_pretrain_freezes_encoder():
    # pretraining leaves freezing to train_seed, which freezes every model
    # a phase trains, the encoder included, before anything consumes it
    gs = planted_anomaly_set(num_normal=14, num_anomalous=5, seed=1)
    for variant in ("full", "non_st", "asy_st"):
        cfg = ExperimentConfig(variant=variant, seeds=(0,), s_epochs=2,
                               n_epochs=2, t_epochs=2, d=8, hidden=8, k_se=8)
        inputs = precompute_inputs(gs, cfg, range(len(gs)))
        res = score_seed(train_seed(gs, inputs, cfg, 0, 0), inputs, cfg)
        assert set(res.models) == ({"encoder", "decoder"} if variant == "non_st"
                                   else {"encoder", "decoder", "flow", "student"})
        for model in res.models.values():
            assert is_frozen(model)
            assert all(p.grad is None for p in model.params())


def test_pretrain_batch_mode_runs(rng):
    inputs = _toy_inputs(rng, count=4)
    packs = [(ad.BlockDiag([a_hat.blocks[0] for a_hat, _, _ in pair]),
              ad.BlockDiag([adjacency.blocks[0] for _, adjacency, _ in pair]),
              np.concatenate([x_init for _, _, x_init in pair]))
             for pair in (inputs[:2], inputs[2:])]
    enc, dec = _teacher(4, 2)
    trace = pretrain_source(enc, dec, packs, alpha=0.7, epochs=3, lr=1e-3)
    assert len(trace) == 3


def test_pretrain_divergence_reports_epoch(rng):
    # the adaptive optimizer bounds each update by roughly lr, so the rate
    # has to be absurd before float64 overflows into a non-finite loss
    inputs = _toy_inputs(rng, count=1)
    enc, dec = _teacher(4, 0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingFault, match="epoch"):
            pretrain_source(enc, dec, inputs, alpha=0.7, epochs=5, lr=1e80)


def test_source_loss_gradcheck(rng):
    a_hat, adjacency, x_init = _toy_inputs(rng, count=1)[0]
    enc = GcnEncoder(4, 4, 4, 2, make_rng(7))
    dec = FeatureDecoder(4, 4, make_rng(8))

    def fn(*params):
        return graph_source_loss(enc, dec, a_hat, adjacency, x_init, 0.7)

    err = gradcheck(fn, enc.params() + dec.params())
    assert err < 1e-4
