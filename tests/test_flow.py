import tracemalloc

import numpy as np
import pytest

from flowgad import autodiff as ad
from flowgad.autodiff import Tape, Tensor, gradcheck
from flowgad.data import Graph, normalized_adjacency
from flowgad.errors import ContractViolation, NumericFault, TrainingFault
from flowgad.flow import CouplingStep, GraphFlow, nf_loss, train_flow
from flowgad.optim import fit, freeze, make_rng

from conftest import (composed_clamp, composed_coupling_step,
                      composed_normal_nll, composed_subnet, random_flow,
                      tape_bits)


def _random_a_hat(n, rng):
    """A random n-node graph's A_hat, as a pack of one."""
    upper = np.triu((rng.random((n, n)) < 0.5).astype(np.float64), k=1)
    g = Graph(n=n, adjacency=upper + upper.T, features=np.zeros((n, 0)),
              label=0)
    return ad.BlockDiag([normalized_adjacency(g)])


def numeric_jacobian(fn, x0, step=1e-6):
    """Central-difference Jacobian of a flattened vector map; the oracle
    route, sharing no code with the analytic log-det."""
    y0 = fn(x0)
    jac = np.empty((y0.size, x0.size))
    flat = x0.ravel()
    for j in range(flat.size):
        bumped = flat.copy()
        bumped[j] += step
        up = fn(bumped.reshape(x0.shape))
        bumped[j] -= 2 * step
        down = fn(bumped.reshape(x0.shape))
        jac[:, j] = (up - down).ravel() / (2 * step)
    return jac


def test_fresh_flow_is_identity(rng):
    flow = GraphFlow(6, 3, 2.0, make_rng(0))   # zero-initialized last maps
    h = rng.normal(size=(4, 6))
    a_hat = _random_a_hat(4, rng)
    z, log_det = flow.forward(Tensor(h), a_hat)
    assert np.array_equal(z.data, h)
    assert log_det.item() == 0.0
    back = flow.inverse(Tensor(h), a_hat)
    assert np.array_equal(back.data, h)


def test_pure_translation_preserves_volume(rng):
    step = CouplingStep(1, 2.0, make_rng(1))   # f1,g1,g2 stay zero maps
    step.f2.bias.data = np.array([[3.5]])
    h0 = Tensor(rng.normal(size=(1, 1)))
    h1 = Tensor(rng.normal(size=(1, 1)))
    a_hat = ad.BlockDiag([np.array([[1.0]])])
    new0, new1, inc = step.forward(h0, h1, a_hat)
    assert np.allclose(new0.data, h0.data + 3.5)
    assert np.array_equal(new1.data, h1.data)
    assert inc.item() == 0.0
    b0, b1 = step.inverse(new0, new1, a_hat)
    assert np.allclose(b0.data, h0.data)


def test_zero_scale_subnets_give_zero_log_det_for_any_input(rng):
    # random shift subnets, zero scale subnets: volume preserved exactly
    flow = GraphFlow(4, 2, 2.0, make_rng(2))
    for step in flow.steps:
        for net in (step.f2, step.g2):
            net.w_lin.data = rng.normal(size=net.w_lin.shape)
            net.bias.data = rng.normal(size=net.bias.shape)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        h = rng.normal(size=(n, 4))
        a_hat = _random_a_hat(n, rng)
        z, log_det = flow.forward(Tensor(h), a_hat)
        assert log_det.item() == 0.0
        assert not np.allclose(z.data, h)


def test_roundtrip_on_random_instances(rng):
    for trial in range(100):
        d = int(rng.choice([2, 4, 6]))
        n = int(rng.integers(1, 6))
        flow = random_flow(d, int(rng.integers(1, 4)), make_rng(trial))
        h = rng.normal(size=(n, d))
        a_hat = _random_a_hat(n, rng)
        z, _ = flow.forward(Tensor(h), a_hat)
        back = flow.inverse(z, a_hat)
        assert np.abs(back.data - h).max() < 1e-8


def test_single_step_matches_full_flow(rng):
    flow = random_flow(4, 1, make_rng(9))
    h = rng.normal(size=(3, 4))
    a_hat = _random_a_hat(3, rng)
    z, log_det = flow.forward(Tensor(h), a_hat)
    half0, half1, inc = flow.steps[0].forward(
        *ad.split_half(Tensor(h)), a_hat)
    assert np.array_equal(z.data, np.concatenate([half0.data, half1.data], axis=1))
    assert log_det.item() == inc.item()


def test_log_det_matches_numeric_jacobian(rng):
    # n*d <= 16 so the dense Jacobian determinant stays cheap
    cases = [(1, 2), (2, 2), (1, 4), (3, 4), (4, 4), (2, 8), (1, 16)]
    for trial in range(20):
        n, d = cases[trial % len(cases)]
        flow = random_flow(d, int(rng.integers(1, 3)), make_rng(100 + trial))
        a_hat = _random_a_hat(n, rng)
        h = rng.normal(size=(n, d))

        def apply(x):
            z, _ = flow.forward(Tensor(x), a_hat)
            return z.data

        _, analytic = flow.forward(Tensor(h), a_hat)
        jac = numeric_jacobian(apply, h)
        sign, log_abs_det = np.linalg.slogdet(jac)
        assert sign > 0
        rel = abs(analytic.item() - log_abs_det) / max(1.0, abs(log_abs_det))
        assert rel < 1e-6, f"n={n} d={d}: {analytic.item()} vs {log_abs_det}"


def test_composed_log_det_is_sum_of_steps(rng):
    n, d = 2, 4
    flow = random_flow(d, 2, make_rng(31))
    a_hat = _random_a_hat(n, rng)
    h = rng.normal(size=(n, d))
    _, total = flow.forward(Tensor(h), a_hat)

    # numeric Jacobians of each step composed: log|det| adds
    def step_apply(step):
        def apply(x):
            h0, h1, _ = step.forward(*ad.split_half(Tensor(x)),
                                     a_hat)
            return np.concatenate([h0.data, h1.data], axis=1)
        return apply

    mid = step_apply(flow.steps[0])(h)
    j1 = numeric_jacobian(step_apply(flow.steps[0]), h)
    j2 = numeric_jacobian(step_apply(flow.steps[1]), mid)
    expected = np.linalg.slogdet(j1)[1] + np.linalg.slogdet(j2)[1]
    assert abs(total.item() - expected) / max(1.0, abs(expected)) < 1e-6


def test_half_update_jacobian_is_block_triangular(rng):
    # the first half-update alone, coordinates stacked as (all of half1,
    # then all of half0): d(half1 out)/d(half0 in) vanishes and the
    # lower-right block is diag(exp(s)), so the determinant ignores the
    # mixed block entirely
    n, d = 2, 4
    k = n * d // 2
    step = random_flow(d, 1, make_rng(55)).steps[0]
    a_hat = _random_a_hat(n, rng)
    h = rng.normal(size=(n, d))

    def half_update(vec):
        h1 = Tensor(vec[:k].reshape(n, d // 2))
        h0 = Tensor(vec[k:].reshape(n, d // 2))
        s_f = composed_clamp(composed_subnet(step.f1, a_hat, h1), step.s_max)
        new0 = ad.add(ad.mul(h0, ad.exp(s_f)),
                      composed_subnet(step.f2, a_hat, h1))
        return np.concatenate([h1.data.ravel(), new0.data.ravel()])

    vec0 = np.concatenate([h[:, d // 2:].ravel(), h[:, :d // 2].ravel()])
    jac = numeric_jacobian(half_update, vec0)
    assert np.abs(jac[:k, k:]).max() < 1e-9
    assert np.allclose(jac[:k, :k], np.eye(k), atol=1e-9)
    s_f = composed_clamp(composed_subnet(step.f1, a_hat,
                                         Tensor(h[:, d // 2:])),
                         step.s_max).data
    lower_right = jac[k:, k:]
    assert np.allclose(np.diag(lower_right), np.exp(s_f).ravel(), atol=1e-6)
    assert np.abs(lower_right - np.diag(np.diag(lower_right))).max() < 1e-9


def test_nf_loss_values():
    one = (0, 1)
    assert nf_loss(Tensor(np.zeros((1, 2))), ad.constant(0.0),
                   one).item() == 0.0
    z = Tensor(np.array([[1.0, 1.0]]))
    assert nf_loss(z, ad.constant(0.0), one).item() == pytest.approx(1.0)
    # the energy and the log-det are both divided by the node count (rows
    # of z)
    z4 = Tensor(np.ones((4, 2)))
    assert nf_loss(z4, ad.constant(0.0), (0, 4)).item() == pytest.approx(1.0)
    assert nf_loss(z4, ad.constant(2.0), (0, 4)).item() == pytest.approx(0.5)


def test_identity_flow_loss_on_standard_normal_entries(rng):
    # E[z^2]/2 = 0.5 per entry under the latent prior; the loss is per node
    z = Tensor(rng.standard_normal(size=(1000, 10)))
    loss = nf_loss(z, ad.constant(0.0), (0, 1000)).item()
    assert loss / z.data.shape[1] == pytest.approx(0.5, abs=0.02)


def test_train_flow_zero_epochs_is_noop(rng):
    flow = GraphFlow(4, 2, 2.0, make_rng(3))
    before = [p.data.copy() for p in flow.params()]
    trace = train_flow(flow, [(ad.BlockDiag([np.eye(2)]),
                               rng.normal(size=(2, 4)))],
                       epochs=0, lr=1e-3)
    assert trace == []
    for b, p in zip(before, flow.params()):
        assert np.array_equal(b, p.data)


def test_train_flow_fits_shifted_gaussian(rng):
    # embeddings ~ N(3, 1): an affine flow can normalize this, so the
    # loss must drop substantially
    inputs = []
    for _ in range(6):
        n = int(rng.integers(2, 5))
        inputs.append((_random_a_hat(n, rng), rng.normal(size=(n, 4)) + 3.0))
    flow = GraphFlow(4, 2, 2.0, make_rng(4))
    trace = train_flow(flow, inputs, epochs=200, lr=1e-2)
    assert trace[-1] < 0.8 * trace[0]


def test_train_flow_determinism(rng):
    inputs = [(_random_a_hat(3, rng), rng.normal(size=(3, 4)))]

    def run():
        flow = GraphFlow(4, 2, 2.0, make_rng(6))
        trace = train_flow(flow, inputs, epochs=5, lr=1e-3)
        return trace, [p.data.copy() for p in flow.params()]

    t1, p1 = run()
    t2, p2 = run()
    assert t1 == t2
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def test_trained_flow_still_invertible(rng):
    inputs = [(_random_a_hat(3, rng), rng.normal(size=(3, 4)) * 2.0)
              for _ in range(4)]
    flow = GraphFlow(4, 2, 2.0, make_rng(8))
    train_flow(flow, inputs, epochs=150, lr=1e-2)
    for a_hat, h in inputs:
        z, _ = flow.forward(Tensor(h), a_hat)
        back = flow.inverse(z, a_hat)
        assert np.abs(back.data - h).max() < 1e-5


def test_nf_loss_gradcheck_through_two_steps(rng):
    n, d = 3, 4
    flow = random_flow(d, 2, make_rng(77))
    a_hat = _random_a_hat(n, rng)
    h = rng.normal(size=(n, d))

    def fn(*params):
        z, log_det = flow.forward(ad.constant(h), a_hat)
        return nf_loss(z, log_det, a_hat.offsets)

    assert gradcheck(fn, flow.params()) < 1e-4


def test_second_flow_step_allocates_no_a_hat(rng):
    # a compact A_hat is written out into the workspace: the first step
    # grows it by the n x n floats, and the steps after it reuse them
    n = 200
    [a_hat] = _random_a_hat(n, rng).blocks
    pack = (ad.BlockDiag([ad.Nonzeros(a_hat)]), rng.normal(size=(n, 4)))
    flow = random_flow(4, 2, make_rng(5))
    marks = []

    def pack_loss(p):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        z, log_det = flow.forward(ad.constant(p[1]), p[0])
        return nf_loss(z, log_det, p[0].offsets)

    tracemalloc.start()
    try:
        fit(flow.params(), [pack], pack_loss, epochs=3, lr=1e-3, what="flow")
    finally:
        tracemalloc.stop()
    (start1, _), (start2, peak1), (_, peak2) = marks
    assert peak1 - start1 >= n * n * 8
    assert peak2 - start2 < n * n * 8


def test_identity_flow_object(rng):
    # the no-flow ablations' flow: zero coupling steps map h to itself
    flow = GraphFlow(4, 0, 2.0, make_rng(0))
    h = Tensor(rng.normal(size=(3, 4)))
    z, log_det = flow.forward(h, ad.BlockDiag([np.eye(3)]))
    assert np.array_equal(z.data, h.data)
    assert log_det.item() == 0.0
    assert flow.params() == []
    back = flow.inverse(z, ad.BlockDiag([np.eye(3)]))
    assert np.array_equal(back.data, h.data)
    assert flow.init_args() == {"d": 4, "steps": 0, "s_max": 2.0}
    with pytest.raises(ContractViolation):
        GraphFlow(4, -1, 2.0, make_rng(0))


def test_zero_step_flow_writes_no_a_hat(rng, monkeypatch):
    # the no-flow ablations' flow reads no propagation matrix, so it writes
    # no dense A_hat; a flow with steps writes one per pass
    [a_hat] = _random_a_hat(5, rng).blocks
    pack = ad.BlockDiag([ad.Nonzeros(a_hat)])
    h = Tensor(rng.normal(size=(5, 4)))
    writes = []
    real = ad.as_float
    monkeypatch.setattr(ad, "as_float", lambda a: writes.append(a) or real(a))
    z, log_det = GraphFlow(4, 0, 2.0, make_rng(0)).forward(h, pack)
    assert writes == []
    assert np.array_equal(z.data, h.data)
    assert log_det.item() == 0.0
    random_flow(4, 1, make_rng(1)).forward(h, pack)
    assert writes == [pack]


def test_flow_width_checks(rng):
    with pytest.raises(ContractViolation):
        GraphFlow(5, 2, 2.0, make_rng(0))
    flow = GraphFlow(4, 1, 2.0, make_rng(0))
    with pytest.raises(ContractViolation):
        flow.forward(Tensor(np.zeros((2, 6))), ad.BlockDiag([np.eye(2)]))


def test_train_flow_divergence_faults(rng):
    flow = GraphFlow(4, 2, 2.0, make_rng(1))
    inputs = [(ad.BlockDiag([np.eye(2)]), rng.normal(size=(2, 4)))]
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingFault):
            train_flow(flow, inputs, epochs=6, lr=1e200)


def _step_bits(forward, step, h0, h1, a_hat, track, weights, reread):
    """A weighted sum of one coupling step's three outputs, built through
    ``forward``: the outputs, the loss, the gradient of each of the 12
    subnet tensors and of each tracked half, as bytes. With ``reread`` a
    term recorded after the step reads both input halves, so their
    gradient buffers are already written when the step's backward runs."""
    for p in step.params():
        p.grad = None
    half0 = Tensor(h0.copy(), requires_grad=track[0])
    half1 = Tensor(h1.copy(), requires_grad=track[1])
    w0, w1, w_inc = (ad.constant(w) for w in weights)
    with Tape() as tape:
        new0, new1, inc = forward(step, half0, half1, a_hat)
        loss = ad.add(ad.add(ad.reduce_sum(ad.mul(new0, w0)),
                             ad.reduce_sum(ad.mul(new1, w1))),
                      ad.reduce_sum(ad.mul(inc, w_inc)))
        if reread:
            both = ad.mul(half0, half1)
            loss = ad.add(loss, ad.reduce_sum(ad.mul(both, both)))
    tape.backward(loss)
    grads = [p.grad for p in step.params()]
    grads += [h.grad for h, tracked in zip((half0, half1), track) if tracked]
    assert all(g is not None for g in grads)
    return [t.data.tobytes() for t in (new0, new1, inc, loss)] + [
        g.tobytes() for g in grads]


def _step_cases(rng):
    """(kind, step, half0, half1, a_hat) over the packs a step receives:
    one graph, and packs that include 1-node graphs."""
    for trial in range(6):
        half = int(rng.integers(1, 4))

        def halves(n):
            return rng.normal(size=(n, half)), rng.normal(size=(n, half))

        step = random_flow(2 * half, 1, make_rng(200 + trial)).steps[0]
        for net in (step.f1, step.f2, step.g1, step.g2):
            net.bias.data[...] = rng.normal(size=net.bias.shape)
        n = 1 if trial == 0 else int(rng.integers(1, 9))
        a_hat = _random_a_hat(n, rng)
        yield "random", step, *halves(n), a_hat
        sizes = [1] + [int(k) for k in rng.integers(1, 8, size=3)]
        pack = ad.BlockDiag([_random_a_hat(k, rng).blocks[0] for k in sizes])
        yield "pack", step, *halves(sum(sizes)), pack
        # |raw| far above s_max: tanh rounds to +-1 and the clamp's
        # derivative 1 - tanh^2 is exactly 0 on those entries
        hot = random_flow(2 * half, 1, make_rng(300 + trial),
                          s_max=0.25).steps[0]
        for net in (hot.f1, hot.g1):
            net.bias.data[...] = rng.choice([-60.0, 60.0], size=net.bias.shape)
        yield "saturated", hot, *halves(sum(sizes)), pack


@pytest.mark.parametrize("track", [(False, False), (True, False),
                                   (False, True), (True, True)])
@pytest.mark.parametrize("reread", [False, True])
def test_fused_coupling_step_bit_equals_composed_chain(rng, track, reread):
    for kind, step, h0, h1, a_hat in _step_cases(rng):
        n = h0.shape[0]
        weights = (rng.normal(size=h0.shape), rng.normal(size=h1.shape),
                   rng.normal(size=(len(a_hat.offsets) - 1, 1)))
        fused = _step_bits(CouplingStep.forward, step, h0, h1, a_hat, track,
                           weights, reread)
        chain = _step_bits(composed_coupling_step, step, h0, h1, a_hat,
                           track, weights, reread)
        assert len(fused) == 4 + 12 + sum(track)
        assert fused == chain, (kind, n, track, reread)


def test_coupling_step_without_a_gradient_on_some_outputs(rng):
    # only half0' feeds the loss: half1' and the increment pass zeros,
    # which give the chain's values (its missing paths add nothing)
    step = random_flow(4, 1, make_rng(5)).steps[0]
    a_hat = _random_a_hat(4, rng)
    h0, h1 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    grads = []
    for forward in (CouplingStep.forward, composed_coupling_step):
        for p in step.params():
            p.grad = None
        half1 = Tensor(h1.copy(), requires_grad=True)
        with Tape() as tape:
            new0, _, _ = forward(step, ad.constant(h0), half1, a_hat)
            loss = ad.reduce_sum(ad.mul(new0, new0))
        tape.backward(loss)
        grads.append([np.zeros_like(t.data) if t.grad is None else t.grad
                      for t in step.params() + [half1]])
    for fused, chain in zip(*grads):
        assert np.array_equal(fused, chain)


def test_flow_records_one_node_per_coupling_step(rng):
    flow = random_flow(4, 2, make_rng(3))
    h = ad.constant(rng.normal(size=(5, 4)))
    a_hat = _random_a_hat(5, rng)
    with Tape() as tape:
        flow.forward(h, a_hat)
    ops = [node.op for node in tape.nodes]
    assert ops.count("coupling_step") == 2
    assert not {"tanh", "exp", "matmul"} & set(ops)
    freeze(flow)
    with Tape() as tape:
        flow.forward(h, a_hat)
    assert tape.nodes == []


def test_fault_in_one_coupling_output_names_the_step():
    # s_f near -0.76 s_max on every entry: exp(s_f) underflows to 0, so
    # both halves stay finite, but the increment's sum overflows to -inf
    step = CouplingStep(1, 1e308, make_rng(0))
    step.f1.bias.data[...] = -1e308
    a_hat = ad.BlockDiag([np.eye(3)])
    with Tape() as tape, np.errstate(over="ignore"):
        new0, new1, inc = step.forward(ad.constant(np.ones((3, 1))),
                                       ad.constant(np.ones((3, 1))), a_hat)
        loss = ad.sub(ad.reduce_sum(ad.add(new0, new1)), ad.reduce_sum(inc))
    assert np.all(np.isfinite(new0.data)) and np.all(np.isfinite(new1.data))
    assert np.isneginf(inc.item())
    with pytest.raises(NumericFault, match="node #0 'coupling_step'"):
        tape.backward(loss)


def test_coupling_step_rejects_a_misfit_propagation_operand(rng):
    step = CouplingStep(1, 2.0, make_rng(0))
    half = ad.constant(rng.normal(size=(2, 1)))
    with pytest.raises(ContractViolation, match="do not fit"):
        step.forward(half, half, ad.BlockDiag([np.eye(3)]))
    with pytest.raises(ContractViolation, match="do not fit"):
        step.inverse(half, half, ad.BlockDiag([np.eye(3)]))


@pytest.mark.parametrize("track", [(True, False), (False, True), (True, True)])
@pytest.mark.parametrize("reread", [False, True])
def test_fused_flow_loss_bit_equals_composed_chain(rng, track, reread):
    for trial in range(8):
        sizes = [1] + [int(k) for k in rng.integers(1, 30,
                                                    size=trial % 5)]
        offsets = tuple(int(b) for b in np.cumsum([0] + sizes))
        d = int(rng.integers(1, 9))
        z = Tensor(rng.normal(size=(offsets[-1], d))
                   * 10.0 ** rng.integers(-3, 4, size=(offsets[-1], 1)),
                   requires_grad=track[0])
        log_det = Tensor(rng.normal(size=(len(sizes), 1)),
                         requires_grad=track[1])
        fused = tape_bits(lambda z, l: ad.normal_nll(z, l, offsets),
                          [z, log_det], reread)
        chain = tape_bits(lambda z, l: composed_normal_nll(z, l, offsets),
                          [z, log_det], reread)
        assert len(fused) == 2 + sum(track)
        assert fused == chain, (sizes, d, track, reread)
