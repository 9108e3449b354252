import numpy as np
import pytest

from flowgad import autodiff as ad
from flowgad import optim
from flowgad.autodiff import Tape, Tensor
from flowgad.errors import ContractViolation
from flowgad.flow import nf_loss
from flowgad.optim import (BETA1, BETA2, EPS, Adam, Perceptron, fit,
                           glorot_init, make_rng)
from flowgad.pipeline import (VARIANTS, ExperimentConfig, precompute_inputs,
                              run_experiment, score_seed, train_seed)
from flowgad.synthetic import planted_anomaly_set

from conftest import composed_perceptron, random_flow, tape_bits


class ReferenceAdam:
    """Oracle for ``Adam``: the per-tensor loop it replaced, with moment
    arrays per parameter and ``.grad`` reset to None between steps, so the
    tape's first accumulation hands each parameter a fresh array."""

    def __init__(self, params, lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - BETA1 ** t
        c2 = 1.0 - BETA2 ** t
        for p, m, v in zip(self.params, self.first_moment, self.second_moment):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ContractViolation(
                    f"gradient shape {g.shape} does not match parameter {p.data.shape}"
                )
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def _bits(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def test_flat_step_bit_equals_the_per_tensor_reference():
    # weight matrices and 1 x d bias rows; gradients that are -0.0, random,
    # all zero and random with signed zeros, fed as the tape feeds them:
    # added in place into the flat buffer, a fresh array for the reference
    shapes = [(3, 4), (1, 4), (4, 2), (1, 2), (5, 5)]
    rng = make_rng(11)
    init = [rng.normal(size=shape) for shape in shapes]
    flat = [Tensor(a.copy(), requires_grad=True) for a in init]
    ref = [Tensor(a.copy(), requires_grad=True) for a in init]
    opt, oracle = Adam(flat, lr=1e-2), ReferenceAdam(ref, lr=1e-2)

    def signed_zeros(shape):
        g = rng.normal(size=shape)
        g[rng.random(shape) < 0.3] = -0.0
        return g

    schedule = [lambda shape: np.full(shape, -0.0),
                lambda shape: rng.normal(size=shape),
                np.zeros,
                signed_zeros,
                lambda shape: rng.normal(size=shape),
                lambda shape: rng.normal(size=shape)]
    for make in schedule:
        for p, q, shape in zip(flat, ref, shapes):
            g = make(shape)
            p.grad += g
            q.grad = np.array(g)
        opt.step()
        oracle.step()
        opt.zero_grad()
        oracle.zero_grad()
        assert _bits(p.data for p in flat) == _bits(q.data for q in ref)
        assert _bits([opt.first_moment]) == _bits(oracle.first_moment)
        assert _bits([opt.second_moment]) == _bits(oracle.second_moment)


def test_reports_match_the_per_tensor_reference(monkeypatch):
    gs = planted_anomaly_set()
    for variant in VARIANTS:
        for batch_size in (1, 4):
            config = ExperimentConfig(variant=variant, seeds=(0,),
                                      s_epochs=2, n_epochs=2, t_epochs=2,
                                      batch_size=batch_size)
            flat = run_experiment(gs, config)[0].canonical_bytes()
            with monkeypatch.context() as patch:
                patch.setattr(optim, "Adam", ReferenceAdam)
                ref = run_experiment(gs, config)[0].canonical_bytes()
            assert flat == ref, (variant, batch_size)


def test_every_trained_parameter_receives_a_gradient(monkeypatch):
    # Adam updates its whole buffer, so a parameter that no loss reaches
    # would drift on decayed moments instead of standing still. A stand-in
    # optimizer that never updates keeps the models fresh, with every
    # .grad None before each pack's backward, and checks every step.
    optimizers = []

    class GradientProbe:
        def __init__(self, params, lr):
            self.params = list(params)
            optimizers.append(self)

        def step(self):
            missing = [p.shape for p in self.params if p.grad is None]
            assert not missing, f"parameters without a gradient: {missing}"

        def zero_grad(self):
            for p in self.params:
                p.grad = None

    monkeypatch.setattr(optim, "Adam", GradientProbe)
    gs = planted_anomaly_set(num_normal=8, num_anomalous=3, seed=2)
    for variant in VARIANTS:
        for batch_size in (1, 4):
            config = ExperimentConfig(variant=variant, seeds=(0,),
                                      s_epochs=1, n_epochs=1, t_epochs=1,
                                      batch_size=batch_size)
            optimizers.clear()
            inputs = precompute_inputs(gs, config, range(len(gs)))
            res = score_seed(train_seed(gs, inputs, config, 0, 0), inputs,
                             config)
            trained = {id(p) for opt in optimizers for p in opt.params}
            assert trained == {id(p) for model in res.models.values()
                               for p in model.params()}, (variant, batch_size)


def test_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = Adam([p])
    p.grad[...] = 0.0
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_first_step_delta_matches_hand_derivation():
    # t=1, grad=1: m=0.1, v=0.001, bias correction makes m_hat=v_hat=1,
    # so the update is -lr * 1/(1+eps) which is -1e-3 up to eps.
    p = Tensor(np.array([0.5]), requires_grad=True)
    opt = Adam([p], lr=1e-3)
    p.grad[...] = 1.0
    opt.step()
    assert p.data[0] == pytest.approx(0.5 - 1e-3, abs=1e-9)


def test_constant_gradient_moves_monotonically():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p], lr=1e-3)
    values = [p.data[0]]
    for _ in range(3):
        p.grad[...] = 1.0
        opt.step()
        values.append(p.data[0])
    assert values[0] > values[1] > values[2] > values[3]


def test_step_count_increments():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([p])
    assert opt.step_count == 0
    for expected in (1, 2, 3):
        p.grad[...] = 1.0
        opt.step()
        assert opt.step_count == expected


def test_shape_mismatch_rejected():
    # a backprop that hands a (1, 2) gradient to a (2, 2) parameter fails at
    # accumulation instead of broadcasting into the parameter's grad view
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    Adam([p])
    with Tape() as tape:
        loss = ad._record("bad", (p,), np.zeros((1, 1)),
                          lambda g: ad._accum(p, np.ones((1, 2))))
    with pytest.raises(ContractViolation, match="gradient shape"):
        tape.backward(loss)
    assert np.array_equal(p.grad, np.zeros((2, 2)))


def test_zero_grad_clears():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([p])
    p.grad[...] = 1.0
    opt.zero_grad()
    assert np.array_equal(p.grad, np.zeros(2))
    assert np.shares_memory(p.grad, opt.grad)


def test_empty_parameter_list_rejected():
    with pytest.raises(ContractViolation, match="at least one parameter"):
        Adam([])


def test_glorot_same_seed_identical():
    a = glorot_init(7, 5, 42)
    b = glorot_init(7, 5, 42)
    assert np.array_equal(a.data, b.data)
    assert a.requires_grad


def test_glorot_bound():
    t = glorot_init(100, 100, 7)
    bound = np.sqrt(6.0 / 200.0)
    assert np.abs(t.data).max() <= bound


def test_glorot_empirical_mean_near_zero():
    t = glorot_init(100, 100, 3)
    assert abs(t.data.mean()) < 0.01


def test_glorot_zero_dimension_rejected():
    with pytest.raises(ContractViolation):
        glorot_init(0, 4, 1)
    with pytest.raises(ContractViolation):
        glorot_init(4, 0, 1)


def test_make_rng_streams_are_independent():
    a = make_rng(5, 1).normal(size=4)
    b = make_rng(5, 2).normal(size=4)
    c = make_rng(5, 1).normal(size=4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("reduce", [lambda nodes: nodes, ad.mean],
                         ids=["per-node column", "0-d mean"])
def test_fit_rejects_a_loss_without_one_row_per_graph(reduce):
    # a pack of two graphs with 2 and 3 nodes must yield a 2 x 1 column
    p = Tensor(np.ones((1, 1)), requires_grad=True)
    pack = (ad.BlockDiag([np.eye(2), np.eye(3)]), np.arange(5.0)[:, None])

    def pack_loss(pack):
        a_hat, x = pack
        return reduce(ad.matmul(a_hat, ad.mul(ad.constant(x), p)))

    with pytest.raises(ContractViolation, match="one row per graph"):
        fit([p], [pack], pack_loss, epochs=1, lr=1e-3, what="test")


def test_a_one_graph_pack_descends_on_its_loss_without_a_mean():
    # the mean of one value is that value, so fit records no mean for a
    # one-graph pack; a pack of two still ends in reduce_sum and scale
    p = Tensor(np.ones((1, 1)), requires_grad=True)
    tapes = []

    def pack_loss(pack):
        a_hat, x = pack
        tapes.append(ad._active_tape())
        return ad.segment_sum(ad.matmul(a_hat, ad.mul(ad.constant(x), p)),
                              a_hat.offsets)

    one = (ad.BlockDiag([np.eye(3)]), np.arange(3.0)[:, None])
    two = (ad.BlockDiag([np.eye(2), np.eye(3)]), np.arange(5.0)[:, None])
    fit([p], [one, two], pack_loss, epochs=1, lr=1e-3, what="test")
    assert [node.op for node in tapes[0].nodes] == ["mul", "matmul",
                                                    "segment_sum"]
    assert [node.op for node in tapes[1].nodes][-2:] == ["reduce_sum",
                                                         "scale"]


def test_one_graph_loss_bit_equals_its_mean():
    # the step on a 1 x 1 loss column gives the value and gradients that
    # the recorded mean of that column gave
    rng = make_rng(21)
    flow = random_flow(4, 2, rng)
    h = rng.normal(size=(5, 4))
    a_hat = ad.BlockDiag([rng.random((5, 5))])
    results = []
    for reduce in (lambda losses: losses, ad.mean):
        for q in flow.params():
            q.grad = None
        with Tape() as tape:
            z, log_det = flow.forward(ad.constant(h), a_hat)
            loss = reduce(nf_loss(z, log_det, a_hat.offsets))
        tape.backward(loss)
        results.append(_bits([loss.data] + [q.grad for q in flow.params()]))
    assert results[0] == results[1]


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("reread", [False, True])
def test_fused_perceptron_bit_equals_composed_chain(rng, track, reread):
    for trial in range(6):
        d_in, hidden, d_out = (int(k) for k in rng.integers(1, 7, size=3))
        mlp = Perceptron(d_in, hidden, d_out, make_rng(trial))
        for bias in (mlp.b1, mlp.b2):
            bias.data = rng.normal(size=bias.shape)
        n = 1 if trial == 0 else int(rng.integers(2, 12))
        x = Tensor(rng.normal(size=(n, d_in)), requires_grad=track)
        tensors = [x] + mlp.params()
        fused = tape_bits(ad.perceptron, tensors, reread)
        chain = tape_bits(composed_perceptron, tensors, reread)
        assert len(fused) == 6 + track
        assert fused == chain, (n, d_in, hidden, d_out)


def test_perceptron_rejects_a_wrong_input_width(rng):
    mlp = Perceptron(3, 4, 2, make_rng(0))
    with pytest.raises(ContractViolation, match="3 input columns"):
        mlp.forward(Tensor(rng.normal(size=(5, 4))))
