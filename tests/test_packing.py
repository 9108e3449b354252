"""A pack of graphs trains and scores as its graphs do one at a time.

A pack stacks its graphs' node rows and keeps their propagation matrices as
BlockDiags, so every loss is a column with one row per graph. Each row must
equal the loss of its graph (a pack of one) alone, up to the rounding of
larger matrix products, a training step must descend on the rows' mean,
and no graph's row may depend on another graph of the pack. A pack is the
only propagation operand the models take.
"""

import copy
import dataclasses
import re

import numpy as np
import pytest

from flowgad import autodiff as ad
from flowgad.autodiff import Tape, Tensor
from flowgad.errors import ContractViolation
from flowgad.flow import GraphFlow, nf_loss, train_flow
from flowgad.optim import make_rng
from flowgad.pipeline import (PHASES, ExperimentConfig, forward_stack, packs,
                              precompute_inputs, score_graph)
from flowgad.source import (FeatureDecoder, GcnEncoder, graph_source_loss,
                            pretrain_source)
from flowgad.synthetic import planted_anomaly_set
from flowgad.target import GinNetwork, graph_target_loss, train_target

from conftest import random_flow

D = 8
ALPHA, BETA = 0.7, 0.6
CHUNK = [0, 3, 5, 8]
OWNERS = {"source": ("encoder", "decoder"), "flow": ("flow",),
          "target": ("student",)}


@pytest.fixture(scope="module")
def inputs():
    gs = planted_anomaly_set(num_normal=6, num_anomalous=3, seed=3)
    return precompute_inputs(gs, ExperimentConfig(d=D, hidden=D, k_se=8),
                             range(len(gs)))


def _models(inputs):
    rng = make_rng(7)
    d_in = inputs[0].x_init.shape[1]
    return {"encoder": GcnEncoder(d_in, D, D, 2, rng),
            "decoder": FeatureDecoder(D, d_in, rng),
            "flow": random_flow(D, 2, rng),
            "student": GinNetwork(d_in, D, D, 2, rng)}


def _pack(inputs, chunk):
    pack, = packs(inputs, chunk, len(chunk))
    return pack


def _losses(phase, models, gi):
    """The phase's loss column on one pack's inputs, with the upstream
    stages as constants, as each phase's trainer sees them."""
    stages = forward_stack(gi, models)     # outside the tape: constants
    offsets = gi.a_hat.offsets
    if phase == "source":
        return graph_source_loss(models["encoder"], models["decoder"],
                                 gi.a_hat, gi.adjacency, gi.x_init, ALPHA)
    if phase == "flow":
        z, log_det = models["flow"].forward(ad.constant(stages["source"]),
                                            gi.a_hat)
        return nf_loss(z, log_det, offsets)
    out = models["student"].forward(gi.adjacency, ad.constant(gi.x_init))
    return graph_target_loss(out, stages["flow"], BETA, offsets)


def _rows_and_grads(phase, models, gi):
    params = [p for name in OWNERS[phase] for p in models[name].params()]
    for p in params:
        p.grad = None
    with Tape() as tape:
        losses = _losses(phase, models, gi)
        tape.backward(ad.mean(losses))
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for p in params]
    return losses.data[:, 0].copy(), grads


def _trace(phase, models, pack_list, lr=1e-3):
    """The trainer's first-epoch loss over ``pack_list``, one step per pack,
    with the upstream stages computed per pack as the phase runners do.
    With one pack it is the mean of the pack's rows, taken before the
    step."""
    models = copy.deepcopy(models)
    stages = [forward_stack(pack, models) for pack in pack_list]
    common = dict(epochs=1, lr=lr)
    if phase == "source":
        items = [(pack.a_hat, pack.adjacency, pack.x_init)
                 for pack in pack_list]
        return pretrain_source(models["encoder"], models["decoder"], items,
                               alpha=ALPHA, **common)[0]
    if phase == "flow":
        items = [(pack.a_hat, s["source"])
                 for pack, s in zip(pack_list, stages)]
        return train_flow(models["flow"], items, **common)[0]
    items = [(pack.adjacency, pack.x_init, s["flow"])
             for pack, s in zip(pack_list, stages)]
    return train_target(models["student"], items, beta=BETA, **common)[0]


@pytest.mark.parametrize("phase", PHASES)
def test_pack_loss_is_the_mean_of_per_graph_losses(inputs, phase):
    models = _models(inputs)
    rows, grads = _rows_and_grads(phase, models, _pack(inputs, CHUNK))
    alone = [_rows_and_grads(phase, models, _pack(inputs, [i]))
             for i in CHUNK]
    expected = np.array([graph_rows[0] for graph_rows, _ in alone])
    assert rows == pytest.approx(expected, rel=1e-12, abs=1e-15)
    for i, grad in enumerate(grads):
        mean_grad = np.mean([graph_grads[i] for _, graph_grads in alone],
                            axis=0)
        np.testing.assert_allclose(grad, mean_grad, rtol=1e-9, atol=1e-12)
    trace = _trace(phase, models, [_pack(inputs, CHUNK)])
    assert trace == pytest.approx(expected.mean(), rel=1e-12)


@pytest.mark.parametrize("phase", PHASES)
def test_epoch_mean_weighs_each_graph_once_with_a_short_last_pack(inputs,
                                                                  phase):
    # five graphs in packs of 2, 2 and 1; at lr = 0 no step moves the
    # weights, so the epoch mean is the plain mean of the graphs' losses,
    # and not the mean of the three pack means
    chunk = CHUNK + [1]
    pack_list = list(packs(inputs, chunk, 2))
    assert [len(pack.a_hat.blocks) for pack in pack_list] == [2, 2, 1]
    models = _models(inputs)
    alone = np.array([_rows_and_grads(phase, models, _pack(inputs, [i]))[0][0]
                      for i in chunk])
    pack_means = np.mean([alone[:2].mean(), alone[2:4].mean(), alone[4]])
    assert alone.mean() != pytest.approx(pack_means, rel=1e-6)
    trace = _trace(phase, models, pack_list, lr=0.0)
    assert trace == pytest.approx(alone.mean(), rel=1e-12)


def _perturbed(inputs, idx, rng):
    """``inputs`` with graph ``idx``'s features and matrices changed in
    value and kept in shape."""
    gi = inputs[idx]
    flipped = gi.adjacency.copy()
    flipped[0, -1] = flipped[-1, 0] = 1.0 - flipped[0, -1]
    a_hat = copy.copy(gi.a_hat)
    a_hat.values = gi.a_hat.values * 1.1
    changed = dataclasses.replace(
        gi, adjacency=flipped, a_hat=a_hat,
        x_init=gi.x_init + rng.normal(size=gi.x_init.shape))
    return {**inputs, idx: changed}


@pytest.mark.parametrize("phase", PHASES)
def test_one_graph_never_moves_another_graphs_row(inputs, phase, rng):
    models = _models(inputs)
    before, _ = _rows_and_grads(phase, models, _pack(inputs, CHUNK))
    after, _ = _rows_and_grads(phase, models,
                               _pack(_perturbed(inputs, CHUNK[2], rng), CHUNK))
    assert after[2] != before[2]
    for b in (0, 1, 3):
        assert after[b].tobytes() == before[b].tobytes()


@pytest.mark.parametrize("variant", ["full", "non_st"])
def test_one_graph_never_moves_another_graphs_score(inputs, variant, rng):
    models = _models(inputs)
    config = ExperimentConfig(variant=variant, d=D, hidden=D, k_se=8)
    before = score_graph(_pack(inputs, CHUNK), models, config)
    after = score_graph(_pack(_perturbed(inputs, CHUNK[2], rng), CHUNK),
                        models, config)
    assert after[2] != before[2]
    assert np.delete(after, 2).tobytes() == np.delete(before, 2).tobytes()
    alone = [score_graph(_pack(inputs, [i]), models, config)[0]
             for i in CHUNK]
    assert before == pytest.approx(alone, rel=1e-12, abs=1e-15)


X = ad.constant(np.ones((3, 2)))
# entry point -> (the op its error names, a call on propagation operand a)
PACK_TAKERS = {
    "GcnEncoder.forward": ("GcnEncoder.forward", lambda a: GcnEncoder(
        2, 2, 2, 1, make_rng(0)).forward(a, X)),
    "GinNetwork.forward": ("as_float", lambda a: GinNetwork(
        2, 2, 2, 1, make_rng(0)).forward(a, X)),
    "GraphFlow.forward": ("GraphFlow.forward", lambda a: GraphFlow(
        2, 1, 2.0, make_rng(0)).forward(X, a)),
    "GraphFlow.inverse": ("GraphFlow.inverse", lambda a: GraphFlow(
        2, 1, 2.0, make_rng(0)).inverse(X, a)),
    "gram_bce": ("gram_bce", lambda a: ad.gram_bce(X, a, 0.1, 0.9)),
    "as_float": ("as_float", ad.as_float),
    "train_flow": ("fit", lambda a: train_flow(
        GraphFlow(2, 1, 2.0, make_rng(0)), [(a, X.data)], epochs=1,
        lr=1e-3)),
}


@pytest.mark.parametrize("operand", [np.eye(3), Tensor(np.eye(3), True)],
                         ids=["ndarray", "Tensor"])
@pytest.mark.parametrize("entry", list(PACK_TAKERS))
def test_a_propagation_operand_that_is_not_a_pack_is_rejected(entry,
                                                              operand):
    op, call = PACK_TAKERS[entry]
    with pytest.raises(ContractViolation,
                       match=f"^{re.escape(op)} takes a BlockDiag"):
        call(operand)
