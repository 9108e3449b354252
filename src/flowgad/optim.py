"""Adaptive-moment optimizer, the shared training loop, freezing, Glorot
initialization, the models' two-layer perceptron, seeded RNG streams."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ContractViolation, NumericFault, TrainingFault


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for ``seed``; extra ints select substreams.

    Distinct stream keys (e.g. per training phase) give independent streams,
    so phases produce identical draws whether run together or separately.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=stream)))


def glorot_init(rows: int, cols: int, seed) -> Tensor:
    """Uniform draw in +/- sqrt(6 / (rows + cols)); same seed, same tensor.

    ``seed`` is an int or an existing Generator (for chained initialization).
    """
    if rows < 1 or cols < 1:
        raise ContractViolation(f"glorot_init needs positive dims, got {rows}x{cols}")
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(int(seed))
    bound = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


class Perceptron:
    """relu(x W1 + b1) W2 + b2, the two-layer perceptron of the teacher's
    feature decoder and of each GIN layer, recorded as one tape node. W1
    and then W2 are Glorot draws from ``rng``; the biases start at zero."""

    def __init__(self, d_in: int, hidden: int, d_out: int,
                 rng: np.random.Generator):
        self.w1 = glorot_init(d_in, hidden, rng)
        self.b1 = Tensor(np.zeros((1, hidden)), requires_grad=True)
        self.w2 = glorot_init(hidden, d_out, rng)
        self.b2 = Tensor(np.zeros((1, d_out)), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.perceptron(x, self.w1, self.b1, self.w2, self.b2)

    def params(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]


BETA1 = 0.9      # decay of the first-moment estimate
BETA2 = 0.999    # decay of the second-moment estimate
EPS = 1e-8       # keeps the update finite where the second moment is 0


class Adam:
    """Bias-corrected adaptive-moment updates over flat buffers: each
    parameter's ``.data`` and ``.grad`` become views into one data and one
    gradient buffer. While the optimizer is live the tape adds into each
    ``.grad`` view in place, so a parameter's ``.grad`` must never be rebound."""

    def __init__(self, params, lr: float = 1e-3):
        params = list(params)
        if not params:
            raise ContractViolation("Adam needs at least one parameter")
        self.lr = lr
        self.step_count = 0
        self.data = np.concatenate([p.data.ravel() for p in params])
        self.grad = np.zeros_like(self.data)
        self.first_moment = np.zeros_like(self.data)
        self.second_moment = np.zeros_like(self.data)
        ends = np.cumsum([p.data.size for p in params])[:-1]
        for p, data, grad in zip(params, np.split(self.data, ends),
                                 np.split(self.grad, ends)):
            p.data, p.grad = data.reshape(p.shape), grad.reshape(p.shape)

    def step(self):
        """One update of the whole buffer from the accumulated gradients."""
        self.step_count += 1
        self.first_moment *= BETA1
        self.first_moment += (1.0 - BETA1) * self.grad
        self.second_moment *= BETA2
        self.second_moment += (1.0 - BETA2) * (self.grad * self.grad)
        m_hat = self.first_moment / (1.0 - BETA1 ** self.step_count)
        v_hat = self.second_moment / (1.0 - BETA2 ** self.step_count)
        self.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grad(self):
        self.grad.fill(0.0)


def fit(params, packs, pack_loss, *, epochs: int, lr: float,
        what: str) -> list[float]:
    """Adam on the mean per-graph loss, one step per pack.

    ``packs`` is the phase's list of training packs, built once and
    visited in order every epoch; a pack's first entry is its propagation
    operand, a BlockDiag whose row offsets say how many graphs it holds.
    ``pack_loss(pack)`` records the pack's per-graph losses on the active
    tape as a B x 1 column; a step descends on its mean (on the loss
    itself for a one-graph pack, which records no mean). Returns the
    per-epoch mean per-graph loss. A NumericFault while a pack loss is
    built, or a non-finite pack loss, stops training with a TrainingFault
    naming ``what``, the epoch and the fault's source. The steps' tapes
    share one ``autodiff.Workspace``, dropped when training returns: the
    pages of its last mapping go back to the OS then (those of a mapping
    it outgrew went back at the growth), and its unused reserve never
    became resident."""
    if not packs:
        raise ContractViolation("training set is empty")
    counts = [len(ad.require_pack(pack[0], "fit").offsets) - 1
              for pack in packs]
    opt = Adam(params, lr=lr)
    workspace = ad.Workspace()
    trace = []
    for epoch in range(epochs):
        total = 0.0
        for pack, count in zip(packs, counts):
            with Tape(workspace) as tape:
                try:
                    losses = pack_loss(pack)
                    if losses.shape != (count, 1):
                        raise ContractViolation(
                            f"{what} loss of {count} graphs has shape "
                            f"{losses.shape}, not one row per graph")
                    # the mean of one graph's loss is that loss
                    loss = losses if count == 1 else ad.mean(losses)
                    # a non-finite loss raises here, naming the first
                    # recorded op that produced a non-finite value
                    tape.backward(loss)
                except NumericFault as exc:
                    raise TrainingFault(f"{what} loss went non-finite "
                                        f"(epoch {epoch}): {exc}") from None
                total += loss.item() * count
            opt.step()
            opt.zero_grad()
        trace.append(total / sum(counts))
    return trace


def freeze(*models):
    """Stops gradient flow into every parameter of ``models`` for good."""
    for model in models:
        for p in model.params():
            p.requires_grad = False
            p.grad = None


def is_frozen(model) -> bool:
    return not any(p.requires_grad for p in model.params())
