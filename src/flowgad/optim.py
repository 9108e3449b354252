"""Adaptive-moment optimizer, the shared training loop, freezing, Glorot
initialization, seeded RNG streams."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, ContractViolation, TrainingFault


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


class Adam:
    """Bias-corrected adaptive-moment updates over a fixed parameter list."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """Apply one update from the gradients currently on the parameters."""
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.first_moment, self.second_moment):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ContractViolation(
                    f"gradient shape {g.shape} does not match parameter {p.data.shape}"
                )
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def fit(params, inputs, graph_loss, *, epochs: int, lr: float,
        batch_size: int, what: str) -> list[float]:
    """Adam on the mean per-graph loss, one step per ``batch_size`` inputs.

    ``graph_loss(item, epoch)`` records one input's loss on the active tape.
    Returns the per-epoch mean per-graph loss; a non-finite batch loss stops
    training with a TrainingFault naming ``what`` and the epoch."""
    if not inputs:
        raise ContractViolation("training set is empty")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    opt = Adam(params, lr=lr)
    trace = []
    for epoch in range(epochs):
        total = 0.0
        for start in range(0, len(inputs), batch_size):
            batch = inputs[start:start + batch_size]
            with Tape() as tape:
                loss = graph_loss(batch[0], epoch)
                for item in batch[1:]:
                    loss = ad.add(loss, graph_loss(item, epoch))
                if len(batch) > 1:
                    loss = ad.scale(loss, 1.0 / len(batch))
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingFault(f"{what} loss went non-finite",
                                        epoch=epoch)
                total += value * len(batch)
                tape.backward(loss)
            opt.step()
            opt.zero_grad()
        trace.append(total / len(inputs))
    return trace


def freeze(*models):
    """Stops gradient flow into every parameter of ``models`` for good."""
    for model in models:
        for p in model.params():
            p.requires_grad = False
            p.grad = None


def is_frozen(model) -> bool:
    return not any(p.requires_grad for p in model.params())
