"""Reversible graph coupling flow with exact log-determinant accounting.

Embeddings are split into two column halves. Each step scales and shifts
one half conditioned on the other through small message-passing sub-networks
(one degree-normalized propagation followed by a linear map), then does the
same to the second half conditioned on the updated first. Scale exponents
are soft-clamped through tanh so exp() cannot overflow, and the clamped
values feed both the transform and the log-determinant, keeping the density
arithmetic exact. The forward step is one fused tape node
(``autodiff.coupling_step``) with a hand-written backward; the inverse,
which no training step records, runs the same subnets and clamp backwards
on plain arrays (``autodiff.coupling_inverse``). Every graph set, one
graph included, arrives as a pack: a BlockDiag of its A_hat matrices,
which the flow writes out dense once per pass (``autodiff.as_float``;
``pipeline.forward_stack`` hands it one already written, and a zero-step
flow writes nothing). The log-determinant is a column with one entry per
graph of the pack. The loss is one fused tape node too
(``autodiff.normal_nll``).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractViolation, NumericFault
from .optim import fit, glorot_init


class CouplingSubnet:
    """h -> (A_hat h W_prop) W_lin + b, width preserved.

    The final linear map starts at zero so a fresh flow is the identity;
    training wakes it up gradually.
    """

    def __init__(self, width: int, rng: np.random.Generator):
        self.w_prop = glorot_init(width, width, rng)
        self.w_lin = Tensor(np.zeros((width, width)), requires_grad=True)
        self.bias = Tensor(np.zeros((1, width)), requires_grad=True)

    def params(self) -> list[Tensor]:
        return [self.w_prop, self.w_lin, self.bias]


class CouplingStep:
    def __init__(self, half_width: int, s_max: float, rng: np.random.Generator):
        if s_max <= 0:
            raise ContractViolation(f"s_max must be positive, got {s_max}")
        self.s_max = s_max
        self.f1 = CouplingSubnet(half_width, rng)
        self.f2 = CouplingSubnet(half_width, rng)
        self.g1 = CouplingSubnet(half_width, rng)
        self.g2 = CouplingSubnet(half_width, rng)

    def subnets(self) -> list[tuple]:
        """The (w_prop, w_lin, bias) tensors of f1, f2, g1 and g2."""
        return [tuple(net.params()) for net in (self.f1, self.f2, self.g1,
                                                self.g2)]

    def forward(self, half0: Tensor, half1: Tensor, a_hat):
        """Returns (half0', half1', per-graph log-det increment column),
        recorded as one ``coupling_step`` tape node."""
        return ad.coupling_step(half0, half1, a_hat, self.subnets(),
                                self.s_max)

    def inverse(self, half0: Tensor, half1: Tensor, a_hat):
        """The step's inverse (``autodiff.coupling_inverse``), as two
        untracked Tensors."""
        return tuple(Tensor(half) for half in ad.coupling_inverse(
            half0.data, half1.data, a_hat, self.subnets(), self.s_max))

    def params(self) -> list[Tensor]:
        return [p for net in self.subnets() for p in net]


class GraphFlow:
    """T coupling steps over fixed column halves. With zero steps the flow
    is the identity (z = h, log-det 0), which is how the no-flow ablations
    keep the source -> flow -> target stack."""

    def __init__(self, d: int, steps: int, s_max: float,
                 rng: np.random.Generator):
        if d % 2 != 0:
            raise ContractViolation(f"embedding width must be even, got {d}")
        if steps < 0:
            raise ContractViolation(f"step count must be non-negative, got {steps}")
        self.d, self.s_max = d, s_max
        self.steps = [CouplingStep(d // 2, s_max, rng) for _ in range(steps)]

    def forward(self, h: Tensor, a_hat):
        """Maps embeddings to the latent; returns (z, log_det) Tensors,
        log_det a column with one entry per graph of the pack ``a_hat``."""
        if h.shape[1] != self.d:
            raise ContractViolation(
                f"flow built for width {self.d}, got {h.shape[1]}")
        a_hat = ad.require_pack(a_hat, "GraphFlow.forward")
        if self.steps:
            # one dense float64 A_hat per pass, shared by every step; a
            # zero-step flow (the no-flow ablations) reads none
            a_hat = ad.as_float(a_hat)
        half0, half1 = ad.split_half(h)
        graphs = len(a_hat.offsets) - 1
        log_det = ad.constant(np.zeros((graphs, 1)))
        for step in self.steps:
            half0, half1, inc = step.forward(half0, half1, a_hat)
            log_det = ad.add(log_det, inc)
        z = ad.concat([half0, half1], axis=1)
        if not np.all(np.isfinite(z.data)):
            raise NumericFault("flow forward produced non-finite values")
        return z, log_det

    def inverse(self, z: Tensor, a_hat) -> Tensor:
        if z.shape[1] != self.d:
            raise ContractViolation(
                f"flow built for width {self.d}, got {z.shape[1]}")
        a_hat = ad.as_float(ad.require_pack(a_hat, "GraphFlow.inverse"))
        half0, half1 = ad.split_half(z)
        for step in reversed(self.steps):
            half0, half1 = step.inverse(half0, half1, a_hat)
        h = ad.concat([half0, half1], axis=1)
        if not np.all(np.isfinite(h.data)):
            raise NumericFault("flow inverse produced non-finite values")
        return h

    def params(self) -> list[Tensor]:
        return [p for step in self.steps for p in step.params()]

    def init_args(self) -> dict:
        return {"d": self.d, "steps": len(self.steps), "s_max": self.s_max}


def nf_loss(z: Tensor, log_det: Tensor, offsets) -> Tensor:
    """Per-graph negative log likelihood under a standard-normal latent, up
    to the constant (d/2)log(2 pi) per node, as a B x 1 column. The graphs
    are the row segments ``offsets`` of ``z`` ((0, n) for one graph). Each
    graph's loss is divided by its own node count so graphs of different
    sizes contribute comparably."""
    return ad.normal_nll(z, log_det, offsets)


def train_flow(flow: GraphFlow, packs, *, epochs: int,
               lr: float) -> list[float]:
    """Fit the flow to frozen embeddings; ``packs`` holds (a_hat, h) packs,
    ``h`` the stacked embedding rows of the graphs of ``a_hat``.

    Embeddings arrive precomputed because the encoder is frozen by the time
    this phase runs. One optimizer step per pack. Returns the per-epoch
    mean loss trace.
    """
    def pack_loss(pack):
        a_hat, h = pack
        z, log_det = flow.forward(ad.constant(h), a_hat)
        return nf_loss(z, log_det, a_hat.offsets)

    return fit(flow.params(), packs, pack_loss, epochs=epochs, lr=lr,
               what="flow")
