"""Reversible graph coupling flow with exact log-determinant accounting.

Embeddings are split into two column halves. Each step scales and shifts
one half conditioned on the other through small message-passing sub-networks
(one degree-normalized propagation followed by a linear map), then does the
same to the second half conditioned on the updated first. Scale exponents
are soft-clamped through tanh so exp() cannot overflow, and the clamped
values feed both the transform and the log-determinant, keeping the density
arithmetic exact. The inverse runs the same algebra backwards.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractViolation, NumericFault, TrainingFault
from .optim import fit, glorot_init


class CouplingSubnet:
    """h -> (A_hat h W_prop) W_lin + b, width preserved.

    The final linear map starts at zero by default so a fresh flow is the
    identity; training wakes it up gradually. Pass ``zero_last=False`` for
    a fully random subnet (exercised by the invertibility properties).
    """

    def __init__(self, width: int, rng: np.random.Generator,
                 zero_last: bool = True):
        self.w_prop = glorot_init(width, width, rng)
        if zero_last:
            self.w_lin = Tensor(np.zeros((width, width)), requires_grad=True)
        else:
            self.w_lin = glorot_init(width, width, rng)
        self.bias = Tensor(np.zeros((1, width)), requires_grad=True)

    def forward(self, a_hat: Tensor, h: Tensor) -> Tensor:
        prop = ad.matmul(ad.matmul(a_hat, h), self.w_prop)
        return ad.add(ad.matmul(prop, self.w_lin), self.bias)

    def params(self) -> list[Tensor]:
        return [self.w_prop, self.w_lin, self.bias]


class CouplingStep:
    def __init__(self, half_width: int, s_max: float, rng: np.random.Generator,
                 zero_last: bool = True):
        if s_max <= 0:
            raise ContractViolation(f"s_max must be positive, got {s_max}")
        self.s_max = s_max
        self.f1 = CouplingSubnet(half_width, rng, zero_last)
        self.f2 = CouplingSubnet(half_width, rng, zero_last)
        self.g1 = CouplingSubnet(half_width, rng, zero_last)
        self.g2 = CouplingSubnet(half_width, rng, zero_last)

    def _clamped(self, raw: Tensor) -> Tensor:
        return ad.scale(ad.tanh(ad.scale(raw, 1.0 / self.s_max)), self.s_max)

    def forward(self, half0: Tensor, half1: Tensor, a_hat: Tensor):
        """Returns (half0', half1', log-det increment)."""
        s_f = self._clamped(self.f1.forward(a_hat, half1))
        half0 = ad.add(ad.mul(half0, ad.exp(s_f)), self.f2.forward(a_hat, half1))
        s_g = self._clamped(self.g1.forward(a_hat, half0))
        half1 = ad.add(ad.mul(half1, ad.exp(s_g)), self.g2.forward(a_hat, half0))
        inc = ad.add(ad.reduce_sum(s_f), ad.reduce_sum(s_g))
        return half0, half1, inc

    def inverse(self, half0: Tensor, half1: Tensor, a_hat: Tensor):
        s_g = self._clamped(self.g1.forward(a_hat, half0))
        half1 = ad.mul(ad.sub(half1, self.g2.forward(a_hat, half0)),
                       ad.exp(ad.scale(s_g, -1.0)))
        s_f = self._clamped(self.f1.forward(a_hat, half1))
        half0 = ad.mul(ad.sub(half0, self.f2.forward(a_hat, half1)),
                       ad.exp(ad.scale(s_f, -1.0)))
        return half0, half1

    def params(self) -> list[Tensor]:
        return (self.f1.params() + self.f2.params()
                + self.g1.params() + self.g2.params())


class GraphFlow:
    """T coupling steps over fixed column halves."""

    def __init__(self, d: int, steps: int, s_max: float,
                 rng: np.random.Generator, zero_last: bool = True):
        if d % 2 != 0:
            raise ContractViolation(f"embedding width must be even, got {d}")
        if steps < 1:
            raise ContractViolation(f"need at least one step, got {steps}")
        self.d = d
        self.steps = [CouplingStep(d // 2, s_max, rng, zero_last)
                      for _ in range(steps)]

    def forward(self, h: Tensor, a_hat: Tensor):
        """Maps embeddings to the latent; returns (z, log_det) Tensors."""
        if h.shape[1] != self.d:
            raise ContractViolation(
                f"flow built for width {self.d}, got {h.shape[1]}")
        half0, half1 = ad.split_half(h)
        log_det = ad.constant(0.0)
        for step in self.steps:
            half0, half1, inc = step.forward(half0, half1, a_hat)
            log_det = ad.add(log_det, inc)
        z = ad.concat([half0, half1], axis=1)
        if not np.all(np.isfinite(z.data)):
            raise NumericFault("flow forward produced non-finite values")
        return z, log_det

    def inverse(self, z: Tensor, a_hat: Tensor) -> Tensor:
        if z.shape[1] != self.d:
            raise ContractViolation(
                f"flow built for width {self.d}, got {z.shape[1]}")
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
        return {"d": self.d, "steps": len(self.steps),
                "s_max": self.steps[0].s_max}


class IdentityFlow:
    """Stand-in flow for the no-flow ablations: z = h, log-det 0. The
    ``rng`` argument is ignored; it lets checkpoints rebuild every model
    class through the same call."""

    def __init__(self, d: int, rng: np.random.Generator | None = None):
        self.d = d
        self.steps = []

    def forward(self, h: Tensor, a_hat: Tensor):
        return h, ad.constant(0.0)

    def inverse(self, z: Tensor, a_hat: Tensor) -> Tensor:
        return z

    def params(self) -> list[Tensor]:
        return []

    def init_args(self) -> dict:
        return {"d": self.d}


def nf_loss(z: Tensor, log_det: Tensor, n: int, normalize: bool = True) -> Tensor:
    """Negative log likelihood under a standard-normal latent, up to the
    constant (d/2)log(2 pi) per node. ``normalize`` divides by node count
    so graphs of different sizes contribute comparably."""
    energy = ad.scale(ad.reduce_sum(ad.mul(z, z)), 0.5)
    loss = ad.sub(energy, log_det)
    return ad.scale(loss, 1.0 / n) if normalize else loss


def train_flow(flow: GraphFlow, inputs, *, epochs: int, lr: float,
               batch_size: int = 1, normalize: bool = True) -> list[float]:
    """Fit the flow to frozen embeddings; ``inputs`` pairs (a_hat, h) arrays.

    Embeddings arrive precomputed because the encoder is frozen by the time
    this phase runs. Returns the per-epoch mean loss trace.
    """
    def graph_loss(pair, epoch):
        a_hat, h = pair
        try:
            z, log_det = flow.forward(ad.constant(h), ad.constant(a_hat))
        except NumericFault as exc:
            raise TrainingFault(str(exc), epoch=epoch) from None
        return nf_loss(z, log_det, h.shape[0], normalize)

    return fit(flow.params(), inputs, graph_loss, epochs=epochs, lr=lr,
               batch_size=batch_size, what="flow")
