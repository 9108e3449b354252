"""Teacher side: GCN encoder pre-trained by graph reconstruction.

The encoder maps initial features to node embeddings through degree-normalized
propagation. Pre-training minimizes a convex combination of an inner-product
adjacency reconstruction term (summed binary cross entropy over the full
n x n matrix) and a squared Frobenius feature reconstruction term produced
by a small perceptron decoder. Afterwards the encoder is frozen; later
phases only read it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractViolation
from .optim import fit, freeze, glorot_init, is_frozen

CLAMP_LO = 1e-12
CLAMP_HI = 1.0 - 1e-12


class GcnEncoder:
    """k propagation layers H <- relu(A_hat H W); the last layer is linear."""

    def __init__(self, d_in: int, hidden: int, d_out: int, layers: int,
                 rng: np.random.Generator):
        if layers < 1:
            raise ContractViolation(f"need at least one layer, got {layers}")
        widths = [d_in] + [hidden] * (layers - 1) + [d_out]
        self.weights = [glorot_init(widths[i], widths[i + 1], rng)
                        for i in range(layers)]
        self.d_in, self.hidden, self.d_out = d_in, hidden, d_out

    def forward(self, a_hat: Tensor, x: Tensor) -> Tensor:
        if x.shape[1] != self.d_in:
            raise ContractViolation(
                f"encoder expects {self.d_in} input columns, got {x.shape[1]}")
        h = x
        last = len(self.weights) - 1
        for li, w in enumerate(self.weights):
            h = ad.matmul(ad.matmul(a_hat, h), w)
            if li != last:
                h = ad.relu(h)
        return h

    def params(self) -> list[Tensor]:
        return list(self.weights)

    def init_args(self) -> dict:
        return {"d_in": self.d_in, "hidden": self.hidden, "d_out": self.d_out,
                "layers": len(self.weights)}

    @property
    def frozen(self) -> bool:
        return is_frozen(self)


class FeatureDecoder:
    """Two-layer perceptron mapping embeddings back to the input features."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.w1 = glorot_init(d_in, d_in, rng)
        self.b1 = Tensor(np.zeros((1, d_in)), requires_grad=True)
        self.w2 = glorot_init(d_in, d_out, rng)
        self.b2 = Tensor(np.zeros((1, d_out)), requires_grad=True)

    def forward(self, h: Tensor) -> Tensor:
        hidden = ad.relu(ad.add(ad.matmul(h, self.w1), self.b1))
        return ad.add(ad.matmul(hidden, self.w2), self.b2)

    def params(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]

    def init_args(self) -> dict:
        return {"d_in": self.w1.shape[0], "d_out": self.w2.shape[1]}


def adjacency_recon_loss(h: Tensor, adjacency: np.ndarray) -> Tensor:
    """Summed BCE between sigmoid(h_i . h_j) and A over all n^2 entries."""
    probs = ad.clip(ad.sigmoid(ad.matmul(h, ad.transpose(h))), CLAMP_LO, CLAMP_HI)
    a = ad.constant(adjacency)
    not_a = ad.constant(1.0 - adjacency)
    hit = ad.mul(a, ad.log(probs))
    miss = ad.mul(not_a, ad.log(ad.add_scalar(ad.scale(probs, -1.0), 1.0)))
    return ad.scale(ad.reduce_sum(ad.add(hit, miss)), -1.0)


def feature_recon_loss(x_init: np.ndarray, x_star: Tensor) -> Tensor:
    """Squared Frobenius distance between decoded and initial features."""
    diff = ad.sub(ad.constant(x_init), x_star)
    return ad.reduce_sum(ad.mul(diff, diff))


def source_loss(h: Tensor, adjacency: np.ndarray, x_init: np.ndarray,
                x_star: Tensor, alpha: float) -> Tensor:
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    recon_a = adjacency_recon_loss(h, adjacency)
    recon_x = feature_recon_loss(x_init, x_star)
    return ad.add(ad.scale(recon_a, 1.0 - alpha), ad.scale(recon_x, alpha))


def graph_source_loss(encoder: GcnEncoder, decoder: FeatureDecoder,
                      a_hat: np.ndarray, adjacency: np.ndarray,
                      x_init: np.ndarray, alpha: float) -> Tensor:
    h = encoder.forward(ad.constant(a_hat), ad.constant(x_init))
    x_star = decoder.forward(h)
    return source_loss(h, adjacency, x_init, x_star, alpha)


def pretrain_source(inputs, d_in: int, *, hidden: int, d_out: int, layers: int,
                    alpha: float, epochs: int, lr: float,
                    rng: np.random.Generator, batch_size: int = 1):
    """Pre-train encoder+decoder on normal graphs; returns them frozen-ready.

    ``inputs`` is a sequence of (a_hat, adjacency, x_init) arrays, one per
    training graph. One optimizer step per ``batch_size`` graphs (mean loss
    within a batch). The returned trace holds the mean per-graph loss of
    each epoch. The encoder comes back frozen; the decoder is returned too
    because reconstruction-only scoring needs it.
    """
    encoder = GcnEncoder(d_in, hidden, d_out, layers, rng)
    decoder = FeatureDecoder(d_out, d_in, rng)
    trace = fit(encoder.params() + decoder.params(), inputs,
                lambda item, epoch: graph_source_loss(encoder, decoder, *item,
                                                      alpha),
                epochs=epochs, lr=lr, batch_size=batch_size,
                what="reconstruction")
    freeze(encoder)
    return encoder, decoder, trace
