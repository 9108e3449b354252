"""Teacher side: GCN encoder pre-trained by graph reconstruction.

The encoder maps initial features to node embeddings through degree-normalized
propagation, one fused tape node per layer (``autodiff.gcn_layer``). A
pack's A_hat arrives as its graphs' nonzeros, and the encoder writes it out
dense once per forward pass (``autodiff.as_float``).
Pre-training minimizes a convex combination of an inner-product
adjacency reconstruction term (summed binary cross entropy over the full
n x n matrix) and a squared Frobenius feature reconstruction term produced
by a small perceptron decoder. The adjacency term is one fused tape
primitive (``autodiff.gram_bce``) with an exact hand-written backward. Per
pack it works in two float buffers and one mask that hold every graph's
n x n entries back to back, instead of one n x n buffer per composed op
and graph, and the backward pass reuses them. It splits edges from
non-edges by a gather and scatter over the pack's cached edge index, not
by a mask. During pre-training these buffers are one region of the
workspace that ``optim.fit`` owns for the phase: reused step after step,
and unmapped, its pages back to the OS, when the phase returns. Every op
takes a pack of graphs (see ``autodiff``), and every loss is a column of
per-graph values. Afterwards the encoder is frozen; later phases only
read it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractViolation
from .optim import Perceptron, fit, glorot_init

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

    def forward(self, a_hat, x: Tensor) -> Tensor:
        if x.shape[1] != self.d_in:
            raise ContractViolation(
                f"encoder expects {self.d_in} input columns, got {x.shape[1]}")
        # one dense float64 A_hat per pass, shared by every layer
        a_hat = ad.as_float(ad.require_pack(a_hat, "GcnEncoder.forward"))
        h = x
        last = len(self.weights) - 1
        for li, w in enumerate(self.weights):
            h = ad.gcn_layer(a_hat, h, w, relu=li != last)
        return h

    def params(self) -> list[Tensor]:
        return list(self.weights)

    def init_args(self) -> dict:
        return {"d_in": self.d_in, "hidden": self.hidden, "d_out": self.d_out,
                "layers": len(self.weights)}


class FeatureDecoder(Perceptron):
    """Two-layer perceptron mapping embeddings back to the input features."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__(d_in, d_in, d_out, rng)

    def init_args(self) -> dict:
        return {"d_in": self.w1.shape[0], "d_out": self.w2.shape[1]}


def adjacency_recon_loss(h: Tensor, adjacency) -> Tensor:
    """Per graph, the summed BCE between sigmoid(h_i . h_j), clamped to
    [CLAMP_LO, CLAMP_HI], and the 0/1 adjacency over all n^2 entries; a
    B x 1 column, one entry per graph of the pack's BlockDiag."""
    return ad.gram_bce(h, adjacency, CLAMP_LO, CLAMP_HI)


def feature_recon_loss(x_init: np.ndarray, x_star: Tensor,
                       offsets) -> Tensor:
    """Per graph (row segments ``offsets``; (0, n) for one graph), the
    squared Frobenius distance between decoded and initial features."""
    diff = ad.sub(ad.constant(x_init), x_star)
    return ad.segment_sum(ad.mul(diff, diff), offsets)


def source_loss(h: Tensor, adjacency, x_init: np.ndarray,
                x_star: Tensor, alpha: float) -> Tensor:
    """The per-graph reconstruction loss column; the graphs are the blocks
    of ``adjacency``."""
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    recon_a = adjacency_recon_loss(h, adjacency)
    recon_x = feature_recon_loss(x_init, x_star, adjacency.offsets)
    return ad.add(ad.scale(recon_a, 1.0 - alpha), ad.scale(recon_x, alpha))


def graph_source_loss(encoder: GcnEncoder, decoder: FeatureDecoder,
                      a_hat, adjacency, x_init: np.ndarray,
                      alpha: float) -> Tensor:
    """``source_loss`` of one pack's matrices."""
    h = encoder.forward(a_hat, ad.constant(x_init))
    x_star = decoder.forward(h)
    return source_loss(h, adjacency, x_init, x_star, alpha)


def pretrain_source(encoder: GcnEncoder, decoder: FeatureDecoder, packs, *,
                    alpha: float, epochs: int, lr: float) -> list[float]:
    """Pre-train encoder+decoder on normal graphs.

    ``packs`` is a list of (a_hat, adjacency, x_init) packs: two
    BlockDiags and the graphs' stacked rows. One optimizer step
    per pack, on the mean of its per-graph losses. Returns the mean
    per-graph loss of each epoch.
    """
    def pack_loss(pack):
        return graph_source_loss(encoder, decoder, *pack, alpha)

    return fit(encoder.params() + decoder.params(), packs, pack_loss,
               epochs=epochs, lr=lr, what="reconstruction")
