"""Student side: GIN network distilled against the frozen flow output.

Each layer aggregates H + A*H over the raw adjacency (GIN-0, no epsilon)
and pushes the result through a two-layer perceptron, as one fused tape
node (``autodiff.gin_layer``). A is a pack's BlockDiag of bool blocks; the
network casts them to float64 once per forward pass, into one region of
the training step's workspace (``autodiff.as_float``). A columnwise max
readout produces the graph vector, one row per graph of the pack.
Disagreement is measured by halved cosine distance, bounded in [0, 1]; at
beta = 1/2 the distillation loss is also the anomaly score. The cosine
distance is one fused tape node (``autodiff.cosine_distance``) with a
hand-written backward.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractViolation
from .optim import Perceptron, fit


class GinLayer(Perceptron):
    """The perceptron applied to the GIN-0 aggregation h + A h."""

    def forward(self, a, h: Tensor) -> Tensor:
        return ad.gin_layer(a, h, self.w1, self.b1, self.w2, self.b2)


class GinNetwork:
    """Stack of GIN layers ending at width d_out."""

    def __init__(self, d_in: int, hidden: int, d_out: int, layers: int,
                 rng: np.random.Generator):
        if layers < 1:
            raise ContractViolation(f"need at least one layer, got {layers}")
        widths = [d_in] + [hidden] * (layers - 1) + [d_out]
        self.layers = [GinLayer(widths[i], hidden, widths[i + 1], rng)
                       for i in range(layers)]
        self.d_in, self.d_out = d_in, d_out

    def forward(self, a, x: Tensor) -> Tensor:
        if x.shape[1] != self.d_in:
            raise ContractViolation(
                f"network expects {self.d_in} input columns, got {x.shape[1]}")
        # the one float64 copy of a bool adjacency, shared by every layer
        a = ad.as_float(a)
        h = x
        for layer in self.layers:
            h = layer.forward(a, h)
        return h

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def init_args(self) -> dict:
        return {"d_in": self.d_in, "hidden": self.layers[0].w1.shape[1],
                "d_out": self.d_out, "layers": len(self.layers)}


def graph_target_loss(student_nodes: Tensor, z_nodes: np.ndarray,
                      beta: float, offsets) -> Tensor:
    """(1-beta) * graph-level distance + beta * mean node-level distance
    per graph, as a B x 1 column over the row segments ``offsets`` ((0, n)
    for one graph). The trainer averages the column, and at
    beta = 1/2 each entry is its graph's anomaly score. Both graph vectors
    are the columnwise max of their graph's rows. Each distance is the
    halved cosine distance (1 - cos)/2 in [0, 1]. A row pair with exactly
    one all-zero row costs 0.5 (maximally uninformative) with a bounded
    gradient; a pair of all-zero rows agrees, costs 0 and passes no
    gradient. Such pairs occur under ``asy_st``: an isolated attribute-free
    node has a zero encoding row, which the bias-free GCN teacher, the
    zero-step flow and the GCN student keep at zero."""
    if not (0.0 <= beta <= 1.0):
        raise ConfigError(f"beta must lie in [0, 1], got {beta}")
    if student_nodes.shape[0] != z_nodes.shape[0]:
        raise ContractViolation(
            f"node count mismatch: {student_nodes.shape[0]} vs {z_nodes.shape[0]}")
    z_nodes = ad.constant(z_nodes)
    graph_term = ad.cosine_distance(ad.segment_max(student_nodes, offsets),
                                    ad.segment_max(z_nodes, offsets))
    node_term = ad.segment_mean(ad.cosine_distance(student_nodes, z_nodes),
                                offsets)
    return ad.add(ad.scale(graph_term, 1.0 - beta), ad.scale(node_term, beta))


def train_target(student, packs, *, beta: float, epochs: int,
                 lr: float) -> list[float]:
    """Distill the student toward frozen latent targets.

    ``packs`` holds (prop, x_init, z_nodes) packs, where ``prop`` is the
    BlockDiag the student consumes (raw adjacency for GIN, normalized for
    a GCN student) and the rows of ``x_init`` and ``z_nodes`` stack its
    graphs. One optimizer step per pack. Returns the per-epoch mean loss
    trace."""
    def pack_loss(pack):
        prop, x_init, z_nodes = pack
        out = student.forward(prop, ad.constant(x_init))
        return graph_target_loss(out, z_nodes, beta, prop.offsets)

    return fit(student.params(), packs, pack_loss, epochs=epochs, lr=lr,
               what="distillation")
