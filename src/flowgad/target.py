"""Student side: GIN network distilled against the frozen flow output.

Each layer aggregates (1+eps)*H + A*H over the raw adjacency and pushes the
result through a two-layer perceptron. A columnwise max readout produces the
graph vector (mean readout available). Disagreement is measured by halved
cosine distance, bounded in [0, 1], so downstream scores are too.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractViolation
from .optim import fit, glorot_init

_COS_EPS = 1e-30


class GinLayer:
    def __init__(self, d_in: int, hidden: int, d_out: int,
                 rng: np.random.Generator, eps: float = 0.0):
        self.eps = eps
        self.w1 = glorot_init(d_in, hidden, rng)
        self.b1 = Tensor(np.zeros((1, hidden)), requires_grad=True)
        self.w2 = glorot_init(hidden, d_out, rng)
        self.b2 = Tensor(np.zeros((1, d_out)), requires_grad=True)

    def forward(self, a: Tensor, h: Tensor) -> Tensor:
        agg = ad.add(ad.scale(h, 1.0 + self.eps), ad.matmul(a, h))
        hidden = ad.relu(ad.add(ad.matmul(agg, self.w1), self.b1))
        return ad.add(ad.matmul(hidden, self.w2), self.b2)

    def params(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]


class GinNetwork:
    """Stack of GIN layers ending at width d_out; eps fixed, not learned."""

    def __init__(self, d_in: int, hidden: int, d_out: int, layers: int,
                 rng: np.random.Generator, eps: float = 0.0):
        if layers < 1:
            raise ContractViolation(f"need at least one layer, got {layers}")
        widths = [d_in] + [hidden] * (layers - 1) + [d_out]
        self.layers = [GinLayer(widths[i], hidden, widths[i + 1], rng, eps)
                       for i in range(layers)]
        self.d_in, self.d_out = d_in, d_out

    def forward(self, a: Tensor, x: Tensor) -> Tensor:
        if x.shape[1] != self.d_in:
            raise ContractViolation(
                f"network expects {self.d_in} input columns, got {x.shape[1]}")
        h = x
        for layer in self.layers:
            h = layer.forward(a, h)
        return h

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def init_args(self) -> dict:
        return {"d_in": self.d_in, "hidden": self.layers[0].w1.shape[1],
                "d_out": self.d_out, "layers": len(self.layers),
                "eps": self.layers[0].eps}


def readout_max(h: Tensor) -> Tensor:
    """Columnwise maximum as a 1 x d row."""
    if h.shape[0] < 1:
        raise ContractViolation("readout needs at least one node")
    return ad.reduce_max(h, axis=0, keepdims=True)


def readout_mean(h: Tensor) -> Tensor:
    if h.shape[0] < 1:
        raise ContractViolation("readout needs at least one node")
    return ad.mean(h, axis=0, keepdims=True)


READOUTS = {"max": readout_max, "mean": readout_mean}


def distance(u: np.ndarray, v: np.ndarray, kind: str = "cosine") -> float:
    """Score-time vector distance. Cosine form is (1 - cos)/2 in [0, 1];
    a pair of zero vectors is perfectly agreeing (0), exactly one zero
    vector is maximally uninformative (0.5)."""
    u = np.ravel(np.asarray(u, dtype=np.float64))
    v = np.ravel(np.asarray(v, dtype=np.float64))
    if u.shape != v.shape:
        raise ContractViolation(f"length mismatch: {u.shape} vs {v.shape}")
    if kind == "sqeuclidean":
        return float(np.sum((u - v) ** 2))
    if kind != "cosine":
        raise ConfigError(f"unknown distance kind {kind!r}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 and nv == 0.0:
        return 0.0
    if nu == 0.0 or nv == 0.0:
        return 0.5
    cos = float(np.dot(u, v) / (nu * nv))
    return (1.0 - min(1.0, max(-1.0, cos))) / 2.0


def pair_distances(u: Tensor, v: Tensor, kind: str = "cosine") -> Tensor:
    """Differentiable rowwise distances, n x 1; training never feeds exactly
    zero rows, so the cosine denominator is only epsilon-guarded."""
    if u.shape != v.shape:
        raise ContractViolation(f"shape mismatch: {u.shape} vs {v.shape}")
    if kind == "sqeuclidean":
        diff = ad.sub(u, v)
        return ad.reduce_sum(ad.mul(diff, diff), axis=1, keepdims=True)
    if kind != "cosine":
        raise ConfigError(f"unknown distance kind {kind!r}")
    dot = ad.reduce_sum(ad.mul(u, v), axis=1, keepdims=True)
    sq_u = ad.reduce_sum(ad.mul(u, u), axis=1, keepdims=True)
    sq_v = ad.reduce_sum(ad.mul(v, v), axis=1, keepdims=True)
    denom = ad.sqrt(ad.add_scalar(ad.mul(sq_u, sq_v), _COS_EPS))
    cos = ad.div(dot, denom)
    return ad.add_scalar(ad.scale(cos, -0.5), 0.5)


def graph_target_loss(student_nodes: Tensor, z_nodes: np.ndarray,
                      z_graph: np.ndarray, beta: float, kind: str = "cosine",
                      readout: str = "max") -> Tensor:
    """(1-beta) * graph-level distance + beta * mean node-level distance
    for one graph; the trainer averages this across graphs."""
    if not (0.0 <= beta <= 1.0):
        raise ConfigError(f"beta must lie in [0, 1], got {beta}")
    if student_nodes.shape[0] != z_nodes.shape[0]:
        raise ContractViolation(
            f"node count mismatch: {student_nodes.shape[0]} vs {z_nodes.shape[0]}")
    student_graph = READOUTS[readout](student_nodes)
    graph_term = pair_distances(student_graph,
                                ad.constant(np.reshape(z_graph, (1, -1))), kind)
    node_term = ad.mean(pair_distances(student_nodes, ad.constant(z_nodes), kind))
    return ad.add(ad.scale(ad.reduce_sum(graph_term), 1.0 - beta),
                  ad.scale(node_term, beta))


def train_target(student, inputs, *, beta: float, epochs: int, lr: float,
                 batch_size: int = 1, kind: str = "cosine",
                 readout: str = "max") -> list[float]:
    """Distill the student toward frozen latent targets.

    ``inputs`` pairs (prop, x_init, z_nodes, z_graph) per graph, where
    ``prop`` is whichever propagation matrix the student consumes (raw
    adjacency for GIN, normalized for a GCN student). Returns the per-epoch
    mean loss trace."""
    def graph_loss(quad, epoch):
        prop, x_init, z_nodes, z_graph = quad
        out = student.forward(ad.constant(prop), ad.constant(x_init))
        return graph_target_loss(out, z_nodes, z_graph, beta, kind, readout)

    return fit(student.params(), inputs, graph_loss, epochs=epochs, lr=lr,
               batch_size=batch_size, what="distillation")
