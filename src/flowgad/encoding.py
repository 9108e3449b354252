"""Random-walk return probabilities: the structural block of the node features.

Column ``t`` of the encoding is the diagonal of the t-step random walk
operator ``(D^-1 A)^t``, i.e. the probability a walk starting at node ``i``
is back at ``i`` after ``t`` steps (the RWSE of Dwivedi et al.,
arXiv:2110.07875). Isolated nodes get zero rows.

The encoding takes one adjacency or a ``(G, n, n)`` stack of same-size
graphs. Every operation acts on the last two axes only, and each slice of
a stack goes through the same arithmetic, in the same order, as that graph
alone, so a stack returns bit-identical rows. ``pipeline.precompute_inputs``
stacks the small graphs of a data set by node count, so each step is one
numpy call for the whole stack instead of one per graph.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation


def rw_structural_encoding(adjacency: np.ndarray, k_se: int) -> np.ndarray:
    """``(..., n, k_se)`` array whose column t-1 is diag((D^-1 A)^t), for an
    ``(n, n)`` adjacency or a ``(G, n, n)`` stack of them.

    ``D^-1 A`` is similar to the symmetric ``S = D^-1/2 A D^-1/2``, so both
    have the same diagonal powers, and for symmetric powers
    ``diag(S^(a+b)) = rowsum(S^a * S^b)``. Walking ``P = S^j`` upward, each
    product ``Q = P @ S`` gives two columns: ``t = 2j`` from ``P * P`` and
    ``t = 2j + 1`` from ``P * Q``. That is ``ceil(k_se / 2) - 1`` matrix
    products instead of ``k_se - 1`` (7 instead of 15 at k_se = 16), with
    the same three n x n buffers per graph alive at a time. The row sums
    are ``np.vecdot``, which has less per-call overhead than ``einsum`` on
    the 20-40-node graphs of the small TUDataset sets. ``matmul`` and
    ``vecdot`` run one BLAS call per slice of a stack, with that slice's
    own shape and strides.
    """
    if k_se < 1:
        raise ContractViolation(f"k_se must be positive, got {k_se}")
    deg = adjacency.sum(axis=-1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    s = adjacency * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    out = np.empty(adjacency.shape[:-1] + (k_se,), dtype=np.float64)
    out[..., 0] = np.diagonal(s, axis1=-2, axis2=-1)
    power = s
    for t in range(2, k_se + 1, 2):
        out[..., t - 1] = np.vecdot(power, power)
        if t < k_se:
            nxt = power @ s
            out[..., t] = np.vecdot(power, nxt)
            power = nxt
    return out
