"""Random-walk return probabilities: the structural block of the node features.

Column ``t`` of the encoding is the diagonal of the t-step random walk
operator ``(D^-1 A)^t``, i.e. the probability a walk starting at node ``i``
is back at ``i`` after ``t`` steps (the RWSE of Dwivedi et al.,
arXiv:2110.07875). Isolated nodes get zero rows.

``D^-1 A`` is similar to the symmetric ``S = D^-1/2 A D^-1/2``, so both
have the same diagonal powers, and for symmetric powers
``diag(S^(a+b)) = rowsum(S^a * S^b)``. Column t therefore needs two powers
of S whose exponents sum to t, both in memory at once, and never S^t
itself. ``product_plan`` fixes, from ``k_se`` alone, which powers to make
and from which two factors, which columns to take from which pair, and
when to free a power. At k_se = 16 it makes five powers:

    S^2 = S S^T, S^4 = S^2 S^2^T, S^5 = S^4 S, (free S^2)
    S^10 = S^5 S^5^T, (free S^10) S^8 = S^4 S^4^T

and takes column 1 from diag S, then 2=1+1, 3=1+2, 4=2+2, 5=1+4, 6=2+4,
7=2+5, 8=4+4, 9=4+5, 10=5+5, 11=1+10, 14=4+10, 15=5+10, 12=4+8, 13=5+8,
16=8+8. Four of the five products are squares, each written ``P @ P^T``
so that numpy hands it to BLAS syrk. Walking up one power at a time took
seven general products, ``ceil(k_se / 2) - 1``; no ``k_se`` needs more
than that. At most four n x n arrays are alive at once, S included.
Beyond k_se = 16 the plan walks on from S^8 one power at a time, two
columns a product.

The encoding takes one adjacency or a ``(G, n, n)`` stack of same-size
graphs. Every operation acts on the last two axes only: ``matmul`` and
``vecdot`` run one BLAS call per slice of a stack, with that slice's own
shape and strides, so a stack returns the rows of each graph encoded
alone, bit for bit. ``pipeline.precompute_inputs`` stacks the small
graphs of a data set by node count, so each step is one numpy call for
the whole stack instead of one per graph.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ContractViolation

# (power made, left factor, right factor, powers freed just before), in the
# order the plan makes them, until every column is taken. After S^8 the
# plan frees all but S and the last power and makes the next one up.
_HEAD = ((2, 1, 1, ()), (4, 2, 2, ()), (5, 4, 1, ()), (10, 5, 5, (2,)),
         (8, 4, 4, (10,)))


@functools.cache
def product_plan(k_se: int) -> tuple[tuple[str, int, int, int], ...]:
    """The steps that ``rw_structural_encoding`` runs for ``k_se`` columns,
    each ``(op, i, a, b)`` over powers of S named by their exponent:
    ``("product", i, a, b)`` makes S^i = S^a S^b, a square when
    ``a == b``; ``("column", t, a, b)`` takes column t as the row sums of
    S^a * S^b; ``("free", i, 0, 0)`` drops S^i. Column 1, diag S, is not a
    step. After each product the plan takes every column that the new
    power and a power still alive give."""
    ops = [("column", 2, 1, 1)] if k_se > 1 else []
    alive = [1]
    todo = set(range(3, k_se + 1))

    def make(power, left, right, freed):
        for q in freed:
            alive.remove(q)
            ops.append(("free", q, 0, 0))
        ops.append(("product", power, left, right))
        alive.append(power)
        for q in alive:
            if q + power in todo:
                todo.remove(q + power)
                ops.append(("column", q + power, q, power))

    for step in _HEAD:
        if todo:
            make(*step)
    while todo:
        last = alive[-1]
        make(last + 1, last, 1, [q for q in alive if q not in (1, last)])
    return tuple(ops)


def rw_structural_encoding(adjacency: np.ndarray, k_se: int,
                           scratch: np.ndarray | None = None) -> np.ndarray:
    """``(..., n, k_se)`` array whose column t-1 is diag((D^-1 A)^t), for an
    ``(n, n)`` adjacency or a ``(G, n, n)`` stack of them.

    Runs ``product_plan(k_se)`` on ``S = D^-1/2 A D^-1/2``, with at most
    four n x n arrays per graph alive at a time, S included. The row sums
    are ``np.vecdot``, which has less per-call overhead than ``einsum`` on
    the 20-40-node graphs of the small TUDataset sets.

    The powers live in four slots of ``scratch``, a float64 array of at
    least ``4 * adjacency.size`` entries: a product takes a free slot and
    a freed power gives its slot back. Without ``scratch`` the call
    allocates one; a caller that encodes many graphs
    (``pipeline.precompute_inputs``) passes one buffer to every call, so
    that memory is mapped once rather than once per graph. What
    ``scratch`` holds afterwards is undefined.
    """
    if k_se < 1:
        raise ContractViolation(f"k_se must be positive, got {k_se}")
    size = adjacency.size
    if scratch is None:
        scratch = np.empty(4 * size)
    elif scratch.size < 4 * size:
        raise ContractViolation(
            f"scratch of {scratch.size} entries cannot hold four powers "
            f"of {size}")
    slots = [scratch[k * size:(k + 1) * size].reshape(adjacency.shape)
             for k in range(4)]
    deg = adjacency.sum(axis=-1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    s = np.multiply(adjacency, inv_sqrt[..., :, None],
                    out=slots.pop())
    s *= inv_sqrt[..., None, :]
    out = np.empty(adjacency.shape[:-1] + (k_se,), dtype=np.float64)
    out[..., 0] = np.diagonal(s, axis1=-2, axis2=-1)
    powers = {1: s}
    for op, i, a, b in product_plan(k_se):
        if op == "product":
            # a square as P @ P^T runs through BLAS syrk
            powers[i] = np.matmul(powers[a], powers[a].swapaxes(-1, -2)
                                  if a == b else powers[b],
                                  out=slots.pop())
        elif op == "column":
            out[..., i - 1] = np.vecdot(powers[a], powers[b])
        else:
            slots.append(powers.pop(i))
    return out
