"""Dense reverse-mode automatic differentiation over numpy float64 arrays.

A ``Tape`` records every primitive applied to tracked tensors while it is
active (innermost ``with Tape() as tape:`` wins).  ``tape.backward(loss)``
walks the record once in reverse and accumulates ``.grad`` buffers on every
tensor that had ``requires_grad`` set.  Outside a tape the same primitives
run as plain numpy calls, which keeps frozen-model inference cheap.

Every graph set runs as one pack: the graphs' node rows stacked in order,
a ``BlockDiag`` of their propagation matrices, and its row offsets, which
the ``segment_*`` reductions and the per-graph losses split per graph. The
``BlockDiag`` is the only propagation operand the fused ops and
``as_float`` take (``require_pack``); one graph is ``BlockDiag([a])``, its
offsets (0, n).

Every primitive records through ``_op``, which takes its output and one
gradient map per input and, in backward, adds each tracked input's map of
the output gradient, unbroadcast, in input order. Each model layer and
loss body is a fused op with a hand-written backward on ``_record``, one
node each, because the order in which it adds its gradients is what keeps
value and gradients bit-identical to the primitive chain it replaced:
``perceptron`` (the feature decoder), ``gin_layer`` and ``gcn_layer``
(one student or teacher layer), ``coupling_step`` (one flow step),
``normal_nll`` (the flow loss), ``gram_bce`` (the adjacency
reconstruction loss) and ``cosine_distance``. The fused ops work once
over a pack where they can: ``gram_bce`` runs its elementwise passes
over one region that holds every block's n^2 entries, and segment totals
are one ``reduceat``. A node may own several outputs (``coupling_step``
has three); its backward runs once when any of them has a gradient, with
zeros for an output no later op used.

All tensor data is float64. A pack's blocks may hold any 0/1 dtype or be
``Nonzeros``: the library keeps raw adjacencies as bool blocks, which
``gram_bce`` reads through their edge index, and each A_hat as the index
and values of its nonzeros. ``as_float`` gives the dense float64 blocks
that a product needs; every model calls it once at the top of its
forward pass. Matrices are 2-D throughout; per-graph losses are B x 1
columns, and the training loss is their 0-d mean (one graph's 1 x 1 loss
itself).
"""

from __future__ import annotations

import ctypes
import mmap
import weakref
from operator import itemgetter
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractViolation, DeterminismError, NumericFault

_TAPES: list["Tape"] = []


def _active_tape() -> Optional["Tape"]:
    return _TAPES[-1] if _TAPES else None


class Tensor:
    """A numpy array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        # a float64 ndarray is kept as is, as np.asarray would keep it
        self.data = (data if type(data) is np.ndarray
                     and data.dtype == np.float64
                     else np.asarray(data, dtype=np.float64))
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Node:
    """One recorded primitive: op name, its output tensors, and a backward
    closure that takes one gradient per output."""

    __slots__ = ("op", "outs", "backprop")

    def __init__(self, op: str, outs: tuple, backprop: Callable):
        self.op = op
        self.outs = outs
        self.backprop = backprop


class Tape:
    """Ordered operation record; single forward pass, single backward pass.

    Policy: a tape may be backpropagated at most once and is then spent;
    build a fresh tape per training step. A tape given a ``Workspace``
    lends it to the fused ops it records and to ``as_float``; entering the
    tape takes back every region an earlier tape of that workspace held, so
    that earlier tape can no longer be backpropagated.
    """

    def __init__(self, workspace: Optional["Workspace"] = None):
        self.nodes: list[Node] = []
        self.workspace = workspace
        self._spent = False
        self._generation = 0

    def __enter__(self):
        if self.workspace is not None:
            self._generation = self.workspace.begin()
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

    def backward(self, loss: Tensor):
        """Populate ``.grad`` on every tracked tensor reachable from ``loss``."""
        if self._spent:
            raise ContractViolation("tape already backpropagated; build a new tape")
        if loss.data.size != 1:
            raise ContractViolation(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        if not self.nodes:
            raise ContractViolation("tape is empty; no operations were recorded")
        if not np.isfinite(loss.data):
            raise NumericFault(self._first_nonfinite())
        if (self.workspace is not None
                and self.workspace.generation != self._generation):
            raise ContractViolation(
                "a later tape has reused this tape's workspace; "
                "backpropagate a tape before the next one starts")
        self._spent = True
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            if len(node.outs) == 1:
                grad = node.outs[0].grad
                if grad is not None:
                    node.backprop(grad)
                continue
            grads = [out.grad for out in node.outs]
            if any(g is not None for g in grads):
                # a node runs once; an output no later op used passes zeros
                node.backprop(*[np.zeros_like(out.data) if g is None else g
                                for out, g in zip(node.outs, grads)])

    def _first_nonfinite(self) -> str:
        for i, node in enumerate(self.nodes):
            if not all(np.all(np.isfinite(out.data)) for out in node.outs):
                return f"non-finite values first produced by node #{i} '{node.op}'"
        return "loss is non-finite but every recorded node output is finite"


def _accum(t: Tensor, g: np.ndarray):
    if g.shape != t.data.shape:
        raise ContractViolation(
            f"gradient shape {g.shape} does not match tensor {t.data.shape}")
    if t.grad is None:
        # owned copy: g may alias another tensor's grad buffer
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _record(op: str, inputs: tuple, out_data, backprop):
    """The output tensor of ``out_data``, or a tuple of them when
    ``out_data`` is a tuple of arrays; recorded as one node when a tape is
    active and an input is tracked."""
    tape = _active_tape()
    tracked = False
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                tracked = True
                break
    if isinstance(out_data, tuple):
        out = outs = tuple(Tensor(d, tracked) for d in out_data)
    else:
        out = Tensor(out_data, tracked)
        outs = (out,)
    if tracked:
        tape.nodes.append(Node(op, outs, backprop))
    return out


def _op(op: str, inputs: tuple, out_data, grads: tuple) -> Tensor:
    """``_record`` of a one-output op given one gradient map per input: the
    backward adds ``grads[i](g)``, unbroadcast to the input's shape, to
    each tracked input in order, and never calls the map of a constant."""
    def backprop(g):
        for t, grad in zip(inputs, grads):
            if t.requires_grad:
                _accum(t, _unbroadcast(grad(g), t.data.shape))

    return _record(op, inputs, out_data, backprop)


def _tracemalloc(address: int, nbytes: Optional[int] = None):
    """Traces ``nbytes`` at ``address`` in numpy's tracemalloc domain, as
    numpy reports its own data buffers, replacing the size traced there
    before; with no ``nbytes``, stops tracing it. Does nothing when the
    interpreter exports no ``PyTraceMalloc_Track`` or
    ``PyTraceMalloc_Untrack``."""
    try:
        track = ctypes.pythonapi.PyTraceMalloc_Track
        untrack = ctypes.pythonapi.PyTraceMalloc_Untrack
    except AttributeError:
        return
    track.argtypes = (ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t)
    untrack.argtypes = (ctypes.c_uint, ctypes.c_size_t)
    track.restype = untrack.restype = ctypes.c_int
    # the result only says whether tracemalloc was on; tracing is for
    # reports, so a failure leaves nothing to undo
    if nbytes is None:
        untrack(np.lib.tracemalloc_domain, address)
    else:
        track(np.lib.tracemalloc_domain, address, nbytes)


class Workspace:
    """Scratch memory that one training phase lends to the fused ops and the
    ``as_float`` blocks of its tapes (a pack's cast A, its written-out
    A_hat), one tape at a time. ``begin`` starts a tape and takes back
    every region the previous tape held; ``take`` hands out a region
    disjoint from every other region of the current tape. The regions come
    from one buffer, which a ``take`` that does not fit grows to the
    largest total any tape has asked for, so from the second pass over a
    phase's packs on no step allocates. A growth mid-tape leaves the
    tape's earlier regions where they are, in the old mapping, which they
    keep mapped until the tape is dropped.

    The buffer is the head of an anonymous memory mapping of the
    workspace's own. A growth past the mapping maps at least twice the old
    size, so a phase maps a few times however many times its buffer grows;
    the untouched pages of that reserve are virtual and never become
    resident. A mapping's pages go back to the OS as soon as neither the
    workspace nor a region of an earlier tape refers to it: when the
    workspace outgrows it, or, for the last one, when ``optim.fit`` drops
    the workspace as the phase returns. tracemalloc counts the buffer, not
    the reserve, in numpy's domain, as it would count an ``np.empty`` of
    its size."""

    __slots__ = ("generation", "_buffer", "_used", "_high")

    ALIGN = 64      # bytes; every region starts on a cache line

    def __init__(self):
        self.generation = 0
        self._buffer = np.empty(0, np.uint8)
        self._used = self._high = 0

    def begin(self) -> int:
        """Starts a tape; returns its generation number."""
        self.generation += 1
        self._used = 0
        return self.generation

    def take(self, nbytes: int) -> np.ndarray:
        """A uint8 region of ``nbytes``, uninitialized."""
        start = self._used
        self._used += -(-nbytes // self.ALIGN) * self.ALIGN
        self._high = max(self._high, self._used)
        if self._high > self._buffer.size:
            mapping = self._buffer.base
            if mapping is None or mapping.size < self._high:
                reserve = 2 * (0 if mapping is None else mapping.size)
                # unmap the old mapping before the new one is made
                self._buffer = mapping = None
                mapping = np.frombuffer(
                    mmap.mmap(-1, max(self._high, reserve)), np.uint8)
                weakref.finalize(mapping, _tracemalloc, mapping.ctypes.data)
            _tracemalloc(mapping.ctypes.data, self._high)
            self._buffer = mapping[:self._high]
        return self._buffer[start:start + nbytes]


class Nonzeros:
    """A square float64 matrix kept as its nonzero entries: their flat
    (C-order) ``index`` into the n x n matrix, ``np.intp``, and their
    ``values``, taken bit for bit from the dense matrix it was made of.
    16 bytes a nonzero instead of 8 n^2 for the matrix; ``as_float``
    writes it back as a dense block (a -0.0 entry comes back +0.0)."""

    __slots__ = ("shape", "index", "values", "__weakref__")

    ndim = 2

    def __init__(self, dense: np.ndarray):
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ContractViolation(
                f"Nonzeros takes a square matrix, got {dense.shape}")
        self.shape = dense.shape
        self.index = np.flatnonzero(dense)
        self.values = np.take(dense, self.index)

    @property
    def size(self) -> int:
        """Entries of the dense matrix, n^2."""
        return self.shape[0] * self.shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes kept: the index plus the values."""
        return self.index.nbytes + self.values.nbytes


class BlockDiag:
    """A constant block-diagonal matrix kept as its diagonal blocks: the
    propagation operand of a pack. Rows ``offsets[b]:offsets[b + 1]`` belong
    to block ``b``. The zeros off the diagonal are never stored, so no
    product mixes two graphs. The blocks keep their graphs' form: a pack's
    raw adjacency is bool (one byte an entry), its A_hat ``Nonzeros``; a
    caller may pass dense float64 blocks of either. A product takes only
    dense float64 blocks, which ``as_float`` gives."""

    __slots__ = ("blocks", "offsets", "spans", "_edges")

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        bounds = [0]
        for block in self.blocks:
            if block.ndim != 2 or block.shape[0] != block.shape[1]:
                raise ContractViolation(
                    f"a diagonal block must be square, got {block.shape}")
            bounds.append(bounds[-1] + block.shape[0])
        self.offsets = tuple(bounds)
        # (block, first row, end row) per block
        self.spans = tuple(zip(self.blocks, bounds[:-1], bounds[1:]))
        self._edges = None

    def _with_blocks(self, blocks) -> "BlockDiag":
        """This pack with each block replaced by the same-shape block of
        ``blocks``; its offsets are reused, not validated again."""
        pack = BlockDiag.__new__(BlockDiag)
        pack.blocks = tuple(blocks)
        pack.offsets = self.offsets
        pack.spans = tuple(zip(pack.blocks, self.offsets[:-1],
                               self.offsets[1:]))
        pack._edges = None
        return pack

    @property
    def shape(self):
        return (self.offsets[-1], self.offsets[-1])

    def edges(self) -> tuple:
        """The flat (C-order) indices of the nonzero entries of all blocks,
        laid back to back in block order (block b's n_b^2 entries start
        where block b - 1's end), and each block's count of them; found
        on the first call and kept as long as the pack."""
        if self._edges is None:
            per_block = [np.flatnonzero(block) for block in self.blocks]
            starts = np.cumsum([0] + [block.size for block in self.blocks])
            self._edges = (np.concatenate([index + start for index, start
                                           in zip(per_block, starts)]),
                           [index.size for index in per_block])
        return self._edges


def require_pack(a, op: str) -> BlockDiag:
    """``a``, the propagation operand of ``op``, if it is a BlockDiag."""
    if not isinstance(a, BlockDiag):
        raise ContractViolation(
            f"{op} takes a BlockDiag propagation operand "
            f"(BlockDiag([a]) for one graph), got {type(a).__name__}")
    return a


def _propagate(a: BlockDiag, x: np.ndarray,
               transpose: bool = False) -> np.ndarray:
    """a @ x, or a^T @ x, for a pack's BlockDiag: one GEMM per block into
    one buffer."""
    out = np.empty((a.offsets[-1], x.shape[1]))
    for block, lo, hi in a.spans:
        np.matmul(block.T if transpose else block, x[lo:hi], out=out[lo:hi])
    return out


def as_float(a: BlockDiag) -> BlockDiag:
    """The pack ``a`` with dense float64 blocks: ``a`` itself when they
    already are, else the same pack with each other block written out: a
    0/1 block cast to 0.0/1.0, a ``Nonzeros`` block scattered into zeros,
    its values at its index. The written blocks share one region: under a
    tape that has a ``Workspace`` a region of it, which lives as long as
    that tape and costs no allocation from the second pass over a phase's
    packs on, and whose pages go back to the OS when the workspace
    outgrows its mapping or the phase ends; elsewhere (scoring, gradcheck)
    one allocation per call. A pack with a ``Nonzeros`` block zeroes its
    workspace region in one pass; outside a tape ``np.zeros`` gives fresh
    zero pages, with no pass: a step pays one fill and one scatter per
    block for its pack's A_hat."""
    blocks = require_pack(a, "as_float").blocks
    dense = [isinstance(block, np.ndarray) and block.dtype == np.float64
             for block in blocks]
    if all(dense):
        return a
    size = sum(block.size for block, done in zip(blocks, dense) if not done)
    scatter = not all(isinstance(block, np.ndarray) for block in blocks)
    tape = _active_tape()
    workspace = None if tape is None else tape.workspace
    if workspace is None:
        region = np.zeros(size) if scatter else np.empty(size)
    else:
        region = workspace.take(size * 8).view(np.float64)
        if scatter:
            region.fill(0.0)
    floats, start = [], 0
    for block, done in zip(blocks, dense):
        if not done:
            flat = region[start:start + block.size]
            start += block.size
            written = flat.reshape(block.shape)
            if isinstance(block, Nonzeros):
                flat[block.index] = block.values
            else:
                np.copyto(written, block)
            block = written
        floats.append(block)
    return a._with_blocks(floats)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """An untracked tensor (weights stay tracked; data stays constant)."""
    return Tensor(x, requires_grad=False)


# ---------------------------------------------------------------------------
# binary primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _op("add", (a, b), a.data + b.data, (lambda g: g, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _op("sub", (a, b), a.data - b.data, (lambda g: g, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _op("mul", (a, b), a.data * b.data,
               (lambda g: g * b.data, lambda g: g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data
    return _op("div", (a, b), out_data,
               (lambda g: g / b.data, lambda g: -g * out_data / b.data))


def matmul(a, b: Tensor) -> Tensor:
    """a @ b. ``a`` may be a pack's BlockDiag: then each block multiplies
    its own rows of ``b`` into one output buffer, one GEMM per block."""
    if isinstance(a, BlockDiag):
        return _block_matmul(a, as_tensor(b))
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ContractViolation(
            f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ContractViolation(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}"
        )
    return _op("matmul", (a, b), a.data @ b.data,
               (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def _block_matmul(a: BlockDiag, b: Tensor) -> Tensor:
    if b.data.ndim != 2 or a.shape[1] != b.data.shape[0]:
        raise ContractViolation(
            f"matmul inner dimensions disagree: {a.shape} @ {b.data.shape}")
    return _op("matmul", (b,), _propagate(a, b.data),
               (lambda g: _propagate(a, g, transpose=True),))


# ---------------------------------------------------------------------------
# unary primitives
# ---------------------------------------------------------------------------

def transpose(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return _op("transpose", (a,), a.data.T, (lambda g: g.T,))


def scale(a: Tensor, c: float) -> Tensor:
    a = as_tensor(a)
    return _op("scale", (a,), a.data * c, (lambda g: g * c,))


def add_scalar(a: Tensor, c: float) -> Tensor:
    a = as_tensor(a)
    return _op("add_scalar", (a,), a.data + c, (lambda g: g,))


def exp(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return _op("exp", (a,), out_data, (lambda g: g * out_data,))


def log(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return _op("log", (a,), np.log(a.data), (lambda g: g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)
    return _op("sqrt", (a,), out_data, (lambda g: g * (0.5 / out_data),))


def tanh(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    return _op("tanh", (a,), out_data,
               (lambda g: g * (1.0 - out_data * out_data),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, with e = exp(-|x|), so
    neither branch can overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = _sigmoid(a.data)
    return _op("sigmoid", (a,), out_data,
               (lambda g: g * out_data * (1.0 - out_data),))


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return _op("relu", (a,), np.maximum(a.data, 0.0),
               (lambda g: g * (a.data > 0.0),))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes through where the input lies inside."""
    a = as_tensor(a)
    return _op("clip", (a,), np.clip(a.data, lo, hi),
               (lambda g: g * ((a.data >= lo) & (a.data <= hi)),))


# ---------------------------------------------------------------------------
# fused model ops: one node each, with a hand-written backward that replays
# the composed chain's arithmetic in its order, so value and gradients are
# bit-identical to it
# ---------------------------------------------------------------------------

def _mlp(x: np.ndarray, params) -> tuple:
    """relu(x W1 + b1) W2 + b2 as the matmul/add/relu chain computes it:
    the pre-activation, the hidden layer and the output."""
    w1, b1, w2, b2 = params
    if x.ndim != 2 or x.shape[1] != w1.data.shape[0]:
        raise ContractViolation(
            f"perceptron expects {w1.data.shape[0]} input columns, "
            f"got {x.shape}")
    pre = x @ w1.data + b1.data
    hidden = np.maximum(pre, 0.0)
    return pre, hidden, hidden @ w2.data + b2.data


def _mlp_back(x: np.ndarray, pre, hidden, params, g) -> np.ndarray:
    """Adds the parameter gradients of ``_mlp`` for output gradient g, in
    the chain's order (b2, W2, b1, W1); returns the gradient reaching the
    first product, which the input's gradient is taken from."""
    w1, b1, w2, b2 = params
    if b2.requires_grad:
        _accum(b2, _unbroadcast(g, b2.data.shape))
    g_hidden = g @ w2.data.T
    if w2.requires_grad:
        _accum(w2, hidden.T @ g)
    g_pre = g_hidden * (pre > 0.0)
    if b1.requires_grad:
        _accum(b1, _unbroadcast(g_pre, b1.data.shape))
    if w1.requires_grad:
        _accum(w1, x.T @ g_pre)
    return g_pre


def perceptron(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
               b2: Tensor) -> Tensor:
    """relu(x W1 + b1) W2 + b2 as one node; value and gradients bit-equal
    the matmul/add/relu/matmul/add chain."""
    x = as_tensor(x)
    params = (w1, b1, w2, b2)
    pre, hidden, out = _mlp(x.data, params)

    def backprop(g):
        g_pre = _mlp_back(x.data, pre, hidden, params, g)
        if x.requires_grad:
            _accum(x, g_pre @ w1.data.T)

    return _record("perceptron", (x,) + params, out, backprop)


def gin_layer(a: BlockDiag, h: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
              b2: Tensor) -> Tensor:
    """The perceptron of the GIN-0 aggregation h + A h as one node. ``a``
    is a pack's BlockDiag of float64 matrices. The backward gives h its
    direct gradient first, then the A^T product, as the chain's add and
    matmul did."""
    h = as_tensor(h)
    a = require_pack(a, "gin_layer")
    if a.shape[1] != h.data.shape[0]:
        raise ContractViolation(
            f"gin_layer rows {h.data.shape} do not fit A {a.shape}")
    agg = h.data + _propagate(a, h.data)
    params = (w1, b1, w2, b2)
    pre, hidden, out = _mlp(agg, params)

    def backprop(g):
        g_pre = _mlp_back(agg, pre, hidden, params, g)
        if h.requires_grad:
            g_agg = g_pre @ w1.data.T
            _accum(h, g_agg)
            _accum(h, _propagate(a, g_agg, transpose=True))

    return _record("gin_layer", (h,) + params, out, backprop)


def gcn_layer(a_hat: BlockDiag, h: Tensor, w: Tensor, relu: bool) -> Tensor:
    """relu((A_hat h) W), or (A_hat h) W without the relu, as one node.
    ``a_hat`` is a pack's BlockDiag; value and gradients bit-equal the
    matmul/matmul/relu chain."""
    h = as_tensor(h)
    a_hat = require_pack(a_hat, "gcn_layer")
    if a_hat.shape[1] != h.data.shape[0] or h.data.shape[1] != w.data.shape[0]:
        raise ContractViolation(
            f"gcn_layer operands do not fit: A_hat {a_hat.shape}, "
            f"h {h.data.shape}, W {w.data.shape}")
    prop = _propagate(a_hat, h.data)
    pre = prop @ w.data
    out = np.maximum(pre, 0.0) if relu else pre

    def backprop(g):
        if relu:
            g = g * (pre > 0.0)
        if w.requires_grad:
            _accum(w, prop.T @ g)
        if h.requires_grad:
            _accum(h, _propagate(a_hat, g @ w.data.T, transpose=True))

    return _record("gcn_layer", (h, w), out, backprop)


def normal_nll(z: Tensor, log_det: Tensor, offsets) -> Tensor:
    """Per graph (row segments ``offsets`` of z), (0.5 * sum(z * z) -
    log_det) / n, n the graph's node count, as one node, a B x 1 column.
    Value and gradients bit-equal the mul/segment_sum/scale/sub/mul chain:
    log_det gets its gradient first, then z its two g * z terms."""
    z, log_det = as_tensor(z), as_tensor(log_det)
    spans = _segment_spans(z, offsets)
    counts = np.diff(offsets)
    inv_counts = 1.0 / counts[:, None]
    energy = _segment_totals(z.data * z.data, spans) * 0.5
    out_data = (energy - log_det.data) * inv_counts

    def backprop(g):
        g_diff = g * inv_counts
        if log_det.requires_grad:
            _accum(log_det, _unbroadcast(-g_diff, log_det.data.shape))
        if z.requires_grad:
            g_z = np.repeat(g_diff * 0.5, counts, axis=0) * z.data
            _accum(z, g_z)
            _accum(z, g_z)

    return _record("normal_nll", (z, log_det), out_data, backprop)


def _gram_buffers(workspace: Optional[Workspace], size: int) -> tuple:
    """Two float64 buffers and one mask of ``size`` entries each in one
    region, from ``workspace`` or, without one, freshly allocated."""
    floats = 2 * size * 8
    raw = (np.empty(floats + size, np.uint8) if workspace is None
           else workspace.take(floats + size))
    return (*raw[:floats].view(np.float64).reshape(2, size),
            raw[floats:].view(np.bool_))


def gram_bce(h: Tensor, adjacency: BlockDiag, lo: float,
             hi: float) -> Tensor:
    """Per-graph summed binary cross entropy of p = clip(sigmoid(h h^T), lo,
    hi) against a 0/1 matrix A: -sum(A log p + (1 - A) log(1 - p)), as a
    B x 1 column. ``adjacency`` is a pack's BlockDiag; each block pairs
    only its own rows of ``h``, so no cross-graph pair enters.

    One node with a hand-written backward; value and gradient are
    bit-identical to the composed transpose/matmul/sigmoid/clip/log chain.
    With A in {0, 1} and 0 < lo <= hi < 1, one log of q = where(A, p, 1 - p)
    equals the two-term sum. No step writes through a mask: q is 1 - p
    everywhere, then p gathered and scattered at the edges (the BlockDiag's
    cached flat nonzero index), so the split costs one elementwise op and
    O(edges). The op works in two float buffers, p and q (which takes the
    log in place), and one mask, first the sign of the Gram matrix and,
    once the sigmoid has read it, where the clip passes the gradient; each
    holds every block's n_b^2 entries back to back. Only the Gram
    products, the backward's products and its division by the per-graph
    constant run once per block, into views of them; every other pass runs
    once over the pack. p and the clip mask are kept for the backward pass,
    which splits its 1/q terms from p the same way, in q's buffer. Under a
    tape that has a ``Workspace`` the buffers are one region of it, reused
    step after step for as long as the training phase that owns it runs.
    Their pages go back to the OS when a larger pack makes the workspace
    map anew and when the phase ends, and the mapping's unused reserve
    stays virtual. Elsewhere (scoring, gradcheck) they are allocated per
    call.
    """
    h = as_tensor(h)
    n = h.data.shape[0]
    if require_pack(adjacency, "gram_bce").shape != (n, n):
        raise ContractViolation(
            f"gram_bce needs a {n}x{n} target, got {adjacency.shape}")
    tape = _active_tape()
    workspace = tape.workspace if tape is not None and h.requires_grad else None
    # each block's first and end entry in the buffers
    bounds = np.cumsum([0] + [b.size for b in adjacency.blocks]).tolist()
    entries = list(zip(bounds[:-1], bounds[1:]))
    sig, denom, nonneg = _gram_buffers(workspace, bounds[-1])
    for (_, first, end), (start, stop) in zip(adjacency.spans, entries):
        hb = h.data[first:end]
        np.matmul(hb, hb.T, out=sig[start:stop].reshape(end - first, -1))
    # the sigmoid of _sigmoid, step by step in place: e = exp(-|x|) lies
    # in [+0, 1], so max(e, x >= 0) is 1 where x >= 0 and e elsewhere, and
    # a NaN stays NaN
    np.greater_equal(sig, 0.0, out=nonneg)
    np.copysign(sig, -1.0, out=sig)
    np.exp(sig, out=sig)
    np.add(1.0, sig, out=denom)
    np.maximum(sig, nonneg, out=sig)
    np.divide(sig, denom, out=sig)
    # clipping into the other buffer; an entry lies inside [lo, hi] exactly
    # where the clip kept it (a NaN equals nothing and lies outside)
    p = np.clip(sig, lo, hi, out=denom)
    # the sign mask was last read by the maximum above; its buffer takes
    # the clip mask
    inside = np.equal(p, sig, out=nonneg)
    q = np.subtract(1.0, p, out=sig)
    edges, counts = adjacency.edges()
    np.put(q, edges, np.take(p, edges))
    out_data = -_segment_totals(np.log(q, out=q), entries)

    def backprop(g):
        if not h.requires_grad:
            return
        g_left = np.empty(h.data.shape)
        g_right = np.empty(h.data.shape)
        # d/dp of the summed terms: g*-1/p on edges, -(g*-1/(1-p))
        # elsewhere; "+ 0.0" makes a zero g give +0 everywhere, as the
        # chain's sum of a term and a zero term did. With 1 - p in (0, 1),
        # (0 - c)/(1 - p) is 0 - c/(1 - p) bit for bit.
        c = g[:, 0] * -1.0 + 0.0
        dz = np.subtract(1.0, p, out=q)
        for c_b, (start, stop) in zip(c, entries):
            np.divide(0.0 - c_b, dz[start:stop], out=dz[start:stop])
        np.put(dz, edges, np.repeat(c, counts) / np.take(p, edges))
        # then clip and sigmoid; p equals sigmoid(h h^T) wherever the mask
        # passes the gradient, and both are >= 0 where it zeroes it
        dz *= inside
        dz *= p
        dz *= np.subtract(1.0, p, out=p)
        for (_, first, end), (start, stop) in zip(adjacency.spans, entries):
            hb = h.data[first:end]
            dz_b = dz[start:stop].reshape(end - first, -1)
            np.matmul(dz_b, hb, out=g_left[first:end])
            g_right[first:end] = (hb.T @ dz_b).T
        _accum(h, g_left)
        _accum(h, g_right)

    return _record("gram_bce", (h,), out_data, backprop)


def _subnet(net, prop: np.ndarray) -> tuple:
    """A coupling subnet's hidden layer and output for prop = A_hat h."""
    w_prop, w_lin, bias = net
    hidden = prop @ w_prop.data
    return hidden, hidden @ w_lin.data + bias.data


def coupling_step(half0: Tensor, half1: Tensor, a_hat: BlockDiag, subnets,
                  s_max: float) -> tuple:
    """One affine coupling step as one node with three outputs: half0',
    half1' and the per-graph log-det increment, a B x 1 column.

    ``subnets`` holds the (w_prop, w_lin, bias) tensors of f1, f2, g1 and
    g2, each the map h -> (A_hat h W_prop) W_lin + b. With the soft clamp
    c(r) = s_max tanh(r / s_max):

        s_f = c(f1(half1)),   half0' = half0 exp(s_f) + f2(half1)
        s_g = c(g1(half0')),  half1' = half1 exp(s_g) + g2(half0')

    and each graph's increment is its sum of s_f plus its sum of s_g.
    ``a_hat`` is a pack's BlockDiag. The forward propagates half1 once for
    f1 and f2, and half0' once for g1 and g2. The backward takes one
    A_hat^T product per subnet and adds half1's gradient in the chain's
    order: the g-side product, then f2, then f1.
    """
    half0, half1 = as_tensor(half0), as_tensor(half1)
    a_hat = require_pack(a_hat, "coupling_step")
    if half0.shape != half1.shape or a_hat.shape[1] != half1.shape[0]:
        raise ContractViolation(
            f"coupling_step halves {half0.shape}, {half1.shape} do not fit "
            f"A_hat {a_hat.shape}")
    spans = _segment_spans(half0, a_hat.offsets)
    f1, f2, g1, g2 = subnets
    inv_s_max = 1.0 / s_max

    prop1 = _propagate(a_hat, half1.data)
    hidden_f1, raw = _subnet(f1, prop1)
    tanh_f = np.tanh(raw * inv_s_max)
    s_f = tanh_f * s_max
    exp_f = np.exp(s_f)
    hidden_f2, shift = _subnet(f2, prop1)
    new0 = half0.data * exp_f + shift
    prop0 = _propagate(a_hat, new0)
    hidden_g1, raw = _subnet(g1, prop0)
    tanh_g = np.tanh(raw * inv_s_max)
    s_g = tanh_g * s_max
    exp_g = np.exp(s_g)
    hidden_g2, shift = _subnet(g2, prop0)
    new1 = half1.data * exp_g + shift
    inc = _segment_totals(s_f, spans) + _segment_totals(s_g, spans)

    def subnet_back(net, prop, hidden, g, to_input: bool):
        """Adds the subnet's parameter gradients for output gradient g;
        returns the gradient reaching its input half when asked."""
        w_prop, w_lin, bias = net
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))
        g_hidden = g @ w_lin.data.T
        if w_lin.requires_grad:
            _accum(w_lin, hidden.T @ g)
        if w_prop.requires_grad:
            _accum(w_prop, prop.T @ g_hidden)
        if to_input:
            return _propagate(a_hat, g_hidden @ w_prop.data.T, transpose=True)
        return None

    def backprop(grad0, grad1, grad_inc):
        # each graph's increment gradient reaches every entry of s_f and s_g
        rows = np.repeat(grad_inc, [hi - lo for lo, hi in spans], axis=0)
        # g side: g2's shift, the product half1 exp(s_g), g1 through the clamp
        grad_new0 = grad0 + subnet_back(g2, prop0, hidden_g2, grad1, True)
        if half1.requires_grad:
            _accum(half1, grad1 * exp_g)
        grad_s = rows + grad1 * half1.data * exp_g
        grad_raw = grad_s * s_max * (1.0 - tanh_g * tanh_g) * inv_s_max
        grad_new0 += subnet_back(g1, prop0, hidden_g1, grad_raw, True)
        # f side, in the same order
        grad_half1 = subnet_back(f2, prop1, hidden_f2, grad_new0,
                                 half1.requires_grad)
        if grad_half1 is not None:
            _accum(half1, grad_half1)
        if half0.requires_grad:
            _accum(half0, grad_new0 * exp_f)
        grad_s = rows + grad_new0 * half0.data * exp_f
        grad_raw = grad_s * s_max * (1.0 - tanh_f * tanh_f) * inv_s_max
        grad_half1 = subnet_back(f1, prop1, hidden_f1, grad_raw,
                                 half1.requires_grad)
        if grad_half1 is not None:
            _accum(half1, grad_half1)

    params = tuple(p for net in subnets for p in net)
    return _record("coupling_step", (half0, half1) + params,
                   (new0, new1, inc), backprop)


def coupling_inverse(half0, half1, a_hat: BlockDiag, subnets,
                     s_max: float) -> tuple:
    """The input halves of ``coupling_step`` from its output halves, as
    plain arrays and recording nothing; the same subnets and clamp c give

        s_g = c(g1(half0)),  half1 = (half1 - g2(half0)) exp(-s_g)
        s_f = c(f1(half1)),  half0 = (half0 - f2(half1)) exp(-s_f)
    """
    a_hat = require_pack(a_hat, "coupling_inverse")
    if half0.shape != half1.shape or a_hat.shape[1] != half0.shape[0]:
        raise ContractViolation(
            f"coupling_inverse halves {half0.shape}, {half1.shape} do not "
            f"fit A_hat {a_hat.shape}")
    f1, f2, g1, g2 = subnets
    inv_s_max = 1.0 / s_max
    prop0 = _propagate(a_hat, half0)
    s_g = np.tanh(_subnet(g1, prop0)[1] * inv_s_max) * s_max
    half1 = (half1 - _subnet(g2, prop0)[1]) * np.exp(-s_g)
    prop1 = _propagate(a_hat, half1)
    s_f = np.tanh(_subnet(f1, prop1)[1] * inv_s_max) * s_max
    half0 = (half0 - _subnet(f2, prop1)[1]) * np.exp(-s_f)
    return half0, half1


def cosine_distance(u: Tensor, v: Tensor) -> Tensor:
    """Rowwise halved cosine distance (1 - cos)/2, an n x 1 column, as one
    node. A row pair with a zero row has dot = 0 and gets a denominator of
    exactly 1, so a pair with one zero row costs 0.5 with a gradient of the
    size of the other row; a pair of zero rows is masked to 0 and passes no
    gradient. The backward replays the mul/reduce_sum/sqrt/div chain: each
    of u and v gets its squared-norm term twice, then its dot term."""
    u, v = as_tensor(u), as_tensor(v)
    if u.shape != v.shape:
        raise ContractViolation(f"shape mismatch: {u.shape} vs {v.shape}")
    dot = (u.data * v.data).sum(axis=1, keepdims=True)
    sq_u = (u.data * u.data).sum(axis=1, keepdims=True)
    sq_v = (v.data * v.data).sum(axis=1, keepdims=True)
    norms_sq = sq_u * sq_v
    # norms_sq >= +0, so adding the 0/1 zero flag changes only the zeros
    norm = np.sqrt(norms_sq + (norms_sq == 0.0))
    cos = dot / norm
    out_data = cos * -0.5 + 0.5
    # the unit denominator alone would give a zero/zero pair cos = 0, i.e. 0.5
    either_nonzero = (u.data.any(axis=1, keepdims=True)
                      | v.data.any(axis=1, keepdims=True))
    mask = None
    if not either_nonzero.all():
        mask = either_nonzero.astype(np.float64)
        out_data = out_data * mask

    def backprop(g):
        if mask is not None:
            g = g * mask
        g_cos = g * -0.5
        g_dot = g_cos / norm
        g_norms_sq = -g_cos * cos / norm * (0.5 / norm)
        if v.requires_grad:
            g_sq = g_norms_sq * sq_u * v.data
            _accum(v, g_sq)
            _accum(v, g_sq)
        if u.requires_grad:
            g_sq = g_norms_sq * sq_v * u.data
            _accum(u, g_sq)
            _accum(u, g_sq)
            _accum(u, g_dot * v.data)
        if v.requires_grad:
            _accum(v, g_dot * u.data)

    return _record("cosine_distance", (u, v), out_data, backprop)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def grad(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return np.broadcast_to(g, a.data.shape)

    return _op("reduce_sum", (a,), a.data.sum(axis=axis, keepdims=keepdims),
               (grad,))


def reduce_max(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient routes to the argmax only, ties to lowest index."""
    a = as_tensor(a)

    def grad(g):
        buf = np.zeros_like(a.data)
        if axis is None:
            idx = np.unravel_index(np.argmax(a.data), a.data.shape)
            buf[idx] = g if np.isscalar(g) or g.ndim == 0 else g.reshape(())
        else:
            idx = np.argmax(a.data, axis=axis)
            gsq = g if keepdims is False else np.squeeze(g, axis=axis)
            if axis == 0:
                buf[idx, np.arange(a.data.shape[1])] = gsq
            else:
                buf[np.arange(a.data.shape[0]), idx] = gsq
        return buf

    return _op("reduce_max", (a,), a.data.max(axis=axis, keepdims=keepdims),
               (grad,))


def _segment_spans(a: Tensor, offsets) -> list:
    """(first row, end row) per segment of the row offsets ``offsets``."""
    n = a.data.shape[0]
    if offsets[0] != 0 or offsets[-1] != n:
        raise ContractViolation(
            f"segments {offsets[0]}..{offsets[-1]} do not cover {n} rows")
    spans = list(zip(offsets[:-1], offsets[1:]))
    if any(lo >= hi for lo, hi in spans):
        raise ContractViolation("every segment needs at least one row")
    return spans


def _segment_totals(x: np.ndarray, spans) -> np.ndarray:
    """Each span's sum as a B x 1 column, bit-equal to summing each span of
    rows as its own slice. A slice's ``sum`` adds its pairwise total to
    0.0, so one ``np.add.reduceat`` over a copy in which a 0.0 leads every
    span adds the same terms in the same order (a plain ``reduceat``
    starts from each span's first entry, and differs)."""
    if len(spans) == 1 or not x.flags.c_contiguous:
        return np.array([x[lo:hi].sum() for lo, hi in spans]).reshape(-1, 1)
    width = x.size // x.shape[0]
    heads = (np.array([lo for lo, _ in spans]) * width
             + np.arange(len(spans)))
    padded = np.zeros(x.size + len(spans))
    entries = np.ones(padded.size, bool)
    entries[heads] = False
    padded[entries] = x.reshape(-1)
    return np.add.reduceat(padded, heads).reshape(-1, 1)


def segment_sum(a: Tensor, offsets) -> Tensor:
    """Per-segment totals of a's row blocks ``offsets[b]:offsets[b + 1]``,
    a B x 1 column. Each segment is summed as its own slice, so the single
    segment (0, n) bit-equals ``reduce_sum``."""
    a = as_tensor(a)
    spans = _segment_spans(a, offsets)
    return _op("segment_sum", (a,), _segment_totals(a.data, spans),
               (lambda g: np.broadcast_to(
                   np.repeat(g, [hi - lo for lo, hi in spans], axis=0),
                   a.data.shape),))


def segment_max(a: Tensor, offsets) -> Tensor:
    """Per-segment column maxima, B x d; the gradient routes to each
    segment's argmax row, ties to the lowest index, as ``reduce_max``."""
    a = as_tensor(a)
    spans = _segment_spans(a, offsets)

    def grad(g):
        rows = np.array([lo + np.argmax(a.data[lo:hi], axis=0)
                         for lo, hi in spans])
        buf = np.zeros_like(a.data)
        buf[rows, np.arange(a.data.shape[1])] = g
        return buf

    return _op("segment_max", (a,),
               np.maximum.reduceat(a.data, [lo for lo, _ in spans], axis=0),
               (grad,))


def segment_mean(a: Tensor, offsets) -> Tensor:
    """``segment_sum`` times 1/count, the count being each segment's
    entries, as ``mean`` scales."""
    a = as_tensor(a)
    counts = np.array([hi - lo for lo, hi in _segment_spans(a, offsets)])
    return mul(segment_sum(a, offsets),
               constant(1.0 / (counts * a.data.shape[1])[:, None]))


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]
    return scale(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    parts = tuple(as_tensor(p) for p in parts)
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    bounds = np.cumsum([0] + [p.data.shape[axis] for p in parts])
    # each part's gradient is its basic slice (a view) of g
    lead = (slice(None),) * (axis % out_data.ndim)
    return _op("concat", parts, out_data,
               tuple(itemgetter(lead + (slice(lo, hi),))
                     for lo, hi in zip(bounds[:-1], bounds[1:])))


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    a = as_tensor(a)

    def grad(g):
        buf = np.zeros_like(a.data)
        buf[:, start:stop] = g
        return buf

    return _op("slice_cols", (a,), a.data[:, start:stop].copy(), (grad,))


def split_half(a: Tensor) -> tuple[Tensor, Tensor]:
    """Split columns into equal halves; width must be even."""
    a = as_tensor(a)
    d = a.data.shape[1]
    if d % 2 != 0:
        raise ContractViolation(f"split_half needs an even column count, got {d}")
    return slice_cols(a, 0, d // 2), slice_cols(a, d // 2, d)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def gradcheck(fn, inputs: Sequence[Tensor], step: float = 1e-5) -> float:
    """Compare tape gradients of ``fn(inputs)`` against central differences.

    Returns the max over all coordinates of
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    ``fn`` must map the tensors to a scalar Tensor and be deterministic.
    """
    if not (1e-7 <= step <= 1e-3):
        raise ContractViolation(f"gradcheck step must lie in [1e-7, 1e-3], got {step}")
    inputs = list(inputs)
    for t in inputs:
        t.requires_grad = True
        t.grad = None

    y0 = fn(*inputs)
    y1 = fn(*inputs)
    if y0.data.shape != y1.data.shape or not np.array_equal(y0.data, y1.data):
        raise DeterminismError("fn produced different outputs on identical inputs")
    if y0.data.size != 1:
        raise ContractViolation("gradcheck expects fn to return a scalar")

    with Tape() as tape:
        loss = fn(*inputs)
    tape.backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad
                for t in inputs]
    for t in inputs:
        t.grad = None

    worst = 0.0
    for t, ga in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            f_plus = fn(*inputs).item()
            flat[i] = keep - step
            f_minus = fn(*inputs).item()
            flat[i] = keep
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(1.0, abs(gflat[i]), abs(numeric))
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
