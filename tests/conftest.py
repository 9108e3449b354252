"""Shared fixtures: benchmark-data discovery, a tiny on-disk dataset, the
scalar reference for the student/flow distance, the composed chains that
the fused model ops (perceptron, GIN and GCN layers, coupling step, flow
loss, cosine distance) must bit-equal, fully random flows, and checkpoint
writes that fail halfway.

Real benchmark directories are looked up under $FLOWGAD_DATA_DIR, falling
back to <repo>/data. Tests that need them skip with a pointer when the
files are absent, so the suite stays runnable on a fresh checkout.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from flowgad import autodiff as ad
from flowgad import checkpoint
from flowgad.flow import GraphFlow
from flowgad.optim import glorot_init, make_rng

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def data_root() -> str:
    return os.environ.get("FLOWGAD_DATA_DIR",
                          os.path.join(REPO_ROOT, "data"))


def dataset_dir(name: str) -> str | None:
    path = os.path.join(data_root(), name)
    if os.path.isfile(os.path.join(path, f"{name}_A.txt")):
        return path
    return None


def require_dataset(name: str) -> str:
    path = dataset_dir(name)
    if path is None:
        pytest.skip(
            f"benchmark dataset {name} not found under {data_root()}; "
            f"place the TUDataset files in {os.path.join(data_root(), name)} "
            f"(scripts/fetch_datasets.sh downloads them on a networked machine)")
    return path


def reference_distance(u, v) -> float:
    """Scalar oracle for ``autodiff.cosine_distance`` on one row pair, written
    with vector norms and an explicit zero-vector policy: (1 - cos)/2 with
    cos clipped to [-1, 1]; two zero vectors agree (0), exactly one zero
    vector is maximally uninformative (0.5)."""
    u = np.ravel(np.asarray(u, dtype=np.float64))
    v = np.ravel(np.asarray(v, dtype=np.float64))
    assert u.shape == v.shape
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 and nv == 0.0:
        return 0.0
    if nu == 0.0 or nv == 0.0:
        return 0.5
    cos = float(np.dot(u, v) / (nu * nv))
    return (1.0 - min(1.0, max(-1.0, cos))) / 2.0


def composed_perceptron(x, w1, b1, w2, b2):
    """``autodiff.perceptron`` as the chain of tape primitives it was built
    from before it became one fused node: the reference it must bit-equal."""
    hidden = ad.relu(ad.add(ad.matmul(x, w1), b1))
    return ad.add(ad.matmul(hidden, w2), b2)


def composed_gin_layer(a, h, w1, b1, w2, b2):
    """``autodiff.gin_layer`` as the chain of tape primitives it was built
    from before it became one fused node."""
    return composed_perceptron(ad.add(h, ad.matmul(a, h)), w1, b1, w2, b2)


def composed_gcn_layer(a_hat, h, w, relu):
    """``autodiff.gcn_layer`` as the chain of tape primitives it was built
    from before it became one fused node."""
    out = ad.matmul(ad.matmul(a_hat, h), w)
    return ad.relu(out) if relu else out


def composed_normal_nll(z, log_det, offsets):
    """``autodiff.normal_nll`` (the body of ``flow.nf_loss``) as the chain
    of tape primitives it was built from before it became one fused node."""
    energy = ad.scale(ad.segment_sum(ad.mul(z, z), offsets), 0.5)
    return ad.mul(ad.sub(energy, log_det),
                  ad.constant(1.0 / np.diff(offsets)[:, None]))


COMPOSED_OPS = {"perceptron": composed_perceptron,
                "gin_layer": composed_gin_layer,
                "gcn_layer": composed_gcn_layer,
                "normal_nll": composed_normal_nll}


def tape_bits(build, tensors, reread=False):
    """``build(*tensors)`` on one tape, as bytes: its output, a weighted sum
    of it (the loss, weights drawn from a fixed seed) and the gradient of
    every tracked tensor, in order. With ``reread`` a term recorded after
    ``build`` reads every tracked tensor again, so their gradient buffers
    are already written when build's backward adds to them."""
    for t in tensors:
        t.grad = None
    with ad.Tape() as tape:
        out = build(*tensors)
        weights = np.random.default_rng(7).normal(size=out.shape)
        loss = ad.reduce_sum(ad.mul(out, ad.constant(weights)))
        if reread:
            for t in tensors:
                if t.requires_grad:
                    loss = ad.add(loss, ad.reduce_sum(ad.mul(t, t)))
    tape.backward(loss)
    return [out.data.tobytes(), loss.data.tobytes()] + [
        t.grad.tobytes() for t in tensors if t.requires_grad]


def composed_subnet(net, a_hat, h):
    """One coupling subnet, h -> (A_hat h W_prop) W_lin + b, as tape
    primitives."""
    prop = ad.matmul(ad.matmul(a_hat, h), net.w_prop)
    return ad.add(ad.matmul(prop, net.w_lin), net.bias)


def composed_clamp(raw, s_max):
    """The soft clamp s_max tanh(raw / s_max) as tape primitives."""
    return ad.scale(ad.tanh(ad.scale(raw, 1.0 / s_max)), s_max)


def composed_coupling_step(step, half0, half1, a_hat):
    """``CouplingStep.forward`` as the chain of tape primitives it was built
    from before it became one fused node: the reference it must bit-equal."""
    s_f = composed_clamp(composed_subnet(step.f1, a_hat, half1), step.s_max)
    half0 = ad.add(ad.mul(half0, ad.exp(s_f)),
                   composed_subnet(step.f2, a_hat, half1))
    s_g = composed_clamp(composed_subnet(step.g1, a_hat, half0), step.s_max)
    half1 = ad.add(ad.mul(half1, ad.exp(s_g)),
                   composed_subnet(step.g2, a_hat, half0))
    inc = ad.add(ad.segment_sum(s_f, a_hat.offsets),
                 ad.segment_sum(s_g, a_hat.offsets))
    return half0, half1, inc


def composed_cosine_distance(u, v):
    """``autodiff.cosine_distance`` as the chain of tape primitives it was
    built from before it became one fused node."""
    dot = ad.reduce_sum(ad.mul(u, v), axis=1, keepdims=True)
    sq_u = ad.reduce_sum(ad.mul(u, u), axis=1, keepdims=True)
    sq_v = ad.reduce_sum(ad.mul(v, v), axis=1, keepdims=True)
    norms_sq = ad.mul(sq_u, sq_v)
    zero = norms_sq.data == 0.0
    if zero.any():
        norms_sq = ad.add(norms_sq, ad.constant(zero.astype(np.float64)))
    cos = ad.div(dot, ad.sqrt(norms_sq))
    dist = ad.add_scalar(ad.scale(cos, -0.5), 0.5)
    either_nonzero = (u.data.any(axis=1, keepdims=True)
                      | v.data.any(axis=1, keepdims=True))
    if not either_nonzero.all():
        dist = ad.mul(dist, ad.constant(either_nonzero.astype(np.float64)))
    return dist


def random_flow(d: int, steps: int, rng: np.random.Generator,
                s_max: float = 2.0) -> GraphFlow:
    """A flow whose every coupling map is random, so it is far from the
    identity a fresh flow starts as. Each subnet's propagation and then its
    linear weights are drawn from ``rng`` in step order (f1, f2, g1, g2),
    the order a fully random flow has always been drawn in."""
    flow = GraphFlow(d, steps, s_max, make_rng(0))
    for step in flow.steps:
        for subnet in (step.f1, step.f2, step.g1, step.g2):
            subnet.w_prop.data = glorot_init(d // 2, d // 2, rng).data
            subnet.w_lin.data = glorot_init(d // 2, d // 2, rng).data
    return flow


def fail_checkpoint_writes(patch, prefix: bytes):
    """Makes each checkpoint write in ``patch``'s scope stop with
    OSError("disk full") after writing ``prefix``, as a full disk would."""
    real = checkpoint.atomic_write

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            self.fh.write(prefix)
            raise OSError("disk full")

    @contextmanager
    def full_disk(path, mode="w", **open_args):
        with real(path, mode, **open_args) as fh:
            yield FullDisk(fh)

    patch.setattr(checkpoint, "atomic_write", full_disk)


@pytest.fixture
def hand_fixture_dir(tmp_path):
    """Two graphs: a 2-node single-edge graph and an isolated node."""
    d = tmp_path / "TINY"
    d.mkdir()
    (d / "TINY_A.txt").write_text("1, 2\n2, 1\n")
    (d / "TINY_graph_indicator.txt").write_text("1\n1\n2\n")
    (d / "TINY_graph_labels.txt").write_text("0\n1\n")
    return str(d)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
