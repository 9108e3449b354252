import numpy as np
import pytest

from flowgad import autodiff as ad
from flowgad.autodiff import Tape, Tensor, gradcheck
from flowgad.data import Graph, normalized_adjacency
from flowgad.errors import ContractViolation, DeterminismError, NumericFault
from flowgad.synthetic import planted_anomaly_set


def test_square_gradient():
    x = Tensor(3.0, requires_grad=True)
    with Tape() as tape:
        loss = ad.mul(x, x)
        tape.backward(loss)
    assert x.grad == pytest.approx(6.0)


def test_sum_gradient_is_ones():
    for shape in [(3,), (2, 4), (1, 1), (5, 3)]:
        x = Tensor(np.random.default_rng(0).normal(size=shape),
                   requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.reduce_sum(x))
        assert np.array_equal(x.grad, np.ones(shape))


def test_recon_style_loss_matches_finite_differences(rng):
    # f(W) = ||A - sigmoid(H W^T)||^2 on random 3x2 inputs
    a = rng.normal(size=(3, 3))
    h = rng.normal(size=(3, 2))
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

    def fn(w):
        diff = ad.sub(ad.constant(a), ad.sigmoid(ad.matmul(ad.constant(h),
                                                           ad.transpose(w))))
        return ad.reduce_sum(ad.mul(diff, diff))

    assert gradcheck(fn, [w]) < 1e-6


def _unary_cases(rng):
    def pos(shape):
        return np.abs(rng.normal(size=shape)) + 0.5
    return [
        ("exp", ad.exp, lambda s: rng.normal(size=s)),
        ("log", ad.log, pos),
        ("sqrt", ad.sqrt, pos),
        ("tanh", ad.tanh, lambda s: rng.normal(size=s)),
        ("sigmoid", ad.sigmoid, lambda s: rng.normal(size=s)),
        # keep relu/clip inputs away from their kinks
        ("relu", ad.relu, lambda s: rng.normal(size=s) + np.where(
            rng.normal(size=s) > 0, 0.5, -0.5)),
        ("transpose", ad.transpose, lambda s: rng.normal(size=s)),
        ("mean", ad.mean, lambda s: rng.normal(size=s)),
        ("reduce_sum", ad.reduce_sum, lambda s: rng.normal(size=s)),
    ]


def test_primitive_gradchecks_on_random_shapes(rng):
    shapes = [tuple(rng.integers(1, 5, size=2)) for _ in range(10)]
    for name, op, sample in _unary_cases(rng):
        for shape in shapes:
            x = Tensor(sample(shape), requires_grad=True)
            err = gradcheck(lambda x: ad.reduce_sum(op(x)), [x])
            assert err < 1e-6, f"{name} failed on {shape}: {err}"


def test_binary_primitive_gradchecks(rng):
    cases = [
        ("add", ad.add), ("sub", ad.sub), ("mul", ad.mul),
    ]
    for _ in range(10):
        shape = tuple(rng.integers(1, 5, size=2))
        for name, op in cases:
            a = Tensor(rng.normal(size=shape), requires_grad=True)
            b = Tensor(rng.normal(size=shape), requires_grad=True)
            err = gradcheck(lambda a, b: ad.reduce_sum(op(a, b)), [a, b])
            assert err < 1e-6, f"{name} failed: {err}"
        a = Tensor(rng.normal(size=shape), requires_grad=True)
        b = Tensor(rng.normal(size=shape) + np.sign(rng.normal(size=shape)) * 1.0,
                   requires_grad=True)
        err = gradcheck(lambda a, b: ad.reduce_sum(ad.div(a, b)), [a, b])
        assert err < 1e-6, f"div failed: {err}"


def test_matmul_and_structure_ops_gradchecks(rng):
    for _ in range(10):
        n, k, m = rng.integers(1, 5, size=3)
        a = Tensor(rng.normal(size=(n, k)), requires_grad=True)
        b = Tensor(rng.normal(size=(k, m)), requires_grad=True)
        err = gradcheck(lambda a, b: ad.reduce_sum(ad.matmul(a, b)), [a, b])
        assert err < 1e-6
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    assert gradcheck(
        lambda x: ad.reduce_sum(ad.mul(*ad.split_half(x))), [x]) < 1e-6
    assert gradcheck(
        lambda x: ad.reduce_sum(ad.slice_cols(x, 1, 4)), [x]) < 1e-6
    u = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    v = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    assert gradcheck(
        lambda u, v: ad.reduce_sum(ad.exp(ad.concat([u, v], axis=1))),
        [u, v]) < 1e-6


def test_scalar_ops_and_clip_gradchecks(rng):
    x = Tensor(rng.normal(size=(4, 3)) * 0.3, requires_grad=True)
    assert gradcheck(lambda x: ad.reduce_sum(ad.scale(x, -2.5)), [x]) < 1e-6
    assert gradcheck(lambda x: ad.reduce_sum(ad.add_scalar(x, 1.7)), [x]) < 1e-6
    # inputs well inside the clip interval
    assert gradcheck(
        lambda x: ad.reduce_sum(ad.clip(x, -0.99, 0.99)), [x]) < 1e-6


def test_sigmoid_bit_equals_masked_reference(rng):
    def masked_sigmoid(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    x = rng.normal(size=(40, 25)) * np.where(rng.random((40, 25)) < 0.3, 300.0, 3.0)
    x[0, :6] = [0.0, -0.0, 40.5, -40.5, 745.0, -745.0]
    assert np.abs(x).max() > 40 and (x < 0).any() and (x > 0).any()
    assert ad.sigmoid(Tensor(x)).data.tobytes() == masked_sigmoid(x).tobytes()


def test_reduce_axes_gradcheck(rng):
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    for axis, keep in [(0, True), (1, True), (0, False), (1, False)]:
        err = gradcheck(
            lambda x: ad.reduce_sum(ad.exp(
                ad.reduce_sum(x, axis=axis, keepdims=keep))), [x])
        assert err < 1e-6


def test_backward_linearity(rng):
    base = rng.normal(size=(3, 3))

    def run(a_coef, b_coef):
        x = Tensor(base, requires_grad=True)
        with Tape() as tape:
            f = ad.reduce_sum(ad.mul(x, x))
            g = ad.reduce_sum(ad.exp(x))
            tape.backward(ad.add(ad.scale(f, a_coef), ad.scale(g, b_coef)))
        return x.grad

    ga = run(1.0, 0.0)
    gb = run(0.0, 1.0)
    combined = run(2.5, -1.5)
    assert np.abs(combined - (2.5 * ga - 1.5 * gb)).max() < 1e-10


def test_reduce_max_ties_route_to_lowest_index():
    x = Tensor(np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 0.0]]),
               requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.reduce_sum(ad.reduce_max(x, axis=1)))
    assert np.array_equal(x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    y = Tensor(np.array([[5.0, 5.0], [5.0, 1.0]]), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.reduce_sum(ad.reduce_max(y, axis=0)))
    assert np.array_equal(y.grad, [[1.0, 1.0], [0.0, 0.0]])


def test_reduce_max_gradcheck_away_from_ties(rng):
    vals = rng.permutation(12).astype(np.float64).reshape(3, 4)
    x = Tensor(vals, requires_grad=True)
    assert gradcheck(
        lambda x: ad.reduce_sum(ad.reduce_max(x, axis=0)), [x]) < 1e-6


def test_nonscalar_loss_rejected():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
        with pytest.raises(ContractViolation):
            tape.backward(y)


def test_empty_tape_rejected():
    with Tape() as tape:
        pass
    with pytest.raises(ContractViolation):
        tape.backward(Tensor(1.0))


def test_tape_single_use():
    x = Tensor(2.0, requires_grad=True)
    with Tape() as tape:
        loss = ad.mul(x, x)
        tape.backward(loss)
    with pytest.raises(ContractViolation):
        tape.backward(loss)


def test_nan_fault_names_offending_op():
    x = Tensor(-1.0, requires_grad=True)
    with np.errstate(invalid="ignore"):
        with Tape() as tape:
            loss = ad.log(x)
            with pytest.raises(NumericFault, match="log"):
                tape.backward(loss)


def test_gradcheck_rejects_bad_step(rng):
    x = Tensor(rng.normal(size=(2,)), requires_grad=True)
    for step in (1e-8, 1e-2, 0.0):
        with pytest.raises(ContractViolation):
            gradcheck(lambda x: ad.reduce_sum(x), [x], step=step)


def test_gradcheck_detects_nondeterminism(rng):
    x = Tensor(np.ones(3), requires_grad=True)
    noise = iter(np.arange(100, dtype=np.float64))

    def fn(x):
        return ad.add_scalar(ad.reduce_sum(x), float(next(noise)))

    with pytest.raises(DeterminismError):
        gradcheck(fn, [x])


def test_broadcast_bias_gradient(rng):
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    err = gradcheck(lambda x, b: ad.reduce_sum(ad.tanh(ad.add(x, b))), [x, b])
    assert err < 1e-6
    with Tape() as tape:
        tape.backward(ad.reduce_sum(ad.add(x, b)))
    assert b.grad.shape == (1, 3)
    assert np.array_equal(b.grad, np.full((1, 3), 5.0))


def test_forward_determinism(rng):
    data = rng.normal(size=(4, 4))

    def run():
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            loss = ad.reduce_sum(ad.sigmoid(ad.matmul(x, ad.transpose(x))))
            tape.backward(loss)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_inference_path_records_nothing(rng):
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    y = ad.sigmoid(ad.matmul(x, x))   # no tape active
    assert y.grad is None
    with Tape() as tape:
        z = ad.reduce_sum(ad.mul(x, x))
        tape.backward(z)
    assert x.grad is not None


def test_matmul_shape_mismatch():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((4, 2)))
    with pytest.raises(ContractViolation):
        ad.matmul(a, b)


def test_split_half_odd_width_rejected():
    with pytest.raises(ContractViolation):
        ad.split_half(Tensor(np.ones((2, 3))))


# ------------------------------------------------------------------- packs

def _random_pack(rng, max_blocks=4, max_rows=5):
    sizes = [int(v) for v in rng.integers(1, max_rows + 1,
                                          size=int(rng.integers(1, max_blocks + 1)))]
    return ad.BlockDiag([rng.normal(size=(n, n)) for n in sizes])


def _dense(pack):
    # test-side reference only: the pack's full block-diagonal matrix
    out = np.zeros(pack.shape)
    for block, lo, hi in pack.spans:
        out[lo:hi, lo:hi] = block
    return out


def test_block_matmul_gradcheck_and_dense_product(rng):
    for _ in range(10):
        pack = _random_pack(rng)
        b = Tensor(rng.normal(size=(pack.shape[0], 3)), requires_grad=True)
        w = ad.constant(rng.normal(size=(pack.shape[0], 3)))
        err = gradcheck(lambda b: ad.reduce_sum(ad.mul(ad.matmul(pack, b), w)),
                        [b])
        assert err < 1e-6
        assert np.allclose(ad.matmul(pack, b).data, _dense(pack) @ b.data,
                           rtol=1e-14, atol=1e-14)
    with pytest.raises(ContractViolation, match="inner dimensions"):
        ad.matmul(pack, Tensor(np.zeros((pack.shape[0] + 1, 2))))


def test_one_block_matmul_bit_equals_plain_matmul(rng):
    for n in (1, 7, 40):
        a, b_data, w = (rng.normal(size=(n, n)), rng.normal(size=(n, 5)),
                        ad.constant(rng.normal(size=(n, 5))))
        results = []
        for left in (ad.constant(a), ad.BlockDiag([a])):
            b = Tensor(b_data.copy(), requires_grad=True)
            with Tape() as tape:
                out = ad.matmul(left, b)
                tape.backward(ad.reduce_sum(ad.mul(out, w)))
            results.append((out.data.tobytes(), b.grad.tobytes()))
        assert results[0] == results[1]


def _a_hat_graphs(rng):
    """Graphs of mixed sizes over every adjacency dtype, each with a
    self-loop and an isolated node, and a single-node graph."""
    graphs = [Graph(n=1, adjacency=np.zeros((1, 1), bool),
                    features=np.zeros((1, 0)), label=0)]
    for n, dtype in ((5, np.bool_), (9, np.float64), (4, np.int64),
                     (12, np.bool_)):
        upper = np.triu(rng.random((n, n)) < 0.5, k=1)
        a = upper | upper.T
        a[0, 0] = True
        a[-1, :] = a[:, -1] = False
        graphs.append(Graph(n=n, adjacency=a.astype(dtype),
                            features=np.zeros((n, 0)), label=0).validate())
    return graphs


def test_as_float_writes_nonzeros_back_bit_for_bit(rng):
    dense = [normalized_adjacency(g) for g in _a_hat_graphs(rng)]
    pack = ad.BlockDiag([ad.Nonzeros(d) for d in dense])
    assert pack.offsets == (0, 1, 6, 15, 19, 31)
    # an earlier tape leaves the workspace's buffer dirty
    workspace = ad.Workspace()
    with Tape(workspace):
        ad.as_float(ad.BlockDiag([rng.random((40, 40)) > 0.5])).blocks[0][:] = np.nan
    with Tape(workspace):
        under_tape = ad.as_float(pack)
    assert all(np.shares_memory(block, workspace._buffer)
               for block in under_tape.blocks)
    for written in (under_tape, ad.as_float(pack)):
        assert written.offsets is pack.offsets
        assert all(block.dtype == np.float64 and block.flags.c_contiguous
                   for block in written.blocks)
        assert [block.tobytes() for block in written.blocks] == [
            d.tobytes() for d in dense]


def test_nonzeros_keep_index_and_values_only():
    # a planted-large graph: 450 nodes at a mean degree of about 5
    [g] = planted_anomaly_set(num_normal=1, num_anomalous=0,
                              n_range=(450, 450), p_in=0.02, p_out=0.002,
                              p_sparse=0.011).graphs
    dense = normalized_adjacency(g)
    compact = ad.Nonzeros(dense)
    assert compact.shape == dense.shape and compact.size == dense.size
    assert compact.index.dtype == np.intp
    assert compact.nbytes == compact.index.nbytes + compact.values.nbytes
    assert compact.nbytes == 16 * np.count_nonzero(dense)
    assert compact.nbytes < dense.nbytes / 20
    with pytest.raises(ContractViolation, match="square"):
        ad.Nonzeros(np.zeros((2, 3)))


def test_block_diag_rejects_non_square_blocks():
    with pytest.raises(ContractViolation, match="square"):
        ad.BlockDiag([np.eye(2), np.zeros((2, 3))])


def test_as_float_casts_only_what_is_not_float64(rng):
    f = rng.random((3, 3))
    b = f > 0.5
    operand = ad.BlockDiag([f])
    assert ad.as_float(operand) is operand
    cast = ad.as_float(ad.BlockDiag([b, f]))
    assert cast.offsets == (0, 3, 6) and cast.blocks[1] is f
    assert cast.blocks[0].dtype == np.float64
    assert np.array_equal(cast.blocks[0], b)
    # under a tape that has a workspace the cast is a region of it
    workspace = ad.Workspace()
    with Tape(workspace):
        region = ad.as_float(ad.BlockDiag([b])).blocks[0]
    assert region.dtype == np.float64 and np.array_equal(region, b)
    assert np.shares_memory(region, workspace._buffer)
    # a pack's casts share one region, back to back, and keep its offsets
    pack = ad.BlockDiag([b, f, rng.random((2, 2)) > 0.5])
    with Tape(workspace):
        cast = ad.as_float(pack)
    assert cast.offsets is pack.offsets and cast.blocks[1] is f
    first, _, last = (block.__array_interface__["data"][0]
                      for block in cast.blocks)
    assert last - first == b.size * 8
    # one region of 9 + 4 floats takes two cache lines; a region per
    # block would take three
    assert workspace._used == 2 * workspace.ALIGN
    assert all(np.array_equal(c, p) for c, p in zip(cast.blocks, pack.blocks))


def _segment_ops(offsets):
    return [
        ("segment_sum", lambda x: ad.segment_sum(x, offsets)),
        ("segment_mean", lambda x: ad.segment_mean(x, offsets)),
        ("segment_max", lambda x: ad.segment_max(x, offsets)),
    ]


def test_segment_reductions_gradchecks_and_values(rng):
    for _ in range(8):
        sizes = [int(v) for v in rng.integers(1, 6, size=int(rng.integers(1, 5)))]
        offsets = np.cumsum([0] + sizes)
        # distinct values keep segment_max away from ties
        vals = rng.permutation(offsets[-1] * 3).astype(np.float64)
        x = Tensor(vals.reshape(-1, 3) / 7.0, requires_grad=True)
        for name, op in _segment_ops(offsets):
            w = ad.constant(rng.normal(size=op(x).shape))
            err = gradcheck(lambda x: ad.reduce_sum(ad.mul(op(x), w)), [x])
            assert err < 1e-6, f"{name} failed on {sizes}: {err}"
        segments = [x.data[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
        assert np.array_equal(ad.segment_sum(x, offsets).data,
                              [[s.sum()] for s in segments])
        assert np.array_equal(ad.segment_max(x, offsets).data,
                              [s.max(axis=0) for s in segments])
        assert np.allclose(ad.segment_mean(x, offsets).data,
                           [[s.mean()] for s in segments])


def test_segment_max_ties_route_to_lowest_index():
    x = Tensor(np.array([[1.0, 3.0], [1.0, 3.0], [2.0, 0.0], [2.0, 5.0]]),
               requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.reduce_sum(ad.segment_max(x, [0, 2, 4])))
    assert np.array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [1.0, 0.0],
                                   [0.0, 1.0]])


def test_one_segment_bit_equals_whole_reductions(rng):
    # numpy sums 8 or more values pairwise, so the larger shapes check
    # that a segment is summed exactly as the whole array is
    pairs = [
        (lambda x: ad.segment_sum(x, (0, x.shape[0])),
         lambda x: ad.reduce_sum(x)),
        (lambda x: ad.segment_max(x, (0, x.shape[0])),
         lambda x: ad.reduce_max(x, axis=0, keepdims=True)),
        (lambda x: ad.segment_mean(x, (0, x.shape[0])), lambda x: ad.mean(x)),
    ]
    for shape in [(1, 1), (7, 3), (9, 1), (40, 5), (300, 16)]:
        data = rng.normal(size=shape)
        for segment_op, whole_op in pairs:
            w = ad.constant(rng.normal(size=segment_op(Tensor(data)).shape))
            results = []
            for op in (segment_op, whole_op):
                x = Tensor(data.copy(), requires_grad=True)
                with Tape() as tape:
                    out = op(x)
                    tape.backward(ad.reduce_sum(ad.mul(out, w)))
                results.append((out.data.tobytes(), x.grad.tobytes()))
            assert results[0] == results[1], shape


def test_segments_must_cover_the_rows_without_empties():
    x = Tensor(np.ones((4, 2)))
    with pytest.raises(ContractViolation, match="cover"):
        ad.segment_sum(x, [0, 3])
    with pytest.raises(ContractViolation, match="at least one row"):
        ad.segment_max(x, [0, 2, 2, 4])
    # a graph without nodes has nothing to pool
    with pytest.raises(ContractViolation, match="at least one row"):
        ad.segment_max(Tensor(np.ones((0, 2))), (0, 0))


def test_segment_totals_bit_equal_per_slice_sums(rng):
    # one reduceat over 0.0-led spans against each span's own slice sum:
    # 1-row spans, width 1, one span, spans long enough for pairwise
    # blocking, magnitudes from 1e-3 to 1e3 and spans of negative zeros
    for trial in range(300):
        count = 1 if trial % 25 == 0 else int(rng.integers(2, 10))
        top = 400 if trial % 10 == 0 else 40
        sizes = rng.integers(1, top, size=count)
        sizes[rng.random(count) < 0.3] = 1
        width = 1 if trial % 3 == 0 else int(rng.integers(2, 9))
        rows = int(sizes.sum())
        x = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(
            -3, 4, size=(rows, 1))
        bounds = np.cumsum([0, *sizes])
        spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        if trial % 20 == 0:
            lo, hi = spans[-1]
            x[lo:hi] = -0.0
        for data in (x, x[:, 0]) if width == 1 else (x,):
            expected = np.array([data[lo:hi].sum() for lo, hi in spans])
            totals = ad._segment_totals(data, spans)
            assert totals.shape == (count, 1)
            assert totals[:, 0].tobytes() == expected.tobytes(), trial
