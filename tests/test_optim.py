import numpy as np
import pytest

from flowgad.autodiff import Tensor
from flowgad.errors import ContractViolation
from flowgad.optim import Adam, glorot_init, make_rng


def test_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    p.grad = np.zeros(3)
    before = p.data.copy()
    Adam([p]).step()
    assert np.array_equal(p.data, before)


def test_first_step_delta_matches_hand_derivation():
    # t=1, grad=1: m=0.1, v=0.001, bias correction makes m_hat=v_hat=1,
    # so the update is -lr * 1/(1+eps) which is -1e-3 up to eps.
    p = Tensor(np.array([0.5]), requires_grad=True)
    p.grad = np.ones(1)
    Adam([p], lr=1e-3).step()
    assert p.data[0] == pytest.approx(0.5 - 1e-3, abs=1e-9)


def test_constant_gradient_moves_monotonically():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p], lr=1e-3)
    values = [p.data[0]]
    for _ in range(3):
        p.grad = np.ones(1)
        opt.step()
        values.append(p.data[0])
    assert values[0] > values[1] > values[2] > values[3]


def test_step_count_increments():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([p])
    assert opt.step_count == 0
    for expected in (1, 2, 3):
        p.grad = np.ones(2)
        opt.step()
        assert opt.step_count == expected


def test_shape_mismatch_rejected():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    opt = Adam([p])
    p.grad = np.ones(3)
    with pytest.raises(ContractViolation):
        opt.step()


def test_none_gradient_skipped():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p, q])
    p.grad = np.ones(1)
    opt.step()
    assert q.data[0] == 1.0
    assert p.data[0] != 1.0


def test_zero_grad_clears():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([p])
    p.grad = np.ones(2)
    opt.zero_grad()
    assert p.grad is None


def test_glorot_same_seed_identical():
    a = glorot_init(7, 5, 42)
    b = glorot_init(7, 5, 42)
    assert np.array_equal(a.data, b.data)
    assert a.requires_grad


def test_glorot_bound():
    t = glorot_init(100, 100, 7)
    bound = np.sqrt(6.0 / 200.0)
    assert np.abs(t.data).max() <= bound


def test_glorot_empirical_mean_near_zero():
    t = glorot_init(100, 100, 3)
    assert abs(t.data.mean()) < 0.01


def test_glorot_zero_dimension_rejected():
    with pytest.raises(ContractViolation):
        glorot_init(0, 4, 1)
    with pytest.raises(ContractViolation):
        glorot_init(4, 0, 1)


def test_make_rng_streams_are_independent():
    a = make_rng(5, 1).normal(size=4)
    b = make_rng(5, 2).normal(size=4)
    c = make_rng(5, 1).normal(size=4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
