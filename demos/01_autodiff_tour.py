"""A walk through the differentiation engine.

Everything downstream (encoder, flow, student) is trained through this
machinery, so this script shows the moving parts on examples small enough
to check by hand:
recording onto a tape, pulling gradients back, and cross-checking them
against finite differences.
"""

import numpy as np

from flowgad import autodiff as ad

# A tensor is a dense float64 array plus a gradient slot. Operations
# performed while a tape is active record how to push gradients backward.
w = ad.Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
x = ad.constant(np.array([[2.0], [1.0]]))

with ad.Tape() as tape:
    y = ad.matmul(w, x)              # (2, 1)
    loss = ad.reduce_sum(ad.mul(y, y))
tape.backward(loss)

print("loss =", loss.item())
print("dloss/dw =\n", w.grad)

# The analytic gradient of sum((Wx)^2) is 2 (Wx) x^T; check it by hand.
expected = 2.0 * (w.data @ x.data) @ x.data.T
print("matches closed form:", np.allclose(w.grad, expected))

# A tape is single use. Building the graph again is cheap and keeps the
# lifetime rules simple; inference without a tape records nothing at all.
# Gradients accumulate across backward passes, so clear w's first.
w.grad = None
with ad.Tape() as tape:
    loss = ad.reduce_sum(ad.relu(ad.matmul(w, x)))
tape.backward(loss)
print("\nrelu masks the negative row:", w.grad.ravel())

# gradcheck compares tape gradients against central differences and
# returns the worst relative error; anything around 1e-8 is float noise.
def f(a, b):
    return ad.reduce_sum(ad.sigmoid(ad.matmul(a, b)))

a = ad.Tensor(np.random.default_rng(0).normal(size=(3, 4)))
b = ad.Tensor(np.random.default_rng(1).normal(size=(4, 2)))
print("\ngradcheck worst rel err:", ad.gradcheck(f, [a, b], step=1e-5))
