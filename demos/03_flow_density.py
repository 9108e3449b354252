"""The invertible half of the model, on its own.

A coupling flow warps node embeddings toward a standard normal while
tracking the exact volume change. This script trains one on synthetic
off-center embeddings and then demonstrates the two properties everything
else leans on: the map inverts to machine precision, and the reported
volume term matches the true Jacobian determinant.
"""

import numpy as np

from flowgad import autodiff as ad
from flowgad.flow import GraphFlow, train_flow
from flowgad.optim import make_rng

rng = np.random.default_rng(5)
d = 8

def ring(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    loops = a + np.eye(n)
    inv = np.diag(1.0 / np.sqrt(loops.sum(axis=1)))
    return inv @ loops @ inv

# Embeddings centered at 2.0: clearly not standard normal to begin with.
# Each graph is a pack of one: a BlockDiag of its single A_hat.
inputs = []
for _ in range(8):
    n = int(rng.integers(4, 9))
    inputs.append((ad.BlockDiag([ring(n)]),
                   rng.normal(loc=2.0, size=(n, d))))

flow = GraphFlow(d, steps=2, s_max=2.0, rng=make_rng(0, 1))
trace = train_flow(flow, inputs, epochs=60, lr=1e-2)
print(f"negative log likelihood: {trace[0]:.3f} -> {trace[-1]:.3f}")

# Invertibility after training ------------------------------------------
a_hat, h = inputs[0]
z, log_det = flow.forward(ad.constant(h), a_hat)
back = flow.inverse(z, a_hat)
print("round-trip max abs error:", np.abs(back.data - h).max())
print("latent mean after training:", z.data.mean().round(3),
      "(target 0.0)")

# Volume bookkeeping ----------------------------------------------------
# Build the full Jacobian of the map numerically and compare its log
# determinant with the analytic value the flow accumulated on the fly.
n_small, step = 2, 1e-6
a_small = ad.BlockDiag([ring(n_small)])
h_small = rng.normal(size=(n_small, d))

def fwd(flat):
    out, _ = flow.forward(ad.constant(flat.reshape(n_small, d)), a_small)
    return out.data.ravel()

m = n_small * d
jac = np.zeros((m, m))
for j in range(m):
    bump = np.zeros(m)
    bump[j] = step
    jac[:, j] = (fwd(h_small.ravel() + bump) - fwd(h_small.ravel() - bump)) / (2 * step)
_, numeric = np.linalg.slogdet(jac)
_, analytic = flow.forward(ad.constant(h_small), a_small)
print(f"log|det J|: analytic {analytic.item():.8f} vs numeric {numeric:.8f}")
