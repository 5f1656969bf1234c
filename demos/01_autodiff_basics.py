#!/usr/bin/env python3
"""Tape-based reverse-mode differentiation from the ground up.

The numeric core records every array operation on a tape and replays
it backwards to accumulate gradients. This walk-through builds a tiny
regression head by hand, checks its gradients against central finite
differences, and takes a few plain gradient-descent steps.
"""
import numpy as np

import ratar.numcore as nc

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# 1. Parameters live in a ParamStore, built once from a name -> array
# mapping and packed into one flat vector; a tape binds them into one graph.

store = nc.ParamStore({
    "W": rng.normal(0.0, 0.5, (3, 4)),
    "b": np.zeros(4),
    "v": rng.normal(0.0, 0.5, (4, 1)),
})
print(f"{len(store.names())} named views over {store.flat.size} flat parameters")

x = rng.standard_normal((8, 3))
targets = nc.Tensor(rng.standard_normal(8))


def loss_fn(tape, store):
    W = nc.ComputeTape.bind(tape, store, "W")
    b = nc.ComputeTape.bind(tape, store, "b")
    v = nc.ComputeTape.bind(tape, store, "v")
    h = nc.tanh(nc.add_bias(nc.matmul(nc.Tensor(x), W), b))
    pred = nc.reshape(nc.matmul(h, v), (8,))
    return nc.mse_loss(pred, targets)


tape = nc.ComputeTape()
loss = loss_fn(tape, store)
print(f"forward loss: {loss.data:.6f}")

# ---------------------------------------------------------------------------
# 2. One backward pass fills store.grad for every bound parameter.

store.zero_grad()
tape.backward(loss)
for name in store.names():
    g = store.grad(name)
    print(f"d loss / d {name}: shape {g.shape}, |g|_max {np.abs(g).max():.5f}")

# ---------------------------------------------------------------------------
# 3. Trust, then verify: central differences on every coordinate.
# grad_check rebuilds the graph twice per coordinate (loss at theta +- eps)
# and reports the worst relative disagreement with the tape gradient.

err = nc.grad_check(loss_fn, store, eps=1e-5)
print(f"worst relative gradient error vs finite differences: {err:.2e}")
assert err < 1e-4

# ---------------------------------------------------------------------------
# 4. The same machinery drives a few steps of plain gradient descent,
# one whole-vector update per step: store.grad(name) views store.flat_grad.

lr = 0.3
for step in range(1, 6):
    tape = nc.ComputeTape()
    loss = loss_fn(tape, store)
    store.zero_grad()
    tape.backward(loss)
    store.set_flat(store.flat - lr * store.flat_grad)
    print(f"step {step}: loss {loss.data:.6f}")
