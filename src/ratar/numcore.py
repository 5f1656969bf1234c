"""Dense float64 tensor ops with reverse-mode gradients on an explicit tape.

The design is deliberately small: a Tensor wraps a numpy array, and every op
is a pure function that computes its result eagerly and hands it, with its
input Tensors and one vector-Jacobian product, to _emit.  When any input
belongs to a tape, _emit appends one record to it,
    (out node, input nodes, vjp),
where vjp(g) maps the output cotangent g to one cotangent per input, in
input order, and an untraced input's node is None.  backward() walks the
records once in reverse, accumulates each traced input's cotangent in input
order, drops the rest, and adds leaf gradients into the owning ParamStore.
Running the same ops with untraced tensors records nothing, which is how
inference and finite-difference evaluation stay cheap.

A ParamStore packs every parameter of a model into one flat vector with
a gradient vector of the same length; the named arrays the ops bind are
views into them, so an optimizer updates a whole model in a few vector
ops and grad_check perturbs one flat coordinate at a time.

Records and leaves are keyed by each traced Tensor's node index on its tape,
and vjps capture arrays and shapes, never Tensors.  So the tape holds no
reference back to its Tensors, and reference counting frees a step's graph
without the cyclic garbage collector.

An op may cover a whole recurrence: gru_sequence runs a GRU over every
day of a batch of sequences in plain numpy and records a single entry whose
vjp, a hand-written backward-through-time pass, returns all nine parameter
cotangents.  This keeps the daily encoder from costing one record, and one
Python dispatch, per gate per day.

Broadcasting is restricted to scalar-vs-tensor; everything else must match
shapes exactly so gradient rules stay auditable.
"""

from __future__ import annotations

import itertools

import numpy as np


class DimensionError(ValueError):
    """Operand shapes violate an op's contract."""


class ContractError(ValueError):
    """An op precondition unrelated to shapes was violated."""


class NumericError(FloatingPointError):
    """Non-finite values where finite ones are required."""


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite values in tensor")
    return arr


class Tensor:
    """Dense float64 array, optionally attached to a tape.

    No op writes into a Tensor's data, but a Tensor bound from a ParamStore
    (a tape leaf, or an untraced ComputeTape.bind) wraps the store's view
    without copying, so a later write to the store changes its data.
    """

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: "ComputeTape | None" = None):
        self.data = _as_array(data)
        self.tape = tape
        self.node = None if tape is None else next(tape._nodes)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, traced={self.tape is not None})"


class ParamStore:
    """Named parameters packed into one flat vector, with a gradient twin.

    Built once from a name -> array mapping, copied into `flat` in the
    mapping's order; `flat_grad` has the same length.  Every value(name)
    and grad(name) is a reshaped view into those two vectors, so a
    whole-vector update (Adam) and a per-name write (set_value) see each
    other, as do tape leaves bound to the views.
    """

    def __init__(self, arrays):
        arrays = {name: _as_array(value) for name, value in arrays.items()}
        self.flat = np.empty(sum(arr.size for arr in arrays.values()))
        self.flat_grad = np.zeros_like(self.flat)
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        lo = 0
        for name, arr in arrays.items():
            hi = lo + arr.size
            self._values[name] = self.flat[lo:hi].reshape(arr.shape)
            self._values[name][...] = arr
            self._grads[name] = self.flat_grad[lo:hi].reshape(arr.shape)
            lo = hi

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def set_value(self, name: str, value) -> None:
        """Overwrite a parameter in place: value() arrays and tape leaves see it."""
        arr = _as_array(value)
        current = self._values[name]
        if arr.shape != current.shape:
            raise DimensionError(f"shape change for parameter {name!r}")
        current[...] = arr

    def set_flat(self, values) -> None:
        """Overwrite every parameter in place; checks all values before writing any."""
        arr = _as_array(values)
        if arr.shape != self.flat.shape:
            raise DimensionError(f"flat write of shape {arr.shape} into {self.flat.shape}")
        self.flat[...] = arr

    def names(self) -> list:
        return list(self._values.keys())

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def zero_grad(self) -> None:
        self.flat_grad.fill(0.0)

    def copy(self) -> "ParamStore":
        return ParamStore(self._values)


class ComputeTape:
    """Ordered op records enabling one reverse traversal per backward call."""

    def __init__(self):
        self._records = []  # (out node, input nodes, vjp); None for an untraced input
        self._leaves = {}  # leaf node -> (store, name)
        self._nodes = itertools.count()

    def leaf(self, store: ParamStore, name: str) -> Tensor:
        t = Tensor(store.value(name), tape=self)
        self._leaves[t.node] = (store, name)
        return t

    @staticmethod
    def bind(tape: "ComputeTape | None", store: ParamStore, name: str) -> Tensor:
        """Leaf when tracing; when not, an untraced Tensor over the store's view.

        Neither copies: a later set_value or set_flat shows in the Tensor.
        """
        if tape is None:
            return Tensor(store.value(name))
        return tape.leaf(store, name)

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ContractError("backward requires a scalar loss")
        if loss.tape is None:
            return  # loss constant in every parameter: all gradients zero
        if loss.tape is not self:
            raise ContractError("loss does not belong to this tape")
        grads = {loss.node: np.ones_like(loss.data)}
        for out, inputs, vjp in reversed(self._records):
            g = grads.pop(out, None)
            if g is None:
                continue
            for inp, contribution in zip(inputs, vjp(g)):
                if inp is None:
                    continue
                if inp in grads:
                    grads[inp] = grads[inp] + contribution
                else:
                    grads[inp] = contribution
        for node, (store, name) in self._leaves.items():
            if node in grads:
                store._grads[name] += grads[node]


def _emit(data, inputs, vjp) -> Tensor:
    """The op result `data`, recorded on its inputs' tape if any is traced."""
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ContractError("operands belong to different tapes")
            tape = t.tape
    out = Tensor(data, tape=tape)
    if tape is not None:
        tape._records.append((out.node, tuple(t.node for t in inputs), vjp))
    return out


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return _emit(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def _binary_shapes(a: Tensor, b: Tensor):
    if a.shape == b.shape:
        return
    if a.ndim == 0 or b.ndim == 0:
        return
    raise DimensionError(f"shapes {a.shape} and {b.shape} (exact or scalar only)")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # cotangent for a scalar operand broadcast across the other shape
    if g.shape == shape:
        return g
    return np.asarray(g.sum()).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    sa, sb = a.shape, b.shape
    return _emit(a.data + b.data, (a, b), lambda g: (_reduce_to(g, sa), _reduce_to(g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    ad, bd = a.data, b.data
    return _emit(ad * bd, (a, b),
                 lambda g: (_reduce_to(g * bd, ad.shape), _reduce_to(g * ad, bd.shape)))


def add_bias(m: Tensor, bias: Tensor) -> Tensor:
    """Row-vector bias added to every row of a matrix."""
    if m.ndim != 2 or bias.ndim != 1 or m.shape[1] != bias.shape[0]:
        raise DimensionError(f"add_bias shapes {m.shape} + {bias.shape}")
    return _emit(m.data + bias.data[None, :], (m, bias), lambda g: (g, g.sum(axis=0)))


def sigmoid(x: Tensor) -> Tensor:
    # exp overflow on large negative inputs is plain saturation to 0
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-x.data))
    return _emit(out, (x,), lambda g: (g * out * (1.0 - out),))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit(out, (x,), lambda g: (g * (1.0 - out * out),))


def softmax(v: Tensor) -> Tensor:
    """Max-stabilized softmax of a 1-D vector."""
    if v.ndim != 1 or v.shape[0] == 0:
        raise DimensionError(f"softmax needs a nonempty vector, got {v.shape}")
    shifted = v.data - v.data.max()
    e = np.exp(shifted)
    out = e / e.sum()
    return _emit(out, (v,), lambda g: (out * (g - float(g @ out)),))


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise max-stabilized softmax of a 2-D matrix."""
    if m.ndim != 2 or m.shape[1] == 0:
        raise DimensionError(f"softmax_rows needs nonempty rows, got {m.shape}")
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return _emit(out, (m,), lambda g: (out * (g - (g * out).sum(axis=1, keepdims=True)),))


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.ndim != 1 or target.ndim != 1 or pred.shape != target.shape:
        raise DimensionError(f"mse_loss shapes {pred.shape} vs {target.shape}")
    if pred.shape[0] == 0:
        raise DimensionError("mse_loss over empty vectors")
    diff = pred.data - target.data
    n = pred.shape[0]
    out = np.asarray((diff @ diff) / n)
    return _emit(out, (pred, target), lambda g: ((2.0 / n) * diff * g, (-2.0 / n) * diff * g))


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    if not parts or any(p.ndim != 2 for p in parts):
        raise DimensionError("concat_cols takes a nonempty list of matrices")
    rows = parts[0].shape[0]
    if any(p.shape[0] != rows for p in parts):
        raise DimensionError("concat_cols row counts differ")
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])
    out = np.concatenate([p.data for p in parts], axis=1)
    return _emit(out, parts, lambda g: np.split(g, offsets[1:-1], axis=1))


def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows by integer index; gradient scatter-adds into the table."""
    idx = np.asarray(indices)
    if table.ndim != 2 or idx.ndim != 1:
        raise DimensionError("gather_rows takes a matrix and an index vector")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError("gather_rows index out of range")

    shape = table.shape

    def vjp(g):
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        return (full,)

    return _emit(table.data[idx], (table,), vjp)


def pool_rows(stack: Tensor, weights: Tensor) -> Tensor:
    """Weighted sum of row groups: stack is [G*L x n], weights [G x L].

    out[g] = sum_l weights[g,l] * stack[g*L + l].  One op covers attention
    pooling, mean pooling (constant weights) and weighted context sums.
    """
    if stack.ndim != 2 or weights.ndim != 2:
        raise DimensionError("pool_rows takes two matrices")
    g_count, l_count = weights.shape
    if stack.shape[0] != g_count * l_count:
        raise DimensionError(
            f"pool_rows stack rows {stack.shape[0]} != {g_count}*{l_count}"
        )
    n = stack.shape[1]
    w = weights.data
    grouped = stack.data.reshape(g_count, l_count, n)
    out = np.einsum("gl,gln->gn", w, grouped)

    def vjp(g):
        return ((w[:, :, None] * g[:, None, :]).reshape(-1, n),
                np.einsum("gn,gln->gl", g, grouped))

    return _emit(out, (stack, weights), vjp)


def rowdot_groups(stack: Tensor, ref: Tensor) -> Tensor:
    """Grouped dot products: stack [G*L x n] against ref [G x n] -> [G x L]."""
    if stack.ndim != 2 or ref.ndim != 2 or stack.shape[1] != ref.shape[1]:
        raise DimensionError("rowdot_groups shape mismatch")
    g_count, n = ref.shape
    if stack.shape[0] % g_count != 0:
        raise DimensionError("rowdot_groups stack rows not a multiple of groups")
    l_count = stack.shape[0] // g_count
    r = ref.data
    grouped = stack.data.reshape(g_count, l_count, n)
    out = np.einsum("gln,gn->gl", grouped, r)

    def vjp(g):
        return ((g[:, :, None] * r[:, None, :]).reshape(-1, n),
                np.einsum("gl,gln->gn", g, grouped))

    return _emit(out, (stack, ref), vjp)


_GRU_NAMES = ("W_r", "U_r", "b_r", "W_u", "U_u", "b_u", "W_c", "U_c", "b_c")


def gru_sequence(xs, W_r, U_r, b_r, W_u, U_u, b_u, W_c, U_c, b_c) -> Tensor:
    """GRU (Cho et al. 2014) over constant sequences xs [B,T,d] from a zero state.

    Returns the hidden states sample-major, [B*T x H]: row b*T + t is
    sequence b after day t, the layout pool_rows and rowdot_groups group by.
    Each step computes, with sigmoid s,
        r = s((x@W_r + h@U_r) + b_r)    u = s((x@W_u + h@U_u) + b_u)
        c = tanh((x@W_c + (r*h)@U_c) + b_c)    h' = (1-u)*h + u*c
    and the first step, from h = 0, is h' = u*c.  The recurrence runs in
    plain numpy and records one tape entry whose vjp, the backward-through-
    time pass, yields all nine parameter cotangents at once.  Every step's
    gate pre-activations must be finite: tanh and sigmoid would otherwise
    saturate an overflow into a finite state.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3:
        raise DimensionError(f"gru_sequence expects [B,T,d] sequences, got shape {xs.shape}")
    B, T, d = xs.shape
    params = (W_r, U_r, b_r, W_u, U_u, b_u, W_c, U_c, b_c)
    if W_r.ndim != 2 or W_r.shape[0] != d:
        raise DimensionError(f"input has {d} features, encoder expects {W_r.shape[0]}")
    H = W_r.shape[1]
    for name, p, shape in zip(_GRU_NAMES, params, ((d, H), (H, H), (H,)) * 3):
        if p.shape != shape:
            raise DimensionError(f"gru_sequence {name} has shape {p.shape}, expected {shape}")
    if T == 0:
        raise DimensionError("gru_sequence needs at least one step")
    if not np.all(np.isfinite(xs)):
        raise NumericError("non-finite values in tensor")
    Wr, Ur, br, Wu, Uu, bu, Wc, Uc, bc = (p.data for p in params)

    # Products stay per step and per gate, in the shapes of the unfused ops:
    # BLAS may sum in another order for one GEMM over all days or gates, and
    # these shapes keep the states bitwise those of the op-by-op recurrence.
    pre = np.zeros((T, 3, B, H))  # gate pre-activations r, u, c per step
    gates = np.zeros((T, 3, B, H))  # r, u, c per step; r is unused on the first
    hs = np.zeros((T + 1, B, H))  # hs[t + 1] is the state after day t
    with np.errstate(over="ignore"):  # sigmoid: exp overflow saturates to 0
        for t in range(T):
            x = xs[:, t, :]
            a_r, a_u, a_c = pre[t]
            r, u, c = gates[t]
            if t == 0:
                np.divide(1.0, 1.0 + np.exp(-np.add(x @ Wu, bu, out=a_u)), out=u)
                np.tanh(np.add(x @ Wc, bc, out=a_c), out=c)
                np.multiply(u, c, out=hs[1])
            else:
                h = hs[t]
                np.divide(1.0, 1.0 + np.exp(-np.add(x @ Wr + h @ Ur, br, out=a_r)), out=r)
                np.divide(1.0, 1.0 + np.exp(-np.add(x @ Wu + h @ Uu, bu, out=a_u)), out=u)
                np.tanh(np.add(x @ Wc + (r * h) @ Uc, bc, out=a_c), out=c)
                np.add((1.0 - u) * h, u * c, out=hs[t + 1])
            if not np.isfinite(pre[t]).all():
                raise NumericError("non-finite values in tensor")
    out = hs[1:].transpose(1, 0, 2).reshape(B * T, H)

    def bptt(g):
        G = g.reshape(B, T, H)
        R, U, C = gates.transpose(1, 0, 2, 3)  # [T,B,H] each
        Hp = hs[:-1]  # state entering each step
        f_u = (C - Hp) * U * (1.0 - U)  # dh -> da_u
        f_c = U * (1.0 - C * C)  # dh -> da_c
        f_r = Hp * R * (1.0 - R)  # d(r*h) -> da_r
        keep = 1.0 - U
        DA = np.zeros((3, T, B, H))  # da_r, da_u, da_c per step
        da_r, da_u, da_c = DA
        carry = 0.0
        for t in range(T - 1, -1, -1):
            dh = G[:, t, :] + carry
            np.multiply(dh, f_u[t], out=da_u[t])
            np.multiply(dh, f_c[t], out=da_c[t])
            if t:  # the first step starts from the constant zero state
                d_rh = da_c[t] @ Uc.T
                np.multiply(d_rh, f_r[t], out=da_r[t])
                carry = dh * keep[t] + d_rh * R[t] + da_r[t] @ Ur.T + da_u[t] @ Uu.T
        X = xs.transpose(1, 0, 2).reshape(T * B, d)
        hp = Hp.reshape(T * B, H)
        rhp = (R * Hp).reshape(T * B, H)
        flat_r, flat_u, flat_c = DA.reshape(3, T * B, H)
        return (X.T @ flat_r, hp.T @ flat_r, flat_r.sum(axis=0),
                X.T @ flat_u, hp.T @ flat_u, flat_u.sum(axis=0),
                X.T @ flat_c, rhp.T @ flat_c, flat_c.sum(axis=0))

    return _emit(out, params, bptt)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise DimensionError(f"reshape {a.shape} -> {shape}")
    before = a.shape
    return _emit(a.data.reshape(shape), (a,), lambda g: (g.reshape(before),))


# ---------------------------------------------------------------------------
# verification harness


def grad_check(f, store: ParamStore, eps: float = 1e-5) -> float:
    """Worst relative error of tape gradients vs central finite differences.

    f(tape, store) must build a scalar loss Tensor; with tape=None it runs
    untraced, which is how the perturbed evaluations are taken.  Relative
    error uses denominator max(|analytic|, |numeric|, 1e-8).
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    store.zero_grad()
    tape = ComputeTape()
    loss = f(tape, store)
    tape.backward(loss)

    worst = 0.0
    flat, ana = store.flat, store.flat_grad
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(None, store).data)
        flat[i] = orig - eps
        fm = float(f(None, store).data)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError("non-finite loss during finite differencing")
        num = (fp - fm) / (2.0 * eps)
        a = float(ana[i])
        rel = abs(a - num) / max(abs(a), abs(num), 1e-8)
        if rel > worst:
            worst = rel
    return worst
