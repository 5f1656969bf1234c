"""Dense float64 tensor ops with reverse-mode gradients on an explicit tape.

The design is deliberately small: a Tensor wraps a numpy array, every op is a
pure function that computes the result eagerly and, when any operand belongs
to a tape, records a closure that maps the output cotangent to input
cotangents.  backward() walks the records once in reverse and accumulates leaf
gradients into the owning ParamStore.  Running the same ops with untraced
tensors performs no recording, which is how inference and finite-difference
evaluation stay cheap.

Broadcasting is restricted to scalar-vs-tensor; everything else must match
shapes exactly so gradient rules stay auditable.
"""

from __future__ import annotations

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
    """Immutable dense float64 array, optionally attached to a tape."""

    __slots__ = ("data", "tape")

    def __init__(self, data, tape: "ComputeTape | None" = None):
        self.data = _as_array(data)
        self.tape = tape

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, traced={self.tape is not None})"


class ParamStore:
    """Named parameters with gradient buffers of identical shape."""

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> None:
        if name in self._values:
            raise ContractError(f"duplicate parameter id {name!r}")
        arr = _as_array(value).copy()
        self._values[name] = arr
        self._grads[name] = np.zeros_like(arr)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def set_value(self, name: str, value) -> None:
        arr = _as_array(value)
        if arr.shape != self._values[name].shape:
            raise DimensionError(f"shape change for parameter {name!r}")
        self._values[name] = arr.copy()

    def names(self) -> list:
        return list(self._values.keys())

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def zero_grad(self) -> None:
        for g in self._grads.values():
            g.fill(0.0)

    def copy(self) -> "ParamStore":
        clone = ParamStore()
        for name, val in self._values.items():
            clone.add(name, val)
        return clone


class ComputeTape:
    """Ordered op records enabling one reverse traversal per backward call."""

    def __init__(self):
        self._records = []  # (out Tensor, tuple of (input Tensor, vjp fn))
        self._leaves = {}  # id(tensor) -> (store, name, tensor ref)

    def leaf(self, store: ParamStore, name: str) -> Tensor:
        t = Tensor(store.value(name), tape=self)
        self._leaves[id(t)] = (store, name, t)
        return t

    @staticmethod
    def bind(tape: "ComputeTape | None", store: ParamStore, name: str) -> Tensor:
        """Leaf when tracing, plain snapshot when not."""
        if tape is None:
            return Tensor(store.value(name))
        return tape.leaf(store, name)

    def record(self, out: Tensor, pairs) -> None:
        self._records.append((out, tuple(pairs)))

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ContractError("backward requires a scalar loss")
        if loss.tape is None:
            return  # loss constant in every parameter: all gradients zero
        if loss.tape is not self:
            raise ContractError("loss does not belong to this tape")
        grads = {id(loss): np.ones_like(loss.data)}
        for out, pairs in reversed(self._records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for inp, vjp in pairs:
                contribution = vjp(g)
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + contribution
                else:
                    grads[key] = contribution
        for key, (store, name, _t) in self._leaves.items():
            if key in grads:
                store._grads[name] += grads[key]


def _tape_of(*tensors) -> ComputeTape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ContractError("operands belong to different tapes")
            tape = t.tape
    return tape


def _emit(tape, data, pairs) -> Tensor:
    out = Tensor(data, tape=tape)
    if tape is not None:
        tape.record(out, [(t, fn) for t, fn in pairs if t.tape is not None])
    return out


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes {a.shape} x {b.shape}")
    tape = _tape_of(a, b)
    out = a.data @ b.data
    return _emit(
        tape,
        out,
        [(a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)],
    )


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
    return _emit(
        _tape_of(a, b),
        a.data + b.data,
        [
            (a, lambda g: _reduce_to(g, a.shape)),
            (b, lambda g: _reduce_to(g, b.shape)),
        ],
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    return _emit(
        _tape_of(a, b),
        a.data - b.data,
        [
            (a, lambda g: _reduce_to(g, a.shape)),
            (b, lambda g: _reduce_to(-g, b.shape)),
        ],
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    return _emit(
        _tape_of(a, b),
        a.data * b.data,
        [
            (a, lambda g: _reduce_to(g * b.data, a.shape)),
            (b, lambda g: _reduce_to(g * a.data, b.shape)),
        ],
    )


def add_bias(m: Tensor, bias: Tensor) -> Tensor:
    """Row-vector bias added to every row of a matrix."""
    if m.ndim != 2 or bias.ndim != 1 or m.shape[1] != bias.shape[0]:
        raise DimensionError(f"add_bias shapes {m.shape} + {bias.shape}")
    return _emit(
        _tape_of(m, bias),
        m.data + bias.data[None, :],
        [(m, lambda g: g), (bias, lambda g: g.sum(axis=0))],
    )


def sigmoid(x: Tensor) -> Tensor:
    # exp overflow on large negative inputs is plain saturation to 0
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-x.data))
    return _emit(x.tape, out, [(x, lambda g: g * out * (1.0 - out))])


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit(x.tape, out, [(x, lambda g: g * (1.0 - out * out))])


def softmax(v: Tensor) -> Tensor:
    """Max-stabilized softmax of a 1-D vector."""
    if v.ndim != 1 or v.shape[0] == 0:
        raise DimensionError(f"softmax needs a nonempty vector, got {v.shape}")
    shifted = v.data - v.data.max()
    e = np.exp(shifted)
    out = e / e.sum()

    def vjp(g):
        return out * (g - float(g @ out))

    return _emit(v.tape, out, [(v, vjp)])


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise max-stabilized softmax of a 2-D matrix."""
    if m.ndim != 2 or m.shape[1] == 0:
        raise DimensionError(f"softmax_rows needs nonempty rows, got {m.shape}")
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return out * (g - (g * out).sum(axis=1, keepdims=True))

    return _emit(m.tape, out, [(m, vjp)])


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.ndim != 1 or target.ndim != 1 or pred.shape != target.shape:
        raise DimensionError(f"mse_loss shapes {pred.shape} vs {target.shape}")
    if pred.shape[0] == 0:
        raise DimensionError("mse_loss over empty vectors")
    diff = pred.data - target.data
    n = pred.shape[0]
    out = np.asarray((diff @ diff) / n)
    return _emit(
        _tape_of(pred, target),
        out,
        [
            (pred, lambda g: (2.0 / n) * diff * g),
            (target, lambda g: (-2.0 / n) * diff * g),
        ],
    )


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    if not parts or any(p.ndim != 2 for p in parts):
        raise DimensionError("concat_cols takes a nonempty list of matrices")
    rows = parts[0].shape[0]
    if any(p.shape[0] != rows for p in parts):
        raise DimensionError("concat_cols row counts differ")
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])
    out = np.concatenate([p.data for p in parts], axis=1)

    def make_vjp(lo, hi):
        return lambda g: g[:, lo:hi]

    pairs = [
        (p, make_vjp(offsets[i], offsets[i + 1])) for i, p in enumerate(parts)
    ]
    return _emit(_tape_of(*parts), out, pairs)


def concat_rows(parts) -> Tensor:
    parts = list(parts)
    if not parts or any(p.ndim != 2 for p in parts):
        raise DimensionError("concat_rows takes a nonempty list of matrices")
    cols = parts[0].shape[1]
    if any(p.shape[1] != cols for p in parts):
        raise DimensionError("concat_rows column counts differ")
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])
    out = np.concatenate([p.data for p in parts], axis=0)

    def make_vjp(lo, hi):
        return lambda g: g[lo:hi, :]

    pairs = [
        (p, make_vjp(offsets[i], offsets[i + 1])) for i, p in enumerate(parts)
    ]
    return _emit(_tape_of(*parts), out, pairs)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows by integer index; gradient scatter-adds into the table."""
    idx = np.asarray(indices)
    if table.ndim != 2 or idx.ndim != 1:
        raise DimensionError("gather_rows takes a matrix and an index vector")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError("gather_rows index out of range")

    def vjp(g):
        full = np.zeros(table.shape)
        np.add.at(full, idx, g)
        return full

    return _emit(table.tape, table.data[idx], [(table, vjp)])


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
    grouped = stack.data.reshape(g_count, l_count, n)
    out = np.einsum("gl,gln->gn", weights.data, grouped)

    def vjp_stack(g):
        return (weights.data[:, :, None] * g[:, None, :]).reshape(-1, n)

    def vjp_weights(g):
        return np.einsum("gn,gln->gl", g, grouped)

    return _emit(
        _tape_of(stack, weights),
        out,
        [(stack, vjp_stack), (weights, vjp_weights)],
    )


def rowdot_groups(stack: Tensor, ref: Tensor) -> Tensor:
    """Grouped dot products: stack [G*L x n] against ref [G x n] -> [G x L]."""
    if stack.ndim != 2 or ref.ndim != 2 or stack.shape[1] != ref.shape[1]:
        raise DimensionError("rowdot_groups shape mismatch")
    g_count, n = ref.shape
    if stack.shape[0] % g_count != 0:
        raise DimensionError("rowdot_groups stack rows not a multiple of groups")
    l_count = stack.shape[0] // g_count
    grouped = stack.data.reshape(g_count, l_count, n)
    out = np.einsum("gln,gn->gl", grouped, ref.data)

    def vjp_stack(g):
        return (g[:, :, None] * ref.data[:, None, :]).reshape(-1, n)

    def vjp_ref(g):
        return np.einsum("gl,gln->gn", g, grouped)

    return _emit(_tape_of(stack, ref), out, [(stack, vjp_stack), (ref, vjp_ref)])


def stack_steps(parts) -> Tensor:
    """Interleave per-step batches [B x n] into sample-major [B*L x n].

    With L step tensors, output row b*L + l is parts[l][b], the layout that
    pool_rows and rowdot_groups group by.
    """
    parts = list(parts)
    if not parts or any(p.ndim != 2 for p in parts):
        raise DimensionError("stack_steps takes a nonempty list of matrices")
    b_count, n = parts[0].shape
    if any(p.shape != (b_count, n) for p in parts):
        raise DimensionError("stack_steps parts must share one shape")
    l_count = len(parts)
    out = np.stack([p.data for p in parts], axis=1).reshape(b_count * l_count, n)

    def make_vjp(step):
        return lambda g: g.reshape(b_count, l_count, n)[:, step, :]

    pairs = [(p, make_vjp(step)) for step, p in enumerate(parts)]
    return _emit(_tape_of(*parts), out, pairs)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise DimensionError(f"reshape {a.shape} -> {shape}")
    return _emit(a.tape, a.data.reshape(shape), [(a, lambda g: g.reshape(a.shape))])


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
    for name in store.names():
        val = store.value(name)
        ana = store.grad(name)
        it = np.nditer(val, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = val[idx]
            val[idx] = orig + eps
            fp = float(f(None, store).data)
            val[idx] = orig - eps
            fm = float(f(None, store).data)
            val[idx] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError("non-finite loss during finite differencing")
            num = (fp - fm) / (2.0 * eps)
            a = float(ana[idx])
            rel = abs(a - num) / max(abs(a), abs(num), 1e-8)
            if rel > worst:
                worst = rel
            it.iternext()
    return worst
