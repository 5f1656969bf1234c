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

A ParamStore can also hold K independent copies of a model, as one
[K x n] flat vector whose named views carry a leading model axis,
[K, *shape].  The ops that read parameters (matmul with the parameter on
the right, add_bias, gru_sequence, and gather_rows on the year table)
accept such a stacked parameter and run K models in one op.  Their
activations are then laid out county-major: the rows form K equal groups,
and group k meets copy k.  Row-wise ops (softmax_rows, pool_rows,
rowdot_groups, concat_cols, gather_rows on activations, reshape, add)
need no model axis, and mse_loss can sum per-group means over padded
groups.  A plain parameter runs exactly the single-model computation.

Records and leaves are keyed by each traced Tensor's node index on its tape,
and vjps capture arrays and shapes, never Tensors.  So the tape holds no
reference back to its Tensors, and reference counting frees a step's graph
without the cyclic garbage collector.

An op may cover a whole recurrence: gru_sequence runs a GRU over every
day of a batch of sequences in plain numpy and records a single entry whose
vjp, a hand-written backward-through-time pass, returns all nine parameter
cotangents.  This keeps the daily encoder from costing one record, and one
Python dispatch, per gate per day.  Inside, every GEMM keeps its per-day
shape, as a slice of one of a few batched np.matmul calls: each slice is
still its own BLAS call, so the bits are those of the op-by-op
recurrence, whereas one GEMM over all days lets BLAS pick another kernel
and summation order.  The backward pass computes every day's gate factors
at once into its cotangent buffer and takes that buffer, like the rest of
its scratch, from the _reused_scratch block around a training loop, so
they live from the loop's first backward pass to its end instead of being
allocated and page-faulted in again every step.  Both day loops take
each day's views by iterating day-major transposes of their buffers, with
the loop-invariant slices taken once, so a day costs its ufunc calls and
little Python indexing.

Non-finite values are caught at named boundaries, not after every op: a
Tensor a caller builds, every ParamStore write (constructor, set_value,
set_flat), and the loss (mse_loss).  Op outputs and the store views that
tape leaves and untraced binds wrap are not checked again (Tensor._wrap).
Most ops carry an inf or NaN forward to their output, and so to the loss;
the ops that could turn one finite check their input instead: tanh,
softmax_rows (whose exp gives a -inf score the weight 0) and gru_sequence's
gate pre-activations, which its sigmoid and tanh would saturate.  The
pipeline checks the untraced outputs that leave the engine (model labels,
training embeddings, predictions) inside the stage that made them.

Broadcasting is restricted to scalar-vs-tensor; everything else must match
shapes exactly so gradient rules stay auditable.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math

import numpy as np


class DimensionError(ValueError):
    """Operand shapes violate an op's contract."""


class ContractError(ValueError):
    """An op precondition unrelated to shapes was violated."""


class NumericError(FloatingPointError):
    """Non-finite values where finite ones are required."""


def _check_finite(arr, what: str = "values in tensor"):
    """arr itself; NumericError("non-finite <what>") if any entry is inf or NaN."""
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite {what}")
    return arr


def _as_array(data) -> np.ndarray:
    return _check_finite(np.asarray(data, dtype=np.float64))


class Tensor:
    """Dense float64 array, optionally attached to a tape.

    A Tensor built by a caller, Tensor(data), must be finite.  Op outputs
    and bound store views are wrapped without that check (_wrap): the loss,
    the store's writes and the ops that could hide an overflow check
    instead (see the module docstring).

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

    @classmethod
    def _wrap(cls, data: np.ndarray, tape: "ComputeTape | None" = None) -> "Tensor":
        """A Tensor over a float64 array, without the finite check: an op's
        output or a store's view, whose values are checked at the boundaries."""
        t = cls.__new__(cls)
        t.data, t.tape = data, tape
        t.node = None if tape is None else next(tape._nodes)
        return t


class ParamStore:
    """Named parameters packed into one flat vector, with a gradient twin.

    Built once from a name -> array mapping, copied into `flat` in the
    mapping's order; `flat_grad` has the same length.  Every value(name)
    and grad(name) is a reshaped view into those two vectors, so a
    whole-vector update (Adam) and a per-name write (set_value) see each
    other, as do tape leaves bound to the views.

    A store of `copies` K holds K independent copies of a model: `flat`
    is [K x n], row k holding copy k, and each array (given and viewed)
    has a leading model axis, [K, *shape].  `stack` makes one from a
    plain store.
    """

    def __init__(self, arrays, copies: int | None = None):
        arrays = {name: _as_array(value) for name, value in arrays.items()}
        lead = () if copies is None else (copies,)
        for name, arr in arrays.items():
            if arr.shape[:len(lead)] != lead:
                raise DimensionError(f"parameter {name!r} lacks the model axis of {copies}")
        sizes = {name: int(np.prod(arr.shape[len(lead):], dtype=np.int64))
                 for name, arr in arrays.items()}
        self.copies = copies
        self.flat = np.empty(lead + (sum(sizes.values()),))
        self.flat_grad = np.zeros_like(self.flat)
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        lo = 0
        for name, arr in arrays.items():
            hi = lo + sizes[name]
            self._values[name] = self.flat[..., lo:hi].reshape(arr.shape)
            self._values[name][...] = arr
            self._grads[name] = self.flat_grad[..., lo:hi].reshape(arr.shape)
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
        return ParamStore(self._values, self.copies)

    def stack(self, copies: int) -> "ParamStore":
        """A store of `copies` copies of this plain store."""
        if self.copies is not None or copies < 1:
            raise ContractError("stack takes a plain store and at least one copy")
        return ParamStore({name: np.broadcast_to(arr, (copies,) + arr.shape)
                           for name, arr in self._values.items()}, copies)


class ComputeTape:
    """Ordered op records enabling one reverse traversal per backward call."""

    def __init__(self):
        self._records = []  # (out node, input nodes, vjp); None for an untraced input
        self._leaves = {}  # leaf node -> (store, name)
        self._nodes = itertools.count()

    def leaf(self, store: ParamStore, name: str) -> Tensor:
        t = Tensor._wrap(store.value(name), tape=self)
        self._leaves[t.node] = (store, name)
        return t

    @staticmethod
    def bind(tape: "ComputeTape | None", store: ParamStore, name: str) -> Tensor:
        """Leaf when tracing; when not, an untraced Tensor over the store's view.

        Neither copies: a later set_value or set_flat shows in the Tensor.
        """
        if tape is None:
            return Tensor._wrap(store.value(name))
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
    out = Tensor._wrap(data, tape)
    if tape is not None:
        tape._records.append((out.node, tuple(t.node for t in inputs), vjp))
    return out


# ---------------------------------------------------------------------------
# primitive ops


def _group_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; with b [K, m, p], each of a's K equal row groups times its slice of b."""
    if b.ndim == 2:
        return a @ b
    return (a.reshape(b.shape[0], -1, a.shape[1]) @ b).reshape(-1, b.shape[2])


def _group_outer(a: np.ndarray, g: np.ndarray, copies: int | None) -> np.ndarray:
    """a.T @ g, or with copies K one such product per equal row group, [K, m, p]."""
    if copies is None:
        return a.T @ g
    return a.reshape(copies, -1, a.shape[1]).swapaxes(1, 2) @ g.reshape(copies, -1, g.shape[1])


def _group_sum(g: np.ndarray, copies: int | None) -> np.ndarray:
    """Column sums of g, or with copies K the column sums of each equal row group, [K, n]."""
    if copies is None:
        return g.sum(axis=0)
    return g.reshape(copies, -1, g.shape[1]).sum(axis=1)


def _copies_of(param: np.ndarray, plain_ndim: int, rows: int, what: str) -> int | None:
    """The model-axis length K of a parameter (None for a plain one).

    A stacked parameter has one leading axis more than a plain one, and the
    activations it meets must split into K equal row groups.
    """
    if param.ndim == plain_ndim:
        return None
    if param.ndim != plain_ndim + 1 or param.shape[0] < 1 or rows % param.shape[0]:
        raise DimensionError(f"{what}: parameter {param.shape} against {rows} rows")
    return param.shape[0]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a [N x m] @ b [m x p].

    A parameter b [K, m, p] of K stacked copies multiplies a's K equal
    (county-major) row groups, group k by b[k].
    """
    if a.ndim != 2 or b.ndim < 2 or a.shape[1] != b.shape[-2]:
        raise DimensionError(f"matmul shapes {a.shape} x {b.shape}")
    copies = _copies_of(b.data, 2, a.shape[0], "matmul")
    ad, bd = a.data, b.data
    return _emit(_group_matmul(ad, bd), (a, b),
                 lambda g: (_group_matmul(g, bd.swapaxes(-1, -2)), _group_outer(ad, g, copies)))


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


def add_bias(m: Tensor, bias: Tensor) -> Tensor:
    """Row-vector bias added to every row of a matrix.

    A bias [K x n] of K stacked copies adds row k to the k-th of m's K
    equal row groups.
    """
    if m.ndim != 2 or bias.ndim < 1 or m.shape[1] != bias.shape[-1]:
        raise DimensionError(f"add_bias shapes {m.shape} + {bias.shape}")
    copies = _copies_of(bias.data, 1, m.shape[0], "add_bias")
    b = bias.data if copies is None else np.repeat(bias.data, m.shape[0] // copies, axis=0)
    return _emit(m.data + b, (m, bias), lambda g: (g, _group_sum(g, copies)))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(_check_finite(x.data))  # tanh would saturate an overflow
    return _emit(out, (x,), lambda g: (g * (1.0 - out * out),))


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise max-stabilized softmax of a 2-D matrix."""
    if m.ndim != 2 or m.shape[1] == 0:
        raise DimensionError(f"softmax_rows needs nonempty rows, got {m.shape}")
    _check_finite(m.data)  # exp would turn a -inf score into a finite weight 0
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return _emit(out, (m,), lambda g: (out * (g - (g * out).sum(axis=1, keepdims=True)),))


def mse_loss(pred: Tensor, target: Tensor, counts=None) -> Tensor:
    """Mean squared error of two vectors.

    With counts, both vectors are K equal groups, group k holding counts[k]
    real entries followed by padding.  The loss is then the sum over groups
    of each group's mean over its real entries: padding gets no gradient,
    and each group's gradient is that of its own mean.  A non-finite loss
    raises NumericError: the loss is where a training step's overflows show.
    """
    if pred.ndim != 1 or target.ndim != 1 or pred.shape != target.shape:
        raise DimensionError(f"mse_loss shapes {pred.shape} vs {target.shape}")
    if pred.shape[0] == 0:
        raise DimensionError("mse_loss over empty vectors")
    diff = pred.data - target.data
    if counts is None:
        n = pred.shape[0]
        out = _check_finite(np.asarray((diff @ diff) / n), "loss")
        return _emit(out, (pred, target),
                     lambda g: ((2.0 / n) * diff * g, (-2.0 / n) * diff * g))
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0 or pred.shape[0] % counts.size:
        raise DimensionError(f"mse_loss counts {counts.tolist()} for {pred.shape[0]} entries")
    size = pred.shape[0] // counts.size
    if counts.min() < 1 or counts.max() > size:
        raise DimensionError(f"mse_loss counts {counts.tolist()} for groups of {size}")
    diff = np.where((np.arange(size) < counts[:, None]).ravel(), diff, 0.0)
    out = _check_finite(np.asarray(((diff * diff).reshape(counts.size, size).sum(axis=1)
                                   / counts).sum()), "loss")
    scale = np.repeat(2.0 / counts, size)
    return _emit(out, (pred, target), lambda g: (scale * diff * g, -scale * diff * g))


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
    """Select rows by integer index; gradient scatter-adds into the table.

    A table [K, R, n] of K stacked copies is indexed as its [K*R x n] row
    stack: row r of copy k is row k*R + r.  The scatter-add is one
    `np.bincount` over flat cells, which sums each cell's cotangents from
    0.0 in index order, as `np.add.at` would.
    """
    idx = np.asarray(indices)
    if table.ndim not in (2, 3) or idx.ndim != 1:
        raise DimensionError("gather_rows takes a matrix (or a stack of them) and an index vector")
    shape = table.shape
    rows = table.data.reshape(-1, shape[-1])
    if idx.size and (idx.min() < 0 or idx.max() >= rows.shape[0]):
        raise ContractError("gather_rows index out of range")

    def vjp(g):
        n = rows.shape[1]
        cells = (idx[:, None] * n + np.arange(n)).ravel()
        return (np.bincount(cells, weights=g.ravel(), minlength=rows.size).reshape(shape),)

    return _emit(rows[idx], (table,), vjp)


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


class _Scratch:
    """Grow-only float64 buffers by name; take() views a buffer's first entries."""

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


_SCRATCH = contextvars.ContextVar("_SCRATCH", default=None)


@contextlib.contextmanager
def _reused_scratch():
    """Within the block, every gru_sequence backward pass reuses one _Scratch.

    A training loop runs one backward per step on similar shapes; reusing
    the buffers spares the allocator from freeing and page-faulting them
    back each step.  They are freed when the block ends.
    """
    token = _SCRATCH.set(_Scratch())
    try:
        yield
    finally:
        _SCRATCH.reset(token)


def _sigmoid_into(a, out):
    """out = 1 / (1 + exp(-a)), each step in place; exp overflow saturates to 0."""
    np.negative(a, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)


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

    Parameters of K stacked copies ([K, d, H], [K, H, H], [K, H]) run the
    K equal groups of sequences, group k on copy k, in one recurrence.

    Every product is a [B/K x n] @ [n x H] GEMM per day, gate and copy,
    the shapes of the op-by-op recurrence, so states and cotangents keep
    its bits.  One np.matmul over a stack of such slices (x@W for all days
    and gates up front, h@U_r and h@U_u together per day) runs each slice
    as its own GEMM and changes no bit; one GEMM over all days,
    [T*B x d] @ [d x H], would, because BLAS picks its kernels, and with
    them the order in which a dot product is summed, by matrix shape.  The
    forward writes x@W into `gates` and overwrites it in place with the
    activations.  BPTT writes every day's local gate factors (h*r)*(1-r),
    ((c-h)*u)*(1-u) and u*(1-c*c) into the three slots of its cotangent
    buffer DA at once and scales them per day in place.  DA and BPTT's
    other buffers come from the enclosing _reused_scratch block, which
    training opens around each loop, so they live from the loop's first
    backward pass to its end; outside a block, for one backward pass.

    Neither day loop indexes per day.  The forward zips day-major views,
    states.transpose(2, 0, 1, 3) for the state entering and leaving a day
    and steps[1:] for its gates; BPTT zips, from the last day down to day 1,
    DA's and the output cotangent's day-major transposes and the days' r and
    u, and runs day 0, which has no reset gate and no carry, after the loop.
    The slices every day reads (pre[:2], pre's gates, bias[:2], bias[2],
    du's halves) are taken once.  The output is not checked again: the
    pre-activation check is where this op can hide an overflow.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3:
        raise DimensionError(f"gru_sequence expects [B,T,d] sequences, got shape {xs.shape}")
    B, T, d = xs.shape
    params = (W_r, U_r, b_r, W_u, U_u, b_u, W_c, U_c, b_c)
    copies = _copies_of(W_r.data, 2, B, "gru_sequence")
    lead = () if copies is None else (copies,)
    if W_r.shape[-2] != d:
        raise DimensionError(f"input has {d} features, encoder expects {W_r.shape[-2]}")
    H = W_r.shape[-1]
    for name, p, shape in zip(_GRU_NAMES, params, ((d, H), (H, H), (H,)) * 3):
        if p.shape != lead + shape:
            raise DimensionError(
                f"gru_sequence {name} has shape {p.shape}, expected {lead + shape}")
    if T == 0:
        raise DimensionError("gru_sequence needs at least one step")
    _check_finite(xs)
    # A plain parameter is one copy: every array below carries the copy
    # axis K, and a step's [B x n] rows are [K, B/K, n], group k on copy k.
    K = copies or 1
    Bk = B // K
    Wr, Ur, br, Wu, Uu, bu, Wc, Uc, bc = (
        p.data if copies else p.data[None] for p in params)
    W = np.stack((Wr, Wu, Wc))  # [3, K, d, H]
    Uru = np.stack((Ur, Uu))  # [2, K, H, H]
    bias = np.stack((br, bu, bc))[:, :, None, :]  # [3, K, 1, H], over each group's rows
    gates = np.empty((T, 3, B, H))  # r, u, c per day; r is zero on the first
    hs = np.empty((B, T, H))  # hs[:, t] is the state after day t
    steps = gates.reshape(T, 3, K, Bk, H)
    states = hs.reshape(K, Bk, T, H)
    pre = np.empty((3, K, Bk, H))  # the day's gate pre-activations r, u, c
    rh = np.empty((K, Bk, H))  # r*h
    with np.errstate(over="ignore", invalid="ignore"):  # the finite checks raise
        # x@W_r, x@W_u, x@W_c for every day: [T, 1, K, B/K, d] @ [3, K, d, H]
        np.matmul(xs.transpose(1, 0, 2).reshape(T, 1, K, Bk, d), W, out=steps)
        r, u, c = steps[0]
        _check_finite(np.add(steps[0, 1:], bias[1:], out=pre[1:]))
        r.fill(0.0)
        _sigmoid_into(pre[1], u)
        np.tanh(pre[2], out=c)
        np.multiply(u, c, out=states[:, :, 0])
        pre_ru, (pre_r, pre_u, pre_c), bias_ru, bias_c = pre[:2], pre, bias[:2], bias[2]
        days = states.transpose(2, 0, 1, 3)  # days[t] is the state after day t
        for h, h_next, ru, r, u, c in zip(days, days[1:], steps[1:, :2],
                                          *steps[1:].swapaxes(0, 1)):
            np.matmul(h, Uru, out=pre_ru)
            np.add(ru, pre_ru, out=pre_ru)
            np.add(pre_ru, bias_ru, out=pre_ru)
            _sigmoid_into(pre_ru, ru)
            np.multiply(r, h, out=rh)
            np.matmul(rh, Uc, out=pre_c)
            np.add(c, pre_c, out=pre_c)
            np.add(pre_c, bias_c, out=pre_c)
            if not np.isfinite(pre).all():
                raise NumericError("non-finite values in tensor")
            np.tanh(pre_c, out=c)
            np.subtract(1.0, u, out=pre_r)  # the pre-activations are spent
            np.multiply(pre_r, h, out=pre_r)
            np.multiply(u, c, out=pre_u)
            np.add(pre_r, pre_u, out=h_next)

    def bptt(g):
        scratch = _SCRATCH.get() or _Scratch()
        # rows (k, t, b): copy by copy, day-major, as _group_outer groups them
        X = scratch.take("X", (K, T, Bk, d))
        np.copyto(X, xs.reshape(K, Bk, T, d).swapaxes(1, 2))
        hp = scratch.take("hp", (K, T, Bk, H))  # the state entering each day
        hp[:, 0] = 0.0
        np.copyto(hp[:, 1:], states[:, :, :-1].swapaxes(1, 2))
        rs, us, cs = steps.transpose(1, 2, 0, 3, 4)  # every day's r, u, c, like X
        # da_r, da_u, da_c: first every day's local factors (h*r)*(1-r),
        # ((c-h)*u)*(1-u) and u*(1-c*c), each (1-g) in a slot not yet
        # filled; the loop below scales them in place
        DA = scratch.take("DA", (3, K, T, Bk, H))
        np.subtract(cs, hp, out=DA[1])
        np.multiply(DA[1], us, out=DA[1])
        np.subtract(1.0, us, out=DA[0])
        np.multiply(DA[1], DA[0], out=DA[1])
        np.multiply(hp, rs, out=DA[0])
        np.subtract(1.0, rs, out=DA[2])
        np.multiply(DA[0], DA[2], out=DA[0])
        np.multiply(cs, cs, out=DA[2])
        np.subtract(1.0, DA[2], out=DA[2])
        np.multiply(us, DA[2], out=DA[2])
        G = g.reshape(K, Bk, T, H)
        UcT, UruT = Uc.swapaxes(-1, -2), Uru.swapaxes(-1, -2)
        dh, carry, d_rh = (scratch.take(name, (K, Bk, H)) for name in ("dh", "carry", "d_rh"))
        du = scratch.take("du", (2, K, Bk, H))  # da_r@U_r.T, da_u@U_u.T
        du_r, du_u = du
        carry.fill(0.0)
        # from the last day down to day 1, each day's views: da_r and da_u
        # together, da_r, da_u, da_c, the output cotangent, r and u
        DAt, Gt = DA.transpose(2, 0, 1, 3, 4)[:0:-1], G.transpose(2, 0, 1, 3)[:0:-1]
        for da_ru, da_r, da_u, da_c, g_t, r, u in zip(DAt[:, :2], *DAt.swapaxes(0, 1), Gt,
                                                      steps[:0:-1, 0], steps[:0:-1, 1]):
            np.add(g_t, carry, out=dh)
            np.multiply(dh, da_u, out=da_u)
            np.multiply(dh, da_c, out=da_c)
            np.matmul(da_c, UcT, out=d_rh)
            np.multiply(d_rh, da_r, out=da_r)
            np.matmul(da_ru, UruT, out=du)
            np.subtract(1.0, u, out=carry)
            np.multiply(dh, carry, out=carry)
            np.multiply(d_rh, r, out=d_rh)
            np.add(carry, d_rh, out=carry)
            np.add(carry, du_r, out=carry)
            np.add(carry, du_u, out=carry)
        # day 0 starts from the constant zero state: no reset gate, no carry
        np.add(G[:, :, 0], carry, out=dh)
        np.multiply(dh, DA[1, :, 0], out=DA[1, :, 0])
        np.multiply(dh, DA[2, :, 0], out=DA[2, :, 0])
        flat_r, flat_u, flat_c = DA.reshape(3, T * B, H)
        X, hp_flat = X.reshape(T * B, d), hp.reshape(T * B, H)
        cotangents = [_group_outer(X, flat_r, copies), _group_outer(hp_flat, flat_r, copies),
                      _group_sum(flat_r, copies),
                      _group_outer(X, flat_u, copies), _group_outer(hp_flat, flat_u, copies),
                      _group_sum(flat_u, copies),
                      _group_outer(X, flat_c, copies)]
        np.multiply(rs, hp, out=DA[0])  # r*h, U_c's input, in da_r's spent slot
        return (*cotangents, _group_outer(flat_r, flat_c, copies), _group_sum(flat_c, copies))

    return _emit(hs.reshape(B * T, H), params, bptt)


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
    flat, ana = store.flat.reshape(-1), store.flat_grad.reshape(-1)  # views
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
