"""Oracle tests for the tensor core: op semantics, tape backward, grad checks.

Expected values are hand-derived or computed by independent numpy code in the
test body, never by the library under test.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from ratar import numcore as nc
from ratar.numcore import (_GRU_NAMES, DimensionError, NumericError, Tensor, _copies_of, _emit,
                           _group_matmul, _group_outer, _group_sum)


def leaf_store(**arrays):
    """Build a ParamStore holding the given named arrays."""
    return nc.ParamStore(arrays)


class TestTensor:
    def test_wraps_float64(self):
        t = nc.Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)

    def test_nan_rejected(self):
        with pytest.raises(nc.NumericError):
            nc.Tensor([1.0, np.nan])

    def test_inf_rejected(self):
        with pytest.raises(nc.NumericError):
            nc.Tensor([np.inf, 0.0])


class TestParamStore:
    def test_flat_packs_values_in_mapping_order(self):
        store = leaf_store(b=[[1.0, 2.0], [3.0, 4.0]], a=[5.0], c=6.0)
        assert store.names() == ["b", "a", "c"]
        np.testing.assert_array_equal(store.flat, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert store.value("b").shape == (2, 2) and store.value("c").shape == ()
        assert store.flat_grad.shape == store.flat.shape

    def test_named_views_alias_flat(self):
        store = leaf_store(a=[1.0, 2.0], b=np.ones((2, 2)))
        for name in store.names():
            assert np.shares_memory(store.value(name), store.flat)
            assert np.shares_memory(store.grad(name), store.flat_grad)
        store.flat[2] = 7.0
        assert store.value("b")[0, 0] == 7.0
        store.grad("a")[1] = 3.0
        assert store.flat_grad[1] == 3.0

    def test_constructor_copies_its_input(self):
        src = np.ones(2)
        store = leaf_store(w=src)
        store.flat[0] = 5.0
        assert src[0] == 1.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(nc.NumericError):
            leaf_store(w=[1.0, np.inf])

    def test_set_value_shows_in_flat_and_tape_leaf(self):
        store = leaf_store(a=[1.0], w=[1.0, 2.0])
        tape = nc.ComputeTape()
        leaf = tape.leaf(store, "w")
        store.set_value("w", [3.0, 4.0])
        np.testing.assert_array_equal(store.flat, [1.0, 3.0, 4.0])
        np.testing.assert_array_equal(leaf.data, [3.0, 4.0])

    def test_set_flat_writes_in_place(self):
        store = leaf_store(a=[1.0], w=[1.0, 2.0])
        flat, view = store.flat, store.value("w")
        store.set_flat([9.0, 8.0, 7.0])
        assert store.flat is flat and store.value("w") is view
        np.testing.assert_array_equal(view, [8.0, 7.0])

    def test_set_flat_checks_before_writing(self):
        store = leaf_store(a=[1.0], w=[1.0, 2.0])
        with pytest.raises(nc.NumericError):
            store.set_flat([0.0, 0.0, np.nan])
        with pytest.raises(nc.DimensionError):
            store.set_flat(np.zeros(2))
        np.testing.assert_array_equal(store.flat, [1.0, 1.0, 2.0])

    def test_backward_accumulates_into_flat_grad(self):
        store = leaf_store(a=[5.0], p=[3.0])
        tape = nc.ComputeTape()
        p = tape.leaf(store, "p")
        tape.backward(nc.mse_loss(oracles.mul(p, p), nc.Tensor([0.0])))
        np.testing.assert_array_equal(store.flat_grad, [0.0, 4.0 * 27.0])

    def test_grad_shape_matches_value(self):
        store = leaf_store(w=np.ones((3, 2)))
        assert store.grad("w").shape == (3, 2)
        assert np.all(store.grad("w") == 0.0)

    def test_zero_grad_resets(self):
        store = leaf_store(p=[3.0])
        tape = nc.ComputeTape()
        p = tape.leaf(store, "p")
        loss = nc.mse_loss(oracles.mul(p, p), nc.Tensor([0.0]))
        tape.backward(loss)
        assert store.grad("p")[0] != 0.0
        store.zero_grad()
        assert store.grad("p")[0] == 0.0

    def test_set_value_writes_in_place(self):
        store = leaf_store(w=np.ones(2))
        arr = store.value("w")
        store.set_value("w", [3.0, 4.0])
        assert store.value("w") is arr
        np.testing.assert_array_equal(arr, [3.0, 4.0])

    def test_set_value_checks_before_writing(self):
        store = leaf_store(w=np.ones(2))
        with pytest.raises(nc.NumericError):
            store.set_value("w", [np.nan, 0.0])
        with pytest.raises(nc.DimensionError):
            store.set_value("w", np.zeros(3))
        np.testing.assert_array_equal(store.value("w"), [1.0, 1.0])

    def test_untraced_bind_aliases_the_store(self):
        # pinned: neither an untraced bind nor a leaf copies the store's view
        store = leaf_store(a=[1.0], w=[1.0, 2.0])
        bound = nc.ComputeTape.bind(None, store, "w")
        leaf = nc.ComputeTape.bind(nc.ComputeTape(), store, "w")
        assert bound.tape is None and np.shares_memory(bound.data, store.flat)
        store.set_flat([0.0, 5.0, 6.0])
        np.testing.assert_array_equal(bound.data, [5.0, 6.0])
        np.testing.assert_array_equal(leaf.data, [5.0, 6.0])

    def test_copy_is_isolated(self):
        store = leaf_store(w=np.ones(2), v=[2.0])
        clone = store.copy()
        assert clone.names() == store.names()
        np.testing.assert_array_equal(clone.flat, store.flat)
        clone.value("w")[0] = 99.0
        clone.flat_grad[:] = 1.0
        assert store.value("w")[0] == 1.0
        assert not store.flat_grad.any()
        store.set_flat([5.0, 6.0, 7.0])
        np.testing.assert_array_equal(clone.flat, [99.0, 1.0, 2.0])


class TestMatmul:
    def test_identity(self):
        a = nc.Tensor(np.eye(2))
        b = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(nc.matmul(a, b).data, b.data)

    def test_hand_case(self):
        # [1,2] row times [3,4] column: 1*3 + 2*4 = 11
        out = nc.matmul(nc.Tensor([[1.0, 2.0]]), nc.Tensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(nc.DimensionError):
            nc.matmul(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((4, 2))))

    def test_associativity(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = nc.Tensor(rng.standard_normal((3, 4)))
            b = nc.Tensor(rng.standard_normal((4, 5)))
            c = nc.Tensor(rng.standard_normal((5, 2)))
            left = nc.matmul(nc.matmul(a, b), c).data
            right = nc.matmul(a, nc.matmul(b, c)).data
            np.testing.assert_allclose(left, right, atol=1e-10)

    def test_purity_bitwise(self):
        rng = np.random.default_rng(7)
        a = nc.Tensor(rng.standard_normal((4, 4)))
        b = nc.Tensor(rng.standard_normal((4, 4)))
        one = nc.matmul(a, b).data
        two = nc.matmul(a, b).data
        assert np.array_equal(one, two)


class TestSoftmax:
    def test_uniform_inputs(self):
        out = oracles.softmax(nc.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0))

    def test_closed_form(self):
        # e^{ln 1} : e^{ln 3} normalizes to 1/4 : 3/4
        out = oracles.softmax(nc.Tensor([np.log(1.0), np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_extreme_magnitudes_no_overflow(self):
        out = oracles.softmax(nc.Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[0], 1.0, atol=1e-12)

    def test_sum_to_one_random(self):
        rng = np.random.default_rng(0)
        for scale in (1.0, 1e3, 1e-3):
            for _ in range(200):
                v = rng.standard_normal(rng.integers(1, 12)) * scale
                out = oracles.softmax(nc.Tensor(v)).data
                assert abs(out.sum() - 1.0) < 1e-9
                assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_empty_rejected(self):
        with pytest.raises(nc.DimensionError):
            oracles.softmax(nc.Tensor(np.zeros(0)))

    def test_rows_variant_matches_loop(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 7))
        out = nc.softmax_rows(nc.Tensor(m)).data
        for i in range(5):
            np.testing.assert_allclose(out[i], oracles.softmax(nc.Tensor(m[i])).data)


class TestElementwise:
    def test_sigmoid_symmetry_point(self):
        np.testing.assert_allclose(oracles.sigmoid(nc.Tensor([0.0])).data, [0.5])

    def test_tanh_odd(self):
        np.testing.assert_allclose(nc.tanh(nc.Tensor([0.0])).data, [0.0])
        x = nc.Tensor([0.7])
        np.testing.assert_allclose(
            nc.tanh(x).data, -nc.tanh(nc.Tensor([-0.7])).data
        )

    def test_add(self):
        out = nc.add(nc.Tensor([1.0, 2.0]), nc.Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_scalar_broadcast(self):
        out = oracles.mul(nc.Tensor([[1.0, 2.0]]), nc.Tensor(3.0))
        np.testing.assert_array_equal(out.data, [[3.0, 6.0]])
        out = nc.add(nc.Tensor(1.0), nc.Tensor([[1.0], [2.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [3.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(nc.DimensionError):
            nc.add(nc.Tensor([1.0, 2.0]), nc.Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(nc.DimensionError):
            oracles.mul(nc.Tensor(np.ones((2, 2))), nc.Tensor(np.ones(2)))


class TestMseLoss:
    def test_identical_inputs(self):
        out = nc.mse_loss(nc.Tensor([1.0, 2.0]), nc.Tensor([1.0, 2.0]))
        assert float(out.data) == 0.0

    def test_definition(self):
        assert float(nc.mse_loss(nc.Tensor([0.0]), nc.Tensor([2.0])).data) == 4.0

    def test_hand_case(self):
        # ((1-2)^2 + (3-5)^2) / 2 = 2.5
        out = nc.mse_loss(nc.Tensor([1.0, 3.0]), nc.Tensor([2.0, 5.0]))
        np.testing.assert_allclose(float(out.data), 2.5)

    def test_length_mismatch(self):
        with pytest.raises(nc.DimensionError):
            nc.mse_loss(nc.Tensor([1.0]), nc.Tensor([1.0, 2.0]))


class TestStructuralOps:
    def test_add_bias(self):
        m = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = nc.add_bias(m, nc.Tensor([10.0, 20.0]))
        np.testing.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])

    def test_concat_cols(self):
        out = nc.concat_cols([nc.Tensor([[1.0], [2.0]]), nc.Tensor([[3.0, 4.0], [5.0, 6.0]])])
        np.testing.assert_array_equal(out.data, [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])

    def test_gather_rows(self):
        table = nc.Tensor([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        out = nc.gather_rows(table, np.array([2, 0, 2]))
        np.testing.assert_array_equal(out.data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])

    def test_pool_rows_hand_case(self):
        # two groups of two rows, explicit weighted sums
        stack = nc.Tensor([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [4.0, 0.0]])
        w = nc.Tensor([[0.25, 0.75], [0.5, 0.5]])
        out = nc.pool_rows(stack, w)
        np.testing.assert_allclose(out.data, [[0.25, 0.75], [3.0, 1.0]])

    def test_rowdot_groups_hand_case(self):
        stack = nc.Tensor([[1.0, 2.0], [3.0, 4.0], [1.0, 1.0], [0.0, 2.0]])
        ref = nc.Tensor([[1.0, 1.0], [2.0, 0.5]])
        out = nc.rowdot_groups(stack, ref)
        np.testing.assert_allclose(out.data, [[3.0, 7.0], [2.5, 1.0]])

    def test_reshape(self):
        m = nc.Tensor([[1.0, 2.0, 3.0, 4.0]])
        np.testing.assert_array_equal(nc.reshape(m, (2, 2)).data, [[1.0, 2.0], [3.0, 4.0]])


class TestBackward:
    def test_square_derivative(self):
        # loss = p^2 at p=3 has derivative 2p = 6
        store = leaf_store(p=[3.0])
        tape = nc.ComputeTape()
        p = tape.leaf(store, "p")
        loss = oracles.mul(p, p)  # size-1 tensor is an acceptable scalar loss
        tape.backward(loss)
        np.testing.assert_allclose(store.grad("p"), [6.0])

    def test_constant_loss_zero_grad(self):
        store = leaf_store(p=[3.0])
        tape = nc.ComputeTape()
        tape.leaf(store, "p")
        c = nc.Tensor([5.0])
        loss = nc.mse_loss(c, nc.Tensor([1.0]))
        tape.backward(loss)
        np.testing.assert_array_equal(store.grad("p"), [0.0])

    def test_accumulation_doubles(self):
        store = leaf_store(p=[3.0])
        tape = nc.ComputeTape()
        p = tape.leaf(store, "p")
        loss = oracles.mul(p, p)
        tape.backward(loss)
        once = store.grad("p").copy()
        tape.backward(loss)
        np.testing.assert_allclose(store.grad("p"), 2.0 * once)

    def test_non_scalar_loss_rejected(self):
        store = leaf_store(p=[1.0, 2.0])
        tape = nc.ComputeTape()
        p = tape.leaf(store, "p")
        with pytest.raises(nc.ContractError):
            tape.backward(oracles.mul(p, p))

    def test_reused_tensor_accumulates(self):
        # loss = mean((p + p - 0)^2) = 4 p^2, derivative 8p
        store = leaf_store(p=[1.5])
        tape = nc.ComputeTape()
        p = tape.leaf(store, "p")
        loss = nc.mse_loss(nc.add(p, p), nc.Tensor([0.0]))
        tape.backward(loss)
        np.testing.assert_allclose(store.grad("p"), [8.0 * 1.5 / 1.0])

    def test_untraced_ops_record_nothing(self):
        a = nc.Tensor([1.0, 2.0])
        out = oracles.mul(a, a)
        assert out.tape is None

    def test_one_record_per_op_with_a_cotangent_per_input(self):
        # x @ w with a constant x: one record, input nodes (None, w), and a
        # vjp returning both cotangents; backward drops the constant's
        store = leaf_store(w=[[1.0], [2.0]])
        tape = nc.ComputeTape()
        w = tape.leaf(store, "w")
        x = np.array([[3.0, 4.0]])
        out = nc.matmul(nc.Tensor(x), w)
        [(node, inputs, vjp)] = tape._records
        assert node == out.node and inputs == (None, w.node)
        g = np.array([[2.0]])
        dx, dw = vjp(g)
        np.testing.assert_array_equal(dx, g @ store.value("w").T)
        np.testing.assert_array_equal(dw, x.T @ g)
        tape.backward(nc.reshape(out, (1,)))
        np.testing.assert_array_equal(store.grad("w"), x.T)

    def test_gru_sequence_records_one_entry_for_nine_inputs(self):
        rng = np.random.default_rng(0)
        d, H = 2, 3
        store = leaf_store(**{name: rng.standard_normal(shape) for name, shape in zip(
            ("W_r", "U_r", "b_r", "W_u", "U_u", "b_u", "W_c", "U_c", "b_c"),
            ((d, H), (H, H), (H,)) * 3)})
        tape = nc.ComputeTape()
        params = [tape.leaf(store, name) for name in store.names()]
        nc.gru_sequence(rng.standard_normal((2, 4, d)), *params)
        [(_node, inputs, _vjp)] = tape._records
        assert inputs == tuple(p.node for p in params)

    def test_operands_of_two_tapes_rejected(self):
        store = leaf_store(p=[1.0])
        a = nc.ComputeTape().leaf(store, "p")
        b = nc.ComputeTape().leaf(store, "p")
        with pytest.raises(nc.ContractError):
            nc.add(a, b)


def fd_reference(f, store, eps=1e-5):
    """Independent central-difference gradient, plain numpy."""
    grads = {}
    for name in store.names():
        val = store.value(name)
        g = np.zeros_like(val)
        it = np.nditer(val, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = val[idx]
            val[idx] = orig + eps
            fp = float(f(None, store).data)
            val[idx] = orig - eps
            fm = float(f(None, store).data)
            val[idx] = orig
            g[idx] = (fp - fm) / (2.0 * eps)
            it.iternext()
        grads[name] = g
    return grads


def run_check(f, store, tol=1e-6):
    err = nc.grad_check(f, store, eps=1e-5)
    assert err < tol, f"grad_check relative error {err}"


class TestGradients:
    """Every op's backward rule against central finite differences."""

    def test_quadratic(self):
        store = leaf_store(p=np.array([1.0, -2.0, 0.5]))

        def f(tape, s):
            p = nc.ComputeTape.bind(tape, s, "p")
            return nc.mse_loss(oracles.mul(p, p), nc.Tensor([0.0, 0.0, 0.0]))

        run_check(f, store)

    def test_matmul_chain(self):
        rng = np.random.default_rng(1)
        store = leaf_store(a=rng.standard_normal((3, 4)), b=rng.standard_normal((4, 2)))

        def f(tape, s):
            a = nc.ComputeTape.bind(tape, s, "a")
            b = nc.ComputeTape.bind(tape, s, "b")
            out = nc.tanh(nc.matmul(a, b))
            return nc.mse_loss(nc.reshape(out, (6,)), nc.Tensor(np.zeros(6)))

        run_check(f, store)

    def test_add_sub_mul_scalar(self):
        rng = np.random.default_rng(2)
        store = leaf_store(a=rng.standard_normal(5), c=np.array(0.7))

        def f(tape, s):
            a = nc.ComputeTape.bind(tape, s, "a")
            c = nc.ComputeTape.bind(tape, s, "c")
            out = nc.add(oracles.mul(a, c), nc.add(a, c))
            return nc.mse_loss(out, nc.Tensor(np.zeros(5)))

        run_check(f, store)

    def test_add_bias(self):
        rng = np.random.default_rng(3)
        store = leaf_store(m=rng.standard_normal((4, 3)), b=rng.standard_normal(3))

        def f(tape, s):
            m = nc.ComputeTape.bind(tape, s, "m")
            b = nc.ComputeTape.bind(tape, s, "b")
            out = oracles.sigmoid(nc.add_bias(m, b))
            return nc.mse_loss(nc.reshape(out, (12,)), nc.Tensor(np.zeros(12)))

        run_check(f, store)

    def test_activations(self):
        store = leaf_store(x=np.array([-1.4, -0.3, 0.6, 2.1]))

        def f(tape, s):
            x = nc.ComputeTape.bind(tape, s, "x")
            out = nc.add(nc.tanh(x), oracles.sigmoid(x))
            return nc.mse_loss(out, nc.Tensor(np.zeros(4)))

        run_check(f, store)

    def test_softmax_vec(self):
        store = leaf_store(x=np.array([0.3, -1.2, 0.8, 0.1]))

        def f(tape, s):
            x = nc.ComputeTape.bind(tape, s, "x")
            return nc.mse_loss(oracles.softmax(x), nc.Tensor([0.4, 0.1, 0.3, 0.2]))

        run_check(f, store)

    def test_softmax_rows(self):
        rng = np.random.default_rng(4)
        store = leaf_store(x=rng.standard_normal((3, 4)))
        target = nc.Tensor(np.zeros(12))

        def f(tape, s):
            x = nc.ComputeTape.bind(tape, s, "x")
            return nc.mse_loss(nc.reshape(nc.softmax_rows(x), (12,)), target)

        run_check(f, store)

    def test_concat_slice(self):
        rng = np.random.default_rng(5)
        store = leaf_store(a=rng.standard_normal((2, 2)), b=rng.standard_normal((2, 3)))

        def f(tape, s):
            a = nc.ComputeTape.bind(tape, s, "a")
            b = nc.ComputeTape.bind(tape, s, "b")
            cat = nc.concat_cols([a, b])
            return nc.mse_loss(nc.reshape(cat, (10,)), nc.Tensor(np.arange(10.0)))

        run_check(f, store)

    def test_gather_rows(self):
        rng = np.random.default_rng(6)
        store = leaf_store(table=rng.standard_normal((4, 3)))
        idx = np.array([0, 2, 2, 1])

        def f(tape, s):
            table = nc.ComputeTape.bind(tape, s, "table")
            rows = nc.gather_rows(table, idx)
            return nc.mse_loss(nc.reshape(rows, (12,)), nc.Tensor(np.zeros(12)))

        run_check(f, store)

    def test_pool_rows(self):
        rng = np.random.default_rng(7)
        store = leaf_store(
            stack=rng.standard_normal((6, 3)), w=rng.standard_normal((2, 3))
        )

        def f(tape, s):
            stack = nc.ComputeTape.bind(tape, s, "stack")
            w = nc.ComputeTape.bind(tape, s, "w")
            out = nc.pool_rows(stack, w)
            return nc.mse_loss(nc.reshape(out, (6,)), nc.Tensor(np.zeros(6)))

        run_check(f, store)

    def test_rowdot_groups(self):
        rng = np.random.default_rng(8)
        store = leaf_store(
            stack=rng.standard_normal((6, 4)), ref=rng.standard_normal((2, 4))
        )

        def f(tape, s):
            stack = nc.ComputeTape.bind(tape, s, "stack")
            ref = nc.ComputeTape.bind(tape, s, "ref")
            out = nc.rowdot_groups(stack, ref)
            return nc.mse_loss(nc.reshape(out, (6,)), nc.Tensor(np.zeros(6)))

        run_check(f, store)

    def test_grad_check_agrees_with_reference(self):
        rng = np.random.default_rng(9)
        store = leaf_store(w=rng.standard_normal((3, 3)), b=rng.standard_normal(3))
        x = nc.Tensor(rng.standard_normal((5, 3)))
        y = nc.Tensor(np.zeros(5))

        def f(tape, s):
            w = nc.ComputeTape.bind(tape, s, "w")
            b = nc.ComputeTape.bind(tape, s, "b")
            h = nc.tanh(nc.add_bias(nc.matmul(x, w), b))
            pred = nc.reshape(nc.pool_rows(h, nc.Tensor(np.full((1, 5), 0.2))), (3,))
            return nc.mse_loss(pred, nc.Tensor(np.zeros(3)))

        # analytic grads via backward
        store.zero_grad()
        tape = nc.ComputeTape()
        tape.backward(f(tape, store))
        ref = fd_reference(f, store)
        for name in store.names():
            np.testing.assert_allclose(store.grad(name), ref[name], atol=1e-7)
        assert f(None, store) is not None  # still evaluable untraced
        assert y.data.shape == (5,)

    def test_grad_check_reports_max_error(self):
        store = leaf_store(p=np.array([2.0]))

        def f(tape, s):
            p = nc.ComputeTape.bind(tape, s, "p")
            return nc.mse_loss(oracles.mul(p, p), nc.Tensor([0.0]))

        err = nc.grad_check(f, store, eps=1e-5)
        assert 0.0 <= err < 1e-6


class TestModelAxis:
    """K stacked copies in one op equal K separate ops, one per row group."""

    K = 3

    @staticmethod
    def stacked(rng, shapes, K=3):
        """(stacked store, per-copy plain stores) with random values."""
        plain = [nc.ParamStore({n: rng.standard_normal(shape) for n, shape in shapes.items()})
                 for _ in range(K)]
        stacked = nc.ParamStore({n: np.stack([st.value(n) for st in plain]) for n in shapes},
                                copies=K)
        return stacked, plain

    def test_store_views_carry_the_model_axis(self):
        store = leaf_store(a=np.arange(3.0), b=np.ones((2, 2)))
        stack = store.stack(2)
        assert stack.copies == 2 and store.copies is None
        assert stack.flat.shape == (2, 7) and stack.value("b").shape == (2, 2, 2)
        stack.value("b")[1, 0, 0] = 9.0
        assert stack.flat[1, 3] == 9.0 and store.value("b")[0, 0] == 1.0
        stack.grad("a")[0] += 1.0
        assert stack.flat_grad[0, :3].tolist() == [1.0, 1.0, 1.0]
        member = oracles.store_member(stack, 1)
        assert member.copies is None and member.value("b")[0, 0] == 9.0
        member.set_value("a", np.zeros(3))
        assert stack.value("a")[1].tolist() == [0.0, 1.0, 2.0]
        assert stack.copy().copies == 2

    def test_store_rejects_missing_model_axis(self):
        with pytest.raises(nc.DimensionError):
            nc.ParamStore({"a": np.zeros((2, 3)), "b": np.zeros((3,))}, copies=2)
        with pytest.raises(nc.ContractError):
            leaf_store(a=np.zeros(2)).stack(2).stack(2)

    def test_ops_match_per_copy_ops(self):
        rng = np.random.default_rng(20)
        stacked, plain = self.stacked(rng, {"W": (4, 2), "b": (2,), "table": (5, 3)})
        x = rng.standard_normal((self.K * 6, 4))
        idx = rng.integers(0, 5, size=4)
        bound = {n: nc.Tensor(stacked.value(n)) for n in stacked.names()}
        out = nc.add_bias(nc.matmul(nc.Tensor(x), bound["W"]), bound["b"]).data
        rows = nc.gather_rows(bound["table"],
                              np.concatenate([idx + 5 * k for k in range(self.K)])).data
        for k, st in enumerate(plain):
            want = nc.add_bias(nc.matmul(nc.Tensor(x[6 * k:6 * (k + 1)]),
                                         nc.Tensor(st.value("W"))),
                               nc.Tensor(st.value("b"))).data
            np.testing.assert_allclose(out[6 * k:6 * (k + 1)], want, rtol=1e-15, atol=0)
            np.testing.assert_array_equal(rows[4 * k:4 * (k + 1)], st.value("table")[idx])

    def test_rows_must_split_into_groups(self):
        W = nc.Tensor(np.zeros((3, 4, 2)))
        with pytest.raises(nc.DimensionError):
            nc.matmul(nc.Tensor(np.zeros((5, 4))), W)
        with pytest.raises(nc.DimensionError):
            nc.add_bias(nc.Tensor(np.zeros((5, 2))), nc.Tensor(np.zeros((3, 2))))

    def test_gru_sequence_matches_per_copy(self):
        rng = np.random.default_rng(21)
        d, H, T, Bk = 3, 4, 5, 2
        shapes = dict(zip(nc._GRU_NAMES, ((d, H), (H, H), (H,)) * 3))
        stacked, plain = self.stacked(rng, shapes)
        xs = rng.standard_normal((self.K * Bk, T, d))
        g = rng.standard_normal((self.K * Bk * T, H))
        tape = nc.ComputeTape()
        out = nc.gru_sequence(xs, *(tape.leaf(stacked, n) for n in nc._GRU_NAMES))
        stacked.zero_grad()
        tape.backward(nc.mse_loss(nc.reshape(out, (out.data.size,)), nc.Tensor(g.ravel())))
        for k, st in enumerate(plain):
            tape = nc.ComputeTape()
            solo = nc.gru_sequence(xs[Bk * k:Bk * (k + 1)],
                                   *(tape.leaf(st, n) for n in nc._GRU_NAMES))
            np.testing.assert_allclose(out.data[Bk * T * k:Bk * T * (k + 1)], solo.data,
                                       rtol=1e-14, atol=0)
            st.zero_grad()
            rows = g[Bk * T * k:Bk * T * (k + 1)].ravel()
            loss = nc.mse_loss(nc.reshape(solo, (rows.size,)), nc.Tensor(rows))
            tape.backward(loss)
            # the stacked loss averages over all K groups, the solo one over one
            np.testing.assert_allclose(stacked.flat_grad[k] * self.K, st.flat_grad,
                                       rtol=1e-12, atol=1e-15)

    def test_grouped_mse_is_a_sum_of_group_means(self):
        pred = nc.Tensor(np.array([1.0, 2.0, 7.0, 3.0, 0.0, 5.0]))
        target = nc.Tensor(np.zeros(6))
        loss = nc.mse_loss(pred, target, counts=[2, 1])  # rows 2, 4 and 5 are padding
        assert float(loss.data) == (1.0 + 4.0) / 2 + 9.0
        with pytest.raises(nc.DimensionError):
            nc.mse_loss(pred, target, counts=[4, 1])

    def test_grad_check_on_a_stacked_store(self):
        rng = np.random.default_rng(22)
        stacked, _ = self.stacked(rng, {"W": (3, 2), "b": (2,), "table": (4, 3)}, K=2)
        x = nc.Tensor(rng.standard_normal((6, 3)))
        idx = np.array([0, 3, 1, 4, 7, 6])  # rows of both copies' tables

        def f(tape, s):
            W, b, table = (nc.ComputeTape.bind(tape, s, n) for n in ("W", "b", "table"))
            h = nc.add(x, nc.gather_rows(table, idx))
            out = nc.tanh(nc.add_bias(nc.matmul(h, W), b))
            return nc.mse_loss(nc.reshape(out, (12,)), nc.Tensor(np.zeros(12)),
                               counts=[5, 4])

        run_check(f, stacked)


# ---------------------------------------------------------------------------
# the batched GRU kernel against the per-day kernel it replaced


def reference_gru_sequence(xs, W_r, U_r, b_r, W_u, U_u, b_u, W_c, U_c, b_c) -> Tensor:
    """The per-day GRU kernel that nc.gru_sequence replaced, kept verbatim.

    Each day makes its own gate products and temporaries; the bitwise
    oracle tests below require the batched kernel to reproduce its states
    and cotangents bit for bit.
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
    if not np.all(np.isfinite(xs)):
        raise NumericError("non-finite values in tensor")
    Wr, Ur, br, Wu, Uu, bu, Wc, Uc, bc = (p.data for p in params)
    if copies is not None:  # each copy's bias repeated over its group's rows
        br, bu, bc = (np.repeat(b, B // copies, axis=0) for b in (br, bu, bc))
    mm = _group_matmul
    # Products stay per step and per gate, in the shapes of the unfused ops:
    # BLAS may sum in another order for one GEMM over all days or gates, and
    # these shapes keep the states bitwise those of the op-by-op recurrence.
    groups = copies or 1
    grouped = (groups, B // groups, H)  # a step's [B x H] rows, copy by copy
    pre = np.zeros((3, B, H))  # the step's gate pre-activations r, u, c
    gates = np.zeros((T, 3, B, H))  # r, u, c per step; r is unused on the first
    hs = np.zeros((B, T, H))  # hs[:, t] is the state after day t
    with np.errstate(over="ignore"):  # sigmoid: exp overflow saturates to 0
        for t in range(T):
            x = xs[:, t, :]
            a_r, a_u, a_c = pre
            r, u, c = gates[t]
            if t == 0:
                np.divide(1.0, 1.0 + np.exp(-np.add(mm(x, Wu), bu, out=a_u)), out=u)
                np.tanh(np.add(mm(x, Wc), bc, out=a_c), out=c)
                np.multiply(u, c, out=hs[:, 0])
            else:
                h = hs[:, t - 1]
                np.divide(1.0, 1.0 + np.exp(-np.add(mm(x, Wr) + mm(h, Ur), br, out=a_r)), out=r)
                np.divide(1.0, 1.0 + np.exp(-np.add(mm(x, Wu) + mm(h, Uu), bu, out=a_u)), out=u)
                np.tanh(np.add(mm(x, Wc) + mm(r * h, Uc), bc, out=a_c), out=c)
                np.add((1.0 - u) * h, u * c, out=hs[:, t])
            if not np.isfinite(pre).all():
                raise NumericError("non-finite values in tensor")

    def by_copy(a):  # [T, B, n] -> [T*B x n], rows (k, t, b): copy by copy, day-major
        n = a.shape[-1]
        return a.reshape(T, groups, B // groups, n).swapaxes(0, 1).reshape(T * B, n)

    def bptt(g):
        G = g.reshape(B, T, H)
        UrT, UuT, UcT = (m.swapaxes(-1, -2) for m in (Ur, Uu, Uc))
        # da_r, da_u, da_c, each laid out as by_copy lays out its rows
        DA = np.zeros((3, groups, T) + grouped[1:])
        carry = 0.0
        for t in range(T - 1, -1, -1):
            h = hs[:, t - 1] if t else 0.0  # the state entering the step
            r, u, c = gates[t]
            dh = G[:, t, :] + carry
            da_u = dh * ((c - h) * u * (1.0 - u))
            da_c = dh * (u * (1.0 - c * c))
            DA[1, :, t] = da_u.reshape(grouped)
            DA[2, :, t] = da_c.reshape(grouped)
            if t:  # the first step starts from the constant zero state
                d_rh = mm(da_c, UcT)
                da_r = d_rh * (h * r * (1.0 - r))
                DA[0, :, t] = da_r.reshape(grouped)
                carry = dh * (1.0 - u) + d_rh * r + mm(da_r, UrT) + mm(da_u, UuT)
        X = by_copy(xs.transpose(1, 0, 2))
        hp = np.zeros((groups, T) + grouped[1:])  # states entering each step, by_copy rows
        hp[:, 1:] = hs[:, :-1].reshape(groups, B // groups, T - 1, H).swapaxes(1, 2)
        hp = hp.reshape(T * B, H)
        rhp = by_copy(gates[:, 0])  # a copy: gates interleaves r with u and c
        rhp *= hp
        flat_r, flat_u, flat_c = DA.reshape(3, T * B, H)
        return (_group_outer(X, flat_r, copies), _group_outer(hp, flat_r, copies),
                _group_sum(flat_r, copies),
                _group_outer(X, flat_u, copies), _group_outer(hp, flat_u, copies),
                _group_sum(flat_u, copies),
                _group_outer(X, flat_c, copies), _group_outer(rhp, flat_c, copies),
                _group_sum(flat_c, copies))

    return _emit(hs.reshape(B * T, H), params, bptt)


def gru_values(rng, d, H, copies=None, scale=0.5):
    lead = () if copies is None else (copies,)
    return {n: rng.standard_normal(lead + shape) * scale
            for n, shape in zip(nc._GRU_NAMES, ((d, H), (H, H), (H,)) * 3)}


def run_kernel(kernel, xs, store, g):
    """(states, the nine cotangents) of one traced kernel call and its vjp."""
    tape = nc.ComputeTape()
    out = kernel(xs, *(tape.leaf(store, n) for n in nc._GRU_NAMES))
    [(_node, _inputs, vjp)] = tape._records
    return out.data, vjp(g)


def bits(a):
    return [v.hex() for v in np.asarray(a, dtype=np.float64).ravel().tolist()]


def assert_bit_equal(got, want):
    (states, cots), (ref_states, ref_cots) = got, want
    assert bits(states) == bits(ref_states)
    assert len(cots) == len(ref_cots) == 9
    for name, a, b in zip(nc._GRU_NAMES, cots, ref_cots):
        assert a.shape == b.shape, name
        assert bits(a) == bits(b), name


def scratch_buffers():
    return list(nc._SCRATCH.get()._buffers.values())


class TestGruKernelOracle:
    """nc.gru_sequence keeps every bit of reference_gru_sequence."""

    # (B, T, d, H, copies).  Not B/K = 1 with H = 1 beyond T = 2: there the
    # reference's r*h buffer is a strided view of its gates (see
    # test_bptt_twice_returns_the_same_cotangents), so its U_c cotangent is
    # a strided dot product whose last bit can differ.
    GRID = [
        (1, 1, 1, 1, None), (1, 2, 1, 1, None), (1, 2, 3, 1, None), (1, 7, 1, 4, None),
        (2, 1, 1, 3, None), (3, 2, 4, 1, None), (5, 9, 2, 5, None), (64, 40, 12, 16, None),
        (257, 6, 8, 8, None), (3000, 4, 8, 8, None),
        (4, 5, 3, 4, 1), (5, 8, 2, 3, 5), (10, 6, 4, 5, 5), (30, 4, 3, 8, 10),
        (120, 12, 12, 16, 10),
    ]

    @pytest.mark.parametrize("B,T,d,H,copies", GRID)
    def test_states_and_cotangents_bit_equal(self, B, T, d, H, copies):
        rng = np.random.default_rng([B, T, d, H, copies or 0])
        store = nc.ParamStore(gru_values(rng, d, H, copies), copies=copies)
        xs = rng.standard_normal((B, T, d))
        g = rng.standard_normal((B * T, H))
        assert_bit_equal(run_kernel(nc.gru_sequence, xs, store, g),
                         run_kernel(reference_gru_sequence, xs, store, g))

    def test_saturated_gates_bit_equal(self):
        # pre-activations far beyond the range where exp(-a) overflows
        rng = np.random.default_rng(30)
        store = nc.ParamStore(gru_values(rng, 6, 8, scale=300.0))
        xs = rng.standard_normal((40, 10, 6))
        g = rng.standard_normal((400, 8))
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(-(xs @ store.value("W_u")))).any()
        assert_bit_equal(run_kernel(nc.gru_sequence, xs, store, g),
                         run_kernel(reference_gru_sequence, xs, store, g))

    # d = 2, H = 4; every other weight is 0.1 and the inputs x are constant
    OVERFLOWS = {
        "x@W_u on day 0": (dict(W_u=np.full((2, 4), 1e308)), 2.0),
        "x@W_c to NaN": (dict(W_c=np.array([[1e308] * 4, [-1e308] * 4])), 2.0),
        "x@W_r meets h@U_r": (dict(W_r=np.full((2, 4), 1e308), U_r=np.full((4, 4), -1.5e308),
                                   b_u=np.full(4, 5.0), b_c=np.full(4, 5.0)), 2.0),
    }
    RECURRENT = {  # x@W finite; h near 1 from day 0 on, so h@U overflows
        "h@U_r": dict(U_r=np.full((4, 4), 1.5e308)),
        "h@U_u to NaN": dict(U_u=np.array([[1.5e308] * 4] * 2 + [[-1.5e308] * 4] * 2)),
    }

    @staticmethod
    def overflow_case(overrides, x):
        """(xs [3, 5, 2] filled with x, a store of 0.1 weights with overrides)."""
        values = {n: np.full(shape, 0.1)
                  for n, shape in zip(nc._GRU_NAMES, ((2, 4), (4, 4), (4,)) * 3)}
        values.update(overrides)
        return np.full((3, 5, 2), x), nc.ParamStore(values)

    @staticmethod
    def bound(store):
        return [nc.Tensor(store.value(n)) for n in nc._GRU_NAMES]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(OVERFLOWS))
    def test_input_overflow_raises_without_warning(self, case):
        xs, store = self.overflow_case(*self.OVERFLOWS[case])
        with pytest.raises(nc.NumericError):
            nc.gru_sequence(xs, *self.bound(store))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the reference warns on inf - inf
            with pytest.raises(nc.NumericError):
                reference_gru_sequence(xs, *self.bound(store))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(RECURRENT))
    def test_recurrent_overflow_raises_without_warning(self, case):
        overrides = dict(self.RECURRENT[case], b_u=np.full(4, 5.0), b_c=np.full(4, 5.0))
        xs, store = self.overflow_case(overrides, 1.0)
        nc.gru_sequence(xs[:, :1], *self.bound(store))  # one day: no recurrent term
        with pytest.raises(nc.NumericError):
            nc.gru_sequence(xs, *self.bound(store))
        with pytest.raises(nc.NumericError):
            reference_gru_sequence(xs, *self.bound(store))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_first_day_reset_gate_is_unused(self):
        # x@W_r overflows on day 0 only, where r does not enter the state
        xs, store = self.overflow_case(dict(W_r=np.full((2, 4), 1e308)), 1e-10)
        xs[:, 0] = 2.0
        g = np.random.default_rng(35).standard_normal((3 * 5, 4))
        assert_bit_equal(run_kernel(nc.gru_sequence, xs, store, g),
                         run_kernel(reference_gru_sequence, xs, store, g))

    def test_two_ops_on_one_tape(self):
        rng = np.random.default_rng(32)
        d, H = 3, 5
        values = gru_values(rng, d, H)
        # backward meets the larger op first, so the smaller one reuses its buffers
        xs_small, xs_large = rng.standard_normal((4, 3, d)), rng.standard_normal((6, 9, d))
        targets = [rng.standard_normal(4 * 3 * H), rng.standard_normal(6 * 9 * H)]
        gs = [rng.standard_normal((y.size // H, H)) for y in targets]
        grads, cotangents, buffers = {}, {}, {}
        for kernel in (nc.gru_sequence, reference_gru_sequence):
            store = nc.ParamStore(values)
            tape = nc.ComputeTape()
            bound = [tape.leaf(store, n) for n in nc._GRU_NAMES]
            outs = [kernel(xs, *bound) for xs in (xs_small, xs_large)]
            loss = nc.add(*(nc.mse_loss(nc.reshape(out, (y.size,)), nc.Tensor(y))
                            for out, y in zip(outs, targets)))
            with nc._reused_scratch():
                tape.backward(loss)
                cotangents[kernel] = [vjp(g) for (_, _, vjp), g in
                                      zip(reversed(tape._records[:2]), reversed(gs))]
                buffers[kernel] = scratch_buffers()
            grads[kernel] = store.flat_grad.copy()
        assert bits(grads[nc.gru_sequence]) == bits(grads[reference_gru_sequence])
        scratch = buffers[nc.gru_sequence]
        assert scratch and not buffers[reference_gru_sequence]
        for new, ref in zip(cotangents[nc.gru_sequence], cotangents[reference_gru_sequence]):
            assert [bits(c) for c in new] == [bits(c) for c in ref]
            assert not any(np.shares_memory(c, buf) for c in new for buf in scratch)

    @pytest.mark.parametrize("B,T,d,H,copies", [(1, 5, 2, 1, None), (6, 8, 3, 4, None),
                                                (6, 4, 2, 3, 3)])
    def test_bptt_twice_returns_the_same_cotangents(self, B, T, d, H, copies):
        # At B/K = 1 and H = 1 the reference fails this: reshaping its gates'
        # r slice to rows is a view, and its in-place r*h overwrites r.
        rng = np.random.default_rng(33)
        store = nc.ParamStore(gru_values(rng, d, H, copies), copies=copies)
        tape = nc.ComputeTape()
        nc.gru_sequence(rng.standard_normal((B, T, d)),
                        *(tape.leaf(store, n) for n in nc._GRU_NAMES))
        [(_node, _inputs, vjp)] = tape._records
        g = rng.standard_normal((B * T, H))
        with nc._reused_scratch():
            first = vjp(g)
            first_bits = [bits(c) for c in first]
            second = vjp(g)
            buffers = scratch_buffers()
        assert [bits(c) for c in second] == first_bits
        assert [bits(c) for c in first] == first_bits  # the second call wrote none of them
        assert [bits(c) for c in vjp(g)] == first_bits  # nor does a one-off scratch differ
        assert not any(np.shares_memory(c, buf) for c in first + second for buf in buffers)
        assert not any(np.shares_memory(a, b) for a in first for b in second)

    def test_scratch_ends_with_its_block(self):
        assert nc._SCRATCH.get() is None
        with nc._reused_scratch():
            assert nc._SCRATCH.get() is not None
        assert nc._SCRATCH.get() is None

    def test_peak_memory_no_higher_than_reference(self):
        rng = np.random.default_rng(34)
        B, T, d, H = 64, 40, 12, 16
        values = gru_values(rng, d, H)
        xs = rng.standard_normal((B, T, d))
        target = nc.Tensor(rng.standard_normal(B * T * H))
        peaks = {}
        tracing = tracemalloc.is_tracing()
        for kernel in (reference_gru_sequence, nc.gru_sequence):
            store = nc.ParamStore(values)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                tape = nc.ComputeTape()
                out = kernel(xs, *(tape.leaf(store, n) for n in nc._GRU_NAMES))
                tape.backward(nc.mse_loss(nc.reshape(out, (B * T * H,)), target))
                peaks[kernel] = tracemalloc.get_traced_memory()[1] - base
                del tape, out
            finally:
                if not tracing:
                    tracemalloc.stop()
        assert peaks[nc.gru_sequence] <= peaks[reference_gru_sequence]


def add_at_scatter(shape, idx, g):
    """gather_rows' table cotangent as it was computed before: `np.add.at`
    into a zero table's row stack."""
    full = np.zeros((int(np.prod(shape[:-1])), shape[-1]))
    np.add.at(full, idx, g)
    return full.reshape(shape)


class TestGatherRowsScatter:
    """The `np.bincount` scatter-add has the bits of `np.add.at`."""

    def scatter(self, table, idx, g):
        tape = nc.ComputeTape()
        nc.gather_rows(tape.leaf(leaf_store(table=table), "table"), idx)
        [(_node, _inputs, vjp)] = tape._records
        (cot,) = vjp(g)
        assert cot.shape == table.shape
        return cot

    def check(self, table, idx, g):
        assert bits(self.scatter(table, idx, g)) == bits(add_at_scatter(table.shape, idx, g))

    def test_repeated_indices_and_signed_zeros(self):
        idx = np.array([4, 0, 4, 4, 2, 0, 2])
        g = np.array([[1e16, -0.0, 3.0], [-0.0, -0.0, 0.5], [1.0, -0.0, -3.0],
                      [-1e16, -0.0, 1e-17], [-0.0, 2.0, -0.0], [0.25, -0.0, -0.5],
                      [-0.0, -2.0, -0.0]])
        self.check(np.zeros((5, 3)), idx, g)
        cot = self.scatter(np.zeros((5, 3)), idx, g)
        assert bits(cot[[1, 3]]) == bits(np.zeros((2, 3)))  # rows never gathered
        assert bits(cot[0]) == bits([0.25, 0.0, 0.0])  # -0.0 alone sums to 0.0 from 0.0

    def test_stacked_tables(self):
        rng = np.random.default_rng(11)
        table = rng.standard_normal((3, 4, 2))
        idx = rng.integers(0, 12, size=40)
        g = rng.standard_normal((40, 2)) * 10.0 ** rng.integers(-8, 9, size=(40, 2))
        g[rng.random((40, 2)) < 0.2] = -0.0
        self.check(table, idx, g)

    def test_wide_random_batches(self):
        rng = np.random.default_rng(12)
        for rows, n, size in ((300, 8, 1536), (7, 1, 50), (40, 5, 0)):
            idx = rng.integers(0, rows, size=size)
            g = rng.standard_normal((size, n)) * 10.0 ** rng.integers(-12, 13, size=(size, n))
            self.check(rng.standard_normal((rows, n)), idx, g)
