"""Oracle tests for the tensor core: op semantics, tape backward, grad checks.

Expected values are hand-derived or computed by independent numpy code in the
test body, never by the library under test.
"""

import numpy as np
import pytest

from ratar import numcore as nc


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
        tape.backward(nc.mse_loss(nc.mul(p, p), nc.Tensor([0.0])))
        np.testing.assert_array_equal(store.flat_grad, [0.0, 4.0 * 27.0])

    def test_grad_shape_matches_value(self):
        store = leaf_store(w=np.ones((3, 2)))
        assert store.grad("w").shape == (3, 2)
        assert np.all(store.grad("w") == 0.0)

    def test_zero_grad_resets(self):
        store = leaf_store(p=[3.0])
        tape = nc.ComputeTape()
        p = tape.leaf(store, "p")
        loss = nc.mse_loss(nc.mul(p, p), nc.Tensor([0.0]))
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
        out = nc.softmax(nc.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0))

    def test_closed_form(self):
        # e^{ln 1} : e^{ln 3} normalizes to 1/4 : 3/4
        out = nc.softmax(nc.Tensor([np.log(1.0), np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_extreme_magnitudes_no_overflow(self):
        out = nc.softmax(nc.Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[0], 1.0, atol=1e-12)

    def test_sum_to_one_random(self):
        rng = np.random.default_rng(0)
        for scale in (1.0, 1e3, 1e-3):
            for _ in range(200):
                v = rng.standard_normal(rng.integers(1, 12)) * scale
                out = nc.softmax(nc.Tensor(v)).data
                assert abs(out.sum() - 1.0) < 1e-9
                assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_empty_rejected(self):
        with pytest.raises(nc.DimensionError):
            nc.softmax(nc.Tensor(np.zeros(0)))

    def test_rows_variant_matches_loop(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 7))
        out = nc.softmax_rows(nc.Tensor(m)).data
        for i in range(5):
            np.testing.assert_allclose(out[i], nc.softmax(nc.Tensor(m[i])).data)


class TestElementwise:
    def test_sigmoid_symmetry_point(self):
        np.testing.assert_allclose(nc.sigmoid(nc.Tensor([0.0])).data, [0.5])

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
        out = nc.mul(nc.Tensor([[1.0, 2.0]]), nc.Tensor(3.0))
        np.testing.assert_array_equal(out.data, [[3.0, 6.0]])
        out = nc.add(nc.Tensor(1.0), nc.Tensor([[1.0], [2.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [3.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(nc.DimensionError):
            nc.add(nc.Tensor([1.0, 2.0]), nc.Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(nc.DimensionError):
            nc.mul(nc.Tensor(np.ones((2, 2))), nc.Tensor(np.ones(2)))


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
        loss = nc.mul(p, p)  # size-1 tensor is an acceptable scalar loss
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
        loss = nc.mul(p, p)
        tape.backward(loss)
        once = store.grad("p").copy()
        tape.backward(loss)
        np.testing.assert_allclose(store.grad("p"), 2.0 * once)

    def test_non_scalar_loss_rejected(self):
        store = leaf_store(p=[1.0, 2.0])
        tape = nc.ComputeTape()
        p = tape.leaf(store, "p")
        with pytest.raises(nc.ContractError):
            tape.backward(nc.mul(p, p))

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
        out = nc.mul(a, a)
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
            return nc.mse_loss(nc.mul(p, p), nc.Tensor([0.0, 0.0, 0.0]))

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
            out = nc.add(nc.mul(a, c), nc.add(a, c))
            return nc.mse_loss(out, nc.Tensor(np.zeros(5)))

        run_check(f, store)

    def test_add_bias(self):
        rng = np.random.default_rng(3)
        store = leaf_store(m=rng.standard_normal((4, 3)), b=rng.standard_normal(3))

        def f(tape, s):
            m = nc.ComputeTape.bind(tape, s, "m")
            b = nc.ComputeTape.bind(tape, s, "b")
            out = nc.sigmoid(nc.add_bias(m, b))
            return nc.mse_loss(nc.reshape(out, (12,)), nc.Tensor(np.zeros(12)))

        run_check(f, store)

    def test_activations(self):
        store = leaf_store(x=np.array([-1.4, -0.3, 0.6, 2.1]))

        def f(tape, s):
            x = nc.ComputeTape.bind(tape, s, "x")
            out = nc.add(nc.tanh(x), nc.sigmoid(x))
            return nc.mse_loss(out, nc.Tensor(np.zeros(4)))

        run_check(f, store)

    def test_softmax_vec(self):
        store = leaf_store(x=np.array([0.3, -1.2, 0.8, 0.1]))

        def f(tape, s):
            x = nc.ComputeTape.bind(tape, s, "x")
            return nc.mse_loss(nc.softmax(x), nc.Tensor([0.4, 0.1, 0.3, 0.2]))

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
            return nc.mse_loss(nc.mul(p, p), nc.Tensor([0.0]))

        err = nc.grad_check(f, store, eps=1e-5)
        assert 0.0 <= err < 1e-6
