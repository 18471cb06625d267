"""Finite-difference validation of every autodiff primitive."""

import numpy as np
import pytest

from gclab import autodiff as ad

FD_EPS = 1e-5
FD_RTOL = 1e-4


def finite_difference(f, arrays, index):
    """Central-difference gradient of scalar f w.r.t. arrays[index]."""
    base = [np.array(a, dtype=float) for a in arrays]
    grad = np.zeros_like(base[index])
    flat = grad.reshape(-1)
    target = base[index].reshape(-1)
    for i in range(flat.size):
        orig = target[i]
        target[i] = orig + FD_EPS
        hi = f(*base)
        target[i] = orig - FD_EPS
        lo = f(*base)
        target[i] = orig
        flat[i] = (hi - lo) / (2 * FD_EPS)
    return grad


def check_grads(build, arrays):
    """Compare backward grads of a scalar-valued graph against differences."""
    variables = [ad.Var(a) for a in arrays]
    loss = build(*variables)
    ad.backward(loss)

    def f(*values):
        return float(build(*[ad.Var(v) for v in values]).value)

    for idx, var in enumerate(variables):
        fd = finite_difference(f, arrays, idx)
        got = var.grad if var.grad is not None else np.zeros_like(fd)
        scale = max(np.max(np.abs(fd)), 1.0)
        assert np.max(np.abs(got - fd)) / scale <= FD_RTOL, f"input {idx}"


RNG = np.random.default_rng(20240)


class TestPrimitiveGradients:
    def test_matmul_matrix_matrix(self):
        a, b = RNG.standard_normal((4, 3)), RNG.standard_normal((3, 5))
        t = RNG.standard_normal((4, 5))
        check_grads(lambda x, y: ad.mse(ad.matmul(x, y), t), [a, b])

    def test_matmul_matrix_vector(self):
        a, b = RNG.standard_normal((4, 3)), RNG.standard_normal(3)
        t = RNG.standard_normal(4)
        check_grads(lambda x, y: ad.mse(ad.matmul(x, y), t), [a, b])

    def test_matmul_vector_matrix(self):
        a, b = RNG.standard_normal(4), RNG.standard_normal((4, 3))
        t = RNG.standard_normal(3)
        check_grads(lambda x, y: ad.mse(ad.matmul(x, y), t), [a, b])

    def test_add_with_broadcast(self):
        a, b = RNG.standard_normal((3, 4)), RNG.standard_normal(4)
        t = RNG.standard_normal((3, 4))
        check_grads(lambda x, y: ad.mse(ad.add(x, y), t), [a, b])

    def test_mul_with_broadcast(self):
        a, b = RNG.standard_normal((5, 3)), RNG.standard_normal((5, 1))
        t = RNG.standard_normal((5, 3))
        check_grads(lambda x, y: ad.mse(ad.mul(x, y), t), [a, b])

    def test_scale(self):
        a = RNG.standard_normal((3, 3))
        t = RNG.standard_normal((3, 3))
        check_grads(lambda x: ad.mse(ad.scale(x, -2.5), t), [a])

    def test_concat_axis0_and_axis1(self):
        a, b = RNG.standard_normal((2, 3)), RNG.standard_normal((4, 3))
        t0 = RNG.standard_normal((6, 3))
        check_grads(lambda x, y: ad.mse(ad.concat([x, y], axis=0), t0), [a, b])
        c, d = RNG.standard_normal((3, 2)), RNG.standard_normal((3, 5))
        t1 = RNG.standard_normal((3, 7))
        check_grads(lambda x, y: ad.mse(ad.concat([x, y], axis=1), t1), [c, d])

    def test_gather_rows_with_repeats(self):
        a = RNG.standard_normal((4, 3))
        index = np.array([0, 2, 2, 3, 0])
        t = RNG.standard_normal((5, 3))
        check_grads(lambda x: ad.mse(ad.gather_rows(x, index), t), [a])

    def test_scatter_sum(self):
        a = RNG.standard_normal((6, 2))
        index = np.array([0, 0, 1, 3, 3, 3])
        t = RNG.standard_normal((4, 2))
        check_grads(lambda x: ad.mse(ad.scatter_sum(x, index, 4), t), [a])

    def test_matmul_broadcast_batched(self):
        # (E, H, 1, c) @ (H, c, 1): one score per edge and head, as in GATv2
        a, b = RNG.standard_normal((5, 3, 1, 4)), RNG.standard_normal((3, 4, 1))
        t = RNG.standard_normal((5, 3, 1, 1))
        check_grads(lambda x, y: ad.mse(ad.matmul(x, y), t), [a, b])

    def test_reshape(self):
        a = RNG.standard_normal((4, 3))
        t = RNG.standard_normal(12)
        check_grads(lambda x: ad.mse(ad.reshape(x, (-1,)), t), [a])

    def test_tanh(self):
        a = RNG.standard_normal((3, 4))
        t = RNG.standard_normal((3, 4))
        check_grads(lambda x: ad.mse(ad.tanh(x), t), [a])

    def test_leaky_relu_away_from_kink(self):
        a = RNG.standard_normal((4, 4))
        a[np.abs(a) < 10 * FD_EPS] = 0.5  # keep differences off the kink
        t = RNG.standard_normal((4, 4))
        check_grads(lambda x: ad.mse(ad.leaky_relu(x, 0.2), t), [a])

    def test_relu_away_from_kink(self):
        a = RNG.standard_normal((4, 4))
        a[np.abs(a) < 10 * FD_EPS] = -0.5
        t = RNG.standard_normal((4, 4))
        check_grads(lambda x: ad.mse(ad.relu(x), t), [a])

    def test_segment_softmax(self):
        scores = RNG.standard_normal(7)
        offsets = np.array([0, 3, 5, 7])
        t = RNG.standard_normal(7)
        check_grads(
            lambda s: ad.mse(ad.segment_softmax(s, offsets), t), [scores]
        )

    def test_segment_softmax_per_column(self):
        scores = RNG.standard_normal((7, 3))
        offsets = np.array([0, 3, 5, 7])
        t = RNG.standard_normal((7, 3))
        check_grads(
            lambda s: ad.mse(ad.segment_softmax(s, offsets), t), [scores]
        )

    def test_mse(self):
        a = RNG.standard_normal((3, 3))
        t = RNG.standard_normal((3, 3))
        check_grads(lambda x: ad.mse(x, t), [a])


def add_at_reference(values, index, size):
    acc = np.zeros((size,) + values.shape[1:])
    np.add.at(acc, index, values)
    return acc


ROW_SUM_CASES = [
    ((9, 3), np.array([4, 0, 2, 0, 4, 4, 1, 2, 0]), 6),  # unsorted, repeated, row 3 and 5 empty
    ((9,), np.array([4, 0, 2, 0, 4, 4, 1, 2, 0]), 5),  # 1-D values
    ((6, 2, 3), np.array([1, 1, 0, 3, 3, 1]), 4),
    ((0, 3), np.zeros(0, dtype=np.intp), 4),  # zero rows
]


class TestRowSums:
    """scatter_sum and the gather_rows backward add rows in index order, bit for bit."""

    @pytest.mark.parametrize("shape, index, size", ROW_SUM_CASES)
    def test_scatter_sum_equals_add_at(self, shape, index, size):
        values = RNG.standard_normal(shape) * 10.0 ** RNG.integers(-8, 8, shape)
        out = ad.scatter_sum(ad.Var(values), index, size).value
        ref = add_at_reference(values, index, size)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape, index, size", ROW_SUM_CASES)
    def test_gather_rows_backward_equals_add_at(self, shape, index, size):
        a = ad.Var(RNG.standard_normal((size,) + shape[1:]))
        out = ad.gather_rows(a, index)
        g = RNG.standard_normal(shape) * 10.0 ** RNG.integers(-8, 8, shape)
        out._backward(g)
        ref = add_at_reference(g, index, size)
        assert a.grad.shape == ref.shape
        assert a.grad.tobytes() == ref.tobytes()


class TestForwardValues:
    def test_segment_softmax_normalizes_each_segment(self):
        s = ad.Var(np.array([1.0, 2.0, 3.0, -1.0, 0.0]))
        offsets = np.array([0, 3, 5])
        alpha = ad.segment_softmax(s, offsets).value
        assert np.isclose(alpha[:3].sum(), 1.0)
        assert np.isclose(alpha[3:].sum(), 1.0)
        assert np.all(alpha > 0)

    def test_segment_softmax_columns_equal_vector_calls(self):
        scores = RNG.standard_normal((7, 3))
        offsets = np.array([0, 3, 5, 7])
        alpha = ad.segment_softmax(ad.Var(scores), offsets).value
        for k in range(3):
            column = ad.segment_softmax(ad.Var(scores[:, k]), offsets).value
            assert alpha[:, k].tobytes() == column.tobytes()

    def test_relu_and_leaky_relu_values(self):
        x = ad.Var(np.array([-2.0, 3.0]))
        np.testing.assert_allclose(ad.relu(x).value, [0.0, 3.0])
        np.testing.assert_allclose(ad.leaky_relu(x, 0.1).value, [-0.2, 3.0])

    def test_mse_value(self):
        pred = ad.Var(np.array([1.0, 3.0]))
        assert np.isclose(ad.mse(pred, np.array([0.0, 1.0])).value, 2.5)


class TestBackwardMechanics:
    def test_known_quadratic_gradient(self):
        # loss = mean((W x)^2) has gradient (2/m) (W x) x^T in W
        w = ad.Var(np.array([[1.0, 2.0], [3.0, -1.0]]))
        x = ad.Var(np.array([0.5, -1.5]))
        loss = ad.mse(ad.matmul(w, x), np.zeros(2))
        ad.backward(loss)
        wx = w.value @ x.value
        np.testing.assert_allclose(w.grad, np.outer(wx, x.value), atol=1e-12)

    def test_reused_node_accumulates(self):
        x = ad.Var(np.array(2.0).reshape(()))
        y = ad.add(x, x)  # dy/dx = 2
        ad.backward(y)
        assert np.isclose(x.grad, 2.0)

    def test_diamond_graph(self):
        x = ad.Var(np.array([1.0, 2.0]))
        a = ad.scale(x, 3.0)
        b = ad.tanh(x)
        loss = ad.mse(ad.add(a, b), np.zeros(2))
        ad.backward(loss)
        assert x.grad is not None and x.grad.shape == (2,)

    def test_constant_loss_leaves_unused_parameters_untouched(self):
        p = ad.Var(np.ones(3))
        loss = ad.mse(ad.Var(np.array([1.0])), np.array([1.0]))
        ad.backward(loss)
        assert p.grad is None  # zero gradient, never materialized

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.Var(np.zeros(2)))

    def test_zero_grads_resets(self):
        p = ad.Var(np.ones(2))
        loss = ad.mse(p, np.zeros(2))
        ad.backward(loss)
        assert p.grad is not None
        ad.zero_grads([p])
        assert p.grad is None

    def test_deep_chain_does_not_recurse(self):
        # iterative traversal must handle chains beyond the recursion limit
        x = ad.Var(np.array(1.0).reshape(()))
        node = x
        for _ in range(5000):
            node = ad.scale(node, 1.0)
        loss = ad.mse(node, np.array(0.0))
        ad.backward(loss)
        assert np.isclose(x.grad, 2.0 * 1.0)
