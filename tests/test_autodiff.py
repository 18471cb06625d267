"""Finite-difference validation of every autodiff primitive, and of the fused
blocks against their composed form in composed_primitives."""

import re

import composed_primitives as cp
import numpy as np
import pytest

from gclab import autodiff as ad
from gclab.graph import Graph, laplacian, normalized_adjacency
from gclab.lmgc import EdgeIndex, gin_aggregation
from gclab.train import ExperimentConfig, experiment_data

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

    def test_matmul_rejects_a_vector_operand(self):
        m, v = ad.Var(RNG.standard_normal((4, 3))), ad.Var(RNG.standard_normal(3))
        with pytest.raises(ValueError, match=r"\(4, 3\) and \(3,\)"):
            ad.matmul(m, v)
        with pytest.raises(ValueError, match=r"\(3,\) and \(3, 4\)"):
            ad.matmul(v, ad.Var(m.value.T))

    def test_add_with_broadcast(self):
        a, b = RNG.standard_normal((3, 4)), RNG.standard_normal(4)
        t = RNG.standard_normal((3, 4))
        check_grads(lambda x, y: ad.mse(cp.add(x, y), t), [a, b])

    def test_mul_with_broadcast(self):
        a, b = RNG.standard_normal((5, 3)), RNG.standard_normal((5, 1))
        t = RNG.standard_normal((5, 3))
        check_grads(lambda x, y: ad.mse(cp.mul(x, y), t), [a, b])

    def test_scale(self):
        a = RNG.standard_normal((3, 3))
        t = RNG.standard_normal((3, 3))
        check_grads(lambda x: ad.mse(cp.scale(x, -2.5), t), [a])

    def test_concat_axis0_and_axis1(self):
        a, b = RNG.standard_normal((2, 3)), RNG.standard_normal((4, 3))
        t0 = RNG.standard_normal((6, 3))
        check_grads(lambda x, y: ad.mse(cp.concat([x, y], axis=0), t0), [a, b])
        c, d = RNG.standard_normal((3, 2)), RNG.standard_normal((3, 5))
        t1 = RNG.standard_normal((3, 7))
        check_grads(lambda x, y: ad.mse(cp.concat([x, y], axis=1), t1), [c, d])

    def test_gather_rows_with_repeats(self):
        a = RNG.standard_normal((4, 3))
        index = np.array([0, 2, 2, 3, 0])
        t = RNG.standard_normal((5, 3))
        check_grads(lambda x: ad.mse(cp.gather_rows(x, index), t), [a])

    def test_scatter_sum(self):
        a = RNG.standard_normal((6, 2))
        index = np.array([0, 0, 1, 3, 3, 3])
        t = RNG.standard_normal((4, 2))
        check_grads(lambda x: ad.mse(cp.scatter_sum(x, index, 4), t), [a])

    def test_matmul_broadcast_batched(self):
        # (E, H, 1, c) @ (H, c, 1): one score per edge and head, as in GATv2
        a, b = RNG.standard_normal((5, 3, 1, 4)), RNG.standard_normal((3, 4, 1))
        t = RNG.standard_normal((5, 3, 1, 1))
        check_grads(lambda x, y: ad.mse(ad.matmul(x, y), t), [a, b])

    def test_reshape(self):
        a = RNG.standard_normal((4, 3))
        t = RNG.standard_normal(12)
        check_grads(lambda x: ad.mse(cp.reshape(x, (-1,)), t), [a])

    def test_tanh(self):
        a = RNG.standard_normal((3, 4))
        t = RNG.standard_normal((3, 4))
        check_grads(lambda x: ad.mse(cp.tanh(x), t), [a])

    def test_leaky_relu_away_from_kink(self):
        a = RNG.standard_normal((4, 4))
        a[np.abs(a) < 10 * FD_EPS] = 0.5  # keep differences off the kink
        t = RNG.standard_normal((4, 4))
        check_grads(lambda x: ad.mse(ad.leaky_relu(x, 0.2), t), [a])

    def test_relu_away_from_kink(self):
        a = RNG.standard_normal((4, 4))
        a[np.abs(a) < 10 * FD_EPS] = -0.5
        t = RNG.standard_normal((4, 4))
        check_grads(lambda x: ad.mse(cp.relu(x), t), [a])

    def test_segment_softmax(self):
        scores = RNG.standard_normal(7)
        offsets = np.array([0, 3, 5, 7])
        t = RNG.standard_normal(7)
        check_grads(
            lambda s: ad.mse(cp.segment_softmax(s, offsets), t), [scores]
        )

    def test_segment_softmax_per_column(self):
        scores = RNG.standard_normal((7, 3))
        offsets = np.array([0, 3, 5, 7])
        t = RNG.standard_normal((7, 3))
        check_grads(
            lambda s: ad.mse(cp.segment_softmax(s, offsets), t), [scores]
        )

    def test_mse(self):
        a = RNG.standard_normal((3, 3))
        t = RNG.standard_normal((3, 3))
        check_grads(lambda x: ad.mse(x, t), [a])


SMALL = EdgeIndex(Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)]))


class TestFusedPrimitiveGradients:
    E = len(SMALL.dst)

    @pytest.mark.parametrize("heads", [1, 3])
    def test_edge_messages(self, heads):
        alpha, z = RNG.standard_normal((self.E, heads)), RNG.standard_normal((5, 2 * heads))
        t = RNG.standard_normal((5, 2))
        e = SMALL
        check_grads(lambda a, h: ad.mse(ad.edge_messages(a, h, e.dst, e.src), t), [alpha, z])

    @pytest.mark.parametrize("v_shape", [(6, 1), (6, 2)])
    def test_tanh_gate_with_scale(self, v_shape):
        h, v = RNG.standard_normal((5, 3)), RNG.standard_normal(v_shape)
        t = RNG.standard_normal((self.E, v_shape[1]))
        e = SMALL
        check_grads(lambda a, b: ad.mse(ad.tanh_gate(a, b, e.dst, e.src, e.inv_sqrt_deg_pair), t), [h, v])

    def test_gatv2_attention(self):
        z, v = RNG.standard_normal((5, 6)), RNG.standard_normal((2, 3, 1))
        t = RNG.standard_normal((self.E, 2))
        e = SMALL
        check_grads(
            lambda a, b: ad.mse(ad.gatv2_attention(a, b, e.dst, e.src, e.offsets, e.reverse, 0.2), t),
            [z, v],
        )


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
        out = cp.scatter_sum(ad.Var(values), index, size).value
        ref = add_at_reference(values, index, size)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape, index, size", ROW_SUM_CASES)
    def test_gather_rows_backward_equals_add_at(self, shape, index, size):
        a = ad.Var(RNG.standard_normal((size,) + shape[1:]))
        out = cp.gather_rows(a, index)
        g = RNG.standard_normal(shape) * 10.0 ** RNG.integers(-8, 8, shape)
        out._backward(g)
        ref = add_at_reference(g, index, size)
        assert a.grad.shape == ref.shape
        assert a.grad.tobytes() == ref.tobytes()


class TestForwardValues:
    def test_segment_softmax_normalizes_each_segment(self):
        s = ad.Var(np.array([1.0, 2.0, 3.0, -1.0, 0.0]))
        offsets = np.array([0, 3, 5])
        alpha = cp.segment_softmax(s, offsets).value
        assert np.isclose(alpha[:3].sum(), 1.0)
        assert np.isclose(alpha[3:].sum(), 1.0)
        assert np.all(alpha > 0)

    def test_segment_softmax_columns_equal_vector_calls(self):
        scores = RNG.standard_normal((7, 3))
        offsets = np.array([0, 3, 5, 7])
        alpha = cp.segment_softmax(ad.Var(scores), offsets).value
        for k in range(3):
            column = cp.segment_softmax(ad.Var(scores[:, k]), offsets).value
            assert alpha[:, k].tobytes() == column.tobytes()

    def test_relu_and_leaky_relu_values(self):
        x = ad.Var(np.array([-2.0, 3.0]))
        np.testing.assert_allclose(cp.relu(x).value, [0.0, 3.0])
        np.testing.assert_allclose(ad.leaky_relu(x, 0.1).value, [-0.2, 3.0])

    def test_mse_value(self):
        pred = ad.Var(np.array([1.0, 3.0]))
        assert np.isclose(ad.mse(pred, np.array([0.0, 1.0])).value, 2.5)

    def test_mse_rejects_a_target_of_another_shape(self):
        pred = ad.Var(np.ones((3, 4)))
        for target in (np.zeros(4), np.zeros((1, 4)), np.zeros((4, 3)), 0.0):
            with pytest.raises(ValueError, match=re.escape(f"{np.shape(target)} does not match the prediction's (3, 4)")):
                ad.mse(pred, target)


class TestBackwardMechanics:
    def test_known_quadratic_gradient(self):
        # loss = mean((W x)^2) has gradient (2/m) (W x) x^T in W
        w = ad.Var(np.array([[1.0, 2.0], [3.0, -1.0]]))
        x = ad.Var(np.array([[0.5], [-1.5]]))
        loss = ad.mse(ad.matmul(w, x), np.zeros((2, 1)))
        ad.backward(loss)
        wx = w.value @ x.value
        np.testing.assert_allclose(w.grad, wx @ x.value.T, atol=1e-12)

    def test_reused_node_accumulates(self):
        x = ad.Var(np.array(2.0).reshape(()))
        y = cp.add(x, x)  # dy/dx = 2
        ad.backward(y)
        assert np.isclose(x.grad, 2.0)

    def test_diamond_graph(self):
        x = ad.Var(np.array([1.0, 2.0]))
        a = cp.scale(x, 3.0)
        b = cp.tanh(x)
        loss = ad.mse(cp.add(a, b), np.zeros(2))
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
            node = cp.scale(node, 1.0)
        loss = ad.mse(node, np.array(0.0))
        ad.backward(loss)
        assert np.isclose(x.grad, 2.0 * 1.0)


class TestConstants:
    """A leaf built with requires_grad=False gets no adjoint, and the others' stay the same."""

    E = len(SMALL.dst)
    # (name, build(a, b), a's value, b's value)
    BINARY = [
        ("matmul", lambda a, b: ad.matmul(a, b), (4, 3), (3, 2)),
        ("add", lambda a, b: cp.add(a, b), (4, 3), (3,)),
        ("mul", lambda a, b: cp.mul(a, b), (4, 3), (4, 1)),
        ("concat", lambda a, b: cp.concat([a, b], axis=1), (4, 3), (4, 2)),
        ("tanh_gate", lambda a, b: ad.tanh_gate(a, b, SMALL.dst, SMALL.src), (5, 3), (6, 2)),
        ("gatv2_attention",
         lambda a, b: ad.gatv2_attention(a, b, SMALL.dst, SMALL.src, SMALL.offsets, SMALL.reverse, 0.2),
         (5, 6), (2, 3, 1)),
        ("edge_messages", lambda a, b: ad.edge_messages(a, b, SMALL.dst, SMALL.src), (E, 2), (5, 4)),
    ]

    @staticmethod
    def grads(build, values, constant):
        leaves = [ad.Var(v, requires_grad=i != constant) for i, v in enumerate(values)]
        out = build(*leaves)
        ad.backward(ad.mse(out, np.zeros(out.shape)))
        return [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("name, build, a_shape, b_shape", BINARY, ids=[b[0] for b in BINARY])
    @pytest.mark.parametrize("constant", [0, 1])
    def test_other_operand_gradient_is_unchanged(self, name, build, a_shape, b_shape, constant):
        rng = np.random.default_rng(5)
        values = [rng.standard_normal(a_shape), rng.standard_normal(b_shape)]
        full = self.grads(build, values, None)
        partial = self.grads(build, values, constant)
        assert partial[constant] is None
        assert np.array_equal(partial[1 - constant], full[1 - constant])

    def test_requires_grad_follows_the_parents(self):
        c, p = ad.Var(np.ones(2), requires_grad=False), ad.Var(np.ones(2))
        assert not cp.tanh(c).requires_grad
        assert not cp.add(c, cp.scale(c, 2.0)).requires_grad
        assert cp.mul(c, p).requires_grad

    def test_backward_does_not_walk_into_a_constant_subgraph(self):
        c = ad.Var(np.ones(3), requires_grad=False)
        hidden = cp.tanh(c)
        p = ad.Var(np.arange(3.0))
        ad.backward(ad.mse(cp.mul(hidden, p), np.zeros(3)))
        assert p.grad is not None
        assert hidden.grad is None and c.grad is None
        assert hidden._backward is not None  # never run, so never released

    def test_constant_loss_is_a_no_op(self):
        c = ad.Var(np.ones(3), requires_grad=False)
        loss = ad.mse(c, np.zeros(3))
        ad.backward(loss)
        assert loss.grad is None and c.grad is None


# ---------------------------------------------------------------- fused blocks


INSTANCES = {
    "reference": ExperimentConfig(),
    "fit-wide": ExperimentConfig(n=128, d=32, c=32, p=0.05),
}


def instance(name):
    cfg = INSTANCES[name]
    g, x, y = experiment_data(cfg)
    return EdgeIndex.of(g), x, y, cfg.c


def rel_gap(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def assert_same_value_and_grads(fused, composed, arrays, target, exact=False, constant=()):
    """fused(*vars) and composed(*vars) agree in value and in every input's gradient:
    to 1e-12 relative, or equal when exact. The inputs indexed in constant are
    constant leaves, and neither side gives them a gradient."""
    outs, grads = [], []
    for build in (fused, composed):
        variables = [ad.Var(a, requires_grad=i not in constant) for i, a in enumerate(arrays)]
        out = build(*variables)
        ad.backward(ad.mse(out, target))
        outs.append(out.value)
        grads.append([var.grad for var in variables])

    def same(got, ref):
        return np.array_equal(got, ref) if exact else rel_gap(got, ref) <= 1e-12

    assert outs[0].shape == outs[1].shape
    assert same(outs[0], outs[1])
    for idx, (got, ref) in enumerate(zip(*grads)):
        if idx in constant:
            assert got is None and ref is None, f"input {idx}"
            continue
        assert got.shape == ref.shape, f"input {idx}"
        assert same(got, ref), f"input {idx}"


ON_INSTANCES = pytest.mark.parametrize("name", list(INSTANCES))
PER_HEADS = pytest.mark.parametrize("heads", [1, 4])
CONSTANT_OR_NOT = pytest.mark.parametrize("constant", [True, False], ids=["constant-inputs", "all-require-grad"])


class TestFusedMatchesComposed:
    """Each message block equals the generic primitives it replaces to 1e-12
    relative; the whole-layer blocks equal theirs bit for bit."""

    @PER_HEADS
    @ON_INSTANCES
    def test_edge_messages(self, name, heads):
        e, x, y, c = instance(name)
        rng = np.random.default_rng(heads)
        alpha, z = rng.standard_normal((len(e.dst), heads)), rng.standard_normal((e.n, heads * c))
        assert_same_value_and_grads(
            lambda a, h: ad.edge_messages(a, h, e.dst, e.src),
            lambda a, h: cp.composed_edge_messages(a, h, e),
            [alpha, z],
            y,
        )

    @PER_HEADS
    @ON_INSTANCES
    def test_eq14_gate(self, name, heads):
        e, x, y, c = instance(name)
        rng = np.random.default_rng(10 + heads)
        z = rng.standard_normal((e.n, heads * c))
        v = rng.uniform(-1, 1, (2 * heads * c, heads)) / np.sqrt(2 * heads * c)
        target = rng.standard_normal((len(e.dst), heads))
        assert_same_value_and_grads(
            lambda h, w: ad.tanh_gate(ad.leaky_relu(h, 0.2), w, e.dst, e.src),
            lambda h, w: cp.composed_tanh_gate(ad.leaky_relu(h, 0.2), w, e.dst, e.src),
            [z, v],
            target,
        )

    @PER_HEADS
    @ON_INSTANCES
    def test_fagcn_gate(self, name, heads):
        e, x, y, c = instance(name)
        rng = np.random.default_rng(20 + heads)
        d = x.shape[1]
        v = rng.uniform(-1, 1, (2 * d, heads)) / np.sqrt(2 * d)
        target = rng.standard_normal((len(e.dst), heads))
        norm = e.inv_sqrt_deg_pair
        assert_same_value_and_grads(
            lambda h, w: ad.tanh_gate(h, w, e.dst, e.src, norm),
            lambda h, w: cp.composed_tanh_gate(h, w, e.dst, e.src, norm),
            [x, v],
            target,
        )

    @PER_HEADS
    @ON_INSTANCES
    def test_gatv2_attention(self, name, heads):
        e, x, y, c = instance(name)
        rng = np.random.default_rng(30 + heads)
        z = rng.standard_normal((e.n, heads * c))
        v = rng.uniform(-1, 1, (heads, c, 1)) / np.sqrt(c)
        target = rng.standard_normal((len(e.dst), heads))
        assert_same_value_and_grads(
            lambda h, w: ad.gatv2_attention(h, w, e.dst, e.src, e.offsets, e.reverse, 0.2),
            lambda h, w: cp.composed_gatv2_attention(h, w, e, 0.2),
            [z, v],
            target,
        )

    @CONSTANT_OR_NOT
    @ON_INSTANCES
    def test_gin_block(self, name, constant):
        g, x, y = experiment_data(INSTANCES[name])
        d, c = x.shape[1], y.shape[1]
        rng = np.random.default_rng(40)
        w1, w2 = rng.uniform(-1, 1, (d, d)) / np.sqrt(d), rng.uniform(-1, 1, (d, c)) / np.sqrt(d)
        b1, b2 = rng.standard_normal(d), rng.standard_normal(c)
        assert_same_value_and_grads(
            ad.gin_block,
            cp.composed_gin,
            [gin_aggregation(g), x, w1, b1, w2, b2],
            y,
            exact=True,
            constant=(0, 1) if constant else (),
        )

    @CONSTANT_OR_NOT
    @ON_INSTANCES
    def test_acm_block(self, name, constant):
        g, x, y = experiment_data(INSTANCES[name])
        d, c = x.shape[1], y.shape[1]
        rng = np.random.default_rng(50)
        w, v = rng.uniform(-1, 1, (2, d, c)) / np.sqrt(d), rng.uniform(-1, 1, (2, c, 1)) / np.sqrt(c)
        graphs = np.stack([normalized_adjacency(g), laplacian(g)])
        assert_same_value_and_grads(
            ad.acm_block,
            cp.composed_acm,
            [x, graphs, w, v],
            y,
            exact=True,
            constant=(0, 1) if constant else (),
        )


@pytest.mark.parametrize("v_shape", [(12,), (4,), (12, 2), (6, 2, 1)])
def test_tanh_gate_rejects_v_without_2m_rows(v_shape):
    """m = 3 node columns take v with 6 rows; (12,) is not read as two heads."""
    h = ad.Var(np.ones((5, 3)))
    with pytest.raises(ValueError, match=r"2m = 6; got"):
        ad.tanh_gate(h, ad.Var(np.ones(v_shape)), SMALL.dst, SMALL.src)


def test_tanh_gate_on_pair_rows():
    """verify's layout: E pairs as rows e (center) and E + e (element) of one array."""
    rng = np.random.default_rng(40)
    rows, v = rng.standard_normal((2 * 50, 4)), rng.standard_normal((8, 3))
    dst, src = np.arange(50), np.arange(50, 100)
    assert_same_value_and_grads(
        lambda h, w: ad.tanh_gate(h, w, dst, src),
        lambda h, w: cp.composed_tanh_gate(h, w, dst, src),
        [rows, v],
        rng.standard_normal((50, 3)),
    )


def test_backward_releases_the_tape():
    a = ad.Var(RNG.standard_normal((3, 2)))
    hidden = cp.tanh(a)
    loss = ad.mse(hidden, np.zeros((3, 2)))
    ad.backward(loss)
    assert hidden.grad is not None and a.grad is not None
    assert loss._parents == () and hidden._backward is None
