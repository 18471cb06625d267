"""Adam optimizer, trainable layer models, and the fitting experiment driver."""

import re

import numpy as np
import pytest

from gclab import autodiff as ad
from gclab import lmgc
from gclab.graph import Graph, generate_erdos_renyi, laplacian, normalized_adjacency
from gclab.lmgc import CoefficientScheme, LmgcLayer, Variant, lmgc_forward
from gclab.optim import Adam
from gclab.seeding import derive_seed
from gclab.train import (
    METHODS,
    REFERENCE_INSTANCE_SEED,
    EdgeIndex,
    ExperimentConfig,
    build_model,
    experiment_data,
    run_training,
    run_universality_experiment,
)


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = ad.Var(np.array([1.0, -2.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_first_step_magnitude_bounded_by_lr(self):
        p = ad.Var(np.zeros(4))
        opt = Adam([p], lr=0.05)
        p.grad = np.array([1e-3, 1.0, -50.0, 1e6])
        opt.step()
        # bias-corrected Adam moves by about lr regardless of gradient scale
        assert np.all(np.abs(p.value) <= 0.05 * (1 + 1e-6))
        assert np.all(np.abs(p.value) >= 0.05 * (1 - 1e-4))

    def test_two_steps_constant_gradient_hand_trace(self):
        # constant gradient g: m_hat = g, v_hat = g^2, step = lr*g/(|g|+eps)
        p = ad.Var(np.array(1.0).reshape(()))
        opt = Adam([p], lr=0.1)
        for _ in range(2):
            p.grad = np.array(2.0).reshape(())
            opt.step()
        expected = 1.0 - 2 * 0.1 * 2.0 / (2.0 + 1e-8)
        assert np.isclose(float(p.value), expected, atol=1e-9)

    @pytest.mark.parametrize("lr", [0.0, -1.0, np.nan, np.inf])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="lr must be a finite number above 0"):
            Adam([ad.Var(np.zeros(2))], lr)

    def test_shape_mismatch_rejected(self):
        p = ad.Var(np.zeros(3))
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros(4)
        with pytest.raises(ValueError):
            opt.step()

    def test_rejected_step_changes_no_state(self):
        params = [ad.Var(np.ones((2, 3))), ad.Var(np.arange(4.0))]
        opt = Adam(params, lr=0.1)
        params[0].grad, params[1].grad = np.full((2, 3), 0.5), np.arange(4.0) - 1.0
        opt.step()
        before = (opt.t, opt.m.copy(), opt.v.copy(), [p.value.copy() for p in params])
        for bad, message in ((np.zeros(5), "does not match"), (None, "no gradient")):
            params[1].grad = bad
            with pytest.raises(ValueError, match=message):
                opt.step()
            assert opt.t == before[0]
            assert opt.m.tobytes() == before[1].tobytes()
            assert opt.v.tobytes() == before[2].tobytes()
            assert all(p.value.tobytes() == v.tobytes() for p, v in zip(params, before[3]))

    def test_step_never_writes_into_a_gradient(self):
        # backward keeps a first adjoint uncopied, so one array may be several
        # parameters' gradients, or a view of another node's array
        shared = np.linspace(-1.0, 1.0, 12)
        params = [ad.Var(np.zeros(12)), ad.Var(np.ones((3, 4))), ad.Var(np.ones(12))]
        grads = [shared, shared.reshape(3, 4), shared]
        opt = Adam(params, lr=0.1)
        for _ in range(3):
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
        assert shared.tobytes() == np.linspace(-1.0, 1.0, 12).tobytes()

    @staticmethod
    def reference_steps(values, grads, lr):
        """Per-parameter Adam loop with the conventional decay rates and epsilon."""
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        values = [v.copy() for v in values]
        m = [np.zeros_like(v) for v in values]
        s = [np.zeros_like(v) for v in values]
        for t, step_grads in enumerate(grads, start=1):
            for i, g in enumerate(step_grads):
                m[i] = beta1 * m[i] + (1 - beta1) * g
                s[i] = beta2 * s[i] + (1 - beta2) * g * g
                m_hat = m[i] / (1 - beta1**t)
                s_hat = s[i] / (1 - beta2**t)
                values[i] = values[i] - lr * m_hat / (np.sqrt(s_hat) + eps)
        return values

    def test_flat_buffer_matches_per_parameter_loop(self):
        rng = np.random.default_rng(21)
        shapes = [(4, 3), (5,), (2, 3, 2)]
        init = [rng.standard_normal(shape) for shape in shapes]
        grads = [[rng.standard_normal(shape) * 10.0 ** (t % 7 - 3) for shape in shapes] for t in range(50)]
        params = [ad.Var(v.copy()) for v in init]
        opt = Adam(params, lr=0.01)
        for step_grads in grads:
            for p, g in zip(params, step_grads):
                p.grad = g
            opt.step()
        expected = self.reference_steps(init, grads, lr=0.01)
        for p, e in zip(params, expected):
            assert p.value.shape == e.shape
            assert p.value.tobytes() == e.tobytes()

    def test_parameters_are_views_of_one_buffer(self):
        params = [ad.Var(np.ones((2, 3))), ad.Var(np.zeros(4))]
        opt = Adam(params, lr=0.1)
        assert all(np.shares_memory(p.value, opt.flat) for p in params)
        assert opt.flat.size == 10

    def test_minimizes_quadratic(self):
        p = ad.Var(np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            ad.zero_grads([p])
            loss = ad.mse(p, np.zeros(2))
            ad.backward(loss)
            opt.step()
        assert np.max(np.abs(p.value)) < 1e-3


class TestEdgeIndex:
    def test_arrays_match_neighbor_lists(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        e = EdgeIndex(g)
        assert e.n == 4
        pairs = list(zip(e.dst.tolist(), e.src.tolist()))
        expected = [
            (i, j) for i in range(4) for j in g.neighbors[i]
        ]
        assert pairs == sorted(expected)
        # offsets delimit each destination's incoming block
        for i in range(4):
            block = e.dst[e.offsets[i] : e.offsets[i + 1]]
            assert np.all(block == i)

    def test_degree_normalization_pairs(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        e = EdgeIndex(g)
        inv = 1.0 / np.sqrt(g.degrees)
        np.testing.assert_allclose(
            e.inv_sqrt_deg_pair.ravel(), inv[e.dst] * inv[e.src], atol=1e-15
        )


    def test_is_the_lmgc_edge_index(self):
        assert EdgeIndex is lmgc.EdgeIndex

    def test_reverse_flips_each_edge(self):
        e = EdgeIndex(generate_erdos_renyi(12, 0.3, seed=2))
        np.testing.assert_array_equal(e.dst[e.reverse], e.src)
        np.testing.assert_array_equal(e.src[e.reverse], e.dst)

    def test_built_once_per_graph_and_read_only(self, monkeypatch):
        g = generate_erdos_renyi(10, 0.4, seed=3)
        e = EdgeIndex.of(g)
        assert EdgeIndex.of(g) is e
        for a in (e.dst, e.src, e.offsets, e.inv_sqrt_deg_pair, e.reverse):
            assert not a.flags.writeable

        def refuse(self, graph):
            raise AssertionError("EdgeIndex rebuilt for a cached graph")

        # build_model, lmgc_forward and compute_coefficients share the cached instance
        monkeypatch.setattr(EdgeIndex, "__init__", refuse)
        x = np.random.default_rng(4).standard_normal((10, 3))
        for method in ("gatv2", "fagcn", "lmgc"):
            assert build_model(method, g, 3, 3, np.random.default_rng(5), heads=2).edges is e
        layer = LmgcLayer(np.ones((1, 3, 2)), CoefficientScheme(Variant.GCN_NORM, 1))
        lmgc_forward(layer, x, g)
        lmgc.compute_coefficients(layer.scheme, x, g, layer.weights)


def small_instance(seed=0, n=6, d=3, c=3):
    g = generate_erdos_renyi(n, 0.5, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((n, d))
    y = rng.standard_normal((n, c))
    return g, x, y


class TestBuildModel:
    def test_unknown_method_rejected(self):
        g, _, _ = small_instance()
        with pytest.raises(ValueError, match="unknown method"):
            build_model("mlp", g, 3, 3, np.random.default_rng(0))

    def test_every_method_forward_shape(self):
        g, x, _ = small_instance()
        for method in METHODS:
            model = build_model(method, g, 3, 3, np.random.default_rng(1), heads=2)
            out = model.forward(ad.Var(x))
            assert out.value.shape == (6, 3), method
            assert len(model.params) > 0

    @pytest.mark.parametrize("method", METHODS)
    def test_isolated_node_rejected(self, method):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="isolated node 2"):
            build_model(method, g, 2, 2, np.random.default_rng(0), heads=2)

    def test_deterministic_given_rng_seed(self):
        g, x, _ = small_instance()
        outs = []
        for _ in range(2):
            model = build_model("lmgc", g, 3, 3, np.random.default_rng(7), heads=2)
            outs.append(model.forward(ad.Var(x)).value)
        np.testing.assert_array_equal(outs[0], outs[1])


def leaky(a):
    return np.where(a >= 0, a, 0.2 * a)


def head_draws(rng, d, c, heads, v_len):
    """The per-head (W_k, v_k) draws, in the order the models make them."""
    w = [rng.uniform(-1 / np.sqrt(d), 1 / np.sqrt(d), (d, c)) for _ in range(heads)]
    v = [rng.uniform(-1 / np.sqrt(v_len), 1 / np.sqrt(v_len), (v_len,)) for _ in range(heads)]
    return w, v


def scatter_rows(values, index, n):
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


def lmgc_per_head(x, e, w, v):
    xws = [x @ wk for wk in w]
    z = np.concatenate(xws, axis=1)
    hidden = leaky(np.concatenate([z[e.dst], z[e.src]], axis=1))
    return sum(
        scatter_rows(np.tanh(hidden @ vk)[:, None] * xw[e.src], e.dst, e.n)
        for xw, vk in zip(xws, v)
    )


def gatv2_per_head(x, e, w, v):
    out = np.zeros((e.n, w[0].shape[1]))
    for wk, vk in zip(w, v):
        xw = x @ wk
        scores = leaky(xw[e.dst] + xw[e.src]) @ vk
        ex = np.exp(scores - np.maximum.reduceat(scores, e.offsets[:-1])[e.dst])
        alpha = ex / np.bincount(e.dst, weights=ex, minlength=e.n)[e.dst]
        out += scatter_rows(alpha[:, None] * xw[e.src], e.dst, e.n)
    return out


class TestStackedHeads:
    """LMGC and GATv2 hold one W and one V with the per-head draws stacked."""

    D, C, HEADS = 5, 3, 4

    def instance(self):
        g = generate_erdos_renyi(12, 0.3, seed=2)
        x = np.random.default_rng(3).standard_normal((12, self.D))
        return g, x

    def test_lmgc_initial_parameters_stack_the_head_draws(self):
        g, _ = self.instance()
        model = build_model("lmgc", g, self.D, self.C, np.random.default_rng(5), heads=self.HEADS)
        w, v = head_draws(np.random.default_rng(5), self.D, self.C, self.HEADS, 2 * self.HEADS * self.C)
        assert len(model.params) == 2
        assert model.params[0].value.tobytes() == np.concatenate(w, axis=1).tobytes()
        assert model.params[1].value.shape == (2 * self.HEADS * self.C, self.HEADS)
        assert model.params[1].value.tobytes() == np.stack(v, axis=1).tobytes()

    def test_gatv2_initial_parameters_stack_the_head_draws(self):
        g, _ = self.instance()
        model = build_model("gatv2", g, self.D, self.C, np.random.default_rng(5), heads=self.HEADS)
        w, v = head_draws(np.random.default_rng(5), self.D, self.C, self.HEADS, self.C)
        assert len(model.params) == 2
        assert model.params[0].value.tobytes() == np.concatenate(w, axis=1).tobytes()
        assert model.params[1].value.shape == (self.HEADS, self.C, 1)
        assert model.params[1].value.tobytes() == np.stack(v)[:, :, None].tobytes()

    @pytest.mark.parametrize("method, reference", [("lmgc", lmgc_per_head), ("gatv2", gatv2_per_head)])
    def test_forward_matches_per_head_reference(self, method, reference):
        g, x = self.instance()
        model = build_model(method, g, self.D, self.C, np.random.default_rng(6), heads=self.HEADS)
        v_len = 2 * self.HEADS * self.C if method == "lmgc" else self.C
        w, v = head_draws(np.random.default_rng(6), self.D, self.C, self.HEADS, v_len)
        got = model.forward(ad.Var(x)).value
        expected = reference(x, EdgeIndex(g), w, v)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def acm_per_channel(g, x, w, v):
    """ACM with one (n, n) operator, W_k and v_k per channel: softmax over channels per node."""
    ops = [normalized_adjacency(g), laplacian(g)]
    h = [np.maximum(op @ x @ wk, 0.0) for op, wk in zip(ops, w)]
    scores = np.concatenate([hk @ vk for hk, vk in zip(h, v)], axis=1)  # (n, C)
    ex = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = ex / ex.sum(axis=1, keepdims=True)
    return sum(alpha[:, k : k + 1] * hk for k, hk in enumerate(h))


class TestStackedChannels:
    """AcmModel holds one operator bank, one W and one V with the channels stacked."""

    def test_initial_parameters_stack_the_channel_draws(self):
        g = generate_erdos_renyi(12, 0.3, seed=2)
        model = build_model("acm", g, 5, 3, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        w = [rng.uniform(-1 / np.sqrt(5), 1 / np.sqrt(5), (5, 3)) for _ in range(2)]
        v = [rng.uniform(-1 / np.sqrt(3), 1 / np.sqrt(3), (3, 1)) for _ in range(2)]
        assert [p.shape for p in model.params] == [(2, 5, 3), (2, 3, 1)]
        assert model.params[0].value.tobytes() == np.stack(w).tobytes()
        assert model.params[1].value.tobytes() == np.stack(v).tobytes()

    def test_forward_matches_per_channel_reference(self):
        g = generate_erdos_renyi(12, 0.3, seed=2)
        x = np.random.default_rng(3).standard_normal((12, 5))
        model = build_model("acm", g, 5, 3, np.random.default_rng(6))
        got = model.forward(ad.Var(x)).value
        expected = acm_per_channel(g, x, model.w.value, model.v.value)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def layer_from_model(method, model, d, c, heads):
    """The LmgcLayer with the trained model's W and its gating vectors."""
    w, v = model.w.value, model.v.value
    if method == "fagcn":
        return LmgcLayer(w[None], CoefficientScheme(Variant.FAGCN_TANH, 1, (v[:, 0],)))
    weights = w.reshape(d, heads, c).transpose(1, 0, 2)
    if method == "gatv2":
        return LmgcLayer(weights, CoefficientScheme(Variant.GATV2_SOFTMAX, heads, tuple(v[:, :, 0])))
    return LmgcLayer(weights, CoefficientScheme(Variant.LMGC_EQ14, heads, tuple(v.T)))


class TestTrainedModelIsAnLmgcLayer:
    """A trained model's forward equals lmgc_forward on a layer holding its parameters."""

    @pytest.mark.parametrize("method", ["gatv2", "fagcn", "lmgc"])
    def test_forward_matches_layer(self, method):
        cfg = ExperimentConfig()
        g, x, y = experiment_data(cfg)
        model = build_model(method, g, cfg.d, cfg.c, np.random.default_rng(12), heads=cfg.heads)
        run_training(model, x, y, steps=20, lr=0.01)
        layer = layer_from_model(method, model, cfg.d, cfg.c, cfg.heads)
        expected = model.forward(ad.Var(x)).value
        np.testing.assert_array_equal(lmgc_forward(layer, x, g), expected)


class TestTrainedGinIsGinForward:
    def test_gin_model_is_gin_forward(self):
        cfg = ExperimentConfig()
        g, x, y = experiment_data(cfg)
        model = build_model("gin", g, cfg.d, cfg.c, np.random.default_rng(12))
        run_training(model, x, y, steps=20, lr=0.01)
        mlp = [p.value for p in model.params]
        np.testing.assert_array_equal(lmgc.gin_forward(x, g, mlp), model.forward(ad.Var(x)).value)


class TestFullModelGradients:
    """End-to-end finite-difference check of each method's training loss."""

    def test_gradients_match_finite_differences(self):
        g, x, y = small_instance(seed=3)
        h = 1e-5
        for method in METHODS:
            model = build_model(method, g, 3, 3, np.random.default_rng(4), heads=2)
            total = sum(p.value.size for p in model.params)
            assert total <= 200, method
            loss = ad.mse(model.forward(ad.Var(x)), y)
            ad.backward(loss)

            def loss_value():
                return float(ad.mse(model.forward(ad.Var(x)), y).value)

            for p in model.params:
                grad = p.grad if p.grad is not None else np.zeros_like(p.value)
                flat = p.value.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    hi = loss_value()
                    flat[i] = orig - h
                    lo = loss_value()
                    flat[i] = orig
                    fd = (hi - lo) / (2 * h)
                    scale = max(abs(fd), 1.0)
                    assert abs(grad.reshape(-1)[i] - fd) / scale <= 1e-3, method


class TestConstantInputs:
    """x, acm's operator bank and gin's aggregator are constants: no adjoint is computed."""

    @staticmethod
    def step_grads(model, x, y, banks, constant):
        """One step's parameter grads, with x and the banks constant or all requiring grad."""
        for bank in banks:
            bank.requires_grad = not constant
            bank.grad = None
        x_var = ad.Var(x, requires_grad=not constant)
        ad.zero_grads(model.params)
        ad.backward(ad.mse(model.forward(x_var), y))
        return [p.grad for p in model.params], [x_var.grad] + [bank.grad for bank in banks]

    @pytest.mark.parametrize("method", METHODS)
    def test_parameter_gradients_match_the_all_requires_grad_tape(self, method):
        g, x, y = experiment_data(ExperimentConfig())
        model = build_model(method, g, 16, 16, np.random.default_rng(3))
        banks = [getattr(model, name) for name in ("graphs", "agg") if hasattr(model, name)]
        assert not any(bank.requires_grad for bank in banks)
        full, full_inputs = self.step_grads(model, x, y, banks, constant=False)
        fast, fast_inputs = self.step_grads(model, x, y, banks, constant=True)
        assert all(grad is not None for grad in full_inputs)
        assert all(grad is None for grad in fast_inputs)
        for got, ref in zip(fast, full):
            assert np.array_equal(got, ref), method


def tape_nodes(loss):
    """The non-leaf nodes reachable from loss."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if node._parents and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestPinnedTraining:
    """Each method's tape and its 600-step best loss on the reference instance, bit for bit."""

    NODES = {"gatv2": 4, "fagcn": 4, "acm": 9, "gin": 7, "lmgc": 5}
    MIN_MSE = {
        "gatv2": "0x1.14b4be07f7ed8p-4",
        "fagcn": "0x1.10578a837f662p-4",
        "acm": "0x1.dda2cd86c468cp-2",
        "gin": "0x1.04f3313b233dfp-5",
        "lmgc": "0x1.d6137f159da69p-63",
    }

    @pytest.mark.parametrize("method", METHODS)
    def test_tape_nodes(self, method):
        cfg = ExperimentConfig()
        g, x, y = experiment_data(cfg)
        model = build_model(method, g, cfg.d, cfg.c, np.random.default_rng(0), heads=cfg.heads)
        loss = ad.mse(model.forward(ad.Var(x, requires_grad=False)), y)
        assert tape_nodes(loss) == self.NODES[method]

    @pytest.mark.parametrize("method", METHODS)
    def test_600_step_min_mse(self, method):
        result = run_universality_experiment(method, ExperimentConfig(steps=600, lr=0.01, run=0))
        assert not result.diverged
        assert result.min_mse == float.fromhex(self.MIN_MSE[method]), result.min_mse.hex()

    # the wide instance (n=128, d=c=32, 375 edges): a node has up to 14 edges,
    # against at most 5 on the reference instance, so longer segments are summed
    WIDE_MIN_MSE = {
        "gatv2": "0x1.1e1f0456bd142p-1",
        "fagcn": "0x1.9eb13bc970685p-1",
        "acm": "0x1.af3a5fb1774cap-1",
        "gin": "0x1.416237de7a831p-1",
        "lmgc": "0x1.d05ab9cff1f3ep-2",
    }

    @pytest.mark.parametrize("method", METHODS)
    def test_wide_30_step_min_mse(self, method):
        config = ExperimentConfig(n=128, d=32, c=32, p=0.05, steps=30, lr=0.01, run=0)
        result = run_universality_experiment(method, config)
        assert not result.diverged
        assert result.min_mse == float.fromhex(self.WIDE_MIN_MSE[method]), result.min_mse.hex()


class TestRunTraining:
    def test_loss_decreases_on_realizable_target(self):
        # target produced by the model itself must be fit to near zero
        g, x, _ = small_instance(seed=5)
        teacher = build_model("lmgc", g, 3, 3, np.random.default_rng(8), heads=2)
        y = teacher.forward(ad.Var(x)).value
        student = build_model("lmgc", g, 3, 3, np.random.default_rng(9), heads=2)
        min_mse, diverged = run_training(student, x, y, steps=3000, lr=0.01)
        assert not diverged
        assert min_mse <= 1e-8

    def test_huge_learning_rate_flags_divergence(self):
        g, x, y = small_instance(seed=6)
        model = build_model("gin", g, 3, 3, np.random.default_rng(10))
        min_mse, diverged = run_training(model, x, y, steps=20, lr=1e200)
        assert diverged
        assert np.isfinite(min_mse)  # the pre-divergence minimum is kept

    def test_zero_steps_reports_initial_loss(self):
        g, x, y = small_instance(seed=7)
        model = build_model("fagcn", g, 3, 3, np.random.default_rng(11))
        min_mse, diverged = run_training(model, x, y, steps=0, lr=0.01)
        initial = float(ad.mse(model.forward(ad.Var(x)), y).value)
        assert not diverged
        assert np.isclose(min_mse, initial)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("shape", [(8, 16), (16, 15), (24, 16), (16,)])
    def test_x_of_another_shape_rejected(self, method, shape):
        g, _, y = experiment_data(ExperimentConfig())
        model = build_model(method, g, 16, 16, np.random.default_rng(0))
        x = np.ones(shape)
        message = f"x has shape {shape}, but the model takes x of shape (16, 16)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_training(model, x, y, steps=5, lr=0.01)

    @pytest.mark.parametrize("steps", [-1, -5])
    def test_negative_steps_rejected(self, steps):
        g, x, y = small_instance(seed=7)
        model = build_model("gin", g, 3, 3, np.random.default_rng(11))
        with pytest.raises(ValueError, match=f"steps must be at least 0, got {steps}"):
            run_training(model, x, y, steps=steps, lr=0.01)


class TestExperiment:
    def test_instance_is_deterministic_in_seed(self):
        cfg = ExperimentConfig()
        g1, x1, y1 = experiment_data(cfg)
        g2, x2, y2 = experiment_data(cfg)
        assert g1.edges == g2.edges
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_reference_instance_structure(self):
        # frozen facts about the default instance: adjacent twin nodes and a
        # pair of leaves hanging off the same hub
        cfg = ExperimentConfig()
        g, x, y = experiment_data(cfg)
        assert g.n == 16 and len(g.edges) == 19
        a = g.adjacency
        closed = a + np.eye(16)
        np.testing.assert_array_equal(closed[9], closed[13])  # adjacent twins
        assert g.degrees[1] == 1 and g.degrees[10] == 1
        assert g.neighbors[1] == g.neighbors[10]  # leaves sharing one hub
        assert x.shape == (16, 16) and y.shape == (16, 16)

    def test_run_index_changes_initialization_not_instance(self):
        base = ExperimentConfig(steps=5, lr=0.01)
        other = ExperimentConfig(steps=5, lr=0.01, run=1)
        r0 = run_universality_experiment("fagcn", base)
        r1 = run_universality_experiment("fagcn", other)
        assert r0.min_mse != r1.min_mse
        assert r0.seed == r1.seed == REFERENCE_INSTANCE_SEED

    @pytest.mark.parametrize("field, value, rule", [
        ("d", 0, "at least 1"),
        ("c", 0, "at least 1"),
        ("heads", 0, "at least 1"),
        ("steps", -5, "at least 1"),
        ("d", 3.5, "an integer, got 3.5"),
        ("c", True, "an integer, got True"),
        ("steps", 2.0, "an integer, got 2.0"),
        ("n", 16.0, "an integer, got 16.0"),
        ("n", False, "an integer, got False"),
        ("lr", -1.0, "a finite number above 0"),
        ("lr", np.nan, "a finite number above 0"),
        ("n", 1, "at least 2, got 1"),
        ("n", 0, "at least 2, got 0"),
        ("p", 0.0, r"in \(0, 1\], got 0.0"),
        ("p", 1.5, r"in \(0, 1\], got 1.5"),
        ("p", np.nan, r"in \(0, 1\], got nan"),
    ])
    def test_bad_config_rejected(self, field, value, rule):
        with pytest.raises(ValueError, match=f"ExperimentConfig.{field} must be {rule}"):
            ExperimentConfig(**{field: value})

    def test_result_fields_and_determinism(self):
        cfg = ExperimentConfig(steps=50, lr=0.01)
        a = run_universality_experiment("gin", cfg)
        b = run_universality_experiment("gin", cfg)
        assert a.method == "gin" and a.steps == 50 and a.lr == 0.01
        assert a.run == 0 and not a.diverged and a.wall_seconds > 0
        assert a.min_mse == b.min_mse  # bitwise reproducible
