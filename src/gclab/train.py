"""Single-layer trainable models and the universality fitting experiment.

Each method is a thin wrapper around the autodiff primitives exposing a
parameter list and a forward pass X -> (n, c). gatv2, fagcn and lmgc are one
EdgeModel: gclab.lmgc's edge_layer on parameters, as lmgc_forward runs it on
constants, with the gating vectors in lmgc's stacked layout. gin is GIN-0
(eps = 0, hidden width d) through gclab.lmgc's gin_layer, and acm is its own
softmax mix over an A~ and an L channel.
The experiment fixes a connected random graph and Gaussian (X, Y), then
minimizes the MSE of one message-passing layer with Adam and reports the
minimum loss seen.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import autodiff as ad
from ._record import _Frozen, _Record
from .graph import Graph, generate_erdos_renyi, integer_error, laplacian, node_count_error
from .graph import normalized_adjacency, probability_error
from .lmgc import EdgeIndex, Variant, edge_layer, gin_aggregation, gin_layer, stacked_vectors
from .lmgc import vector_length
from .optim import Adam, rate_error
from .seeding import derive_seed

METHODS = ("gatv2", "fagcn", "acm", "gin", "lmgc")
EDGE_VARIANTS = {"gatv2": Variant.GATV2_SOFTMAX, "fagcn": Variant.FAGCN_TANH, "lmgc": Variant.LMGC_EQ14}
DEFAULT_LR_GRID = (0.03, 0.01, 0.003)

# Default instance seed for the target-fitting experiment. Sparse connected
# graphs at p=0.1 routinely contain two leaves attached to the same hub and
# two adjacent nodes with identical closed neighborhoods; this seed yields a
# graph with both patterns, which pin the representational floors of the
# softmax- and sum-aggregation baselines independently of their parameters.
REFERENCE_INSTANCE_SEED = 8211762302750656350


def count_error(value) -> str | None:
    """Why value is no count (a width, head, step or CLI count is an integer of at least 1), or None."""
    return integer_error(value) or (None if value >= 1 else f"must be at least 1, got {value}")


class ExperimentConfig(_Frozen):
    """Settings for one training run.

    `seed` fixes the (graph, X, Y) instance; `run` selects an independent
    parameter initialization on that same instance, mirroring repeated runs
    of the fitting experiment.
    """

    def __init__(self, n: int = 16, d: int = 16, c: int = 16, p: float = 0.1, steps: int = 40000,
                 lr: float = 0.03, seed: int = REFERENCE_INSTANCE_SEED, run: int = 0, heads: int = 4):
        self._set(n=n, d=d, c=c, p=p, steps=steps, lr=lr, seed=seed, run=run, heads=heads)
        errors = [(name, count_error(getattr(self, name))) for name in ("d", "c", "heads", "steps")]
        errors += [("n", node_count_error(n)), ("p", probability_error(p))]
        for name, error in errors + [("lr", rate_error(lr))]:
            if error is not None:
                raise ValueError(f"ExperimentConfig.{name} {error}")


class TrialResult(_Record):
    def __init__(self, method: str, lr: float, seed: int, run: int, steps: int, min_mse: float,
                 wall_seconds: float, diverged: bool = False):
        self.method, self.lr, self.seed, self.run = method, lr, seed, run
        self.steps, self.min_mse, self.wall_seconds, self.diverged = steps, min_mse, wall_seconds, diverged


def _uniform_init(rng, shape):
    fan_in = shape[0]
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Model:
    """Base: subclasses fill self.params and self.input_shape (the (n, d) of
    x) and implement forward(x_var).
    """

    params: list
    input_shape: tuple

    def forward(self, x: ad.Var) -> ad.Var:  # pragma: no cover
        raise NotImplementedError


class EdgeModel(Model):
    """One lmgc.edge_layer on parameters: multi-head GATv2, FAGCN (one head) or eq. 14's LMGC.

    W is (d, K*c), head k's weights in columns k*c:(k+1)*c; V holds the K
    gating vectors in lmgc.stacked_vectors' layout. Each head's (d, c) weights
    are drawn in turn, then each head's vector.
    """

    def __init__(self, variant: Variant, edges: EdgeIndex, d, c, heads, rng):
        self.variant, self.edges = variant, edges
        self.input_shape = (edges.n, d)
        self.k = 1 if variant is Variant.FAGCN_TANH else heads
        length = vector_length(variant, self.k, d, c)
        w = [_uniform_init(rng, (d, c)) for _ in range(self.k)]
        v = [_uniform_init(rng, (length,)) for _ in range(self.k)]
        self.w = ad.Var(np.concatenate(w, axis=1))
        self.v = ad.Var(stacked_vectors(variant, v))
        self.params = [self.w, self.v]

    def forward(self, x):
        out, _, _ = edge_layer(self.variant, x, self.w, self.v, self.edges, self.k)
        return out


class AcmModel(Model):
    """Adaptive channel mixing: a low-pass (A~) and a high-pass (L) filterbank
    with ReLU channel filters and a learned per-node softmax mix over the two.

    The channels are stacked: one (2, n, n) operator, W (2, d, c) and
    V (2, c, 1), channel k's score vector in V[k].
    """

    def __init__(self, g: Graph, d, c, rng):
        self.graphs = ad.Var(np.stack([normalized_adjacency(g), laplacian(g)]), requires_grad=False)
        self.input_shape = (g.n, d)
        w = [_uniform_init(rng, (d, c)) for _ in range(2)]
        v = [_uniform_init(rng, (c, 1)) for _ in range(2)]
        self.w, self.v = ad.Var(np.stack(w)), ad.Var(np.stack(v))
        self.params = [self.w, self.v]
        self.channels = np.array([0, 2])  # one softmax segment: both channels of a node

    def forward(self, x):
        h = ad.relu(ad.matmul(self.graphs, ad.matmul(x, self.w)))  # (C, n, c)
        alpha = ad.segment_softmax(ad.matmul(h, self.v), self.channels)  # (C, n, 1)
        count, n, c = h.shape
        mixed = ad.scatter_sum(ad.mul(alpha, h), np.zeros(count, dtype=np.intp), 1)
        return ad.reshape(mixed, (n, c))


class GinModel(Model):
    """GIN-0 with hidden width d: W1 (d, d), b1 (d,), W2 (d, c), b2 (c,)."""

    def __init__(self, g: Graph, d, c, rng):
        self.agg = ad.Var(gin_aggregation(g), requires_grad=False)
        self.input_shape = (g.n, d)
        w1, w2 = _uniform_init(rng, (d, d)), _uniform_init(rng, (d, c))
        self.params = [ad.Var(m) for m in (w1, np.zeros(d), w2, np.zeros(c))]

    def forward(self, x):
        return gin_layer(self.agg, x, *self.params)


def build_model(method: str, g: Graph, d: int, c: int, rng, heads: int = 4) -> Model:
    method = method.lower()
    edges = EdgeIndex.of(g)
    if method in EDGE_VARIANTS:
        return EdgeModel(EDGE_VARIANTS[method], edges, d, c, heads, rng)
    if method == "acm":
        return AcmModel(g, d, c, rng)
    if method == "gin":
        return GinModel(g, d, c, rng)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def run_training(model: Model, x: np.ndarray, y: np.ndarray, steps: int, lr: float):
    """Adam loop returning (minimum MSE seen, diverged flag).

    steps = 0 evaluates the initial loss only; a negative count, or an x
    whose shape is not the model's (n, d), is rejected before the first step.
    """
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    if np.shape(x) != model.input_shape:
        raise ValueError(f"x has shape {np.shape(x)}, but the model takes x of shape {model.input_shape}")
    x_var = ad.Var(x, requires_grad=False)
    opt = Adam(model.params, lr)
    min_mse = np.inf
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            ad.zero_grads(model.params)
            loss = ad.mse(model.forward(x_var), y)
            value = float(loss.value)
            if not math.isfinite(value):
                diverged = True
                break
            min_mse = min(min_mse, value)
            ad.backward(loss)
            opt.step()
        final = float(ad.mse(model.forward(x_var), y).value)
    if math.isfinite(final):
        min_mse = min(min_mse, final)
    else:
        diverged = True
    return min_mse, diverged


def experiment_data(config: ExperimentConfig):
    """The fixed (graph, X, Y) instance shared by all methods for one seed."""
    g = generate_erdos_renyi(config.n, config.p, derive_seed(config.seed, 0))
    x = np.random.default_rng(derive_seed(config.seed, 1)).standard_normal(
        (config.n, config.d)
    )
    y = np.random.default_rng(derive_seed(config.seed, 2)).standard_normal(
        (config.n, config.c)
    )
    return g, x, y


def run_universality_experiment(method: str, config: ExperimentConfig) -> TrialResult:
    """Fit one layer of `method` to a random target and report the best MSE."""
    g, x, y = experiment_data(config)
    rng = np.random.default_rng(derive_seed(config.seed, 3, config.run))
    model = build_model(method, g, config.d, config.c, rng, heads=config.heads)
    start = time.perf_counter()
    min_mse, diverged = run_training(model, x, y, config.steps, config.lr)
    wall = time.perf_counter() - start
    return TrialResult(
        method=method,
        lr=config.lr,
        seed=config.seed,
        run=config.run,
        steps=config.steps,
        min_mse=min_mse,
        wall_seconds=wall,
        diverged=diverged,
    )
