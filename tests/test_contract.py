"""The contract of the array entry points: bad input fails loudly and names the argument.

One property test corrupts one argument of one entry point at a time, by a
wrong rank, a wrong size on an axis the call fixes, or a NaN (a size
argument of build_model by a value that is no count), and expects a
ValueError whose message starts with that argument's name. The regression
tests below it pin the inputs that once returned a result without a word.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclab.convolution import (
    FilterTensor,
    WeightStack,
    mimo_gc,
    mimo_gc_oracle,
    mimo_gc_pairwise,
    mimo_gc_vectorized_oracle,
    siso_gc,
    universality_filter,
)
from gclab.graph import generate_erdos_renyi, laplacian
from gclab.lmgc import CoefficientScheme, LmgcLayer, Variant, compute_coefficients, gin_forward, lmgc_forward
from gclab.spectral import eigendecompose_symmetric, graph_fourier, inverse_fourier
from gclab.train import build_model, run_training

N, D, C, H = 6, 3, 2, 4
G = generate_erdos_renyi(N, 0.5, seed=3)
BASIS = eigendecompose_symmetric(laplacian(G))
RNG = np.random.default_rng(4)
X, Y = RNG.standard_normal((N, D)), RNG.standard_normal((N, C))
THETA = FilterTensor(RNG.standard_normal((N, C, D)), BASIS.basis_id)
STACK = WeightStack(RNG.standard_normal((N, D, C)))
GATV2 = LmgcLayer(RNG.standard_normal((2, D, C)), CoefficientScheme(
    Variant.GATV2_SOFTMAX, 2, tuple(RNG.standard_normal(C) for _ in range(2))))
MODEL = build_model("gin", G, D, C, np.random.default_rng(5))
MLP = {"W1": RNG.standard_normal((D, H)), "b1": RNG.standard_normal(H),
       "W2": RNG.standard_normal((H, C)), "b2": RNG.standard_normal(C)}

# entry point: (call on keyword arrays, the valid arrays, the axes the call fixes per array)
CASES = {
    "graph_fourier": (lambda x: graph_fourier(BASIS, x), {"x": X}, {"x": (0,)}),
    "inverse_fourier": (lambda x_hat: inverse_fourier(BASIS, x_hat), {"x_hat": X}, {"x_hat": (0,)}),
    "siso_gc": (lambda theta, x: siso_gc(theta, x, BASIS), {"theta": X[:, 0], "x": X[:, :1]},
                {"theta": (0,), "x": (0, 1)}),
    "mimo_gc": (lambda x: mimo_gc(THETA, x, BASIS), {"x": X}, {"x": (0, 1)}),
    "mimo_gc_oracle": (lambda x: mimo_gc_oracle(THETA, x, BASIS), {"x": X}, {"x": (0, 1)}),
    "mimo_gc_vectorized_oracle": (lambda x: mimo_gc_vectorized_oracle(THETA, x, BASIS), {"x": X}, {"x": (0, 1)}),
    "mimo_gc_pairwise": (lambda x: mimo_gc_pairwise(STACK, x, BASIS), {"x": X}, {"x": (0, 1)}),
    "universality_filter": (lambda x, y: universality_filter(x, y, BASIS), {"x": X, "y": Y}, {"x": (0,), "y": (0,)}),
    "FilterTensor": (lambda values: FilterTensor(values, BASIS.basis_id), {"values": THETA.values}, {"values": ()}),
    "WeightStack": (WeightStack, {"matrices": STACK.matrices}, {"matrices": ()}),
    "lmgc_forward": (lambda x: lmgc_forward(GATV2, x, G), {"x": X}, {"x": (0, 1)}),
    "compute_coefficients": (
        lambda x, weights: compute_coefficients(CoefficientScheme(Variant.RANDOM_IID, 2), x, G, weights),
        {"x": X, "weights": GATV2.weights}, {"x": (0, 1), "weights": (0,)}),
    "gin_forward": (lambda x, **mlp: gin_forward(x, G, tuple(mlp[k] for k in MLP)), {"x": X, **MLP},
                    {"x": (0,), "W1": (0,), "b1": (0,), "W2": (0,), "b2": (0,)}),
    "build_model": (lambda d, c, heads: build_model("gatv2", G, d, c, np.random.default_rng(0), heads),
                    {"d": D, "c": C, "heads": 2}, {"d": (), "c": (), "heads": ()}),
    "run_training": (lambda x, y: run_training(MODEL, x, y, steps=1, lr=0.01), {"x": X, "y": Y},
                     {"x": (0, 1), "y": (0,)}),
}


def corrupted(data, array, fixed):
    """array with one drawn fault: an extra axis, another size on a fixed axis, or a NaN; a size, no count."""
    if isinstance(array, int):
        return data.draw(st.sampled_from([0, -1, 1.5, True]), label="size")
    faults = ["rank", "nan"] + (["size"] if fixed else [])
    fault = data.draw(st.sampled_from(faults), label="fault")
    if fault == "rank":
        return array[None] if data.draw(st.booleans(), label="leading axis") else array[..., None]
    if fault == "nan":
        bad = array.copy()
        bad.flat[data.draw(st.integers(0, array.size - 1), label="at")] = np.nan
        return bad
    axis = data.draw(st.sampled_from(fixed), label="axis")
    size = data.draw(st.integers(1, array.shape[axis] + 2).filter(lambda s: s != array.shape[axis]), label="size")
    shape = list(array.shape)
    shape[axis] = size
    return np.ones(shape)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_corrupted_array_argument_raises_a_value_error_that_names_it(data):
    call, arrays, fixed = CASES[data.draw(st.sampled_from(sorted(CASES)), label="entry point")]
    name = data.draw(st.sampled_from(sorted(arrays)), label="argument")
    args = dict(arrays, **{name: corrupted(data, arrays[name], fixed[name])})
    with pytest.raises(ValueError, match=f"^{name} must "):
        call(**args)


@pytest.mark.parametrize("transform, name", [(graph_fourier, "x"), (inverse_fourier, "x_hat")])
def test_fourier_rejects_a_3d_signal(transform, name):
    with pytest.raises(ValueError, match=rf"^{name} must have shape \({N}, d\), got \({N}, {N}, 1\)$"):
        transform(BASIS, np.ones((N, N, 1)))


@pytest.mark.parametrize("name, shape", [("b1", (1,)), ("b1", (N, H)), ("b2", (1,)), ("b2", (N, C))])
def test_gin_forward_rejects_a_bias_that_would_broadcast(name, shape):
    mlp = dict(MLP, **{name: np.ones(shape)})
    width = H if name == "b1" else C
    with pytest.raises(ValueError, match=rf"^{name} must have shape \({width},\), got {re.escape(str(shape))}$"):
        gin_forward(X, G, tuple(mlp.values()))


def test_siso_gc_rejects_a_2d_theta_with_n_entries():
    with pytest.raises(ValueError, match=rf"^theta must have shape \({N},\), got \(2, 3\)$"):
        siso_gc(np.ones((2, 3)), np.ones(N), BASIS)


@pytest.mark.parametrize("call, want", [(lambda x: graph_fourier(BASIS, x), f"({N},)"),
                                        (lambda x: mimo_gc(THETA, x, BASIS), f"({N}, {D})")])
def test_a_1d_signal_is_named_with_its_own_shape(call, want):
    with pytest.raises(ValueError, match=f"^x must have shape {re.escape(want)}, got \\(5,\\)$"):
        call(np.ones(5))
