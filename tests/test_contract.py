"""The contract of the array entry points: bad input fails loudly and names the argument.

One property test corrupts one argument of one entry point at a time, by a
wrong rank, a wrong size on an axis the call fixes, a NaN, or a value that
is no array of numbers (a size argument of build_model by a value that is no
count), and expects a ValueError whose message starts with that argument's
name. A guard keeps every public callable that takes an array among the
entry points. The regression tests below them pin the inputs that once
returned a result without a word, failed with numpy's own message, or
failed with a message that did not start with the argument's name.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gclab
from gclab.convolution import (
    FilterTensor,
    WeightStack,
    mimo_gc,
    mimo_gc_oracle,
    mimo_gc_pairwise,
    mimo_gc_vectorized_oracle,
    mimo_polynomial,
    polynomial_as_mimo_filter,
    sca_repeated_gcn,
    siso_gc,
    universality_filter,
)
from gclab.graph import generate_erdos_renyi, laplacian, normalized_adjacency
from gclab.lmgc import CoefficientScheme, ComputationalGraphSet, LmgcLayer, Variant, compute_coefficients
from gclab.lmgc import gin_forward, lmgc_forward
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
V_LIST = RNG.standard_normal((3, D, C))  # the terms of a degree-2 polynomial filter
CGS = compute_coefficients(CoefficientScheme(Variant.RANDOM_IID, 2), X, G, GATV2.weights)

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
    "mimo_polynomial": (mimo_polynomial, {"a_sym": normalized_adjacency(G), "x": X, "v_list": V_LIST},
                        {"a_sym": (0, 1), "x": (0, 1), "v_list": ()}),
    "polynomial_as_mimo_filter": (lambda v_list: polynomial_as_mimo_filter(v_list, BASIS), {"v_list": V_LIST},
                                  {"v_list": ()}),
    "sca_repeated_gcn": (lambda weights: sca_repeated_gcn(weights, BASIS), {"weights": RNG.standard_normal(3)},
                         {"weights": ()}),
    "eigendecompose_symmetric": (eigendecompose_symmetric, {"m": laplacian(G)}, {"m": (0, 1)}),
    "ComputationalGraphSet": (lambda matrices: ComputationalGraphSet(matrices, G), {"matrices": CGS.matrices},
                              {"matrices": (1, 2)}),
    "LmgcLayer": (  # the gating vectors as one (K, c) array, a vector per row
        lambda weights, vectors: LmgcLayer(weights, CoefficientScheme(Variant.GATV2_SOFTMAX, 2, tuple(vectors))),
        {"weights": GATV2.weights, "vectors": np.stack(GATV2.scheme.vectors)}, {"weights": (0,), "vectors": (0, 1)}),
}

# public callables that take no array of their own: sizes, seeds, graphs, paths, or records that checked theirs
NO_ARRAYS = {
    "Graph", "generate_erdos_renyi", "is_connected", "laplacian", "load_edge_list", "normalized_adjacency",
    "save_edge_list", "rank_one_graph", "filter_response", "weight_stack_from_filter", "pairwise_transform",
    "Variant", "ExperimentConfig", "TrialResult", "run_universality_experiment", "TrialReport",
    "independence_trial", "injectivity_trial",
}
# public callables that take arrays they do not check, and why
UNCHECKED = {
    "SpectralBasis": "the record eigendecompose_symmetric returns, built from its own solve",
    "SpectralResponse": "the record filter_response and sca_repeated_gcn return, built from checked arrays",
    "CoefficientScheme": "it checks only how many gating vectors it holds; LmgcLayer checks their length and "
                         "values against the (K, d, c) the scheme does not know",
}
NO_NUMBERS = ["abc", [[1.0, 2.0], [3.0]], {"a": 1}]  # a string, a ragged list and a dict


def corrupted(data, array, fixed):
    """array with one drawn fault: an extra axis, another size on a fixed axis, a NaN or a value that is no
    array of numbers; a size argument by a value that is no count."""
    if isinstance(array, int):
        return data.draw(st.sampled_from([0, -1, 1.5, True]), label="size")
    faults = ["rank", "nan", "no numbers"] + (["size"] if fixed else [])
    fault = data.draw(st.sampled_from(faults), label="fault")
    if fault == "no numbers":
        return data.draw(st.sampled_from(NO_NUMBERS), label="value")
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


def test_every_public_callable_that_takes_an_array_is_an_entry_point():
    public = {name for name in gclab.__all__ if callable(getattr(gclab, name))}
    unlisted = public - set(CASES) - NO_ARRAYS - set(UNCHECKED)
    assert unlisted == set(), f"{sorted(unlisted)} are neither entry points nor listed as taking no checked array"
    assert NO_ARRAYS | set(UNCHECKED) <= public - set(CASES)  # the lists name public callables, and no entry point


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


def test_gin_forward_names_an_mlp_of_three_arrays():
    with pytest.raises(ValueError, match=r"^mlp must be the four arrays \(W1, b1, W2, b2\): "
                                         r"not enough values to unpack \(expected 4, got 3\)$"):
        gin_forward(X, G, tuple(MLP.values())[:3])


def test_a_gating_vector_that_is_no_array_of_numbers_is_named():
    vectors = (np.ones(C), [[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError, match="^vectors must be an array of numbers: setting an array element"):
        LmgcLayer(GATV2.weights, CoefficientScheme(Variant.GATV2_SOFTMAX, 2, vectors))


def test_sca_repeated_gcn_names_empty_weights():
    with pytest.raises(ValueError, match=r"^weights must hold one or more filter weights, got shape \(0,\)$"):
        sca_repeated_gcn([], BASIS)


@pytest.mark.parametrize("vectors, want", [
    ((np.ones(C),), r"hold 2 gating vector\(s\) for gatv2_softmax, one per head; got 1$"),
    ((np.ones(C), np.ones(C + 1)), r"have length 2 for gatv2_softmax at \(K, d, c\) = \(2, 3, 2\); "
                                   r"got shapes \[\(2,\), \(3,\)\]$"),
], ids=["count", "length"])
def test_a_wrong_count_or_length_of_gating_vectors_is_named(vectors, want):
    with pytest.raises(ValueError, match=f"^vectors must {want}"):
        LmgcLayer(GATV2.weights, CoefficientScheme(Variant.GATV2_SOFTMAX, 2, vectors))
