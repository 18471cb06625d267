"""Spectral graph convolution laboratory.

Exact MIMO graph convolutions built from the graph Fourier basis, localized
multi-graph message passing with pluggable edge-coefficient schemes, a small
reverse-mode trainer for single-layer fitting experiments, and randomized
verification of the multiset injectivity/independence properties.

Importing gclab fixes glibc's heap thresholds (see gclab._heap), so the
numpy temporaries of every hot loop reuse freed pages.
"""

from . import _heap
from .graph import (
    Graph,
    generate_erdos_renyi,
    is_connected,
    laplacian,
    load_edge_list,
    normalized_adjacency,
    save_edge_list,
)
from .spectral import (
    SpectralBasis,
    eigendecompose_symmetric,
    graph_fourier,
    inverse_fourier,
    rank_one_graph,
)
from .convolution import (
    FilterTensor,
    SpectralResponse,
    WeightStack,
    filter_response,
    mimo_gc,
    mimo_gc_oracle,
    mimo_polynomial,
    polynomial_as_mimo_filter,
    sca_repeated_gcn,
    siso_gc,
    universality_filter,
    weight_stack_from_filter,
)
from .lmgc import (
    CoefficientScheme,
    ComputationalGraphSet,
    LmgcLayer,
    Variant,
    compute_coefficients,
    gin_forward,
    lmgc_forward,
    pairwise_transform,
)
from .train import (
    REFERENCE_INSTANCE_SEED,
    ExperimentConfig,
    TrialResult,
    run_universality_experiment,
)
from .verify import TrialReport, independence_trial, injectivity_trial

_heap.keep_freed_pages()

__all__ = [
    "Graph",
    "generate_erdos_renyi",
    "is_connected",
    "laplacian",
    "load_edge_list",
    "normalized_adjacency",
    "save_edge_list",
    "SpectralBasis",
    "eigendecompose_symmetric",
    "graph_fourier",
    "inverse_fourier",
    "rank_one_graph",
    "FilterTensor",
    "SpectralResponse",
    "WeightStack",
    "filter_response",
    "mimo_gc",
    "mimo_gc_oracle",
    "mimo_polynomial",
    "polynomial_as_mimo_filter",
    "sca_repeated_gcn",
    "siso_gc",
    "universality_filter",
    "weight_stack_from_filter",
    "CoefficientScheme",
    "ComputationalGraphSet",
    "LmgcLayer",
    "Variant",
    "compute_coefficients",
    "gin_forward",
    "lmgc_forward",
    "pairwise_transform",
    "REFERENCE_INSTANCE_SEED",
    "ExperimentConfig",
    "TrialResult",
    "run_universality_experiment",
    "TrialReport",
    "independence_trial",
    "injectivity_trial",
]
