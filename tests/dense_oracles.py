"""Dense matrix forms that the tests check gclab's routes against; gclab runs none of them.

forward_from_coefficients multiplies out lmgc's (K, n, n) coefficient stack,
pairwise_weight builds one node pair's spectral transform, and
gcn_as_mimo_stack is the first-order case of polynomial_as_mimo_filter.
"""

import numpy as np

from gclab.convolution import WeightStack, _check_stack, polynomial_as_mimo_filter
from gclab.lmgc import ComputationalGraphSet, LmgcLayer
from gclab.spectral import SpectralBasis


def forward_from_coefficients(layer: LmgcLayer, cgs: ComputationalGraphSet, x: np.ndarray) -> np.ndarray:
    """sum_k A^(k) X W^(k) with the dense coefficient matrices A^(k)."""
    out = np.zeros((cgs.graph.n, layer.c))
    for k in range(layer.k):
        out += cgs.matrices[k] @ (x @ layer.weights[k])
    return out


def pairwise_weight(stack: WeightStack, basis: SpectralBasis, i: int, j: int) -> np.ndarray:
    """Per-node-pair transform W_(i,j) = (sum_k U_ik U_jk W^(k))^T, shape c x d."""
    _check_stack(stack, basis)
    u = basis.eigenvectors
    coeff = u[i, :] * u[j, :]
    return np.einsum("k,kdc->cd", coeff, stack.matrices)


def gcn_as_mimo_stack(v: np.ndarray, basis: SpectralBasis) -> WeightStack:
    """First-order case W^(j) = mu_j V, the spectral form of A_sym X V."""
    return polynomial_as_mimo_filter([np.zeros_like(v), v], basis)
