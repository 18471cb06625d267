"""Exact SISO and MIMO graph convolutions and spectral-response analysis.

The MIMO convolution of a filter tensor with a multi-channel signal is
computed as a sum of rank-one spectral projectors, sum_k A^(k) X W^(k).
Several independent routes to the same value (channel-pair SISO sums, the
per-node pairwise form, and a vectorized block-diagonal form) are kept as
oracles for cross-checking. Array arguments go through graph.checked_array:
a filter tensor is (n, c, d), a weight stack (count, d, c), a signal (n, d).
"""

from __future__ import annotations

import numpy as np

from ._record import _Frozen
from .graph import check, checked_array, finite_error, integer_error
from .spectral import SpectralBasis, Spectrum, _check_signal, graph_fourier

UNIVERSALITY_MIN_COMPONENT = 1e-9


class FilterTensor(_Frozen):
    """General MIMO filter: values[i, q, p] maps input channel p to output q.

    Shape is (n, c, d). The tensor is tied to the spectral basis it was
    built against via basis_id; mixing bases silently changes the meaning
    of every entry, so operations check the id.
    """

    def __init__(self, values: np.ndarray, basis_id: str):
        self._set(values=checked_array("values", values, "n", "c", "d"), basis_id=basis_id)

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def c(self):
        return self.values.shape[1]

    @property
    def d(self):
        return self.values.shape[2]


class WeightStack(_Frozen):
    """Ordered list of per-component weight matrices W^(k), each d x c."""

    def __init__(self, matrices: np.ndarray):
        self._set(matrices=checked_array("matrices", matrices, "count", "d", "c"))

    @property
    def count(self):
        return self.matrices.shape[0]

    @property
    def d(self):
        return self.matrices.shape[1]

    @property
    def c(self):
        return self.matrices.shape[2]


class SpectralResponse(_Frozen):
    """Per-component filter response sampled at the basis eigenvalues."""

    def __init__(self, eigenvalues: np.ndarray, response: np.ndarray):
        self._set(eigenvalues=eigenvalues, response=response)

    def dominance_ratio(self) -> float:
        """|largest| / |second largest| absolute response; inf when n == 1."""
        mags = np.sort(np.abs(self.response))[::-1]
        if len(mags) < 2:
            return np.inf
        if mags[1] == 0.0:
            return np.inf
        return float(mags[0] / mags[1])


def _check_basis(theta: FilterTensor, basis: SpectralBasis):
    if theta.basis_id != basis.basis_id:
        raise ValueError("filter tensor was built against a different basis")
    if theta.n != basis.n:
        raise ValueError(f"filter tensor has {theta.n} nodes, basis has {basis.n}")


def _check_stack(stack: WeightStack, basis: SpectralBasis):
    if stack.count != basis.n:
        raise ValueError(f"stack must hold one matrix per spectral component: "
                         f"it holds {stack.count}, basis has {basis.n}")


def siso_gc(theta: np.ndarray, x: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Single-channel convolution U diag(U^T theta) U^T x; theta is (n,), x (n,) or (n, 1)."""
    theta = checked_array("theta", theta, basis.n)
    return _siso(theta, _check_signal(basis, x, 1)[:, 0], basis.eigenvectors)


def _siso(theta, x, u):
    """siso_gc's product on checked length-n vectors."""
    return u @ ((u.T @ theta) * (u.T @ x))


def weight_stack_from_filter(theta: FilterTensor, basis: SpectralBasis) -> WeightStack:
    """Fourier-transform the filter along the node axis: W^(k) = (F(theta)_k)^T."""
    _check_basis(theta, basis)
    # mode-1 product U^T x_1 theta as one (n, n) by (n, c d) product, a c x d slab per component;
    # FilterTensor checked theta finite, so it skips graph_fourier's signal check
    n, c, d = theta.values.shape
    hat = (basis.eigenvectors.T @ theta.values.reshape(n, c * d)).reshape(n, c, d)
    return WeightStack(np.transpose(hat, (0, 2, 1)).copy())


def filter_from_weight_stack(stack: WeightStack, basis: SpectralBasis) -> FilterTensor:
    """Inverse of weight_stack_from_filter; stack must hold n matrices."""
    _check_stack(stack, basis)
    # WeightStack checked the matrices finite, so the product skips inverse_fourier's signal check
    n, d, c = stack.matrices.shape
    hat = np.transpose(stack.matrices, (0, 2, 1)).reshape(n, c * d)
    return FilterTensor((basis.eigenvectors @ hat).reshape(n, c, d), basis.basis_id)


def mimo_gc(theta: FilterTensor, x: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Exact MIMO convolution: sum_k U_{:,k} (U_{:,k}^T X) W^(k)."""
    return mimo_gc_from_stack(weight_stack_from_filter(theta, basis), x, basis)


def mimo_gc_from_stack(stack: WeightStack, x: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Convolution given the spectral weight stack directly."""
    _check_stack(stack, basis)
    x = _check_signal(basis, x, stack.d)
    u = basis.eigenvectors
    return u @ np.einsum("kd,kdc->kc", u.T @ x, stack.matrices)


def mimo_gc_oracle(theta: FilterTensor, x: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Channel-pair route: output channel q = sum_p siso_gc(theta[:, q, p], x[:, p])."""
    _check_basis(theta, basis)
    x = _check_signal(basis, x, theta.d)
    out = np.zeros((theta.n, theta.c))
    for q in range(theta.c):
        for p in range(theta.d):
            out[:, q] += _siso(theta.values[:, q, p], x[:, p], basis.eigenvectors)
    return out


def mimo_gc_vectorized_oracle(theta: FilterTensor, x: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Kronecker route: (I_c kron U) D (I_d kron U^T) vec(X) with D block-diagonal.

    D interleaves the Fourier-domain filter entries so that block (q, p)
    is diag over spectral components of F(theta)[:, q, p].
    """
    _check_basis(theta, basis)
    x = _check_signal(basis, x, theta.d)
    n, c, d = theta.n, theta.c, theta.d
    u = basis.eigenvectors
    hat = np.einsum("ik,icd->kcd", u, theta.values)
    # each dense factor is built just before its product and freed after it, so
    # one (n c, n d)-sized matrix is alive at a time and the next is built in
    # its still-cached memory: 1.16 against 1.26 ms with all three alive (n=128,
    # c=d=4, one BLAS thread on a 2-CPU host)
    vec = _kron_eye(d, u.T) @ x.reshape(-1, order="F")
    vec = _block_diagonal(hat) @ vec
    vec = _kron_eye(c, u) @ vec
    return vec.reshape((n, c), order="F")


def _block_diagonal(hat: np.ndarray) -> np.ndarray:
    """D of the Kronecker route for hat = F(theta), (n, c, d): block (q, p) is diag(hat[:, q, p])."""
    n, c, d = hat.shape
    k = np.arange(n)
    rows = np.arange(c)[:, None, None] * n + k  # entry (q, p, k) sits at (q n + k, p n + k)
    cols = np.arange(d)[None, :, None] * n + k
    big = np.zeros((n * c, n * d))
    big[rows, cols] = hat.transpose(1, 2, 0)
    return big


def _kron_eye(count: int, block: np.ndarray) -> np.ndarray:
    """I_count kron block, written block by block into zeros.

    I_1 kron block is the block itself, in its own memory layout as np.kron
    leaves it, so the products keep np.kron's summation order bit for bit.
    """
    if count == 1:
        return block
    m = block.shape[0]
    out = np.zeros((count * m, count * m))
    for q in range(count):
        out[q * m : (q + 1) * m, q * m : (q + 1) * m] = block
    return out


def mimo_gc_pairwise(stack: WeightStack, x: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Node-form evaluation: row i = sum_j X_{j,:} W_(i,j).

    The transforms W_(i,j) = sum_k U[i,k] U[j,k] W^(k) are built explicitly,
    one weight entry (p, q) at a time: entry (p, q) of every W_(i,j) is entry
    (i, j) of the n x n matrix U diag(W^(k)[p, q]) U^T. So the route stays an
    independent oracle, holds one n x n matrix at a time and no (n, n, d, c)
    temporary, and runs d c square products.
    """
    _check_stack(stack, basis)
    x = _check_signal(basis, x, stack.d)
    u = basis.eigenvectors
    out = np.zeros((stack.count, stack.c))
    for p in range(stack.d):
        for q in range(stack.c):
            w_pq = (u * stack.matrices[:, p, q]) @ u.T  # w_pq[i, j] = W_(i,j)[p, q]
            out[:, q] += w_pq @ x[:, p]
    return out


def universality_filter(x: np.ndarray, y: np.ndarray, basis: SpectralBasis) -> FilterTensor:
    """Construct a filter mapping x exactly to y.

    Requires every spectral component of x to be non-zero; with
    a^(k) = U_{:,k}^T X and b^(k) = U_{:,k}^T Y the weights are
    W^(k)[m, q] = b^(k)[q] / (d * a^(k)[m]), which makes each component
    of the output match y's component exactly.
    """
    a = graph_fourier(basis, x)  # (n, d)
    b = graph_fourier(basis, _check_signal(basis, y, "c", "y"))  # (n, c)
    if np.min(np.abs(a)) <= UNIVERSALITY_MIN_COMPONENT:
        raise ValueError(
            "universality precondition violated: input has a near-zero "
            "spectral component"
        )
    d = a.shape[1]
    # W^(k) = (1/d) (1/a^(k))^T b^(k), outer product per component
    mats = (1.0 / a)[:, :, None] * b[:, None, :] / d  # (n, d, c)
    return filter_from_weight_stack(WeightStack(mats), basis)


def _polynomial_terms(v_list) -> list:
    """The terms V^(0), ..., V^(K) as float arrays; they must be one or more (d, c) matrices."""
    terms = [np.asarray(v, dtype=float) for v in v_list]
    shapes = sorted({t.shape for t in terms})
    if len(shapes) != 1 or len(shapes[0]) != 2:
        raise ValueError(f"v_list must hold one or more (d, c) matrices of one shape; got shapes {shapes}")
    check(finite_error, v_list=terms)
    return terms


def mimo_polynomial(a_sym: np.ndarray, x: np.ndarray, v_list) -> np.ndarray:
    """Polynomial filter sum_{k=0}^K A_sym^k X V^(k); a_sym is (n, n), x (n, d) and each term (d, c)."""
    terms = _polynomial_terms(v_list)
    a_sym = checked_array("a_sym", a_sym, "n", "n")
    x = checked_array("x", x, len(a_sym), terms[0].shape[0])
    out = np.zeros((x.shape[0], terms[0].shape[1]))
    power_x = x.copy()
    for v in terms:
        out += power_x @ v
        power_x = a_sym @ power_x
    return out


def polynomial_as_mimo_filter(v_list, basis: SpectralBasis) -> WeightStack:
    """Spectral stack of the polynomial filter: W^(j) = sum_k mu_j^k V^(k).

    mu_j are eigenvalues of A_sym, i.e. 1 - lambda_j of L_sym; the
    conversion is centralized here to keep the two spectra straight.
    """
    v = np.stack(_polynomial_terms(v_list))  # (K+1, d, c)
    mu = basis.adjacency_eigenvalues()
    powers = mu[:, None] ** np.arange(len(v))[None, :]  # (n, K+1)
    return WeightStack(np.einsum("jk,kdc->jdc", powers, v))


def filter_response(stack: WeightStack, basis: SpectralBasis, in_channel: int, out_channel: int) -> SpectralResponse:
    """Response of one input/output channel pair across spectral components."""
    _check_stack(stack, basis)
    check(integer_error, in_channel=in_channel, out_channel=out_channel)
    if not 0 <= in_channel < stack.d:
        raise IndexError(f"input channel {in_channel} out of range")
    if not 0 <= out_channel < stack.c:
        raise IndexError(f"output channel {out_channel} out of range")
    return SpectralResponse(
        basis.eigenvalues.copy(),
        stack.matrices[:, in_channel, out_channel].copy(),
    )


def sca_repeated_gcn(weights, spectrum: Spectrum) -> SpectralResponse:
    """Composed response of k first-order filters: prod_i (w_i mu_j) per component.

    Only the eigenvalues are read, so a SpectralBasis or a Spectrum will do.
    """
    weights = checked_array("weights", weights, "k")
    if len(weights) < 1:
        raise ValueError("need at least one filter weight")
    mu = spectrum.adjacency_eigenvalues()
    response = np.prod(weights) * mu ** len(weights)
    return SpectralResponse(spectrum.eigenvalues.copy(), response)
