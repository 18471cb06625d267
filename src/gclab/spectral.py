"""Symmetric eigendecomposition and the graph Fourier transform.

The Fourier basis is the eigenvector matrix U of the normalized Laplacian;
the forward transform is U^T applied along the node axis.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ._record import _Frozen
from .graph import check, finite_error, integer_error

SYMMETRY_TOL = 1e-10


class Spectrum(_Frozen):
    """Eigenvalues (ascending) of a symmetric matrix, without eigenvectors."""

    def __init__(self, eigenvalues: np.ndarray):
        self._set(eigenvalues=eigenvalues)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def adjacency_eigenvalues(self) -> np.ndarray:
        """Spectrum of A_sym when these are the eigenvalues of L_sym: mu = 1 - lambda."""
        return 1.0 - self.eigenvalues


class SpectralBasis(Spectrum):
    """Eigenvalues (ascending) and orthonormal eigenvectors, column k per pair.

    The sign of each eigenvector is fixed so that its first component with
    absolute value above 1e-10 is positive, making the basis deterministic
    for simple spectra.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        self._set(eigenvalues=eigenvalues, eigenvectors=eigenvectors)

    @property
    def basis_id(self) -> str:
        h = hashlib.sha256()
        h.update(self.eigenvalues.tobytes())
        h.update(self.eigenvectors.tobytes())
        return h.hexdigest()[:16]


def _symmetrized(m) -> np.ndarray:
    """0.5 (m + m^T) of a finite non-empty square matrix that is symmetric within SYMMETRY_TOL."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"input must be a non-empty square matrix, got shape {m.shape}")
    check(finite_error, m=m)
    if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
        raise ValueError("input matrix is not symmetric within 1e-10")
    return 0.5 * (m + m.T)


def symmetric_spectrum(m: np.ndarray) -> Spectrum:
    """Eigenvalues only, ascending, via LAPACK (numpy.linalg.eigvalsh).

    The input checks and symmetrization are eigendecompose_symmetric's.
    """
    return Spectrum(np.linalg.eigvalsh(_symmetrized(m)))


def eigendecompose_symmetric(m: np.ndarray) -> SpectralBasis:
    """Full eigendecomposition of a symmetric matrix via LAPACK (numpy.linalg.eigh).

    The input is symmetrized before the solve; eigenvalues come back in
    stable ascending order and each eigenvector's first entry with absolute
    value above 1e-10 is made positive.
    """
    eigenvalues, vectors = np.linalg.eigh(_symmetrized(m))
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    lead = np.argmax(np.abs(vectors) > 1e-10, axis=0)
    vectors *= np.where(vectors[lead, np.arange(len(lead))] < 0, -1.0, 1.0)
    return SpectralBasis(eigenvalues, vectors)


def _check_signal(basis: SpectralBasis, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != basis.n:
        raise ValueError(
            f"signal has {x.shape[0]} nodes, basis has {basis.n}"
        )
    check(finite_error, signal=x)
    return x


def graph_fourier(basis: SpectralBasis, x: np.ndarray) -> np.ndarray:
    """Project a (multi-channel) node signal onto the eigenbasis: U^T X."""
    return basis.eigenvectors.T @ _check_signal(basis, x)


def inverse_fourier(basis: SpectralBasis, x_hat: np.ndarray) -> np.ndarray:
    """Reconstruct a node signal from spectral coefficients: U X_hat."""
    return basis.eigenvectors @ _check_signal(basis, x_hat)


def rank_one_graph(basis: SpectralBasis, k: int) -> np.ndarray:
    """Spectral projector U_{:,k} U_{:,k}^T onto component k (0-indexed)."""
    check(integer_error, k=k)
    if not 0 <= k < basis.n:
        raise IndexError(f"component index {k} out of range [0, {basis.n})")
    u = basis.eigenvectors[:, k]
    return np.outer(u, u)

