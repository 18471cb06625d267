"""Symmetric eigendecomposition and the graph Fourier transform.

The Fourier basis is the eigenvector matrix U of the normalized Laplacian;
the forward transform is U^T applied along the node axis. Array arguments
go through graph.checked_array: a matrix is (n, n), a signal (n, d).
"""

from __future__ import annotations

import hashlib

import numpy as np

from ._record import _Frozen
from .graph import check, checked_array, float_array, integer_error

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
    for simple spectra. basis_id, a sha256 digest of both arrays, is taken
    once when the basis is built and kept outside the record's fields: it
    names the arrays as they were built. They stay writable, and a write
    into them does not change the id.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        h = hashlib.sha256()
        h.update(eigenvalues.tobytes())
        h.update(eigenvectors.tobytes())
        self._set(eigenvalues=eigenvalues, eigenvectors=eigenvectors, _basis_id=h.hexdigest()[:16])

    @property
    def basis_id(self) -> str:
        return self._basis_id


def _symmetrized(m) -> np.ndarray:
    """0.5 (m + m^T) of a finite non-empty (n, n) matrix that is symmetric within SYMMETRY_TOL."""
    m = checked_array("m", m, "n", "n")
    if m.size == 0:
        raise ValueError("m must be a non-empty square matrix, got shape (0, 0)")
    if (gap := np.max(np.abs(m - m.T))) > SYMMETRY_TOL:
        raise ValueError(f"m must be symmetric within {SYMMETRY_TOL:g}, got max |m - m^T| = {gap:.3e}")
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


def _check_signal(basis: SpectralBasis, x, d="d", name="x") -> np.ndarray:
    """x as an (n, d) signal on the basis' n nodes, d fixed (an int) or free (a name); a 1-D x is (n, 1)."""
    x = float_array(name, x)
    if x.ndim == 1 and (d == 1 or isinstance(d, str)):  # checked as given, so a message shows x's own shape
        return checked_array(name, x, basis.n)[:, None]
    return checked_array(name, x, basis.n, d)


def graph_fourier(basis: SpectralBasis, x: np.ndarray) -> np.ndarray:
    """Project a (multi-channel) node signal onto the eigenbasis: U^T X."""
    return basis.eigenvectors.T @ _check_signal(basis, x)


def inverse_fourier(basis: SpectralBasis, x_hat: np.ndarray) -> np.ndarray:
    """Reconstruct a node signal from spectral coefficients: U X_hat."""
    return basis.eigenvectors @ _check_signal(basis, x_hat, name="x_hat")


def rank_one_graph(basis: SpectralBasis, k: int) -> np.ndarray:
    """Spectral projector U_{:,k} U_{:,k}^T onto component k (0-indexed)."""
    check(integer_error, k=k)
    if not 0 <= k < basis.n:
        raise IndexError(f"component index {k} out of range [0, {basis.n})")
    u = basis.eigenvectors[:, k]
    return np.outer(u, u)

