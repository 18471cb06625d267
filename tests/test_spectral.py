"""Eigendecomposition (ordering, signs, eigenspaces) against numpy, Fourier transform."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclab.graph import generate_erdos_renyi, laplacian
from gclab.train import ExperimentConfig, experiment_data
from gclab import spectral
from gclab.convolution import FilterTensor, mimo_gc, sca_repeated_gcn
from gclab.spectral import (
    Spectrum,
    eigendecompose_symmetric,
    graph_fourier,
    inverse_fourier,
    rank_one_graph,
    symmetric_spectrum,
)


def random_symmetric(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return 0.5 * (m + m.T)


class TestEigendecomposition:
    def test_matches_dense_solver_oracle(self):
        for seed in range(5):
            m = random_symmetric(7, seed)
            basis = eigendecompose_symmetric(m)
            np.testing.assert_allclose(
                basis.eigenvalues, np.linalg.eigvalsh(m), atol=1e-10
            )

    def test_reconstruction_and_orthonormality(self):
        m = laplacian(generate_erdos_renyi(12, 0.3, seed=2))
        basis = eigendecompose_symmetric(m)
        u, lam = basis.eigenvectors, basis.eigenvalues
        np.testing.assert_allclose(u.T @ u, np.eye(12), atol=1e-12)
        np.testing.assert_allclose(u @ np.diag(lam) @ u.T, m, atol=1e-12)

    @pytest.mark.parametrize("solve", [eigendecompose_symmetric, symmetric_spectrum])
    def test_empty_matrix_rejected(self, solve):
        with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
            solve(np.zeros((0, 0)))

    def test_eigenvalues_ascending(self):
        basis = eigendecompose_symmetric(random_symmetric(9, 3))
        assert np.all(np.diff(basis.eigenvalues) >= 0)

    def test_sign_convention_first_large_entry_positive(self):
        basis = eigendecompose_symmetric(random_symmetric(6, 4))
        for k in range(6):
            col = basis.eigenvectors[:, k]
            lead = np.nonzero(np.abs(col) > 1e-10)[0]
            assert col[lead[0]] > 0

    def test_two_node_laplacian_known_values(self):
        # L_sym of a single edge: eigenpairs (0, [1,1]/sqrt2), (2, [1,-1]/sqrt2)
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        basis = eigendecompose_symmetric(m)
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(
            basis.eigenvectors, [[s, s], [s, -s]], atol=1e-12
        )

    def test_diagonal_matrix_is_immediate(self):
        basis = eigendecompose_symmetric(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(basis.eigenvalues, [-1.0, 2.0, 3.0])

    def test_one_by_one(self):
        basis = eigendecompose_symmetric(np.array([[5.0]]))
        np.testing.assert_allclose(basis.eigenvalues, [5.0])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eigendecompose_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match=r"^m must have shape \(n, n\), got \(2, 3\)$"):
            eigendecompose_symmetric(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        m = random_symmetric(4, 0)
        m[1, 2] = m[2, 1] = np.nan
        with pytest.raises(ValueError, match="^m must hold finite values only$"):
            eigendecompose_symmetric(m)

    def test_repeated_eigenvalue_projectors_match_eigh(self):
        # the reference instance's Laplacian has repeated eigenvalues; there
        # only the eigenspace, U_S U_S^T, is determined
        g, _, _ = experiment_data(ExperimentConfig())
        m = laplacian(g)
        basis = eigendecompose_symmetric(m)
        lam_ref, u_ref = np.linalg.eigh(m)
        lam, u = basis.eigenvalues, basis.eigenvectors
        np.testing.assert_allclose(lam, lam_ref, atol=1e-12)
        breaks = np.nonzero(np.diff(lam) > 1e-8)[0] + 1
        groups = np.split(np.arange(len(lam)), breaks)
        assert max(len(s) for s in groups) > 1
        for s in groups:
            np.testing.assert_allclose(
                u[:, s] @ u[:, s].T, u_ref[:, s] @ u_ref[:, s].T, atol=1e-12
            )
        for k in range(len(lam)):
            col = u[:, k]
            assert col[np.nonzero(np.abs(col) > 1e-10)[0][0]] > 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 10))
    def test_property_reconstruction(self, seed, n):
        m = random_symmetric(n, seed)
        basis = eigendecompose_symmetric(m)
        u = basis.eigenvectors
        np.testing.assert_allclose(
            u @ np.diag(basis.eigenvalues) @ u.T, m, atol=1e-10
        )


class TestSpectrumOnly:
    """symmetric_spectrum: eigvalsh's eigenvalues with eigendecompose_symmetric's checks."""

    @pytest.mark.parametrize("n, p, seed", [(16, 0.25, 1), (128, 0.05, 2)])
    def test_eigenvalues_match_full_decomposition(self, n, p, seed):
        m = laplacian(generate_erdos_renyi(n, p, seed))
        spectrum = symmetric_spectrum(m)
        assert type(spectrum) is Spectrum and spectrum.n == n
        assert np.all(np.diff(spectrum.eigenvalues) >= 0)
        np.testing.assert_allclose(
            spectrum.eigenvalues, eigendecompose_symmetric(m).eigenvalues, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "m, message",
        [
            (np.array([[0.0, 1.0], [0.0, 0.0]]), "not symmetric"),
            (np.zeros((2, 3)), r"^m must have shape \(n, n\), got \(2, 3\)$"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "^m must hold finite values only$"),
        ],
    )
    def test_same_input_checks(self, m, message):
        for solve in (symmetric_spectrum, eigendecompose_symmetric):
            with pytest.raises(ValueError, match=message):
                solve(m)

    def test_repeated_gcn_reads_only_eigenvalues(self):
        m = laplacian(generate_erdos_renyi(12, 0.4, 3))
        w = [0.5, -2.0, 1.5]
        full = sca_repeated_gcn(w, eigendecompose_symmetric(m))
        only = sca_repeated_gcn(w, symmetric_spectrum(m))
        np.testing.assert_allclose(only.response, full.response, rtol=0, atol=1e-12)


class TestBasisProperties:
    def test_basis_id_stable_and_distinct(self):
        m1 = laplacian(generate_erdos_renyi(8, 0.4, seed=0))
        m2 = laplacian(generate_erdos_renyi(8, 0.4, seed=1))
        assert (
            eigendecompose_symmetric(m1).basis_id
            == eigendecompose_symmetric(m1).basis_id
        )
        assert (
            eigendecompose_symmetric(m1).basis_id
            != eigendecompose_symmetric(m2).basis_id
        )

    def test_basis_id_is_the_digest_of_the_arrays_as_built_and_no_field(self):
        basis = eigendecompose_symmetric(laplacian(generate_erdos_renyi(8, 0.4, seed=0)))
        digest = hashlib.sha256(basis.eigenvalues.tobytes() + basis.eigenvectors.tobytes()).hexdigest()[:16]
        assert basis.basis_id == digest
        assert "basis_id" not in repr(basis)
        basis.eigenvalues[0] += 1.0  # the arrays stay writable; the id names them as they were built
        assert basis.basis_id == digest

    def test_repeated_mimo_gc_calls_hash_the_basis_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(spectral, "hashlib", SimpleNamespace(sha256=counting))
        basis = eigendecompose_symmetric(laplacian(generate_erdos_renyi(8, 0.4, seed=0)))
        rng = np.random.default_rng(0)
        theta = FilterTensor(rng.standard_normal((8, 2, 3)), basis.basis_id)
        x = rng.standard_normal((8, 3))
        for _ in range(5):
            mimo_gc(theta, x, basis)
        assert len(calls) == 1

    def test_adjacency_eigenvalues_are_one_minus_lambda(self):
        from gclab.graph import normalized_adjacency

        g = generate_erdos_renyi(9, 0.4, seed=7)
        basis = eigendecompose_symmetric(laplacian(g))
        mu = basis.adjacency_eigenvalues()
        # the same U diagonalizes A_sym with eigenvalue 1 - lambda
        np.testing.assert_allclose(
            normalized_adjacency(g) @ basis.eigenvectors,
            basis.eigenvectors * mu,
            atol=1e-10,
        )


class TestFourier:
    def test_roundtrip(self):
        basis = eigendecompose_symmetric(random_symmetric(8, 5))
        x = np.random.default_rng(0).standard_normal((8, 3))
        np.testing.assert_allclose(
            inverse_fourier(basis, graph_fourier(basis, x)), x, atol=1e-12
        )

    def test_vector_signal_promoted_to_column(self):
        basis = eigendecompose_symmetric(random_symmetric(5, 6))
        x = np.arange(5.0)
        assert graph_fourier(basis, x).shape == (5, 1)

    def test_constant_signal_concentrates_on_null_component(self):
        g = generate_erdos_renyi(10, 0.5, seed=9)
        basis = eigendecompose_symmetric(laplacian(g))
        # D^{1/2} 1 is the lambda=0 eigenvector direction
        x = np.sqrt(g.degrees)
        x_hat = graph_fourier(basis, x).ravel()
        assert np.abs(x_hat[0]) > 1.0
        np.testing.assert_allclose(x_hat[1:], 0.0, atol=1e-10)

    def test_shape_mismatch_error(self):
        basis = eigendecompose_symmetric(random_symmetric(5, 6))
        with pytest.raises(ValueError, match=r"^x must have shape \(5, d\), got \(4, 2\)$"):
            graph_fourier(basis, np.zeros((4, 2)))

    def test_rank_one_graphs_are_projectors_summing_to_identity(self):
        basis = eigendecompose_symmetric(random_symmetric(6, 8))
        total = np.zeros((6, 6))
        for k in range(6):
            p = rank_one_graph(basis, k)
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            total += p
        np.testing.assert_allclose(total, np.eye(6), atol=1e-12)

    def test_rank_one_index_error(self):
        basis = eigendecompose_symmetric(random_symmetric(4, 8))
        with pytest.raises(IndexError):
            rank_one_graph(basis, 4)

    @pytest.mark.parametrize("k, shown", [(True, "True"), (1.5, "1.5"), (1.0, "1.0")])
    def test_rank_one_non_integer_index_named(self, k, shown):
        basis = eigendecompose_symmetric(random_symmetric(4, 8))
        with pytest.raises(ValueError, match=f"^k must be an integer, got {shown}$"):
            rank_one_graph(basis, k)
        np.testing.assert_array_equal(rank_one_graph(basis, np.int64(1)), rank_one_graph(basis, 1))
