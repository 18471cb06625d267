"""MIMO convolution routes, universality construction, polynomial stacks, SCA."""

import re

import numpy as np
import pytest
from dense_oracles import gcn_as_mimo_stack, pairwise_weight

from gclab.convolution import (
    FilterTensor,
    WeightStack,
    filter_from_weight_stack,
    filter_response,
    mimo_gc,
    mimo_gc_from_stack,
    mimo_gc_oracle,
    mimo_gc_pairwise,
    mimo_gc_vectorized_oracle,
    mimo_polynomial,
    polynomial_as_mimo_filter,
    sca_repeated_gcn,
    siso_gc,
    universality_filter,
    weight_stack_from_filter,
)
from gclab.graph import generate_erdos_renyi, laplacian, normalized_adjacency
from gclab import convolution, spectral
from gclab.spectral import eigendecompose_symmetric, graph_fourier, inverse_fourier


def make_basis(n, p=0.4, seed=0):
    g = generate_erdos_renyi(n, p, seed=seed)
    return g, eigendecompose_symmetric(laplacian(g))


class TestContainers:
    def test_filter_tensor_shape_validated(self):
        with pytest.raises(ValueError, match=r"\(n, c, d\)"):
            FilterTensor(np.zeros((3, 3)), "x")

    def test_filter_tensor_rejects_non_finite(self):
        values = np.zeros((2, 2, 2))
        values[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="^values must hold finite values only$"):
            FilterTensor(values, "x")

    def test_weight_stack_shape_validated(self):
        with pytest.raises(ValueError, match=r"\(count, d, c\)"):
            WeightStack(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_weight_stack_rejects_non_finite(self, bad):
        matrices = np.zeros((3, 2, 2))
        matrices[1, 0, 1] = bad
        with pytest.raises(ValueError, match="^matrices must hold finite values only$"):
            WeightStack(matrices)

    def test_dimension_properties(self):
        theta = FilterTensor(np.zeros((5, 3, 2)), "x")
        assert (theta.n, theta.c, theta.d) == (5, 3, 2)
        stack = WeightStack(np.zeros((5, 2, 3)))
        assert (stack.count, stack.d, stack.c) == (5, 2, 3)


class TestSiso:
    def test_matches_direct_spectral_formula(self):
        _, basis = make_basis(8, seed=1)
        rng = np.random.default_rng(0)
        theta, x = rng.standard_normal(8), rng.standard_normal(8)
        u = basis.eigenvectors
        expected = u @ np.diag(u.T @ theta) @ u.T @ x
        np.testing.assert_allclose(siso_gc(theta, x, basis), expected, atol=1e-12)

    def test_eigenvector_filter_projects_one_component(self):
        _, basis = make_basis(6, seed=2)
        u = basis.eigenvectors
        x = np.random.default_rng(1).standard_normal(6)
        # theta = u_k has Fourier transform e_k, so the output is the
        # k-component of x only
        for k in (0, 3):
            out = siso_gc(u[:, k], x, basis)
            np.testing.assert_allclose(out, np.outer(u[:, k], u[:, k]) @ x, atol=1e-12)

    def test_length_mismatch(self):
        _, basis = make_basis(5, seed=3)
        with pytest.raises(ValueError, match=r"^theta must have shape \(5,\), got \(4,\)$"):
            siso_gc(np.zeros(4), np.zeros(5), basis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["theta", "x"])
    def test_non_finite_input_rejected(self, name, bad):
        _, basis = make_basis(5, seed=3)
        arrays = {"theta": np.ones(5), "x": np.ones(5)}
        arrays[name][2] = bad
        with pytest.raises(ValueError, match=f"^{name} must hold finite values only$"):
            siso_gc(arrays["theta"], arrays["x"], basis)


class TestMimoRoutes:
    def random_instance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 5))
        c = int(rng.integers(1, 5))
        g, basis = make_basis(n, seed=seed)
        theta = FilterTensor(rng.standard_normal((n, c, d)), basis.basis_id)
        x = rng.standard_normal((n, d))
        return theta, x, basis

    def test_all_four_routes_agree(self):
        for seed in range(8):
            theta, x, basis = self.random_instance(seed)
            ref = mimo_gc(theta, x, basis)
            stack = weight_stack_from_filter(theta, basis)
            for other in (
                mimo_gc_oracle(theta, x, basis),
                mimo_gc_pairwise(stack, x, basis),
                mimo_gc_vectorized_oracle(theta, x, basis),
            ):
                np.testing.assert_allclose(ref, other, atol=1e-9)

    @staticmethod
    def kron_oracle(theta, x, basis):
        """The Kronecker route built with np.kron and np.diag blocks."""
        n, c, d = theta.n, theta.c, theta.d
        hat = np.einsum("ik,icd->kcd", basis.eigenvectors, theta.values)
        big = np.zeros((n * c, n * d))
        for q in range(c):
            for p in range(d):
                big[q * n : (q + 1) * n, p * n : (p + 1) * n] = np.diag(hat[:, q, p])
        left = np.kron(np.eye(c), basis.eigenvectors)
        right = np.kron(np.eye(d), basis.eigenvectors.T)
        return (left @ (big @ (right @ x.reshape(-1, order="F")))).reshape((n, c), order="F")

    @pytest.mark.parametrize("n, c, d", [(16, 3, 5), (40, 5, 2), (16, 1, 4), (40, 2, 1), (128, 4, 4)])
    def test_vectorized_oracle_equals_np_kron_bit_for_bit(self, n, c, d):
        rng = np.random.default_rng(n + 10 * c + d)
        _, basis = make_basis(n, p=0.3, seed=n)
        theta = FilterTensor(rng.standard_normal((n, c, d)), basis.basis_id)
        x = rng.standard_normal((n, d))
        got = mimo_gc_vectorized_oracle(theta, x, basis)
        assert got.tobytes() == self.kron_oracle(theta, x, basis).tobytes()

    def test_stack_filter_roundtrip(self):
        theta, _, basis = self.random_instance(3)
        stack = weight_stack_from_filter(theta, basis)
        back = filter_from_weight_stack(stack, basis)
        np.testing.assert_allclose(back.values, theta.values, atol=1e-12)
        assert back.basis_id == basis.basis_id

    def test_basis_mismatch_rejected(self):
        theta, x, basis = self.random_instance(4)
        _, other = make_basis(theta.n, seed=99)
        wrong = FilterTensor(theta.values, other.basis_id)
        with pytest.raises(ValueError, match="different basis"):
            mimo_gc(wrong, x, basis)

    def test_channel_count_mismatch(self):
        theta, x, basis = self.random_instance(5)
        message = f"x must have shape ({theta.n}, {theta.d}), got ({theta.n}, {theta.d + 1})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mimo_gc(theta, np.zeros((theta.n, theta.d + 1)), basis)

    ROUTES = {
        "mimo_gc": mimo_gc,
        "mimo_gc_oracle": mimo_gc_oracle,
        "mimo_gc_vectorized_oracle": mimo_gc_vectorized_oracle,
        "mimo_gc_from_stack": lambda theta, x, basis: mimo_gc_from_stack(
            WeightStack(theta.values.transpose(0, 2, 1)), x, basis),
        "mimo_gc_pairwise": lambda theta, x, basis: mimo_gc_pairwise(
            WeightStack(theta.values.transpose(0, 2, 1)), x, basis),
    }

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("short", ["signal", "filter"])
    def test_node_count_mismatch_names_both_counts(self, route, short):
        # a 7-node signal or filter (a stack of 7 matrices) against an 8-node basis
        _, basis = make_basis(8, seed=7)
        rng = np.random.default_rng(7)
        theta_n, x_n = (8, 7) if short == "signal" else (7, 8)
        theta = FilterTensor(rng.standard_normal((theta_n, 2, 3)), basis.basis_id)
        x = rng.standard_normal((x_n, 3))
        message = r"^x must have shape \(8, 3\), got \(7, 3\)$" if short == "signal" else "7.* basis has 8"
        with pytest.raises(ValueError, match=message):
            self.ROUTES[route](theta, x, basis)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_signal_rejected(self, route, bad):
        theta, x, basis = self.random_instance(5)
        x[2, 0] = bad
        with pytest.raises(ValueError, match="^x must hold finite values only$"):
            self.ROUTES[route](theta, x, basis)

    def test_oracle_checks_its_signal_once_not_per_channel_pair(self, monkeypatch):
        theta, x, basis = self.random_instance(5)
        assert theta.c * theta.d > 1
        calls, real = [], spectral.checked_array

        def counting(name, value, *axes):
            calls.append(name)
            return real(name, value, *axes)

        monkeypatch.setattr(spectral, "checked_array", counting)
        monkeypatch.setattr(convolution, "checked_array", counting)
        mimo_gc_oracle(theta, x, basis)
        assert calls == ["x"]

    def test_filter_from_weight_stack_is_the_inverse_transform_bit_for_bit(self):
        _, _, basis = self.random_instance(5)
        stack = WeightStack(np.random.default_rng(3).standard_normal((basis.n, 3, 2)))
        hat = np.transpose(stack.matrices, (0, 2, 1)).reshape(basis.n, -1)
        want = inverse_fourier(basis, hat).reshape(basis.n, 2, 3)
        assert np.array_equal(filter_from_weight_stack(stack, basis).values, want)

    def test_stack_count_must_be_n(self):
        _, x, basis = self.random_instance(6)
        bad = WeightStack(np.zeros((basis.n + 1, x.shape[1], 2)))
        with pytest.raises(ValueError, match="one matrix per spectral component"):
            mimo_gc_from_stack(bad, x, basis)

    def test_pairwise_weight_structure(self):
        theta, _, basis = self.random_instance(7)
        stack = weight_stack_from_filter(theta, basis)
        u = basis.eigenvectors
        i, j = 0, theta.n - 1
        expected = sum(
            u[i, k] * u[j, k] * stack.matrices[k].T for k in range(theta.n)
        )
        np.testing.assert_allclose(
            pairwise_weight(stack, basis, i, j), expected, atol=1e-12
        )

    def test_pairwise_route_matches_pair_by_pair_sum(self):
        rng = np.random.default_rng(24)
        n, d, c = 24, 3, 5
        _, basis = make_basis(n, p=0.3, seed=24)
        stack = WeightStack(rng.standard_normal((n, d, c)))
        x = rng.standard_normal((n, d))
        expected = np.zeros((n, c))
        for i in range(n):
            for j in range(n):
                expected[i] += pairwise_weight(stack, basis, i, j) @ x[j]
        np.testing.assert_allclose(
            mimo_gc_pairwise(stack, x, basis), expected, atol=1e-13
        )

    def test_pairwise_route_matches_mimo_gc_at_n128(self):
        rng = np.random.default_rng(128)
        n, c, d = 128, 4, 4
        _, basis = make_basis(n, p=0.05, seed=128)
        theta = FilterTensor(rng.standard_normal((n, c, d)), basis.basis_id)
        x = rng.standard_normal((n, d))
        stack = weight_stack_from_filter(theta, basis)
        gap = np.max(np.abs(mimo_gc_pairwise(stack, x, basis) - mimo_gc(theta, x, basis)))
        assert gap <= 1e-12


class TestUniversality:
    def test_constructed_filter_maps_x_to_y(self):
        for seed in range(5):
            _, basis = make_basis(10, seed=seed)
            rng = np.random.default_rng(seed + 100)
            x = rng.standard_normal((10, 4))
            y = rng.standard_normal((10, 3))
            theta = universality_filter(x, y, basis)
            out = mimo_gc(theta, x, basis)
            rel = np.linalg.norm(out - y) / np.linalg.norm(y)
            assert rel <= 1e-8

    def test_single_channel_case(self):
        _, basis = make_basis(7, seed=11)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 1))
        y = rng.standard_normal((7, 1))
        theta = universality_filter(x, y, basis)
        np.testing.assert_allclose(mimo_gc(theta, x, basis), y, atol=1e-9)

    def test_zero_spectral_component_rejected(self):
        _, basis = make_basis(6, seed=12)
        x_hat = np.random.default_rng(1).standard_normal((6, 2))
        x_hat[2, 0] = 0.0  # kill one spectral component
        x = basis.eigenvectors @ x_hat
        with pytest.raises(ValueError, match="precondition"):
            universality_filter(x, np.ones((6, 2)), basis)

    def test_spectral_weights_match_closed_form(self):
        # W^(k)[m, q] = b_q / (d * a_m) with a = U^T x, b = U^T y
        _, basis = make_basis(5, seed=13)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 3))
        y = rng.standard_normal((5, 2))
        theta = universality_filter(x, y, basis)
        stack = weight_stack_from_filter(theta, basis)
        a = graph_fourier(basis, x)
        b = graph_fourier(basis, y)
        for k in range(5):
            expected = np.outer(1.0 / a[k], b[k]) / 3
            np.testing.assert_allclose(stack.matrices[k], expected, atol=1e-9)


class TestPolynomialStacks:
    def test_polynomial_equals_spectral_stack(self):
        for seed in range(5):
            g, basis = make_basis(9, seed=seed + 20)
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 4))
            v_list = [rng.standard_normal((3, 2)) for _ in range(k + 1)]
            x = rng.standard_normal((9, 3))
            direct = mimo_polynomial(normalized_adjacency(g), x, v_list)
            stack = polynomial_as_mimo_filter(v_list, basis)
            spectral = mimo_gc_from_stack(stack, x, basis)
            np.testing.assert_allclose(direct, spectral, atol=1e-8)

    def test_gcn_special_case_exact(self):
        g, basis = make_basis(8, seed=30)
        rng = np.random.default_rng(3)
        v = rng.standard_normal((4, 4))
        x = rng.standard_normal((8, 4))
        stack = gcn_as_mimo_stack(v, basis)
        np.testing.assert_allclose(
            mimo_gc_from_stack(stack, x, basis),
            normalized_adjacency(g) @ x @ v,
            atol=1e-10,
        )

    def test_constant_polynomial_is_identity_map(self):
        g, basis = make_basis(6, seed=31)
        v = np.eye(2)
        x = np.random.default_rng(4).standard_normal((6, 2))
        np.testing.assert_allclose(
            mimo_polynomial(normalized_adjacency(g), x, [v]), x, atol=0
        )

    @pytest.mark.parametrize("v_list, message", [
        ([], r"must have shape \(terms, d, c\), got \(0,\)$"),
        (np.zeros((0, 2, 2)), r"must hold one or more \(d, c\) terms, got shape \(0, 2, 2\)$"),
        ([np.eye(2), np.ones((2, 3))], "must be an array of numbers: setting an array element with a sequence"),
        ([np.ones(2)], r"must have shape \(terms, d, c\), got \(1, 2\)$"),
    ], ids=["empty", "no-terms", "unequal", "vector"])
    def test_bad_terms_rejected_by_both_forms(self, v_list, message):
        g, basis = make_basis(6, seed=32)
        x = np.ones((6, 2))
        with pytest.raises(ValueError, match="^v_list " + message):
            mimo_polynomial(normalized_adjacency(g), x, v_list)
        with pytest.raises(ValueError, match="^v_list " + message):
            polynomial_as_mimo_filter(v_list, basis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_terms_rejected_by_both_forms(self, bad):
        g, basis = make_basis(6, seed=32)
        v_list = [np.eye(2), np.array([[1.0, bad], [0.0, 1.0]])]
        with pytest.raises(ValueError, match="^v_list must hold finite values only$"):
            mimo_polynomial(normalized_adjacency(g), np.ones((6, 2)), v_list)
        with pytest.raises(ValueError, match="^v_list must hold finite values only$"):
            polynomial_as_mimo_filter(v_list, basis)


class TestPolynomialInputs:
    """mimo_polynomial names a bad a_sym or x instead of returning NaN rows or failing inside numpy."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["a_sym", "x"])
    def test_non_finite_input_rejected(self, name, bad):
        arrays = {"a_sym": np.eye(4), "x": np.ones((4, 2))}
        arrays[name][1, 1] = bad
        with pytest.raises(ValueError, match=f"^{name} must hold finite values only$"):
            mimo_polynomial(arrays["a_sym"], arrays["x"], [np.eye(2), np.eye(2)])

    @pytest.mark.parametrize("shape", [(3, 2), (4, 3), (4,), (4, 2, 1)])
    def test_x_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^x must have shape \(4, 2\), got " + re.escape(str(shape)) + "$"):
            mimo_polynomial(np.eye(4), np.ones(shape), [np.ones((2, 2))])

    @pytest.mark.parametrize("shape", [(4, 3), (4,), (2, 2, 2)])
    def test_a_sym_that_is_no_square_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^a_sym must have shape \(n, n\), got " + re.escape(str(shape)) + "$"):
            mimo_polynomial(np.ones(shape), np.ones((4, 2)), [np.ones((2, 2))])


class TestSpectralResponse:
    def test_gcn_stack_response_is_mu_scaled(self):
        _, basis = make_basis(7, seed=40)
        v = np.array([[2.0, -1.0], [0.5, 3.0]])
        stack = gcn_as_mimo_stack(v, basis)
        mu = basis.adjacency_eigenvalues()
        for p in range(2):
            for q in range(2):
                resp = filter_response(stack, basis, p, q)
                np.testing.assert_allclose(resp.response, v[p, q] * mu, atol=1e-12)

    def test_response_index_errors(self):
        _, basis = make_basis(5, seed=41)
        stack = gcn_as_mimo_stack(np.eye(2), basis)
        with pytest.raises(IndexError):
            filter_response(stack, basis, 2, 0)
        with pytest.raises(IndexError):
            filter_response(stack, basis, 0, 2)

    @pytest.mark.parametrize("name, channels, shown", [("in_channel", (True, 0), "True"),
                                                       ("out_channel", (0, 1.5), "1.5"),
                                                       ("in_channel", (1.0, 0), "1.0")])
    def test_response_non_integer_channel_named(self, name, channels, shown):
        _, basis = make_basis(5, seed=41)
        stack = gcn_as_mimo_stack(np.eye(2), basis)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {shown}$"):
            filter_response(stack, basis, *channels)

    def test_repeated_gcn_response_closed_form(self):
        _, basis = make_basis(8, seed=42)
        w = np.array([0.5, -2.0, 1.5])
        resp = sca_repeated_gcn(w, basis)
        mu = basis.adjacency_eigenvalues()
        np.testing.assert_allclose(resp.response, np.prod(w) * mu**3, atol=1e-12)

    def test_dominance_ratio_power_law(self):
        _, basis = make_basis(10, seed=43)
        r1 = sca_repeated_gcn([1.0], basis).dominance_ratio()
        for depth in (2, 4, 16):
            rk = sca_repeated_gcn(np.ones(depth), basis).dominance_ratio()
            assert abs(rk - r1**depth) <= 1e-9 * r1**depth

    def test_dominance_ratio_scale_invariant(self):
        _, basis = make_basis(9, seed=44)
        a = sca_repeated_gcn([3.0, 0.2], basis).dominance_ratio()
        b = sca_repeated_gcn([1.0, 1.0], basis).dominance_ratio()
        assert np.isclose(a, b, rtol=1e-12)

    def test_empty_weights_rejected(self):
        _, basis = make_basis(5, seed=45)
        with pytest.raises(ValueError):
            sca_repeated_gcn([], basis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        _, basis = make_basis(5, seed=45)
        with pytest.raises(ValueError, match="^weights must hold finite values only$"):
            sca_repeated_gcn([bad, 1.0], basis)
