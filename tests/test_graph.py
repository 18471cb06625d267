"""Graph construction, random generation, operators, and edge-list IO."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclab.graph import (
    Graph,
    generate_erdos_renyi,
    inv_sqrt_degrees,
    is_connected,
    laplacian,
    load_edge_list,
    natural_error,
    normalized_adjacency,
    save_edge_list,
)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestConstruction:
    def test_from_edges_canonicalizes_order(self):
        g = Graph.from_edges(4, [(2, 0), (3, 1)])
        assert g.edges == frozenset({(0, 2), (1, 3)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    def test_uncanonical_edge_rejected(self):
        with pytest.raises(ValueError, match="i < j"):
            Graph(3, frozenset({(2, 1)}))

    @pytest.mark.parametrize("edges", [[(0, 1), (0, 1)], {(0, 1)}, ((0, 1),)], ids=["list", "set", "tuple"])
    def test_edges_that_are_no_frozenset_rejected(self, edges):
        # a list with a repeated pair used to give len(g.edges) == 2 on a one-edge adjacency, and no hash
        with pytest.raises(ValueError, match="^edges must be a frozenset"):
            Graph(3, edges)
        assert Graph.from_edges(3, edges) == Graph(3, frozenset({(0, 1)}))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            Graph(0, frozenset())

    @pytest.mark.parametrize("n, shown", [(2.5, "2.5"), (True, "True"), ("3", "'3'")])
    def test_non_integer_node_count_rejected_at_construction(self, n, shown):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {shown}$"):
            Graph(n, frozenset())

    @pytest.mark.parametrize("edges, shown", [
        ([(0, 1.5), (1.5, 2)], "(0,1.5)"),
        ([(0, True)], "(0,True)"),
        ([(np.float64(1.0), 2)], "(np.float64(1.0),2)"),
    ], ids=["float", "bool", "numpy-float"])
    def test_non_integer_endpoint_rejected(self, edges, shown):
        # 1.5 used to be truncated to node 1 in the adjacency while edges still held 1.5
        with pytest.raises(ValueError, match="^" + re.escape(f"edge {shown}: endpoint must be an integer")):
            Graph.from_edges(3, edges)

    def test_numpy_integer_endpoints_accepted(self):
        g = Graph.from_edges(3, [(np.int64(0), np.int32(1)), (np.uint8(1), 2)])
        np.testing.assert_array_equal(g.adjacency, path_graph(3).adjacency)
        assert is_connected(g)

    def test_numpy_integer_node_count_accepted(self):
        assert Graph(np.int64(3), frozenset({(0, 1)})).adjacency.shape == (3, 3)

    def test_adjacency_symmetric_zero_diagonal(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        a = g.adjacency
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert a.sum() == 2 * len(g.edges)

    def test_adjacency_returns_a_copy(self):
        g = path_graph(3)
        a = g.adjacency
        a[0, 0] = 99.0
        assert g.adjacency[0, 0] == 0.0

    def test_neighbors_sorted_and_consistent_with_degrees(self):
        g = Graph.from_edges(4, [(0, 3), (0, 1), (1, 2)])
        assert g.neighbors == [[1, 3], [0, 2], [1], [0]]
        assert np.array_equal(g.degrees, [2.0, 2.0, 1.0, 1.0])
        for seed in range(5):
            g = generate_erdos_renyi(40, 0.3, seed)
            assert g.neighbors == [np.flatnonzero(row).tolist() for row in g.adjacency]


def loop_adjacency(g):
    """The adjacency filled one edge at a time."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def bits_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNaturalError:
    @pytest.mark.parametrize("value", [0, 1, 2**40, np.int64(3), np.uint8(0)])
    def test_integers_of_at_least_zero_pass(self, value):
        assert natural_error(value) is None

    @pytest.mark.parametrize("value, error", [(-1, "must be at least 0, got -1"), (1.5, "must be an integer, got 1.5"),
                                              (True, "must be an integer, got True"),
                                              (2.0, "must be an integer, got 2.0")])
    def test_others_give_a_reason(self, value, error):
        assert natural_error(value) == error


class TestDenseArrays:
    SIZES = [(2, 1.0), (9, 0.5), (30, 0.2), (64, 0.08)] * 5
    GRAPHS = [generate_erdos_renyi(n, p, seed=s) for s, (n, p) in enumerate(SIZES)]
    EDGE_CASES = [Graph(1, frozenset()), Graph.from_edges(3, [(0, 1)]), Graph(4, frozenset())]

    @pytest.mark.parametrize("g", GRAPHS + EDGE_CASES)
    def test_adjacency_and_degrees_match_the_loop_forms(self, g):
        assert bits_equal(g.adjacency, loop_adjacency(g))
        assert bits_equal(g.degrees, np.array([len(v) for v in g.neighbors], dtype=float))

    def test_isolated_node_message_unchanged(self):
        with pytest.raises(ValueError, match=r"^isolated node 2: degree-zero nodes are not supported$"):
            inv_sqrt_degrees(Graph.from_edges(3, [(0, 1)]))
        with pytest.raises(ValueError, match=r"^isolated node 0: "):
            inv_sqrt_degrees(Graph(1, frozenset()))


class TestDirectedEdges:
    def test_both_directions_in_row_order(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        rows, cols = g.directed_edges
        pairs = list(zip(rows.tolist(), cols.tolist()))
        assert pairs == [(i, j) for i in range(4) for j in g.neighbors[i]]
        assert pairs == sorted(pairs)

    def test_cached_and_read_only(self):
        g = generate_erdos_renyi(12, 0.3, seed=5)
        rows, cols = g.directed_edges
        assert g.directed_edges[0] is rows and g.directed_edges[1] is cols
        with pytest.raises(ValueError):
            rows[0] = 1


class TestConnectivity:
    def test_path_is_connected(self):
        assert is_connected(path_graph(6))

    def test_two_components_not_connected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected(g)

    def test_single_node_is_connected(self):
        assert is_connected(Graph(1, frozenset()))


class TestErdosRenyi:
    def test_regression_seed_42(self):
        # frozen: 20 edges for this stream; guards the scan order and RNG
        g = generate_erdos_renyi(16, 0.1, seed=42)
        assert len(g.edges) == 20
        assert is_connected(g)

    def test_deterministic_per_seed(self):
        a = generate_erdos_renyi(12, 0.3, seed=5)
        b = generate_erdos_renyi(12, 0.3, seed=5)
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = generate_erdos_renyi(12, 0.3, seed=5)
        b = generate_erdos_renyi(12, 0.3, seed=6)
        assert a.edges != b.edges

    def test_p_one_gives_complete_graph(self):
        g = generate_erdos_renyi(5, 1.0, seed=0)
        assert len(g.edges) == 10

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match=r"^n must be at least 2, got 1$"):
            generate_erdos_renyi(1, 0.5, seed=0)
        with pytest.raises(ValueError, match=r"^n must be an integer, got 2.5$"):
            generate_erdos_renyi(2.5, 0.5, seed=0)
        with pytest.raises(ValueError, match=r"^n must be an integer, got True$"):
            generate_erdos_renyi(True, 0.5, seed=0)
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\], got 0.0$"):
            generate_erdos_renyi(5, 0.0, seed=0)
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\], got 1.5$"):
            generate_erdos_renyi(5, 1.5, seed=0)
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\], got nan$"):
            generate_erdos_renyi(5, float("nan"), seed=0)

    @pytest.mark.parametrize(
        "n, p, seed, attempts", [(16, 0.1, 0, 13), (16, 0.1, 1, 3), (16, 0.1, 2, 32), (16, 0.25, 0, 1)]
    )
    def test_matches_scalar_draw_loop(self, n, p, seed, attempts):
        # one rng.random() per candidate pair, scanned in (i, j), i < j order
        rng = np.random.default_rng(seed)
        for used in range(1, attempts + 1):
            edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
            if is_connected(Graph(n, frozenset(edges))):
                break
        assert used == attempts
        assert generate_erdos_renyi(n, p, seed).edges == edges

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_samples_always_connected(self, seed):
        g = generate_erdos_renyi(10, 0.3, seed=seed)
        assert is_connected(g)


class TestOperators:
    def test_normalized_adjacency_values(self):
        g = path_graph(3)  # degrees 1, 2, 1
        a_sym = normalized_adjacency(g)
        expected = np.array(
            [
                [0.0, 1 / np.sqrt(2), 0.0],
                [1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)],
                [0.0, 1 / np.sqrt(2), 0.0],
            ]
        )
        np.testing.assert_allclose(a_sym, expected, atol=1e-15)

    def test_laplacian_complements_normalized_adjacency(self):
        g = generate_erdos_renyi(8, 0.5, seed=1)
        np.testing.assert_allclose(
            laplacian(g), np.eye(8) - normalized_adjacency(g), atol=0
        )

    def test_spectra_within_known_ranges(self):
        # oracle: dense symmetric eigensolver
        g = generate_erdos_renyi(10, 0.4, seed=3)
        mu = np.linalg.eigvalsh(normalized_adjacency(g))
        lam = np.linalg.eigvalsh(laplacian(g))
        assert np.all(mu >= -1 - 1e-12) and np.all(mu <= 1 + 1e-12)
        assert np.all(lam >= -1e-12) and np.all(lam <= 2 + 1e-12)
        # connected graph: lambda = 0 is simple
        assert np.isclose(lam[0], 0.0, atol=1e-12)
        assert lam[1] > 1e-12

    def test_isolated_node_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="isolated node 2"):
            normalized_adjacency(g)


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        g = generate_erdos_renyi(9, 0.4, seed=11)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.n == g.n
        assert loaded.edges == g.edges

    def test_format_is_n_then_pairs(self, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(Graph.from_edges(3, [(0, 2)]), path)
        assert path.read_text().splitlines() == ["3", "0 2"]

    def test_load_normalizes_edge_order(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n2 0\n")
        assert load_edge_list(path).edges == frozenset({(0, 2)})

    def test_empty_file_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_edge_list(path)

    def test_bad_header_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nodes\n0 1\n")
        with pytest.raises(ValueError, match=":1:"):
            load_edge_list(path)

    def test_bad_line_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4\n0 1\n2 x\n")
        with pytest.raises(ValueError, match=":3:"):
            load_edge_list(path)

    def test_bad_line_after_blank_lines_keeps_its_line_number(self, tmp_path):
        # blank lines count toward the number; the first bad line is named, not a later one
        path = tmp_path / "bad.txt"
        path.write_text("4\n0 1\n\n   \n1 2 3\n2 x\n")
        with pytest.raises(ValueError) as err:
            load_edge_list(path)
        assert str(err.value) == f"{path}:5: expected two integers, got '1 2 3'"
