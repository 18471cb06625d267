"""Undirected simple graphs, random generation, and normalized operators."""

from __future__ import annotations

import numbers
from itertools import chain

import numpy as np

from ._record import _Frozen

MAX_CONNECTIVITY_ATTEMPTS = 1000


class Graph(_Frozen):
    """Undirected simple graph with no self-loops.

    Edges are stored as a frozenset of unordered pairs (i, j) with i < j.
    The dense 0/1 adjacency matrix and neighbor lists are derived lazily
    and cached; the degrees are the adjacency's row sums. The object is
    immutable after construction.
    """

    def __init__(self, n: int, edges: frozenset):
        if n < 1:
            raise ValueError("graph needs at least one node")
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            if i > j:
                raise ValueError(f"edge ({i},{j}) must be stored with i < j")
        self._set(n=n, edges=edges, _cache={})

    @staticmethod
    def from_edges(n, edges):
        canon = frozenset((min(i, j), max(i, j)) for i, j in edges)
        return Graph(n, canon)

    def _dense(self):
        """The cached 0/1 adjacency, filled in one assignment from the edge arrays."""
        if "A" not in self._cache:
            flat = chain.from_iterable(self.edges)
            ij = np.fromiter(flat, dtype=np.intp, count=2 * len(self.edges))
            i, j = ij[0::2], ij[1::2]
            a = np.zeros((self.n, self.n))
            a[np.concatenate((i, j)), np.concatenate((j, i))] = 1.0
            a.setflags(write=False)
            self._cache["A"] = a
        return self._cache["A"]

    @property
    def adjacency(self):
        return self._dense().copy()

    @property
    def neighbors(self):
        if "nbrs" not in self._cache:
            nbrs = [[] for _ in range(self.n)]
            # in sorted edge order each list gets its smaller neighbors, then its larger ones, ascending
            for i, j in sorted(self.edges):
                nbrs[i].append(j)
                nbrs[j].append(i)
            self._cache["nbrs"] = nbrs
        return self._cache["nbrs"]

    @property
    def directed_edges(self):
        """(rows, cols): every edge in both directions, ordered by row, then column.

        The arrays are cached and read-only.
        """
        if "directed" not in self._cache:
            rows, cols = np.nonzero(self._dense())
            rows.setflags(write=False)
            cols.setflags(write=False)
            self._cache["directed"] = (rows, cols)
        return self._cache["directed"]

    @property
    def degrees(self):
        """Row sums of the adjacency: each node's neighbor count, as floats."""
        return self._dense().sum(axis=1)


def is_connected(g: Graph) -> bool:
    """BFS from node 0; true iff every node is reached."""
    seen = [False] * g.n
    seen[0] = True
    queue = [0]
    nbrs = g.neighbors
    while queue:
        u = queue.pop()
        for v in nbrs[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return all(seen)


def integer_error(value) -> str | None:
    """Why value is no integer (a bool is none here, though Python counts it one), or None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return f"must be an integer, got {value!r}"
    return None


def node_count_error(n) -> str | None:
    """Why n is no node count for a random graph (an integer of at least 2), or None."""
    return integer_error(n) or (None if n >= 2 else f"must be at least 2, got {n}")


def probability_error(p) -> str | None:
    """Why p is no edge probability (it must lie in (0, 1]; NaN does not), or None."""
    return None if 0.0 < p <= 1.0 else f"must be in (0, 1], got {p!r}"


def generate_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Sample a connected G(n, p) graph by rejection.

    Each of the n(n-1)/2 candidate edges is drawn i.i.d. with probability p,
    one uniform double per pair in (i, j), i < j order, all pairs of an
    attempt in one call; draws come from numpy's PCG64 stream so regression
    values are stable. Disconnected samples are rejected and regenerated
    with fresh draws.
    """
    if (error := node_count_error(n)) is not None:
        raise ValueError(f"n {error}")
    if (error := probability_error(p)) is not None:
        raise ValueError(f"p {error}")
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, 1)
    for _ in range(MAX_CONNECTIVITY_ATTEMPTS):
        keep = rng.random(rows.size) < p
        g = Graph(n, frozenset(zip(rows[keep].tolist(), cols[keep].tolist())))
        if is_connected(g):
            return g
    raise RuntimeError(
        f"connectivity unreachable: no connected G({n}, {p}) sample in "
        f"{MAX_CONNECTIVITY_ATTEMPTS} attempts"
    )


def inv_sqrt_degrees(g: Graph) -> np.ndarray:
    """The diagonal of D^{-1/2}; raises on the first degree-zero node."""
    d = g.degrees
    if np.any(d < 1):
        bad = int(np.argmin(d))
        raise ValueError(f"isolated node {bad}: degree-zero nodes are not supported")
    return 1.0 / np.sqrt(d)


def normalized_adjacency(g: Graph) -> np.ndarray:
    """D^{-1/2} A D^{-1/2}; requires every degree >= 1."""
    inv_sqrt = inv_sqrt_degrees(g)
    return g.adjacency * np.outer(inv_sqrt, inv_sqrt)


def laplacian(g: Graph) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}."""
    return np.eye(g.n) - normalized_adjacency(g)


def save_edge_list(g: Graph, path) -> None:
    """Write the graph as 'n' on the first line, then one 'i j' per edge."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n}\n")
        for i, j in sorted(g.edges):
            fh.write(f"{i} {j}\n")


def load_edge_list(path) -> Graph:
    """Inverse of save_edge_list; an error names the file and its line.

    The body is parsed as whole lists: every line split, then every token
    converted at once. Only a file that fails is read again line by line, to
    name its first malformed line or the first edge the graph rejects; a node
    count below 1 is an error on line 1.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, expected node count on line 1")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}:1: expected node count, got {lines[0]!r}") from None
    fields = list(map(str.split, lines[1:]))  # a blank line has no fields
    try:
        if not set(map(len, fields)) <= {0, 2}:
            raise ValueError("a line without two fields")
        values = list(map(int, chain.from_iterable(fields)))
    except ValueError:
        for lineno, (line, parts) in enumerate(zip(lines[1:], fields), start=2):
            try:
                if parts:
                    i, j = map(int, parts)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected two integers, got {line!r}") from None
        raise
    i, j = values[0::2], values[1::2]
    try:
        return Graph(n, frozenset(zip(map(min, i, j), map(max, i, j))))
    except ValueError as exc:
        if n < 1:
            raise ValueError(f"{path}:1: {exc}") from None
        linenos = (lineno for lineno, parts in enumerate(fields, start=2) if parts)
        for lineno, edge in zip(linenos, zip(i, j)):
            try:
                Graph.from_edges(n, [edge])
            except ValueError as bad:
                raise ValueError(f"{path}:{lineno}: {bad}") from None
        raise
