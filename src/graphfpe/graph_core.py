"""Weighted graphs, the edge-list graph operator, and the symmetric eigensolver.

Nodes are 0-based inside the library; the 1-based convention of the JSON
graph format is translated once, in :func:`build_graph` and in the CLI.
Edges are stored in a fixed canonical orientation (tail < head, sorted
lexicographically), so every derived quantity is deterministic. Downstream
code must not rely on the sign convention of individual edges.

The library never forms the gradient D: every operator is built from the edge
list by :func:`_edge_diff`, :func:`_scatter` and :func:`_edge_assembly`, which
take rows (..., m) and give a stacked call the same bits as one call per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DisconnectedGraph,
    DuplicateEdge,
    NoConvergence,
    NonpositiveWeight,
    NotAnEdge,
    NotSymmetric,
    SelfLoop,
)

__all__ = [
    "Graph",
    "SymmetricSpectrum",
    "build_graph",
    "incidence_matrix",
    "graph_laplacian",
    "symmetric_eigen",
]


_LISTED_NODES = 10  # node ids named in a DisconnectedGraph message


def freeze(a: np.ndarray, dtype=float) -> np.ndarray:
    """Return a read-only contiguous copy of ``a``, of type ``dtype``."""
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Graph:
    """Connected undirected weighted graph without self loops or multi-edges."""

    node_count: int
    edges: tuple[tuple[int, int, float], ...]  # canonical orientation tail < head

    @cached_property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_ends(self) -> np.ndarray:  # (2, E): the tails, then the heads
        return freeze([[e[0] for e in self.edges], [e[1] for e in self.edges]], int)

    @cached_property
    def weights(self) -> np.ndarray:
        return freeze([e[2] for e in self.edges])

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, j, _ in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(v)) for v in nbrs)

    @cached_property
    def max_degree(self) -> int:
        return max(len(v) for v in self.adjacency)

    @cached_property
    def max_weight(self) -> float:
        return float(self.weights.max())

    @cached_property
    def _apply_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """(index, w/2) for L(rho) x over the 2E directed edges a -> b, a the tails then the heads: a (4, 2E) index into [rho | x] of rho_a, rho_b, x_a, x_b, and the half weights."""
        t, h = self.edge_ends
        a, b = np.concatenate((t, h)), np.concatenate((h, t))
        n = self.node_count
        return freeze((a, b, a + n, b + n), int), freeze(np.tile(0.5 * self.weights, 2))

    @cached_property
    def _edge_lookup(self) -> dict[tuple[int, int], int]:
        return {(i, j): e for e, (i, j, _) in enumerate(self.edges)}

    @cached_property
    def _slots(self) -> np.ndarray:  # (2, 4E) flat n x n slots that _edge_assembly gives c, c, -c, -c per edge
        t, h = self.edge_ends
        n = self.node_count
        tt, hh, th, ht = t * (n + 1), h * (n + 1), t * n + h, h * n + t
        return np.stack((np.concatenate((tt, hh, th, ht)), np.concatenate((tt, th, ht, hh))))

    def edge_index(self, i: int, j: int) -> int:
        """Index of the undirected edge {i, j} in canonical order."""
        key = (i, j) if i < j else (j, i)
        try:
            return self._edge_lookup[key]
        except KeyError:
            raise NotAnEdge(f"({i}, {j}) is not an edge of the graph") from None


@dataclass(frozen=True, eq=False)
class SymmetricSpectrum:
    """Full eigendecomposition of a symmetric matrix (or a stack of them).

    ``eigenvalues`` ascend; column k of ``eigenvectors`` pairs with
    eigenvalue k and the columns are orthonormal. Each column's
    largest-magnitude entry is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def build_graph(n: int, edge_list) -> Graph:
    """Validate and build a connected weighted graph.

    ``edge_list`` uses the external 1-based convention: an iterable of
    (i, j, weight) with node ids in 1..n.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"need an integer node count >= 2, got {n!r}")
    seen: dict[tuple[int, int], float] = {}
    for entry in edge_list:
        i, j, w = entry
        i, j, w = int(i), int(j), float(w)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i}, {j}) uses node ids outside 1..{n}")
        if i == j:
            raise SelfLoop(f"self loop at node {i}")
        if not (math.isfinite(w) and w > 0):
            raise NonpositiveWeight(f"edge ({i}, {j}) has weight {w}")
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in seen:
            raise DuplicateEdge(f"edge ({i}, {j}) given more than once")
        seen[key] = w
    if len(seen) < n - 1:
        raise DisconnectedGraph(f"graph is not connected; {len(seen)} distinct edges cannot join {n} nodes")
    edges = tuple((i, j, seen[(i, j)]) for i, j in sorted(seen))
    graph = Graph(node_count=int(n), edges=edges)
    _check_connected(graph)
    return graph


def _check_connected(graph: Graph) -> None:
    reached = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in graph.adjacency[u]:
            if v not in reached:
                reached.add(v)
                stack.append(v)
    if len(reached) != graph.node_count:
        missing = [v + 1 for v in range(graph.node_count) if v not in reached]
        shown = ", ".join(map(str, missing[:_LISTED_NODES])) + (", ..." if len(missing) > _LISTED_NODES else "")
        raise DisconnectedGraph(
            f"graph is not connected; {len(missing)} nodes unreachable from node 1: {shown}"
        )


def _edge_diff(graph: Graph, x: np.ndarray) -> np.ndarray:
    """x_i - x_j per canonical edge (i the tail, j the head), (..., n) -> (..., E)."""
    ends = x.take(graph.edge_ends, axis=-1)
    return ends[..., 0, :] - ends[..., 1, :]


def _scatter(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[..., s] = sum of values[..., k] over index[k] == s, (..., m) -> (..., size), by one bincount."""
    lead = values.shape[:-1]
    if not lead:  # row offsets took about 2 of 14 us of a one-row call at n = 10 on a 2-core x86 host
        return np.bincount(index, values, size)
    rows = math.prod(lead)
    flat = index + np.arange(0, rows * size, size).reshape(rows, 1)
    return np.bincount(flat.ravel(), values.ravel(), rows * size).reshape(*lead, size)


def _edge_assembly(graph: Graph, c: np.ndarray, head: int = -1) -> np.ndarray:
    """sum_e c_e (e_i - e_j)(e_i + head e_j)^T per row, head -1 (the Laplacian of c) or 1, (..., E) -> (..., n, n)."""
    n = graph.node_count
    values = np.concatenate((c, c, -c, -c), axis=-1)
    return _scatter(graph._slots[(1 + head) // 2], values, n * n).reshape(*c.shape[:-1], n, n)


def incidence_matrix(graph: Graph) -> np.ndarray:
    """Discrete gradient D, E x n: +sqrt(w) at the tail, -sqrt(w) at the head; built per call, never by the library."""
    D = np.zeros((graph.edge_count, graph.node_count))
    s = np.sqrt(graph.weights)
    D[np.arange(graph.edge_count), graph.edge_ends] = (s, -s)
    return D


def graph_laplacian(graph: Graph) -> np.ndarray:
    """Weighted Laplacian D^T D (positive semidefinite, kernel = constants), assembled from the edge list per call."""
    return _edge_assembly(graph, graph.weights)


def symmetric_eigen(matrix) -> SymmetricSpectrum:
    """Full spectrum of a symmetric matrix, or of each matrix in a stack, by LAPACK ``eigh``.

    ``matrix`` has shape (n, n) or (..., n, n); the spectrum then has
    eigenvalues of shape (..., n) and eigenvectors of shape (..., n, n).
    Each matrix must be symmetric within 1e-10 * its own max|M|, else
    :class:`NotSymmetric`. Every column of eigenvectors is signed so that
    its largest-magnitude entry (the first one on ties) is positive, which
    makes the output deterministic; a stacked call gives the same bits as
    one call per matrix. A LAPACK failure raises :class:`NoConvergence`.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {M.shape}")
    MT = np.swapaxes(M, -1, -2)
    if M.size:
        scale = np.max(np.abs(M), axis=(-2, -1))
        if np.any(np.max(np.abs(M - MT), axis=(-2, -1)) > 1e-10 * scale):
            raise NotSymmetric("matrix is not symmetric within 1e-10 * max|M|")
    try:
        values, vectors = np.linalg.eigh(0.5 * (M + MT))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver did not converge: {exc}") from exc
    peak = np.take_along_axis(vectors, np.argmax(np.abs(vectors), axis=-2)[..., None, :], axis=-2)
    vectors = np.where(peak < 0, -vectors, vectors)
    return SymmetricSpectrum(eigenvalues=freeze(values), eigenvectors=freeze(vectors))
