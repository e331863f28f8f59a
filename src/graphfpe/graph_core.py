"""Weighted graphs, incidence/Laplacian matrices, and the symmetric eigensolver.

Nodes are 0-based inside the library; the 1-based convention of the JSON
graph format is translated once, in :func:`build_graph` and in the CLI.
Edges are stored in a fixed canonical orientation (tail < head, sorted
lexicographically), so every derived matrix is deterministic. Downstream
code must not rely on the sign convention of individual incidence rows.
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


def freeze(a: np.ndarray) -> np.ndarray:
    """Return a read-only contiguous float copy of ``a``."""
    out = np.array(a, dtype=float, order="C")
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
    def edge_tail(self) -> np.ndarray:
        return np.array([e[0] for e in self.edges], dtype=int)

    @cached_property
    def edge_head(self) -> np.ndarray:
        return np.array([e[1] for e in self.edges], dtype=int)

    @cached_property
    def edge_ends(self) -> np.ndarray:
        return np.stack((self.edge_tail, self.edge_head))

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
    def _edge_lookup(self) -> dict[tuple[int, int], int]:
        return {(i, j): e for e, (i, j, _) in enumerate(self.edges)}

    @cached_property
    def _incidence(self) -> np.ndarray:
        D = np.zeros((self.edge_count, self.node_count))
        s = np.sqrt(self.weights)
        D[np.arange(self.edge_count), self.edge_tail] = s
        D[np.arange(self.edge_count), self.edge_head] = -s
        return freeze(D)

    @cached_property
    def _laplacian(self) -> np.ndarray:
        D = self._incidence
        return freeze(D.T @ D)

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
        missing = sorted(set(range(graph.node_count)) - reached)
        raise DisconnectedGraph(
            f"graph is not connected; nodes {[v + 1 for v in missing]} unreachable from node 1"
        )


def incidence_matrix(graph: Graph) -> np.ndarray:
    """Discrete gradient matrix D, one row per edge: +sqrt(w) at tail, -sqrt(w) at head.

    The returned array is cached on the graph and read-only.
    """
    return graph._incidence


def graph_laplacian(graph: Graph) -> np.ndarray:
    """Combinatorial weighted Laplacian D^T D (positive semidefinite, kernel = constants).

    The returned array is cached on the graph and read-only.
    """
    return graph._laplacian


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
