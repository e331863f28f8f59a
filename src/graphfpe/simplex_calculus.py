"""Discrete Wasserstein calculus on the probability simplex of a graph.

Sign convention: the node-weighted Laplacian is the positive semidefinite
form L(rho) = D^T Theta(rho) D, so that L(rho) Phi = -div(rho grad Phi).
Potentials are defined up to an additive constant; the canonical
representative returned by :func:`solve_potential` has mean zero.
:func:`_require` checks the argument contract of every public function of
the package that takes a graph or a model with node vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BoundaryDensity,
    DimensionMismatch,
    GraphMismatch,
    NotZeroSum,
)
from .graph_core import Graph, SymmetricSpectrum, freeze, incidence_matrix, symmetric_eigen

__all__ = [
    "MASS_TOL",
    "Density",
    "TangentVector",
    "VectorField",
    "Potential",
    "WeightedLaplacian",
    "theta",
    "edge_thetas",
    "graph_gradient",
    "divergence",
    "inner_product",
    "weighted_laplacian",
    "laplacian_matrices",
    "laplacian_apply",
    "laplacian_form",
    "laplacian_solve",
    "solve_potential",
    "metric_inner",
    "hodge_decompose",
]

MASS_TOL = 1e-12


def _node_vector(obj, what: str) -> np.ndarray:
    """Check that ``obj.values`` is a nonempty finite 1-D float vector and store it frozen; returns the stored array."""
    v = np.asarray(obj.values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{what} must be a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} has non-finite entries")
    object.__setattr__(obj, "values", freeze(v))
    return obj.values


class _NodeVector:
    """Base of the vectors with one entry per node."""

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class Density(_NodeVector):
    """Point of the probability simplex over the nodes."""

    values: np.ndarray

    def __post_init__(self):
        v = _node_vector(self, "density")
        if np.any(v < 0):
            raise ValueError(f"density has negative mass (min {v.min():.3e})")
        total = float(v.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"density mass is {total!r}, not 1 within {MASS_TOL}")

    @property
    def interior(self) -> bool:
        """True iff every node carries strictly positive mass."""
        return float(self.values.min()) > 0.0


@dataclass(frozen=True, eq=False)
class TangentVector(_NodeVector):
    """Zero-sum perturbation of a density."""

    values: np.ndarray

    def __post_init__(self):
        total = float(_node_vector(self, "tangent vector").sum())
        if abs(total) > MASS_TOL:
            raise NotZeroSum(f"tangent vector sums to {total!r}, not 0 within {MASS_TOL}")


@dataclass(frozen=True, eq=False)
class VectorField:
    """Antisymmetric edge field, stored once per canonical edge (tail < head).

    The value at index e is v_{ij} for the canonical orientation of edge e;
    v_{ji} = -v_{ij} is implied, and off-edge pairs carry no value.
    """

    graph: Graph
    edge_values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.edge_values, dtype=float)
        if v.shape != (self.graph.edge_count,):
            raise DimensionMismatch(
                f"field has {v.shape} values for a graph with {self.graph.edge_count} edges"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("vector field has non-finite entries")
        object.__setattr__(self, "edge_values", freeze(v))


@dataclass(frozen=True, eq=False)
class Potential(_NodeVector):
    """Node function, meaningful up to an additive constant."""

    values: np.ndarray

    def __post_init__(self):
        _node_vector(self, "potential")


@dataclass(frozen=True, eq=False)
class WeightedLaplacian:
    """L(rho) = D^T Theta(rho) D; the matrix and its spectrum are computed on first access."""

    graph: Graph
    density: Density

    @cached_property
    def matrix(self) -> np.ndarray:
        return freeze(laplacian_matrices(self.graph, self.density.values))

    @cached_property
    def spectrum(self) -> SymmetricSpectrum:
        return symmetric_eigen(self.matrix)


def _require(n: int, interior: tuple[str, ...] = (), **args) -> None:
    """The argument contract: each of ``args`` but None has n nodes, and each named in ``interior`` is interior.

    ``args`` maps argument names to node vectors or an ``EnergyModel``.
    Raises :class:`DimensionMismatch` or :class:`BoundaryDensity`, naming
    the argument. Every public function that takes a graph or a model with
    such arguments calls it once at entry, or forwards them to one that does.
    """
    for name, arg in args.items():
        if arg is not None and arg.n != n:
            raise DimensionMismatch(f"{name} has {arg.n} nodes where {n} are expected")
    for name in interior:
        if not args[name].interior:
            raise BoundaryDensity(f"{name} must be interior: it has a node without mass")


def _thetas(graph: Graph, values: np.ndarray) -> np.ndarray:
    """theta_ij = (rho_i + rho_j) / 2 per canonical edge, (..., n) -> (..., E); the only copy of the rule."""
    ends = values.take(graph.edge_ends, axis=-1)
    return 0.5 * (ends[..., 0, :] + ends[..., 1, :])


def theta(graph: Graph, rho: Density, i: int, j: int) -> float:
    """Arithmetic-average edge weight theta_ij = (rho_i + rho_j) / 2 for an edge (i, j)."""
    return float(edge_thetas(graph, rho)[graph.edge_index(i, j)])


def edge_thetas(graph: Graph, rho: Density) -> np.ndarray:
    """theta_ij for every canonical edge, aligned with ``graph.edges``."""
    _require(graph.node_count, rho=rho)
    return _thetas(graph, rho.values)


# The four kernels below take density rows of shape (..., n), validate
# nothing, and give a stacked call the same bits as one call per row.

def laplacian_matrices(graph: Graph, values: np.ndarray) -> np.ndarray:
    """L(rho) = D^T Theta(rho) D per row, (..., n) -> (..., n, n)."""
    D = incidence_matrix(graph)
    return D.T @ (_thetas(graph, values)[..., :, None] * D)


def laplacian_apply(graph: Graph, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L(rho) x per row, (..., n) -> (..., n): edge fluxes w theta (x_i - x_j) scattered by one bincount."""
    ends = x.take(graph.edge_ends, axis=-1)
    flux = graph.weights * _thetas(graph, values) * (ends[..., 0, :] - ends[..., 1, :])
    # the tail of each edge gets +flux and the head -flux
    flux = np.concatenate((flux, -flux), axis=-1)
    lead, n = flux.shape[:-1], graph.node_count
    # one row needs no row offsets; building them took about 2 of 14 us per call
    # at n = 10 on a 2-core x86 host
    if not lead:
        return np.bincount(graph.edge_ends.ravel(), flux, n)
    rows = math.prod(lead)
    index = np.arange(0, rows * n, n)[:, None] + graph.edge_ends.ravel()
    return np.bincount(index.ravel(), flux.ravel(), rows * n).reshape(lead + (n,))


def laplacian_form(graph: Graph, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x^T L(rho) x per row, (..., n) -> (...), summed as the nonnegative edge terms w theta (x_i - x_j)^2."""
    ends = x.take(graph.edge_ends, axis=-1)
    dx = ends[..., 0, :] - ends[..., 1, :]
    return np.sum(graph.weights * _thetas(graph, values) * dx * dx, axis=-1)


def laplacian_solve(graph: Graph, values: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L(rho) x = b and x_0 = 0 per row, (..., n) -> (..., n); for zero-sum b, x = L(rho)^+ b + const.

    One GTH elimination (:func:`_gth_solve`) grounded at node 0. A pivot at
    most 1e-14 of the largest diagonal entry of L(rho) raises
    :class:`BoundaryDensity`.
    """
    L = laplacian_matrices(graph, values)
    x, pivots = _gth_solve(L, b)
    if not np.all(pivots[..., 1:] > 1e-14 * np.diagonal(L, axis1=-2, axis2=-1).max(axis=-1, keepdims=True)):
        raise BoundaryDensity("density too close to the simplex boundary: L(rho) degenerates")
    return x


def _gth_solve(L: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, pivots) with L x = b and x_0 = 0 per row, for Laplacians L (..., n, n) and rows b (..., n).

    Grassmann-Taksar-Heyman (GTH) elimination of nodes n-1, ..., 1 onto the
    grounded node 0: a pivot is the sum of the node's remaining conductances,
    never a difference, so tiny bottleneck thetas keep full relative
    accuracy. ``pivots[..., k]`` is node k's pivot (node 0 has none); the
    leading dimensions of L and b broadcast, so one L can take a stack of
    right-hand sides. The only elimination of L(rho) in the package; it
    checks nothing, and a zero pivot gives inf or nan entries.
    """
    C = -L  # conductances off the diagonal; the diagonal is never read
    y = np.array(b, dtype=float)
    pivots = np.empty(C.shape[:-1])
    with np.errstate(all="ignore"):  # a zero or tiny pivot is left to the caller
        for k in range(L.shape[-1] - 1, 0, -1):
            row = C[..., k, :k]
            pivots[..., k] = row.sum(axis=-1)
            f = row / pivots[..., k, None]
            C[..., :k, :k] += f[..., :, None] * row[..., None, :]
            y[..., :k] += f * y[..., k, None]
        x = np.zeros_like(y)
        for k in range(1, L.shape[-1]):
            x[..., k] = (y[..., k] + (C[..., k, :k] * x[..., :k]).sum(axis=-1)) / pivots[..., k]
    return x, pivots


def graph_gradient(graph: Graph, phi: Potential) -> VectorField:
    """Potential field with edge values sqrt(w_ij) (Phi_i - Phi_j)."""
    _require(graph.node_count, phi=phi)
    return VectorField(graph, incidence_matrix(graph) @ phi.values)


def divergence(graph: Graph, rho: Density, field: VectorField) -> TangentVector:
    """div(rho v) at each node: -sum_j sqrt(w_ij) v_ij theta_ij. Always zero-sum."""
    _require(graph.node_count, rho=rho)
    if field.graph != graph:
        raise GraphMismatch("vector field belongs to a different graph")
    return TangentVector(-incidence_matrix(graph).T @ (_thetas(graph, rho.values) * field.edge_values))


def inner_product(v: VectorField, w: VectorField, rho: Density) -> float:
    """Flux inner product (v, w)_rho = sum over undirected edges of v w theta."""
    _require(v.graph.node_count, rho=rho)
    if v.graph != w.graph:
        raise GraphMismatch("fields belong to different graphs")
    return float(np.dot(v.edge_values * w.edge_values, _thetas(v.graph, rho.values)))


def weighted_laplacian(graph: Graph, rho: Density) -> WeightedLaplacian:
    """L(rho) = D^T Theta(rho) D, assembled when its ``matrix`` is first read."""
    _require(graph.node_count, rho=rho)
    return WeightedLaplacian(graph=graph, density=rho)


def _as_zero_sum(lap: WeightedLaplacian, **sigmas) -> list[np.ndarray]:
    """The values of each of ``sigmas`` as a :class:`TangentVector`, checked for a solve with ``lap``."""
    vectors = {name: s if isinstance(s, TangentVector) else TangentVector(s) for name, s in sigmas.items()}
    _require(lap.graph.node_count, interior=("lap.density",), **{"lap.density": lap.density}, **vectors)
    return [v.values for v in vectors.values()]


def solve_potential(lap: WeightedLaplacian, sigma) -> Potential:
    """Unique mean-zero Phi with L(rho) Phi = sigma (rho interior)."""
    (v,) = _as_zero_sum(lap, sigma=sigma)
    phi = laplacian_solve(lap.graph, lap.density.values, v)
    return Potential(phi - phi.mean())


def metric_inner(sigma1, sigma2, lap: WeightedLaplacian) -> float:
    """Wasserstein metric tensor g(sigma1, sigma2) = sigma1^T L^+(rho) sigma2."""
    a, b = _as_zero_sum(lap, sigma1=sigma1, sigma2=sigma2)
    return float(a @ laplacian_solve(lap.graph, lap.density.values, b))


def hodge_decompose(graph: Graph, rho: Density, field: VectorField) -> tuple[Potential, VectorField]:
    """Split v into a potential gradient and a rho-divergence-free remainder.

    Returns (Phi, u) with v = grad Phi + u, div(rho u) = 0, and Phi mean-zero.
    """
    _require(graph.node_count, interior=("rho",), rho=rho)
    if field.graph != graph:
        raise GraphMismatch("vector field belongs to a different graph")
    lap = weighted_laplacian(graph, rho)
    div_v = divergence(graph, rho, field)
    phi = solve_potential(lap, -div_v.values)
    u = VectorField(graph, field.edge_values - incidence_matrix(graph) @ phi.values)
    return phi, u
