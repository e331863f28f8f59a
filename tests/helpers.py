"""Shared generators and canonical fixtures for the test suite."""

from __future__ import annotations

import numpy as np

from graphfpe import (
    Density,
    EnergyModel,
    build_graph,
    convexity_certificate,
)


def path2(weight: float = 1.0):
    return build_graph(2, [(1, 2, weight)])


def k3(weight: float = 1.0):
    return build_graph(3, [(1, 2, weight), (2, 3, weight), (1, 3, weight)])


def bare_model(n: int, beta: float = 1.0) -> EnergyModel:
    """Pure-entropy model: W = 0, V = 0."""
    return EnergyModel(np.zeros((n, n)), np.zeros(n), beta)


def random_connected_graph(rng: np.random.Generator, n: int, w_lo=0.5, w_hi=2.0):
    """Random spanning tree plus up to n extra edges, weights in [w_lo, w_hi]."""
    edges = []
    used = set()
    for j in range(1, n):
        i = int(rng.integers(0, j))
        used.add((i, j))
        edges.append((i + 1, j + 1, float(rng.uniform(w_lo, w_hi))))
    for _ in range(int(rng.integers(0, n))):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (i, j) not in used:
            used.add((i, j))
            edges.append((i + 1, j + 1, float(rng.uniform(w_lo, w_hi))))
    return build_graph(n, edges)


def interior_density(rng: np.random.Generator, n: int, floor: float = 0.02) -> Density:
    """Uniform draw from {x in the simplex : every x_i >= floor}.

    Flat Dirichlet draws are accepted with probability (1 - n floor)^(n - 1),
    which is tiny for large n floor; after 1000 misses the draw falls back to
    floor + (1 - n floor) Dirichlet(1), uniform on the same region.
    """
    for _ in range(1000):
        x = rng.dirichlet(np.ones(n))
        if float(x.min()) >= floor:
            return Density(x)
    return Density(floor + (1.0 - n * floor) * rng.dirichlet(np.ones(n)))


def random_convex_model(rng: np.random.Generator, n: int, beta: float = 1.0) -> EnergyModel:
    """Random symmetric-interaction model that passes the convexity certificate."""
    while True:
        A = rng.normal(0.0, 0.35, size=(n, n))
        model = EnergyModel(0.5 * (A + A.T), rng.uniform(-1.0, 1.0, size=n), beta)
        if convexity_certificate(model).certified_convex:
            return model


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def three_well_recipe():
    """A 12-node path plus random chords up to 18 edges, and a model with three wells on it.

    Edge weights are U(0.5, 1.5); W is -3u, u ~ U(4, 5), on each diagonal
    4 x 4 block, V ~ U(-1, 1) and beta = 0.25, all drawn from default_rng(7).
    """
    rng = np.random.default_rng(7)
    n = 12
    edges = {(i, i + 1): float(rng.uniform(0.5, 1.5)) for i in range(n - 1)}
    while len(edges) < 18:
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        edges.setdefault((i, j), float(rng.uniform(0.5, 1.5)))
    graph = build_graph(n, [(i + 1, j + 1, w) for (i, j), w in edges.items()])
    W = np.zeros((n, n))
    for b in range(0, n, 4):
        W[b : b + 4, b : b + 4] = -3.0 * rng.uniform(4.0, 5.0)
    return graph, EnergyModel(W, rng.uniform(-1.0, 1.0, n), 0.25)


def corner_starts(n):
    """The uniform density and one start per node with 0.9 on that node."""
    starts = [Density(np.full(n, 1.0 / n))]
    for i in range(n):
        x = np.full(n, 0.1 / (n - 1))
        x[i] = 0.9
        starts.append(Density(x / x.sum()))
    return starts
