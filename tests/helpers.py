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
