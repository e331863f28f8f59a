"""Discrete 2-Wasserstein distance via path-space action minimization.

The squared distance is the infimum of int_0^1 drho^T L^+(rho) drho dt over
simplex curves joining the endpoints. We transcribe the curve into K
segments, evaluate the metric at segment midpoints (second-order accurate),
and minimize over the interior path points with projected gradient descent:
gradients are projected onto the zero-sum tangent plane and a backtracking
line search enforces both Armijo decrease and strict interiority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryDensity, DimensionMismatch, NoConvergence
from .graph_core import Graph, incidence_matrix
from .simplex_calculus import Density, laplacian_solve

__all__ = [
    "DiscretePath",
    "W2Result",
    "TripleCheck",
    "MetricChecksReport",
    "path_action",
    "w2_distance",
    "w2_metric_checks",
]

_ARMIJO = 1e-4
_MIN_STEP = 1e-18


@dataclass(frozen=True, eq=False)
class DiscretePath:
    """Simplex curve sampled at K+1 points; endpoints are the query measures."""

    densities: tuple[Density, ...]
    action: float | None = None

    @property
    def segments(self) -> int:
        return len(self.densities) - 1


@dataclass(frozen=True, eq=False)
class W2Result:
    distance: float
    path: DiscretePath
    converged: bool
    iterations: int
    grad_norm: float


@dataclass(frozen=True)
class TripleCheck:
    d_ab: float
    d_ba: float
    d_bc: float
    d_ac: float
    symmetry_gap: float
    triangle_excess: float


@dataclass(frozen=True, eq=False)
class MetricChecksReport:
    symmetry_ok: bool
    triangle_ok: bool
    all_ok: bool
    max_symmetry_gap: float
    max_triangle_excess: float
    triples: tuple[TripleCheck, ...]
    rel_tol: float


def _segment_solves(graph: Graph, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steps d_k = rho_{k+1} - rho_k and w_k = L^+(mid_k) d_k + const for every segment k.

    One stacked :func:`laplacian_solve` over the K midpoints; it raises
    :class:`BoundaryDensity` when a midpoint's L degenerates. The action and
    its gradient use only d^T w and D w, which the constant does not change:
    d sums to zero and D maps constants to zero.
    """
    diff = np.diff(points, axis=0)
    return diff, laplacian_solve(graph, 0.5 * (points[:-1] + points[1:]), diff)


def _action_only(graph: Graph, points: np.ndarray) -> float:
    diff, w = _segment_solves(graph, points)
    return float(np.sum(diff * w)) * (points.shape[0] - 1)


def _action_and_grad(graph: Graph, points: np.ndarray) -> tuple[float, np.ndarray]:
    """Action plus its gradient w.r.t. the interior points, tangent-projected.

    Per segment k, with d = rho_{k+1} - rho_k, w = L^+(mid) d and y = D w:
    the d-dependence contributes +-(2/dt) w to the adjacent points, and the
    midpoint dependence contributes -(1/(4 dt)) * s where s_m sums y_e^2
    over the edges incident to node m (theta is the average, so dL/d mid_m
    is half the sum of outer products d_e d_e^T over incident edges).
    """
    K = points.shape[0] - 1
    D = incidence_matrix(graph)
    diff, w = _segment_solves(graph, points)
    s = ((w @ D.T) ** 2) @ (D != 0.0)
    grad = (2.0 * K) * (w[:-1] - w[1:]) - (0.25 * K) * (s[:-1] + s[1:])
    grad -= grad.mean(axis=1, keepdims=True)  # project onto the zero-sum tangent plane
    return float(np.sum(diff * w)) * K, grad


def path_action(graph: Graph, path: DiscretePath) -> float:
    """Midpoint-discretized action of a simplex curve (all points interior)."""
    if path.segments < 1:
        raise ValueError("path needs at least one segment")
    for rho in path.densities:
        if rho.n != graph.node_count:
            raise DimensionMismatch(
                f"path density has {rho.n} entries for {graph.node_count} nodes"
            )
        if not rho.interior:
            raise BoundaryDensity("path action requires interior densities")
    points = np.stack([rho.values for rho in path.densities])
    return _action_only(graph, points)


def w2_distance(
    graph: Graph,
    rho0: Density,
    rho1: Density,
    K: int = 16,
    max_iters: int = 5000,
    grad_tol: float = 1e-8,
    step_init: float = 1.0,
) -> W2Result:
    """Wasserstein distance between interior measures by path optimization.

    Starts from the linear interpolation (interior points blended 1e-6
    toward uniform) and descends the action. ``converged`` reflects whether
    the projected gradient dropped below ``grad_tol``; on failure the best
    iterate found is returned.
    """
    for name, rho in (("rho0", rho0), ("rho1", rho1)):
        if rho.n != graph.node_count:
            raise DimensionMismatch(f"{name} has {rho.n} entries for {graph.node_count} nodes")
        if not rho.interior:
            raise BoundaryDensity(f"{name} must be interior")
    if K < 1:
        raise ValueError(f"need K >= 1 segments, got {K!r}")

    if np.array_equal(rho0.values, rho1.values):
        path = DiscretePath(densities=(rho0,) * K + (rho1,), action=0.0)
        return W2Result(0.0, path, True, 0, 0.0)

    n = graph.node_count
    ts = np.linspace(0.0, 1.0, K + 1)[:, None]
    points = (1.0 - ts) * rho0.values + ts * rho1.values
    if K > 1:
        points[1:K] = (1.0 - 1e-6) * points[1:K] + 1e-6 / n

    if K == 1:
        act = _action_only(graph, points)
        path = DiscretePath(densities=(rho0, rho1), action=act)
        return W2Result(math.sqrt(max(act, 0.0)), path, True, 0, 0.0)

    act, grad = _action_and_grad(graph, points)
    step = float(step_init)
    converged = False
    iterations = 0
    grad_norm = float(np.max(np.abs(grad)))
    prev_free = None
    prev_grad = None
    for iterations in range(1, max_iters + 1):
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= grad_tol:
            converged = True
            break
        # Barzilai-Borwein step guess (safeguarded by the Armijo backtracking
        # below); plain descent steps are hopeless here because the path
        # Hessian conditioning degrades like K^2
        if prev_grad is not None:
            dx = points[1:K] - prev_free
            dg = grad - prev_grad
            curv = float(np.sum(dx * dg))
            if curv > 0.0:
                step = min(max(float(np.sum(dx * dx)) / curv, _MIN_STEP), 1e6)
        prev_free = points[1:K].copy()
        prev_grad = grad.copy()

        gsq = float(np.sum(grad * grad))
        trial = step
        accepted = False
        while trial >= _MIN_STEP:
            candidate = points.copy()
            candidate[1:K] = points[1:K] - trial * grad
            if float(candidate[1:K].min()) > 0.0:
                act_new = _action_only(graph, candidate)
                if act_new <= act - _ARMIJO * trial * gsq:
                    accepted = True
                    break
            trial *= 0.5
        if not accepted:
            break  # no admissible descent step left at this resolution
        candidate[1:K] /= candidate[1:K].sum(axis=1, keepdims=True)
        points = candidate
        step = 2.0 * trial
        act, grad = _action_and_grad(graph, points)

    densities = (rho0,) + tuple(Density(points[k]) for k in range(1, K)) + (rho1,)
    path = DiscretePath(densities=densities, action=act)
    return W2Result(
        distance=math.sqrt(max(act, 0.0)),
        path=path,
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
    )


def w2_metric_checks(
    graph: Graph,
    triples,
    rel_tol: float = 1e-3,
    K: int = 16,
    max_iters: int = 5000,
    grad_tol: float = 1e-8,
    step_init: float = 1.0,
) -> MetricChecksReport:
    """Verify symmetry and the triangle inequality on (a, b, c) triples.

    Tolerances are relative (default 1e-3, the slack induced by the solver's
    gradient tolerance). Raises :class:`NoConvergence` if any distance solve
    fails to converge.
    """

    def dist(x: Density, y: Density) -> float:
        res = w2_distance(
            graph, x, y, K=K, max_iters=max_iters, grad_tol=grad_tol, step_init=step_init
        )
        if not res.converged:
            raise NoConvergence(
                f"distance solve did not reach grad_tol={grad_tol!r} "
                f"(grad norm {res.grad_norm:.3e})",
                result=res,
            )
        return res.distance

    checks = []
    for a, b, c in triples:
        d_ab = dist(a, b)
        d_ba = dist(b, a)
        d_bc = dist(b, c)
        d_ac = dist(a, c)
        checks.append(
            TripleCheck(
                d_ab=d_ab,
                d_ba=d_ba,
                d_bc=d_bc,
                d_ac=d_ac,
                symmetry_gap=abs(d_ab - d_ba),
                triangle_excess=d_ac - (d_ab + d_bc),
            )
        )
    sym_ok = all(t.symmetry_gap <= rel_tol * max(t.d_ab, t.d_ba) + 1e-12 for t in checks)
    tri_ok = all(t.triangle_excess <= rel_tol * (t.d_ab + t.d_bc) + 1e-12 for t in checks)
    return MetricChecksReport(
        symmetry_ok=sym_ok,
        triangle_ok=tri_ok,
        all_ok=sym_ok and tri_ok,
        max_symmetry_gap=max((t.symmetry_gap for t in checks), default=0.0),
        max_triangle_excess=max((t.triangle_excess for t in checks), default=-math.inf),
        triples=tuple(checks),
        rel_tol=rel_tol,
    )
