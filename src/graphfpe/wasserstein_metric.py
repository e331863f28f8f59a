"""Discrete 2-Wasserstein distance via path-space action minimization.

The squared distance is the infimum of int_0^1 drho^T L^+(rho) drho dt over
simplex curves joining the endpoints. We transcribe the curve into K
segments, evaluate the metric at segment midpoints (second-order accurate),
and minimize over the interior path points by damped Newton. Each segment
term d^T L^+(m) d is a partial minimum of a jointly convex perspective
function and theta is linear in m, so the action is convex in the interior
points. Its Hessian couples only neighbouring points: it is block
tridiagonal, and each step solves it on the zero-sum tangent plane by block
Cholesky. Each path the method visits is eliminated once (:func:`_path_terms`).
A backtracking line search enforces both Armijo decrease and strict
interiority; where a pivot block is not positive definite, or the Newton
step is no descent direction, that iteration steps along -grad. A minimizer
on the simplex boundary is out of reach: the tangent gradient does not
vanish there, and the result reports ``converged`` False.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .graph_core import Graph, _edge_assembly, _edge_diff, _scatter
from .simplex_calculus import Density, _require, laplacian_solve

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
# Relative rounding allowance of the computed action in the Armijo test, as
# in the approximate Wolfe conditions of Hager & Zhang (SIAM J. Optim. 2005):
# once the Newton decrement falls below the action's rounding, the exact test
# compares noise and would reject every step short of the tolerance.
_ROUNDING = 1e-13


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
    """``iterations`` counts the Newton (or fallback -grad) steps taken, ``backtracks`` their line-search halvings."""

    distance: float
    path: DiscretePath
    converged: bool
    iterations: int
    grad_norm: float
    backtracks: int = 0


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


def _path_terms(graph: Graph, points: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(action, w, X) of a path: X_k = L(mid_k)^+, w_k = X_k d_k and the action K sum_k d_k^T w_k.

    One stacked :func:`laplacian_solve` over the K midpoints with the rows
    of I - 11^T/n as right-hand sides, centred, so row j of X_k is L^+ e_j;
    it raises :class:`BoundaryDensity` when a midpoint's L degenerates. The
    gradient and the Hessian blocks read w and X: one elimination per path.
    """
    K, n = points.shape[0] - 1, points.shape[1]
    mids = 0.5 * (points[:-1] + points[1:])
    X = laplacian_solve(graph, mids[:, None, :], np.broadcast_to(np.eye(n) - 1.0 / n, (K, n, n)))
    X -= X.mean(axis=-1, keepdims=True)
    diff = np.diff(points, axis=0)
    w = np.einsum("kij,kj->ki", X, diff)
    return float(np.sum(diff * w)) * K, w, X


def _tangent_grad(graph: Graph, w: np.ndarray) -> np.ndarray:
    """Gradient of the action w.r.t. the interior points, tangent-projected, from :func:`_path_terms`' w.

    Per segment k, with d = rho_{k+1} - rho_k and w = L^+(mid) d: the
    d-dependence contributes +-(2/dt) w to the adjacent points, and the
    midpoint dependence -(1/(4 dt)) s, s scattering omega_e (w_i - w_j)^2 to both
    ends of each edge e = (i, j) of weight omega_e (dL/d mid_m is half the edge terms of L at m).
    """
    K = w.shape[0]
    d = _edge_diff(graph, w)
    y2 = graph.weights * d * d  # (omega d) d: unlike d^2, no intermediate exceeds the result
    s = _scatter(graph.edge_ends.ravel(), np.concatenate((y2, y2), axis=-1), graph.node_count)
    grad = (2.0 * K) * (w[:-1] - w[1:]) - (0.25 * K) * (s[:-1] + s[1:])
    return grad - grad.mean(axis=1, keepdims=True)  # project onto the zero-sum tangent plane


def _hessian_blocks(graph: Graph, w: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (K-1, n, n) and upper off-diagonal (K-2, n, n) Hessian blocks of the action in the interior points.

    Per segment, f(d, m) = d^T X d with X = L(m)^+, w = X d and
    M = sum_e (omega_e (w_i - w_j) / 2)(e_i - e_j)(e_i + e_j)^T over the
    edges e = (i, j) of weight omega_e, whose column m is (dL/dm_m) w.
    Then f_dd = 2X, f_dm = -2XM and f_mm = 2 M^T X M. Through d = rho_{k+1}
    - rho_k and m = (rho_k + rho_{k+1}) / 2 the segment adds, times K,
    2X + G + G^T + S/2 at rho_k, 2X - G - G^T + S/2 at rho_{k+1} and
    -2X + G - G^T + S/2 at (rho_k, rho_{k+1}), with G = XM and S = M^T G.
    """
    K = w.shape[0]
    M = _edge_assembly(graph, 0.5 * graph.weights * _edge_diff(graph, w), head=1)
    G = X @ M
    GT = G.transpose(0, 2, 1)
    base = 2.0 * X + 0.5 * (GT @ M)
    diag = K * ((base[:-1] - G[:-1] - GT[:-1]) + (base[1:] + G[1:] + GT[1:]))
    off = K * (G[1:-1] - GT[1:-1] - 4.0 * X[1:-1] + base[1:-1])
    return diag, off


def _block_tridiagonal_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """x with T x = rhs for the symmetric block-tridiagonal T with blocks ``diag`` and ``off`` above them.

    Block Cholesky T = L L^T, O(len(diag) p^3) for p x p blocks; None when a
    pivot block is not positive definite. Each diagonal factor is inverted
    once, so a block costs two LAPACK calls and the substitutions are
    products: for blocks this small the call overhead is the cost.
    """
    inverses, couplings, ys = [], [], []
    try:
        for j in range(diag.shape[0]):
            S, r = diag[j], rhs[j]
            if j:
                C = inverses[-1] @ off[j - 1]  # L_{j-1}^{-1} T_{j-1, j}
                couplings.append(C)
                S = S - C.T @ C
                r = r - C.T @ ys[-1]
            inverses.append(np.linalg.inv(np.linalg.cholesky(S)))
            ys.append(inverses[-1] @ r)
    except np.linalg.LinAlgError:
        return None
    x = [inverses[-1].T @ ys[-1]]
    for j in range(diag.shape[0] - 2, -1, -1):
        x.append(inverses[j].T @ (ys[j] - couplings[j] @ x[-1]))
    return np.stack(x[::-1])


def path_action(graph: Graph, path: DiscretePath) -> float:
    """Midpoint-discretized action of a simplex curve (all points interior)."""
    if path.segments < 1:
        raise ValueError("path needs at least one segment")
    points = {f"path.densities[{k}]": rho for k, rho in enumerate(path.densities)}
    _require(graph.node_count, interior=tuple(points), **points)
    return _path_terms(graph, np.stack([rho.values for rho in path.densities]))[0]


def w2_distance(
    graph: Graph,
    rho0: Density,
    rho1: Density,
    K: int = 16,
    max_iters: int = 5000,
    grad_tol: float = 1e-8,
) -> W2Result:
    """Wasserstein distance between interior measures by path optimization.

    Starts from the linear interpolation (interior points blended 1e-6
    toward uniform) and takes damped Newton steps on the action, at most
    ``max_iters`` of them. ``converged`` reflects whether the projected
    gradient dropped below ``grad_tol``; on failure the best iterate found
    is returned.
    """
    _require(graph.node_count, interior=("rho0", "rho1"), rho0=rho0, rho1=rho1)
    if K < 1:
        raise ValueError(f"need K >= 1 segments, got {K!r}")
    if K >= np.iinfo(np.intp).max // 8:  # numpy refuses to size the K + 1 path times
        raise MemoryError(f"a path of {K} segments is more than numpy can index")

    if np.array_equal(rho0.values, rho1.values):
        path = DiscretePath(densities=(rho0,) * K + (rho1,), action=0.0)
        return W2Result(0.0, path, True, 0, 0.0)

    n = graph.node_count
    ts = np.linspace(0.0, 1.0, K + 1)[:, None]
    points = (1.0 - ts) * rho0.values + ts * rho1.values
    if K > 1:
        points[1:K] = (1.0 - 1e-6) * points[1:K] + 1e-6 / n

    if K == 1:
        act = _path_terms(graph, points)[0]
        path = DiscretePath(densities=(rho0, rho1), action=act)
        return W2Result(math.sqrt(max(act, 0.0)), path, True, 0, 0.0)

    Q = np.linalg.qr(np.eye(n)[:, :-1] - 1.0 / n)[0]  # orthonormal basis of the zero-sum plane
    act, w, X = _path_terms(graph, points)
    grad = _tangent_grad(graph, w)
    converged = False
    iterations = backtracks = 0
    while True:
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= grad_tol:
            converged = True
            break
        if iterations == max_iters:
            break
        diag, off = _hessian_blocks(graph, w, X)
        step = _block_tridiagonal_solve(Q.T @ diag @ Q, Q.T @ off @ Q, -(grad @ Q))
        slope = float(np.sum((grad @ Q) * step)) if step is not None else math.nan
        if slope < 0.0:
            step = step @ Q.T
        else:
            step, slope = -grad, -float(np.sum(grad * grad))

        trial = 1.0
        while trial >= _MIN_STEP:
            candidate = points.copy()
            candidate[1:K] = points[1:K] + trial * step
            candidate[1:K] /= candidate[1:K].sum(axis=1, keepdims=True)
            if float(candidate[1:K].min()) > 0.0:
                terms = _path_terms(graph, candidate)  # kept: the next step's Hessian reads its w and X
                if terms[0] <= act + _ARMIJO * trial * slope + _ROUNDING * act:
                    break
            trial *= 0.5
            backtracks += 1
        else:
            break  # no admissible descent step left at this resolution
        iterations += 1
        points, (act, w, X) = candidate, terms
        grad = _tangent_grad(graph, w)

    densities = (rho0,) + tuple(Density(points[k]) for k in range(1, K)) + (rho1,)
    path = DiscretePath(densities=densities, action=act)
    return W2Result(
        distance=math.sqrt(max(act, 0.0)),
        path=path,
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
        backtracks=backtracks,
    )


def w2_metric_checks(
    graph: Graph,
    triples,
    rel_tol: float = 1e-3,
    K: int = 16,
    max_iters: int = 5000,
    grad_tol: float = 1e-8,
) -> MetricChecksReport:
    """Verify symmetry and the triangle inequality on (a, b, c) triples.

    Tolerances are relative (default 1e-3, the slack induced by the solver's
    gradient tolerance). Raises :class:`NoConvergence` if any distance solve
    fails to converge.
    """

    def dist(x: Density, y: Density) -> float:
        res = w2_distance(graph, x, y, K=K, max_iters=max_iters, grad_tol=grad_tol)
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
