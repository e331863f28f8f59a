import math

import numpy as np
import pytest

from graphfpe import (
    BoundaryDensity,
    Density,
    DiscretePath,
    build_graph,
    path_action,
    w2_distance,
    w2_metric_checks,
)
from graphfpe import simplex_calculus
from graphfpe.wasserstein_metric import _hessian_blocks, _path_terms, _tangent_grad
from helpers import interior_density, k3, path2, random_connected_graph


def linear_path(rho0: Density, rho1: Density, K: int) -> DiscretePath:
    ts = np.linspace(0.0, 1.0, K + 1)
    return DiscretePath(
        densities=tuple(Density((1 - t) * rho0.values + t * rho1.values) for t in ts)
    )


def test_action_constant_path_is_zero():
    rho = Density([0.4, 0.6])
    path = DiscretePath(densities=(rho, rho, rho))
    assert path_action(path2(), path) <= 1e-15


def test_action_two_node_closed_form():
    # on 2 nodes theta is always 1/2, so the metric is constant and the
    # linear path has action 2 (drho_1)^2 / w for every K
    rho0, rho1 = Density([0.5, 0.5]), Density([0.9, 0.1])
    for K in (1, 2, 8, 32):
        assert path_action(path2(), linear_path(rho0, rho1, K)) == pytest.approx(
            0.32, rel=1e-12
        )
    assert path_action(path2(4.0), linear_path(rho0, rho1, 8)) == pytest.approx(
        0.08, rel=1e-12
    )


def test_action_rejects_boundary_points():
    path = DiscretePath(densities=(Density([1.0, 0.0]), Density([0.5, 0.5])))
    with pytest.raises(BoundaryDensity):
        path_action(path2(), path)


def test_action_reversal_invariance():
    dens = tuple(Density(x) for x in ([0.5, 0.5], [0.7, 0.3], [0.9, 0.1]))
    fwd = path_action(path2(), DiscretePath(densities=dens))
    bwd = path_action(path2(), DiscretePath(densities=dens[::-1]))
    assert fwd == pytest.approx(bwd, rel=1e-14)


def test_distance_identical_endpoints():
    rho = Density([0.3, 0.7])
    res = w2_distance(path2(), rho, rho, K=8)
    assert res.distance <= 1e-12
    assert res.converged


def test_distance_two_node_closed_form():
    rho0, rho1 = Density([0.5, 0.5]), Density([0.9, 0.1])
    res = w2_distance(path2(), rho0, rho1, K=32)
    assert res.converged
    assert res.distance == pytest.approx(math.sqrt(2.0) * 0.4, rel=1e-6)
    # endpoints are the query measures
    assert np.array_equal(res.path.densities[0].values, rho0.values)
    assert np.array_equal(res.path.densities[-1].values, rho1.values)

    res4 = w2_distance(path2(4.0), rho0, rho1, K=32)
    assert res4.distance == pytest.approx(math.sqrt(2.0 / 4.0) * 0.4, rel=1e-6)


def test_distance_action_dominates_any_path():
    rho0, rho1 = Density([0.5, 0.5]), Density([0.9, 0.1])
    opt = w2_distance(path2(), rho0, rho1, K=8)
    crooked = DiscretePath(
        densities=(rho0, Density([0.2, 0.8]), rho1)
    )
    assert path_action(path2(), crooked) >= opt.distance**2 - 1e-12


def test_distance_refinement():
    rho0, rho1 = Density([0.5, 0.5]), Density([0.9, 0.1])
    a16 = w2_distance(path2(), rho0, rho1, K=16).path.action
    a32 = w2_distance(path2(), rho0, rho1, K=32).path.action
    assert a32 <= a16 + 1e-6 * a16


def test_distance_k3_spot_check():
    rng = np.random.default_rng(0)
    g = k3()
    a, b = interior_density(rng, 3), interior_density(rng, 3)
    res = w2_distance(g, a, b, K=8, grad_tol=1e-7)
    assert res.converged
    assert res.distance > 0
    rev = w2_distance(g, b, a, K=8, grad_tol=1e-7)
    assert abs(res.distance - rev.distance) <= 1e-4 * res.distance


def test_distance_rejects_boundary_endpoints():
    with pytest.raises(BoundaryDensity):
        w2_distance(path2(), Density([1.0, 0.0]), Density([0.5, 0.5]))


def random_path_cases(seed: int, count: int):
    """(graph, points) pairs: random 3-8 node graphs with 2-6 segment paths."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 9))
        K = int(rng.integers(2, 7))
        points = np.stack([interior_density(rng, n, floor=0.2 / n).values for _ in range(K + 1)])
        yield random_connected_graph(rng, n), points


def pinv_reference(g, points):
    """Action, tangent-projected gradient and each segment's L(mid)^+, one numpy pinv per segment."""
    K, n = points.shape[0] - 1, points.shape[1]
    D = np.zeros((g.edge_count, n))
    for e, (i, j, w) in enumerate(g.edges):
        D[e, i], D[e, j] = math.sqrt(w), -math.sqrt(w)
    total, ws, ss, Xs = 0.0, [], [], []
    for k in range(K):
        d = points[k + 1] - points[k]
        mid = 0.5 * (points[k] + points[k + 1])
        th = np.array([0.5 * (mid[i] + mid[j]) for i, j, _ in g.edges])
        Xs.append(np.linalg.pinv(D.T @ np.diag(th) @ D))
        w = Xs[-1] @ d
        total += K * float(d @ w)
        s = np.zeros(n)
        for e, (i, j, _) in enumerate(g.edges):
            s[i] += float(D[e] @ w) ** 2
            s[j] += float(D[e] @ w) ** 2
        ws.append(w)
        ss.append(s)
    grad = np.array(
        [2 * K * (ws[j - 1] - ws[j]) - K / 4 * (ss[j - 1] + ss[j]) for j in range(1, K)]
    )
    return total, grad - grad.mean(axis=1, keepdims=True), Xs


def action_and_grad(g, points):
    act, w, _ = _path_terms(g, points)
    return act, _tangent_grad(g, w)


def test_batched_action_and_gradient_match_pinv_reference():
    for g, points in random_path_cases(31, 25):
        act, w, X = _path_terms(g, points)
        grad = _tangent_grad(g, w)
        ref_act, ref_grad, ref_X = pinv_reference(g, points)
        assert abs(act - ref_act) <= 1e-12 * ref_act
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
        for X_k, ref in zip(X, ref_X, strict=True):
            assert np.max(np.abs(X_k - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_action_gradient_matches_finite_differences():
    # the optimizer's analytic gradient (metric-derivative term included)
    # against central differences of the action
    rng = np.random.default_rng(2)
    g = k3()
    K = 4
    points = np.stack(
        [interior_density(rng, 3, floor=0.1).values for _ in range(K + 1)]
    )
    cases = [(g, points), *random_path_cases(37, 10)]
    h = 1e-6
    for g, points in cases:
        _, grad = action_and_grad(g, points)
        n, K = points.shape[1], points.shape[0] - 1
        for j in range(1, K):
            raw = rng.standard_normal(n)
            direction = raw - raw.mean()
            bumped_up = points.copy()
            bumped_up[j] = points[j] + h * direction
            bumped_dn = points.copy()
            bumped_dn[j] = points[j] - h * direction
            fd = (_path_terms(g, bumped_up)[0] - _path_terms(g, bumped_dn)[0]) / (2 * h)
            analytic = float(grad[j - 1] @ direction)
            assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd))


def test_action_hessian_matches_finite_differences():
    # a diagonal and an off-diagonal block of the analytic Hessian, both
    # projected to the tangent plane, against central differences of the
    # analytic gradient
    rng = np.random.default_rng(5)
    g = build_graph(5, [(1, 2, 1.0), (2, 3, 1.3), (3, 4, 0.8), (4, 5, 1.1), (1, 5, 0.9), (1, 3, 1.2)])
    n, K, j, h = 5, 5, 2, 1e-6
    points = np.stack([interior_density(rng, n, floor=0.05).values for _ in range(K + 1)])
    diag, off = _hessian_blocks(g, *_path_terms(g, points)[1:])
    proj = np.eye(n) - 1.0 / n
    fd = np.empty((K - 1, n, n))  # fd[i][:, c]: d grad_i / d rho_j along column c of proj
    for c in range(n):
        up, dn = points.copy(), points.copy()
        up[j] += h * proj[:, c]
        dn[j] -= h * proj[:, c]
        fd[:, :, c] = (action_and_grad(g, up)[1] - action_and_grad(g, dn)[1]) / (2 * h)
    for analytic, numeric in ((diag[j - 1], fd[j - 1]), (off[j - 2], fd[j - 2]), (off[j - 1].T, fd[j])):
        projected = proj @ analytic @ proj
        assert np.max(np.abs(numeric - projected)) <= 1e-6 * np.max(np.abs(projected))


def test_action_rejects_one_midpoint_near_boundary():
    # on the path 1-2-3, nodes 1 and 2 nearly empty at both ends of the last
    # segment cut node 1 off in L(mid) of that segment only
    g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
    ok = np.array([0.3, 0.3, 0.4])
    near = np.array([1e-17, 1e-17, 1.0])
    _path_terms(g, np.stack([ok, ok, near]))
    points = np.stack([ok, ok, near, near])
    with pytest.raises(BoundaryDensity):
        _path_terms(g, points)
    with pytest.raises(BoundaryDensity):
        path_action(g, DiscretePath(densities=tuple(Density(p) for p in points)))


def test_metric_checks_degenerate_triple():
    rho = Density([0.4, 0.6])
    report = w2_metric_checks(path2(), [(rho, rho, rho)], K=4)
    assert report.all_ok
    assert report.max_symmetry_gap <= 1e-12


def test_metric_checks_monotone_two_node_triple():
    # aligned 1-D geodesics concatenate: triangle inequality tight
    a, b, c = Density([0.3, 0.7]), Density([0.5, 0.5]), Density([0.8, 0.2])
    report = w2_metric_checks(path2(), [(a, b, c)], K=8, grad_tol=1e-9)
    assert report.all_ok
    t = report.triples[0]
    assert t.d_ac == pytest.approx(t.d_ab + t.d_bc, rel=1e-6)


def test_metric_checks_random_k3_triples():
    rng = np.random.default_rng(1)
    g = k3()
    triples = [
        (interior_density(rng, 3), interior_density(rng, 3), interior_density(rng, 3))
        for _ in range(3)
    ]
    report = w2_metric_checks(g, triples, K=8, grad_tol=1e-6)
    assert report.symmetry_ok
    assert report.triangle_ok


def test_newton_converges_on_six_node_path():
    g = build_graph(6, [(i, i + 1, 1.0) for i in range(1, 6)])
    a = np.array([0.3, 0.2, 0.15, 0.15, 0.1, 0.1])
    res = w2_distance(g, Density(a), Density(a[::-1].copy()), K=4, max_iters=10)
    assert res.converged
    assert res.grad_norm <= 1e-8


def ring(rng, n, lo=0.9, hi=1.1):
    return build_graph(n, [(i, i % n + 1, float(rng.uniform(lo, hi))) for i in range(1, n + 1)])


def path(rng, n, lo=0.9, hi=1.1):
    return build_graph(n, [(i, i + 1, float(rng.uniform(lo, hi))) for i in range(1, n)])


@pytest.mark.parametrize(
    "make, n, K, seeds",
    # the seed windows hold pairs (ring seed 26, path seed 47) on which a
    # first-order descent stalls with its gradient just above 1e-8
    [(ring, 5, 4, range(20, 28)), (path, 4, 8, range(40, 48))],
)
def test_newton_converges_on_seeded_pairs(make, n, K, seeds):
    for seed in seeds:
        rng = np.random.default_rng(seed)
        g = make(rng, n)
        a, b = interior_density(rng, n), interior_density(rng, n)
        res = w2_distance(g, a, b, K=K, max_iters=20, grad_tol=1e-8)
        assert res.converged, (seed, res.grad_norm)


@pytest.mark.parametrize("n", [20, 60])
@pytest.mark.parametrize("kind", ["ring", "random"])
def test_newton_reaches_tight_tolerance_on_larger_graphs(n, kind):
    rng = np.random.default_rng(n)
    if kind == "ring":
        g = build_graph(n, [(i, i % n + 1, 1.0) for i in range(1, n + 1)])
    else:
        g = random_connected_graph(rng, n)
    a, b = (Density(0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n) for _ in range(2))
    for K in (8, 16, 32):
        res = w2_distance(g, a, b, K=K, max_iters=19, grad_tol=1e-10)
        assert res.converged, (K, res.grad_norm)


def test_newton_eliminates_each_visited_path_once(monkeypatch):
    # the start path, then one accepted candidate per step: its solve also
    # gives the next step's gradient and Hessian
    gth_solve = simplex_calculus._gth_solve
    calls = []

    def counting_gth_solve(L, b):
        calls.append(L.shape)
        return gth_solve(L, b)

    monkeypatch.setattr(simplex_calculus, "_gth_solve", counting_gth_solve)
    rng = np.random.default_rng(20)
    g = ring(rng, 5)
    a, b = interior_density(rng, 5), interior_density(rng, 5)
    res = w2_distance(g, a, b, K=8, grad_tol=1e-10)
    assert res.converged and res.backtracks == 0 and res.iterations >= 2
    assert len(calls) == 1 + res.iterations


@pytest.mark.xfail(
    strict=True,
    reason="the discrete geodesic touches the simplex boundary, where the tangent gradient cannot vanish",
)
def test_newton_converges_when_the_geodesic_touches_the_boundary():
    # a star with a heavy and a light edge: the optimal 8-segment path drains
    # the leaf behind the heavy edge to zero mass at one interior point
    g = build_graph(3, [(1, 2, 5.0), (1, 3, 0.125)])
    a, c = Density(np.array([4.0, 1.0, 4.0]) / 9), Density(np.array([4.0, 4.0, 1.0]) / 9)
    res = w2_distance(g, a, c, K=8, max_iters=50)
    assert res.converged
