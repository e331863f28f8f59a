"""Property tests of the L(rho) kernels and solve, the Hodge split, the flow, the tangent rate and W2 on generated graphs."""

from unittest.mock import patch

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from graphfpe import (
    BoundaryDensity,
    Density,
    EnergyModel,
    Potential,
    TangentVector,
    VectorField,
    build_graph,
    convexity_certificate,
    divergence,
    graph_gradient,
    hodge_decompose,
    inner_product,
    integrate,
    invariant_region,
    metric_inner,
    solve_potential,
    w2_distance,
    weighted_laplacian,
)
from graphfpe import fpe_dynamics
from graphfpe.fpe_dynamics import _rhs_raw
from graphfpe.free_energy import _drift_raw
from graphfpe.rate_analysis import _tangent_rate
from graphfpe.simplex_calculus import laplacian_apply, laplacian_form, laplacian_matrices, laplacian_solve

weights = st.floats(0.1, 10.0)
masses = st.floats(1e-3, 1.0)
# log-uniform masses from 1e-10 to 1: near-boundary densities with bottleneck edges
small_masses = st.floats(-10.0, 0.0).map(lambda e: 10.0**e)
# log-uniform masses from 1e-12 to 1, for the tangent rate
tiny_masses = st.floats(-12.0, 0.0).map(lambda e: 10.0**e)
reals = st.floats(-10.0, 10.0)
# log-uniform edge weights from 1e-4 to 1e4
wide_weights = st.floats(-4.0, 4.0).map(lambda e: 10.0**e)
# W2 inputs: mass ratios up to 20 and weight ratios up to 4. Wider ranges
# reach triples whose discrete geodesic touches the simplex boundary, where
# w2_distance cannot converge (the strict xfail in test_wasserstein_metric).
w2_masses = st.floats(0.05, 1.0)
w2_weights = st.floats(0.5, 2.0)


@st.composite
def graph_density_vector(draw, min_nodes=2, masses=masses, max_nodes=12, weights=weights):
    """A connected graph (random spanning tree plus extra edges), an interior density and a node vector."""
    n = draw(st.integers(min_nodes, max_nodes))
    edges = {(draw(st.integers(0, j - 1)), j): draw(weights) for j in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        if i != j:
            edges.setdefault((min(i, j), max(i, j)), draw(weights))
    graph = build_graph(n, [(i + 1, j + 1, w) for (i, j), w in edges.items()])
    m = np.array(draw(st.lists(masses, min_size=n, max_size=n)))
    x = np.array(draw(st.lists(reals, min_size=n, max_size=n)))
    return graph, Density(m / m.sum()), x


@given(graph_density_vector())
def test_laplacian_apply_zero_sum_and_form_nonnegative(case):
    graph, rho, x = case
    Lx = laplacian_apply(graph, rho.values, x)
    scale = np.abs(laplacian_matrices(graph, rho.values)) @ np.abs(x)
    assert abs(float(Lx.sum())) <= 1e-12 * max(float(scale.sum()), 1e-300)
    assert laplacian_form(graph, rho.values, x) >= 0.0


def tangent(x):
    return TangentVector(x - x.mean())


@given(graph_density_vector(masses=small_masses))
def test_solve_potential_residual_near_the_boundary(case):
    graph, rho, x = case
    sigma = tangent(x)
    phi = solve_potential(weighted_laplacian(graph, rho), sigma).values
    residual = laplacian_apply(graph, rho.values, phi) - sigma.values
    # per node, relative to the sum of |terms| of its row of L(rho) phi - sigma
    scale = np.abs(laplacian_matrices(graph, rho.values)) @ np.abs(phi) + np.abs(sigma.values)
    assert np.all(np.abs(residual) <= 1e-10 * scale)


@given(graph_density_vector(masses=small_masses, weights=wide_weights), st.data())
def test_laplacian_is_minus_divergence_of_rho_times_gradient(case, data):
    graph, rho, x = case
    L = laplacian_matrices(graph, rho.values)
    # per node, the sum of |terms| of its row of L(rho) x times a few n eps, plus the subnormal range
    bound = 1e-13 * graph.node_count * (np.abs(L) @ np.abs(x)) + np.finfo(float).tiny
    applied = laplacian_apply(graph, rho.values, x)
    assert np.all(np.abs(L @ x - applied) <= bound)
    assert np.all(np.abs(-divergence(graph, rho, graph_gradient(graph, Potential(x))).values - applied) <= bound)
    values = np.array(data.draw(st.lists(reals, min_size=graph.edge_count, max_size=graph.edge_count)))
    try:
        phi, u = hodge_decompose(graph, rho, VectorField(graph, values))
    except BoundaryDensity:  # the documented refusal of a pivot of L(rho) below 1e-14 of its largest diagonal
        reject()
    grad = graph_gradient(graph, phi).edge_values
    assert np.all(np.abs(grad + u.edge_values - values) <= 1e-15 * (np.abs(grad) + np.abs(u.edge_values)))


@given(graph_density_vector(masses=small_masses), st.data())
def test_metric_inner_symmetric_and_positive(case, data):
    graph, rho, x = case
    y = np.array(data.draw(st.lists(reals, min_size=graph.node_count, max_size=graph.node_count)))
    a, b = tangent(x), tangent(y)
    lap = weighted_laplacian(graph, rho)
    # rounding scale of a^T L^+ b: |a|^T A^-1 |b| for the grounded block A, whose inverse is entrywise >= 0
    scale = np.abs(a.values) @ laplacian_solve(graph, rho.values, np.abs(b.values))
    assert abs(metric_inner(a, b, lap) - metric_inner(b, a, lap)) <= 1e-10 * scale
    for v in (a, b):
        if np.any(v.values != 0.0):
            assert metric_inner(v, v, lap) > 0.0


@given(graph_density_vector(), st.data())
def test_hodge_parts_are_rho_orthogonal(case, data):
    graph, rho, _ = case
    values = data.draw(st.lists(reals, min_size=graph.edge_count, max_size=graph.edge_count))
    field = VectorField(graph, np.array(values))
    phi, u = hodge_decompose(graph, rho, field)
    grad = VectorField(graph, field.edge_values - u.edge_values)
    # scaled by |field|^2 >= 2 |grad| |u|: either part may be zero up to rounding
    assert abs(inner_product(grad, u, rho)) <= 1e-9 * inner_product(field, field, rho)


@st.composite
def w2_case(draw):
    """A connected 2-6 node graph, three interior densities and two segment counts in 4..8."""
    graph, a, _ = draw(graph_density_vector(max_nodes=6, masses=w2_masses, weights=w2_weights))
    n = graph.node_count
    b, c = (np.array(draw(st.lists(w2_masses, min_size=n, max_size=n))) for _ in range(2))
    triple = (a, Density(b / b.sum()), Density(c / c.sum()))
    return graph, triple, draw(st.integers(4, 8)), draw(st.integers(4, 8))


@given(w2_case())
def test_w2_symmetric_and_triangle_inequality(case):
    graph, (a, b, c), K1, K2 = case

    def dist(x, y, K):
        res = w2_distance(graph, x, y, K=K)
        assert res.converged, res.grad_norm
        return res.distance

    d_ab, d_ba = dist(a, b, K1), dist(b, a, K1)
    assert abs(d_ab - d_ba) <= 1e-6 * d_ab + 1e-12
    # At one K the discrete distance meets the triangle inequality only up to
    # its O(K^-2) discretization error. Exactly, the optimal K1- and
    # K2-segment paths joined end to end form a (K1 + K2)-segment path from a
    # to c, whose action is (K1 + K2) (d_ab^2 / K1 + d_bc^2 / K2); with
    # K1 : K2 = d_ab : d_bc that is (d_ab + d_bc)^2.
    d_bc, d_ac = dist(b, c, K2), dist(a, c, K1 + K2)
    assert d_ac**2 <= (K1 + K2) * (d_ab**2 / K1 + d_bc**2 / K2) * (1.0 + 1e-6) + 1e-12


@st.composite
def flow_case(draw):
    """A connected 3-12 node graph, an interior start and a certified-convex model on it.

    W is a symmetric random matrix scaled so that lambda_min(W) >= -beta / 2.
    """
    graph, rho0, potential = draw(graph_density_vector(min_nodes=3))
    n = graph.node_count
    beta = draw(st.floats(0.5, 2.0))
    A = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    W = 0.5 * (A + A.T)
    lam_min = float(np.linalg.eigvalsh(W)[0])
    if lam_min < -0.5 * beta:
        W *= 0.5 * beta / -lam_min
    model = EnergyModel(W, 0.1 * potential, beta)
    assert convexity_certificate(model).certified_convex
    return model, graph, rho0


@given(flow_case())
def test_flow_keeps_mass_floor_and_energy_descent(case):
    model, graph, rho0 = case
    region = invariant_region(model, graph, rho0)
    traj = integrate(model, graph, rho0, 0.1, record_every=2)
    values = np.array([d.values for d in traj.densities])
    assert np.all(np.abs(values.sum(axis=1) - 1.0) <= 1e-12)
    assert float(values.min()) >= region.m - 1e-12
    assert np.all(np.diff(traj.energy) <= 1e-9)
    assert sum(traj.rejected_by.values()) == traj.rejected_steps


@settings(max_examples=25)  # two runs per example, one of them the explicit DOP853 pair alone to t = 10
@given(flow_case())
def test_exponential_tail_agrees_with_rkf45_alone(case):
    model, graph, rho0 = case
    traj = integrate(model, graph, rho0, 10.0, record_every=1)
    with patch.object(fpe_dynamics, "_equilibrium_tail", lambda *args: None):
        plain = integrate(model, graph, rho0, 10.0, record_every=0)
    assert float(np.max(np.abs(traj.final_density.values - plain.final_density.values))) <= 1e-7
    assert np.all(np.diff(traj.energy) <= 1e-11)  # the energy guard's abs_tol per accepted step


@given(flow_case())
def test_prepared_rhs_is_minus_laplacian_times_drift(case):
    model, graph, rho0 = case
    rows = np.array([rho0.values, np.full(graph.node_count, 1.0 / graph.node_count)])
    rhs = _rhs_raw(model, graph, rows)
    L = laplacian_matrices(graph, rows)
    drift = _drift_raw(model, rows)
    for k in range(2):
        # per node, relative to the sum of |terms| of its row of L(rho) F
        assert np.all(np.abs(rhs[k] + L[k] @ drift[k]) <= 1e-12 * (np.abs(L[k]) @ np.abs(drift[k])))
        # a stacked call gives the bits of one call per row
        assert np.array_equal(rhs[k], _rhs_raw(model, graph, rows[k]))


@st.composite
def rate_case(draw, masses=tiny_masses):
    """A connected 3-12 node graph, a density and S = B + beta diag(1/rho) with B symmetric.

    S has the structure of Hess F; B in [-20, 20] makes it definite or
    indefinite on the tangent plane.
    """
    graph, rho, _ = draw(graph_density_vector(min_nodes=3, masses=masses))
    n = graph.node_count
    B = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    beta = draw(st.floats(0.1, 2.0))
    return graph, rho, 0.5 * (B + B.T) + beta * np.diag(1.0 / rho.values)


@given(rate_case(), st.randoms(use_true_random=False))
def test_tangent_rate_invariant_under_relabelling(case, random):
    graph, rho, S = case
    n = graph.node_count
    perm = list(range(n))
    random.shuffle(perm)
    relabelled = build_graph(n, [(perm[i] + 1, perm[j] + 1, w) for i, j, w in graph.edges])
    inverse = np.argsort(perm)  # node perm[i] of the relabelled graph is node i
    a = _tangent_rate(graph, rho, S)
    b = _tangent_rate(relabelled, Density(rho.values[inverse]), S[np.ix_(inverse, inverse)])
    assert abs(a - b) <= 1e-10 * abs(a)


@given(rate_case(masses=masses))
def test_tangent_rate_matches_float_eigenvalues(case):
    graph, rho, S = case
    n = graph.node_count
    # orthonormal basis of the zero-sum plane, which L(rho) S maps into itself
    Q = np.linalg.qr(np.ones((n, 1)), mode="complete")[0][:, 1:]
    lam = np.linalg.eigvals(Q.T @ laplacian_matrices(graph, rho.values) @ S @ Q).real
    # float eigenvalues carry an error relative to the spectral radius
    assert abs(_tangent_rate(graph, rho, S) - lam.min()) <= 1e-8 * np.abs(lam).max()
