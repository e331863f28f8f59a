"""Property tests of the L(rho) kernels, the Hodge split and the flow on generated graphs."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from graphfpe import (
    Density,
    EnergyModel,
    VectorField,
    build_graph,
    convexity_certificate,
    hodge_decompose,
    inner_product,
    integrate,
    invariant_region,
)
from graphfpe.fpe_dynamics import _FlowKernel
from graphfpe.free_energy import _drift_raw
from graphfpe.simplex_calculus import laplacian_apply, laplacian_form, laplacian_matrices

weights = st.floats(0.1, 10.0)
masses = st.floats(1e-3, 1.0)
reals = st.floats(-10.0, 10.0)


@st.composite
def graph_density_vector(draw, min_nodes=2):
    """A connected graph (random spanning tree plus extra edges), an interior density and a node vector."""
    n = draw(st.integers(min_nodes, 12))
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


@given(flow_case())
def test_prepared_rhs_is_minus_laplacian_times_drift(case):
    model, graph, rho0 = case
    kernel = _FlowKernel(model, graph)
    rows = np.array([rho0.values, np.full(graph.node_count, 1.0 / graph.node_count)])
    rhs = kernel.rhs(rows)
    L = laplacian_matrices(graph, rows)
    drift = _drift_raw(model, rows)
    for k in range(2):
        # per node, relative to the sum of |terms| of its row of L(rho) F
        assert np.all(np.abs(rhs[k] + L[k] @ drift[k]) <= 1e-12 * (np.abs(L[k]) @ np.abs(drift[k])))
        # a stacked call gives the bits of one call per row
        assert np.array_equal(rhs[k], kernel.rhs(rows[k]))
