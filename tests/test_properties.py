"""Property tests of the L(rho) kernels and the Hodge split on generated graphs."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from graphfpe import Density, VectorField, build_graph, hodge_decompose, inner_product
from graphfpe.simplex_calculus import laplacian_apply, laplacian_form, laplacian_matrices

weights = st.floats(0.1, 10.0)
masses = st.floats(1e-3, 1.0)
reals = st.floats(-10.0, 10.0)


@st.composite
def graph_density_vector(draw):
    """A connected graph (random spanning tree plus extra edges), an interior density and a node vector."""
    n = draw(st.integers(2, 12))
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
