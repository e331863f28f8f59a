import numpy as np
import pytest

from graphfpe import (
    BoundaryDensity,
    Density,
    GraphMismatch,
    NotAnEdge,
    NotZeroSum,
    Potential,
    TangentVector,
    VectorField,
    build_graph,
    divergence,
    edge_thetas,
    graph_gradient,
    hodge_decompose,
    inner_product,
    metric_inner,
    solve_potential,
    symmetric_eigen,
    theta,
    weighted_laplacian,
)
from graphfpe import simplex_calculus
from graphfpe.graph_core import graph_laplacian
from graphfpe.simplex_calculus import (
    _thetas,
    laplacian_apply,
    laplacian_form,
    laplacian_matrices,
    laplacian_solve,
)
from helpers import interior_density, k3, path2, random_connected_graph


def random_field(rng, graph):
    return VectorField(graph, rng.standard_normal(graph.edge_count))


def test_density_validation():
    d = Density([0.9, 0.1])
    assert d.interior
    assert not Density([1.0, 0.0]).interior
    with pytest.raises(ValueError):
        Density([0.5, 0.6])
    with pytest.raises(ValueError):
        Density([1.2, -0.2])


def test_tangent_vector_zero_sum():
    TangentVector([1.0, -1.0])
    with pytest.raises(NotZeroSum):
        TangentVector([1.0, -0.5])


def test_tangent_vector_zero_sum_margin_scales_with_the_entries():
    TangentVector([1e6, -1e6 + 1e-9])  # the sum's rounding grows with the entries
    with pytest.raises(NotZeroSum):
        TangentVector([1e6, -1e6 + 1e-3])
    with pytest.raises(NotZeroSum):
        TangentVector([1e-3, -1e-3 + 2e-12])  # below a 1-norm of 1 the margin stays MASS_TOL


def test_divergence_of_a_gradient_across_a_heavy_edge_is_a_tangent_vector():
    # the sum of this divergence rounds to about 1e-12, more than an absolute MASS_TOL allows
    g = build_graph(5, [(1, 2, 1.0), (1, 3, 1.0), (1, 5, 1.0), (2, 4, 1e4)])
    rho = Density(np.full(5, 0.2))
    div = divergence(g, rho, graph_gradient(g, Potential(np.array([0.0, 5.0, 1.0, 0.0, 1.0]))))
    assert np.allclose(-div.values, laplacian_apply(g, rho.values, np.array([0.0, 5.0, 1.0, 0.0, 1.0])))


def test_theta_examples():
    g = path2()
    assert theta(g, Density([0.9, 0.1]), 0, 1) == pytest.approx(0.5, abs=1e-15)
    assert theta(g, Density([1.0, 0.0]), 0, 1) == pytest.approx(0.5, abs=1e-15)
    assert theta(k3(), Density([1 / 3, 1 / 3, 1 / 3]), 1, 2) == pytest.approx(1 / 3)
    with pytest.raises(NotAnEdge):
        theta(path2(), Density([0.5, 0.5]), 0, 0)


def test_gradient_examples():
    g = path2()
    assert np.array_equal(graph_gradient(g, Potential([1.0, 1.0])).edge_values, [0.0])
    assert np.array_equal(graph_gradient(g, Potential([1.0, 0.0])).edge_values, [1.0])
    assert np.array_equal(graph_gradient(path2(4.0), Potential([1.0, 0.0])).edge_values, [2.0])


def test_gradient_zero_iff_constant():
    rng = np.random.default_rng(0)
    g = random_connected_graph(rng, 7)
    phi = Potential(rng.standard_normal(7))
    v = graph_gradient(g, phi)
    assert np.max(np.abs(v.edge_values)) > 0
    const = Potential(np.full(7, 3.25))
    # FMA in the BLAS kernels can leave rounding-level residue
    assert np.max(np.abs(graph_gradient(g, const).edge_values)) <= 1e-14


def test_divergence_examples():
    g = path2()
    zero = divergence(g, Density([0.9, 0.1]), VectorField(g, [0.0]))
    assert np.array_equal(zero.values, [0.0, 0.0])
    d = divergence(g, Density([0.9, 0.1]), VectorField(g, [1.0]))
    assert np.allclose(d.values, [-0.5, 0.5], atol=1e-15)


def test_divergence_zero_sum_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        rho = interior_density(rng, g.node_count, floor=0.0)
        v = random_field(rng, g)
        assert abs(float(divergence(g, rho, v).values.sum())) <= 1e-13


def test_inner_product_examples():
    g = path2()
    v = VectorField(g, [1.0])
    assert inner_product(v, v, Density([0.5, 0.5])) == pytest.approx(0.5, abs=1e-15)
    assert inner_product(VectorField(g, [0.0]), v, Density([0.5, 0.5])) == 0.0
    with pytest.raises(GraphMismatch):
        inner_product(v, VectorField(k3(), [0.0, 0.0, 0.0]), Density([0.5, 0.5]))


def test_inner_product_symmetry_and_positivity():
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 6)
    rho = interior_density(rng, 6)
    for _ in range(20):
        v, w = random_field(rng, g), random_field(rng, g)
        assert inner_product(v, w, rho) == pytest.approx(inner_product(w, v, rho), rel=1e-14)
        assert inner_product(v, v, rho) >= 0.0


def test_integration_by_parts():
    # -sum_i div(rho v)_i Phi_i = (v, grad Phi)_rho on random instances
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        rho = interior_density(rng, g.node_count, floor=0.0)
        v = random_field(rng, g)
        phi = Potential(rng.standard_normal(g.node_count))
        lhs = -float(divergence(g, rho, v).values @ phi.values)
        rhs = inner_product(v, graph_gradient(g, phi), rho)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_weighted_laplacian_examples():
    lap = weighted_laplacian(path2(), Density([0.5, 0.5]))
    assert np.allclose(lap.matrix, 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-15)

    lap3 = weighted_laplacian(k3(), Density([1 / 3, 1 / 3, 1 / 3]))
    assert np.allclose(lap3.matrix, graph_laplacian(k3()) / 3.0, atol=1e-14)
    assert np.allclose(lap3.spectrum.eigenvalues, [0.0, 1.0, 1.0], atol=1e-12)


def test_weighted_laplacian_kernel_simple_for_interior():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        lap = weighted_laplacian(g, interior_density(rng, g.node_count))
        lam = lap.spectrum.eigenvalues
        assert abs(lam[0]) <= 1e-12
        assert lam[1] > 1e-10
        assert np.max(np.abs(lap.matrix @ np.ones(g.node_count))) <= 1e-13


def test_weighted_laplacian_quadratic_form():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        rho = interior_density(rng, g.node_count, floor=0.0)
        lap = weighted_laplacian(g, rho)
        phi = rng.standard_normal(g.node_count)
        th = edge_thetas(g, rho)
        rhs = sum(
            w * (phi[i] - phi[j]) ** 2 * th[e] for e, (i, j, w) in enumerate(g.edges)
        )
        assert float(phi @ lap.matrix @ phi) == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_batched_thetas_match_scalar_rule():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 6)
    values = rng.dirichlet(np.ones(6), size=(2, 3))
    th = _thetas(g, values)
    assert th.shape == (2, 3, g.edge_count)
    for a in range(2):
        for b in range(3):
            rho = Density(values[a, b])
            assert np.array_equal(th[a, b], edge_thetas(g, rho))
            for e, (i, j, _) in enumerate(g.edges):
                assert th[a, b, e] == theta(g, rho, j, i)


def test_laplacian_apply_and_form_match_matrices():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 41))
        g = random_connected_graph(rng, n)
        values = rng.dirichlet(np.ones(n))
        x = rng.standard_normal(n)
        L = laplacian_matrices(g, values)
        Lx = laplacian_apply(g, values, x)
        # tolerances relative to the sum of |terms| of each product
        assert np.all(np.abs(Lx - L @ x) <= 1e-12 * (np.abs(L) @ np.abs(x)))
        form = laplacian_form(g, values, x)
        assert abs(form - x @ Lx) <= 1e-12 * (np.abs(x) @ np.abs(L) @ np.abs(x))


def test_laplacian_kernels_stacked_equal_per_row():
    rng = np.random.default_rng(9)
    for n in (2, 5, 17):
        g = random_connected_graph(rng, n)
        values = rng.dirichlet(np.ones(n), size=(3, 4))
        x = rng.standard_normal((3, 4, n))
        L = laplacian_matrices(g, values)
        Lx = laplacian_apply(g, values, x)
        form = laplacian_form(g, values, x)
        solved = laplacian_solve(g, values, x)
        assert L.shape == (3, 4, n, n) and Lx.shape == (3, 4, n) and form.shape == (3, 4)
        assert solved.shape == (3, 4, n) and np.all(solved[..., 0] == 0.0)  # node 0 is grounded
        for a in range(3):
            for b in range(4):
                assert np.array_equal(L[a, b], laplacian_matrices(g, values[a, b]))
                assert np.array_equal(Lx[a, b], laplacian_apply(g, values[a, b], x[a, b]))
                assert form[a, b] == laplacian_form(g, values[a, b], x[a, b])
                assert np.array_equal(solved[a, b], laplacian_solve(g, values[a, b], x[a, b]))
        assert np.array_equal(L[0, 0], weighted_laplacian(g, Density(values[0, 0])).matrix)


def _per_edge_apply(g, values, x):
    """L(rho) x of one row, edge by edge: +w theta (x_i - x_j) at every tail, then -w theta (x_i - x_j) at every head."""
    out = np.zeros(g.node_count)
    flux = [w * (0.5 * (values[i] + values[j])) * (x[i] - x[j]) for i, j, w in g.edges]
    for (i, _, _), f in zip(g.edges, flux):
        out[i] += f
    for (_, j, _), f in zip(g.edges, flux):
        out[j] -= f
    return out


@pytest.mark.parametrize("seed", range(3))
def test_laplacian_apply_has_the_bits_of_the_per_edge_form(seed):
    rng = np.random.default_rng(60 + seed)
    for n in (2, int(rng.integers(3, 40)), 200):
        g = random_connected_graph(rng, n)
        values = rng.dirichlet(np.ones(n), size=3)
        x = rng.standard_normal((3, n))
        x[1] = np.round(x[1])  # ties give zero fluxes
        per_row = np.array([_per_edge_apply(g, v, xv) for v, xv in zip(values, x)])
        bits = [
            (laplacian_apply(g, values[0], x[0]), per_row[0]),  # one row
            (laplacian_apply(g, values, x), per_row),  # stacked rows
            (laplacian_apply(g, values[0], x), np.array([_per_edge_apply(g, values[0], xv) for xv in x])),
            (laplacian_apply(g, values, x[0]), np.array([_per_edge_apply(g, v, x[0]) for v in values])),
        ]
        for got, want in bits:
            assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_solve_potential_examples():
    lap = weighted_laplacian(path2(), Density([0.5, 0.5]))
    zero = solve_potential(lap, TangentVector([0.0, 0.0]))
    assert np.array_equal(zero.values, [0.0, 0.0])

    phi = solve_potential(lap, TangentVector([1.0, -1.0]))
    assert np.allclose(phi.values, [1.0, -1.0], atol=1e-12)
    assert abs(float(phi.values.mean())) <= 1e-13


def test_solve_potential_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        rho = interior_density(rng, g.node_count)
        lap = weighted_laplacian(g, rho)
        raw = rng.standard_normal(g.node_count)
        sigma = TangentVector(raw - raw.mean())
        phi = solve_potential(lap, sigma)
        assert np.max(np.abs(lap.matrix @ phi.values - sigma.values)) <= 1e-10


def near_boundary_tree_cases(seed, count):
    """Random trees with a third of the nodes (node 0 always) at masses 1e-12..1e-6."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(4, 10))
        edges = [(int(rng.integers(0, j)) + 1, j + 1, float(rng.uniform(0.5, 1.5))) for j in range(1, n)]
        g = build_graph(n, edges)
        rho = rng.dirichlet(np.ones(n))
        small = np.concatenate(([0], rng.choice(np.arange(1, n), n // 3 - 1, replace=False)))
        rho[small] = 10.0 ** rng.uniform(-12, -6, small.size)
        raw = rng.standard_normal(n)
        yield g, Density(rho / rho.sum()), TangentVector(raw - raw.mean())


def test_solve_potential_accurate_near_the_boundary():
    # bottleneck edges carry thetas down to 1e-12; the reference is L(rho)
    # built in 50-digit arithmetic from the same float weights and densities,
    # with row 0 replaced by ones (the mean-zero condition)
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        for g, rho, sigma in near_boundary_tree_cases(3, 40):
            n = g.node_count
            M = mpmath.zeros(n, n)
            for i, j, w in g.edges:
                c = mpmath.mpf(w) * (mpmath.mpf(rho.values[i]) + mpmath.mpf(rho.values[j])) / 2
                M[i, i] += c
                M[j, j] += c
                M[i, j] -= c
                M[j, i] -= c
            M[0, :] = mpmath.ones(1, n)
            rhs = mpmath.matrix([0.0, *sigma.values[1:]])
            ref = np.array([float(v) for v in mpmath.lu_solve(M, rhs)])
            phi = solve_potential(weighted_laplacian(g, rho), sigma).values
            worst = max(worst, float(np.max(np.abs(phi - ref)) / np.max(np.abs(ref))))
    assert worst <= 1e-12


def test_solve_potential_boundary_rejected():
    lap = weighted_laplacian(path2(), Density([1.0, 0.0]))
    with pytest.raises(BoundaryDensity):
        solve_potential(lap, TangentVector([1.0, -1.0]))


def test_solve_potential_raw_array_zero_sum_check():
    lap = weighted_laplacian(path2(), Density([0.5, 0.5]))
    with pytest.raises(NotZeroSum):
        solve_potential(lap, np.array([1.0, 0.0]))


def test_metric_inner_examples():
    lap = weighted_laplacian(path2(), Density([0.5, 0.5]))
    sigma = TangentVector([1.0, -1.0])
    assert metric_inner(sigma, sigma, lap) == pytest.approx(2.0, rel=1e-13)
    assert metric_inner(sigma, TangentVector([0.0, 0.0]), lap) == 0.0


def test_metric_inner_equals_gradient_energy():
    # g(sigma, sigma) = (grad Phi, grad Phi)_rho with Phi solving L Phi = sigma
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        rho = interior_density(rng, g.node_count)
        lap = weighted_laplacian(g, rho)
        raw = rng.standard_normal(g.node_count)
        sigma = TangentVector(raw - raw.mean())
        phi = solve_potential(lap, sigma)
        grad = graph_gradient(g, phi)
        assert metric_inner(sigma, sigma, lap) == pytest.approx(
            inner_product(grad, grad, rho), rel=1e-10
        )


def test_metric_positive_definite_on_tangent():
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, 6)
    lap = weighted_laplacian(g, interior_density(rng, 6))
    for _ in range(20):
        raw = rng.standard_normal(6)
        sigma = TangentVector(raw - raw.mean())
        if np.max(np.abs(sigma.values)) > 1e-12:
            assert metric_inner(sigma, sigma, lap) > 0.0


def test_hodge_pure_gradient_field():
    rng = np.random.default_rng(9)
    g = k3()
    rho = interior_density(rng, 3)
    phi0 = rng.standard_normal(3)
    v = graph_gradient(g, Potential(phi0))
    phi, u = hodge_decompose(g, rho, v)
    assert np.max(np.abs(u.edge_values)) <= 1e-10
    assert np.allclose(phi.values, phi0 - phi0.mean(), atol=1e-10)


def test_hodge_two_nodes_forces_zero_rotational():
    rng = np.random.default_rng(10)
    g = path2()
    for _ in range(10):
        v = VectorField(g, rng.standard_normal(1))
        phi, u = hodge_decompose(g, Density([0.7, 0.3]), v)
        assert np.max(np.abs(u.edge_values)) <= 1e-12


def test_hodge_divergence_free_and_pythagoras():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        rho = interior_density(rng, g.node_count)
        v = random_field(rng, g)
        phi, u = hodge_decompose(g, rho, v)
        assert np.max(np.abs(divergence(g, rho, u).values)) <= 1e-10
        total = inner_product(v, v, rho)
        grad = graph_gradient(g, phi)
        parts = inner_product(grad, grad, rho) + inner_product(u, u, rho)
        assert abs(total - parts) <= 1e-10 * max(1.0, total)


def test_hodge_idempotent():
    rng = np.random.default_rng(12)
    g = random_connected_graph(rng, 5)
    rho = interior_density(rng, 5)
    v = random_field(rng, g)
    phi1, u1 = hodge_decompose(g, rho, v)
    recombined = VectorField(g, graph_gradient(g, phi1).edge_values + u1.edge_values)
    phi2, u2 = hodge_decompose(g, rho, recombined)
    assert np.max(np.abs(phi1.values - phi2.values)) <= 1e-10
    assert np.max(np.abs(u1.edge_values - u2.edge_values)) <= 1e-10


def test_hodge_assembles_the_laplacian_once(monkeypatch):
    assemble = simplex_calculus.laplacian_matrices
    calls = []

    def counting(graph, values):
        calls.append(values.shape)
        return assemble(graph, values)

    monkeypatch.setattr(simplex_calculus, "laplacian_matrices", counting)
    rng = np.random.default_rng(14)
    g = random_connected_graph(rng, 6)
    hodge_decompose(g, interior_density(rng, 6), random_field(rng, g))
    assert len(calls) == 1


def test_lemma7_sandwich():
    rng = np.random.default_rng(13)
    hat_cache = {}
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 13)))
        if g not in hat_cache:
            hat_cache[g] = symmetric_eigen(graph_laplacian(g)).eigenvalues
        hat = hat_cache[g]
        rho = interior_density(rng, g.node_count, floor=0.005)
        lam = weighted_laplacian(g, rho).spectrum.eigenvalues
        lo, hi = float(rho.values.min()), float(rho.values.max())
        slack = 1e-10
        assert hat[1] * lo <= lam[1] + slack
        assert lam[1] <= lam[-1] + slack
        assert lam[-1] <= hi * hat[-1] + slack
        # inverse bounds via the nonzero spectrum
        assert 1.0 / (hi * hat[-1]) <= 1.0 / lam[-1] + slack
        assert 1.0 / lam[1] <= 1.0 / (lo * hat[1]) + slack
