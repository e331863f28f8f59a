import numpy as np
import pytest

from graphfpe import (
    DisconnectedGraph,
    DuplicateEdge,
    NonpositiveWeight,
    NotSymmetric,
    SelfLoop,
    build_graph,
    graph_laplacian,
    incidence_matrix,
    symmetric_eigen,
)
from graphfpe.simplex_calculus import (
    Density,
    Potential,
    VectorField,
    divergence,
    edge_thetas,
    graph_gradient,
    laplacian_matrices,
)
from graphfpe.wasserstein_metric import _hessian_blocks, _tangent_grad
from helpers import interior_density, k3, path2, random_connected_graph


def test_build_smallest_graph():
    g = path2()
    assert g.node_count == 2
    assert g.max_degree == 1
    assert g.edges == ((0, 1, 1.0),)


def test_build_triangle():
    g = k3()
    assert g.max_degree == 2
    assert g.edge_count == 3
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))


def test_build_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        build_graph(3, [(1, 2, 1.0)])


def test_build_refuses_too_few_edges_before_any_per_node_work():
    # 10^6 nodes and one edge: refused from the edge count, without per-node lists
    with pytest.raises(DisconnectedGraph, match="1 distinct edges cannot join 1000000 nodes"):
        build_graph(10**6, [(1, 2, 1.0)])
    # enough edges, but nodes 11..40 are cut off: the message names ten of them
    edges = [(i, i + 1, 1.0) for i in range(1, 10)] + [(i, i + 1, 1.0) for i in range(11, 40)] + [(1, 10, 1.0)]
    with pytest.raises(DisconnectedGraph) as info:
        build_graph(40, edges)
    assert str(info.value) == (
        "graph is not connected; 30 nodes unreachable from node 1: 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, ..."
    )


def test_build_validation_errors():
    with pytest.raises(SelfLoop):
        build_graph(2, [(1, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(DuplicateEdge):
        build_graph(2, [(1, 2, 1.0), (2, 1, 2.0)])
    with pytest.raises(NonpositiveWeight):
        build_graph(2, [(1, 2, 0.0)])
    with pytest.raises(NonpositiveWeight):
        build_graph(2, [(1, 2, -1.0)])
    with pytest.raises(ValueError):
        build_graph(1, [])
    with pytest.raises(ValueError):
        build_graph(2, [(1, 3, 1.0)])


def test_edge_ends_are_read_only():
    g = k3()
    assert g.edge_ends.dtype.kind == "i"
    with pytest.raises(ValueError):
        g.edge_ends[1, 0] = 2
    assert g.edge_ends.tolist() == [[0, 0, 1], [1, 2, 2]]


def test_incidence_single_edge():
    assert np.array_equal(incidence_matrix(path2()), [[1.0, -1.0]])
    assert np.array_equal(incidence_matrix(path2(4.0)), [[2.0, -2.0]])


def test_incidence_triangle_rows():
    D = incidence_matrix(k3())
    assert D.shape == (3, 3)
    # each row carries exactly one +1 and one -1
    for row in D:
        assert sorted(row) == [-1.0, 0.0, 1.0]
    # enumerated edges (1,2), (1,3), (2,3)
    expected = np.array([[1, -1, 0], [1, 0, -1], [0, 1, -1]], dtype=float)
    assert np.array_equal(D, expected)


def test_laplacian_path2():
    L = graph_laplacian(path2())
    assert np.array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(np.sort(np.linalg.eigvalsh(L)), [0.0, 2.0])


def test_laplacian_k3_is_3i_minus_ones():
    L = graph_laplacian(k3())
    assert np.array_equal(L, 3.0 * np.eye(3) - np.ones((3, 3)))
    spec = symmetric_eigen(L)
    assert np.allclose(spec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)


def test_laplacian_kernel_contains_constants():
    rng = np.random.default_rng(11)
    from helpers import random_connected_graph

    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        L = graph_laplacian(g)
        assert np.max(np.abs(L @ np.ones(g.node_count))) < 1e-12


def test_laplacian_quadratic_form_identity():
    # Phi^T L Phi = sum over undirected edges of w (Phi_i - Phi_j)^2
    rng = np.random.default_rng(5)
    from helpers import random_connected_graph

    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        L = graph_laplacian(g)
        phi = rng.standard_normal(g.node_count)
        lhs = float(phi @ L @ phi)
        rhs = sum(w * (phi[i] - phi[j]) ** 2 for i, j, w in g.edges)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_eigen_identity_and_path2():
    spec = symmetric_eigen(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])
    spec2 = symmetric_eigen(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(spec2.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_eigen_random_reconstruction():
    rng = np.random.default_rng(7)
    for n in (2, 5, 11, 20, 30):
        M = rng.standard_normal((n, n))
        M = M + M.T
        spec = symmetric_eigen(M)
        Q, lam = spec.eigenvectors, spec.eigenvalues
        assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-10
        assert np.max(np.abs(M @ Q - Q * lam)) <= 1e-8 * np.max(np.abs(M))
        recon = (Q * lam) @ Q.T
        assert np.linalg.norm(recon - M) <= 1e-8 * np.linalg.norm(M)
        assert np.all(np.diff(lam) >= -1e-12)


def test_eigen_deterministic():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((8, 8))
    M = M + M.T
    a = symmetric_eigen(M)
    b = symmetric_eigen(M)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        symmetric_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eigen_zero_matrix():
    spec = symmetric_eigen(np.zeros((4, 4)))
    assert np.array_equal(spec.eigenvalues, np.zeros(4))
    assert np.array_equal(spec.eigenvectors, np.eye(4))


def test_connectedness_equals_spectral_gap():
    rng = np.random.default_rng(3)
    from helpers import random_connected_graph

    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 13)))
        lam = symmetric_eigen(graph_laplacian(g)).eigenvalues
        assert abs(lam[0]) <= 1e-10
        assert lam[1] > 1e-8


def random_symmetric_stack(rng, count, n):
    A = rng.standard_normal((count, n, n)) * rng.uniform(0.1, 10.0, size=(count, 1, 1))
    return A + np.swapaxes(A, 1, 2)


def test_eigen_stack_equals_single_calls():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 6, 9):
        stack = random_symmetric_stack(rng, 7, n)
        stack[3] = 0.0  # a zero matrix inside a stack keeps the identity basis
        spec = symmetric_eigen(stack)
        assert spec.eigenvalues.shape == (7, n)
        assert spec.eigenvectors.shape == (7, n, n)
        for k, M in enumerate(stack):
            single = symmetric_eigen(M)
            assert np.array_equal(spec.eigenvalues[k], single.eigenvalues)
            assert np.array_equal(spec.eigenvectors[k], single.eigenvectors)
        assert np.array_equal(spec.eigenvectors[3], np.eye(n))
    nested = random_symmetric_stack(rng, 6, 4).reshape(2, 3, 4, 4)
    flat = symmetric_eigen(nested.reshape(6, 4, 4))
    assert np.array_equal(symmetric_eigen(nested).eigenvectors.reshape(6, 4, 4), flat.eigenvectors)


def test_eigen_values_match_eigvalsh():
    rng = np.random.default_rng(19)
    for n in (2, 4, 10, 25):
        stack = random_symmetric_stack(rng, 5, n)
        lam = symmetric_eigen(stack).eigenvalues
        ref = np.linalg.eigvalsh(stack)
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(lam - ref) <= 1e-13 * scale)


def test_eigen_sign_rule():
    rng = np.random.default_rng(23)
    for n in (2, 3, 7, 16):
        Q = symmetric_eigen(random_symmetric_stack(rng, 4, n)).eigenvectors
        peak = np.take_along_axis(Q, np.argmax(np.abs(Q), axis=1)[:, None, :], axis=1)
        assert np.all(peak > 0)


def test_eigen_stack_symmetry_checked_per_matrix():
    # a 1e-8 asymmetry is rounding for a matrix of size 1e3, not for one of size 1
    big = np.array([[1e3, 1.0], [1.0 + 1e-8, 1e3]])
    small = np.array([[1.0, 0.5], [0.5 + 1e-8, 1.0]])
    symmetric_eigen(big)
    with pytest.raises(NotSymmetric):
        symmetric_eigen(np.stack([big, small]))
    with pytest.raises(ValueError):
        symmetric_eigen(np.zeros((2, 3)))


def dense_tangent_grad(D, w, sign):
    """The parent formula of the W2 gradient from a dense D; sign +1 on |D|, |w| gives the sum of |terms|."""
    K = w.shape[0]
    s = ((w @ D.T) ** 2) @ (D != 0.0)
    grad = (2.0 * K) * (w[:-1] + sign * w[1:]) + sign * (0.25 * K) * (s[:-1] + s[1:])
    return grad + sign * grad.mean(axis=1, keepdims=True)


def dense_hessian_blocks(D, w, X, sign):
    """The W2 Hessian blocks from M = D^T diag(D w) (D != 0) / 2; sign +1 on |D|, |w|, |X| gives the sum of |terms|."""
    K = w.shape[0]
    M = D.T @ ((w @ D.T)[:, :, None] * (0.5 * (D != 0.0)))
    G = X @ M
    GT = G.transpose(0, 2, 1)
    base = 2.0 * X + 0.5 * (GT @ M)
    diag = K * ((base[:-1] + sign * (G[:-1] + GT[:-1])) + (base[1:] + G[1:] + GT[1:]))
    off = K * (G[1:-1] + sign * GT[1:-1] + sign * 4.0 * X[1:-1] + base[1:-1])
    return diag, off


def wide_weight_cases(seed, count):
    """Random graphs with weights log-uniform in 1e-150..1e150, then weights of 1e-155 under potentials of 2e154."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        edges = [(i + 1, j + 1, 10.0 ** rng.uniform(-150.0, 150.0)) for i, j, _ in random_connected_graph(rng, n).edges]
        yield rng, build_graph(n, edges), rng.standard_normal((int(rng.integers(2, 6)), n))
    # w(w_i - w_j)^2 overflows here if the difference is squared first
    yield rng, build_graph(3, [(1, 2, 1e-155), (2, 3, 1e-155)]), np.array([[2e154, -2e154, 2e154]] * 3)


def test_edge_kernels_match_the_dense_incidence_form():
    # every operator is an edge-list kernel; each agrees with its dense D^T/D form
    # to 1e-12 of the sum of |terms| of that form
    for rng, g, w in wide_weight_cases(17, 40):
        n, K = g.node_count, w.shape[0]
        D = incidence_matrix(g)
        A = np.abs(D)
        rho = interior_density(rng, n)
        theta = edge_thetas(g, rho)
        phi = rng.standard_normal(n)
        v = rng.standard_normal(g.edge_count)

        grad = graph_gradient(g, Potential(phi)).edge_values
        assert np.all(np.abs(grad - D @ phi) <= 1e-12 * (A @ np.abs(phi)))
        div = divergence(g, rho, VectorField(g, v)).values
        assert np.all(np.abs(div + D.T @ (theta * v)) <= 1e-12 * (A.T @ np.abs(theta * v)))

        rows = np.stack([interior_density(rng, n).values for _ in range(3)])
        thetas = np.stack([edge_thetas(g, Density(r)) for r in rows])
        L = laplacian_matrices(g, rows)
        assert np.all(np.abs(L - D.T @ (thetas[:, :, None] * D)) <= 1e-12 * (A.T @ (thetas[:, :, None] * A)))
        assert np.all(np.abs(graph_laplacian(g) - D.T @ D) <= 1e-12 * (A.T @ A))

        tgrad = _tangent_grad(g, w)
        assert np.all(np.isfinite(tgrad))
        assert np.all(np.abs(tgrad - dense_tangent_grad(D, w, -1.0)) <= 1e-12 * dense_tangent_grad(A, np.abs(w), 1.0))
        if K > 2:
            X = rng.standard_normal((K, n, n))
            diag, off = _hessian_blocks(g, w, X)
            for got, want, bound in zip(
                (diag, off), dense_hessian_blocks(D, w, X, -1.0), dense_hessian_blocks(A, np.abs(w), np.abs(X), 1.0)
            ):
                assert np.all(np.isfinite(got))
                assert np.all(np.abs(got - want) <= 1e-12 * bound)
