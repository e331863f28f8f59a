import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphfpe import (
    BoundaryDensity,
    Density,
    DimensionMismatch,
    EnergyModel,
    NoConvergence,
    NonSymmetricW,
    convexity_certificate,
    energy,
    energy_gradient,
    energy_hessian,
    find_all_equilibria,
    gibbs_fixed_point,
)
from graphfpe.free_energy import _drift_raw, _energy_raw, _gibbs_rows, _softmin, _undamped
from helpers import bare_model, corner_starts, interior_density, random_convex_model, rel_err, three_well_recipe


def test_energy_examples():
    m = bare_model(2)
    assert energy(m, Density([0.5, 0.5])) == pytest.approx(-math.log(2.0), rel=1e-14)
    assert energy(m, Density([1.0, 0.0])) == 0.0  # 0 log 0 = 0
    expected = 0.9 * math.log(0.9) + 0.1 * math.log(0.1)
    assert energy(m, Density([0.9, 0.1])) == pytest.approx(expected, rel=1e-14)


def test_energy_and_drift_kernels_stacked_equal_per_row():
    rng = np.random.default_rng(12)
    for n in (2, 5, 17):
        A = rng.standard_normal((n, n))
        model = EnergyModel(0.5 * (A + A.T), rng.standard_normal(n), 0.7)
        values = rng.dirichlet(np.ones(n), size=(3, 4))
        energies = _energy_raw(model, values)
        drifts = _drift_raw(model, values)
        assert energies.shape == (3, 4) and drifts.shape == (3, 4, n)
        for a in range(3):
            for b in range(4):
                rho = Density(values[a, b])
                assert energies[a, b] == energy(model, rho)
                assert np.array_equal(drifts[a, b], energy_gradient(model, rho))


def test_energy_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        energy(bare_model(2), Density([0.5, 0.3, 0.2]))


def test_gradient_examples():
    m = bare_model(2)
    F = energy_gradient(m, Density([0.5, 0.5]))
    assert F[0] == pytest.approx(F[1], abs=1e-15)
    F2 = energy_gradient(m, Density([0.9, 0.1]))
    assert F2[0] - F2[1] == pytest.approx(math.log(9.0), rel=1e-13)
    with pytest.raises(BoundaryDensity):
        energy_gradient(m, Density([1.0, 0.0]))


def test_gradient_finite_difference():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        model = random_convex_model(rng, n)
        rho = interior_density(rng, n, floor=0.05)
        F = energy_gradient(model, rho)
        raw = rng.standard_normal(n)
        sigma = raw - raw.mean()
        h = 1e-5
        up = energy(model, Density(rho.values + h * sigma))
        dn = energy(model, Density(rho.values - h * sigma))
        fd = (up - dn) / (2.0 * h)
        assert rel_err(fd, float(F @ sigma)) <= 1e-6


def test_hessian_examples():
    assert np.allclose(energy_hessian(bare_model(2), Density([0.5, 0.5])), np.diag([2.0, 2.0]))
    mw = EnergyModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2), 1.0)
    assert np.allclose(
        energy_hessian(mw, Density([0.5, 0.5])), np.array([[2.0, 1.0], [1.0, 2.0]])
    )


def test_hessian_finite_difference_of_gradient():
    rng = np.random.default_rng(1)
    n = 4
    model = random_convex_model(rng, n)
    rho = interior_density(rng, n, floor=0.1)
    H = energy_hessian(model, rho)
    h = 1e-6
    for k in range(n - 1):
        e = np.zeros(n)
        e[k], e[-1] = 1.0, -1.0  # stay on the simplex plane
        up = energy_gradient(model, Density(rho.values + h * e))
        dn = energy_gradient(model, Density(rho.values - h * e))
        fd = (up - dn) / (2.0 * h)
        assert np.max(np.abs(fd - H @ e)) <= 1e-5 * max(1.0, float(np.max(np.abs(H))))


def test_convexity_certificate_examples():
    cert = convexity_certificate(bare_model(2))
    assert cert.certified_convex and cert.lambda_min_bound == pytest.approx(1.0)
    cert2 = convexity_certificate(EnergyModel(np.eye(2), np.zeros(2), 0.5))
    assert cert2.certified_convex and cert2.lambda_min_bound == pytest.approx(1.5)
    cert3 = convexity_certificate(EnergyModel(-3.0 * np.eye(2), np.zeros(2), 1.0))
    assert not cert3.certified_convex
    assert cert3.lambda_min_bound == pytest.approx(-2.0)


def test_convexity_certificate_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricW):
        convexity_certificate(EnergyModel(np.array([[0.0, 0.1], [0.0, 0.0]]), np.zeros(2), 1.0))


def test_convexity_certificate_takes_every_w_the_model_calls_symmetric():
    # a small W whose asymmetry is inside the model's absolute 1e-12 but above
    # 1e-10 of its own scale
    model = EnergyModel(np.array([[0.0, 1e-5], [1e-5 + 1e-14, 0.0]]), np.zeros(2), 1.0)
    assert model.is_symmetric
    cert = convexity_certificate(model)
    assert cert.certified_convex and cert.lambda_min_bound == pytest.approx(1.0 - 1e-5)


def test_gibbs_uniform_for_trivial_model():
    for n in (2, 3, 5):
        res = gibbs_fixed_point(bare_model(n), interior_density(np.random.default_rng(n), n))
        assert np.allclose(res.density.values, np.full(n, 1.0 / n), atol=1e-11)
        assert res.residual <= 1e-12


def test_gibbs_explicit_softmin():
    m = EnergyModel(np.zeros((2, 2)), np.array([0.0, math.log(2.0)]), 1.0)
    res = gibbs_fixed_point(m, Density([0.5, 0.5]))
    assert np.allclose(res.density.values, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    # K = e^0 + e^{-ln 2} = 1.5 and rho_1 = e^0 / K
    assert res.normalizer == pytest.approx(1.5, rel=1e-10)
    assert res.density.values[0] == pytest.approx(1.0 / res.normalizer, rel=1e-10)


def test_gibbs_gradient_flat_at_fixed_point():
    # at the fixed point the drift field is constant across nodes; the
    # rigorous spread bound is 2 beta tol / min(rho_inf)
    def spread_of(model, tol):
        res = gibbs_fixed_point(model, Density(np.full(model.n, 1.0 / model.n)), tol=tol)
        F = energy_gradient(model, res.density)
        return float(F.max() - F.min()), float(res.density.values.min())

    m = EnergyModel(np.zeros((2, 2)), np.array([0.0, math.log(2.0)]), 1.0)
    spread, lo = spread_of(m, 1e-12)
    assert spread <= 2.0 * m.beta * 1e-12 / lo

    rng = np.random.default_rng(2)
    model = random_convex_model(rng, 4)
    spread2, lo2 = spread_of(model, 1e-13)
    assert spread2 <= 2.0 * model.beta * 1e-13 / lo2


def test_gibbs_nonconvex_has_multiple_fixed_points():
    # 1-D oracle: fixed points of p -> e^{3p} / (e^{3p} + e^{3(1-p)}) by bisection
    def residual(p):
        a, b = math.exp(3.0 * p), math.exp(3.0 * (1.0 - p))
        return p - a / (a + b)

    lo, hi = 0.55, 0.999
    assert residual(lo) < 0 < residual(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
    p_star = 0.5 * (lo + hi)

    m = EnergyModel(-3.0 * np.eye(2), np.zeros(2), 1.0)
    res = gibbs_fixed_point(m, Density([0.9, 0.1]), tol=1e-12)
    assert res.density.values[0] == pytest.approx(p_star, abs=1e-10)


def test_find_all_equilibria_nonconvex_and_dedup():
    m = EnergyModel(-3.0 * np.eye(2), np.zeros(2), 1.0)
    starts = [Density([0.9, 0.1]), Density([0.5, 0.5]), Density([0.1, 0.9])]
    results = find_all_equilibria(m, starts)
    assert len(results) == 3
    energies = [energy(m, r.density) for r in results]
    assert energies == sorted(energies)
    # the symmetric saddle sits above the two wells
    assert np.allclose(results[-1].density.values, [0.5, 0.5], atol=1e-10)

    duplicated = find_all_equilibria(m, starts + starts)
    assert len(duplicated) == 3


def test_find_all_equilibria_unique_for_convex():
    rng = np.random.default_rng(3)
    model = random_convex_model(rng, 3)
    starts = [interior_density(rng, 3) for _ in range(10)]
    results = find_all_equilibria(model, starts)
    assert len(results) == 1


def test_gibbs_no_convergence_carries_partial():
    m = EnergyModel(-3.0 * np.eye(2), np.zeros(2), 1.0)
    with pytest.raises(NoConvergence) as info:
        gibbs_fixed_point(m, Density([0.9, 0.1]), tol=1e-15, max_iter=3)
    partial = info.value.result
    assert partial is not None
    assert partial.iterations == 3
    assert partial.residual > 1e-15


def test_gibbs_rejects_boundary_start():
    with pytest.raises(BoundaryDensity):
        gibbs_fixed_point(bare_model(2), Density([1.0, 0.0]))


def test_gibbs_map_at_beta_one_has_the_bits_of_the_max_shifted_softmin():
    rng = np.random.default_rng(21)
    for n in (2, 5, 9):
        model = random_convex_model(rng, n)
        v = interior_density(rng, n).values
        a = -(model.interaction @ v + model.potential) / model.beta
        g = np.exp(a - a.max())
        got, low, total = _softmin(model, v)
        assert np.array_equal(got, g / g.sum())
        # the normalizer K = exp(-low/beta) total, as gibbs_fixed_point forms it
        assert float(np.exp(-low[0] / model.beta) * total[0]) == float(np.exp(a.max()) * g.sum())


def test_gibbs_tiny_beta_does_not_form_inf_minus_inf():
    # -(W v + V)/beta is -inf in every entry: shifting after the division gave NaN
    model = EnergyModel(np.zeros((2, 2)), np.array([1e10, 2e10]), 1e-300)
    result = gibbs_fixed_point(model, Density([0.5, 0.5]))
    assert result.residual <= 1e-12 and result.density.values[1] <= 1e-12
    assert result.normalizer == 0.0  # exp(-1e310) underflows


def test_gibbs_non_finite_map_raises_no_convergence_with_the_last_iterate():
    # W v + V overflows to inf in every entry, so the map is NaN
    model = EnergyModel(np.full((2, 2), 1e308), np.full(2, 1e308), 1.0)
    with pytest.raises(NoConvergence, match="residual nan") as info:
        gibbs_fixed_point(model, Density([0.5, 0.5]))
    assert info.value.result.density.values.tolist() == [0.5, 0.5]
    assert info.value.result.iterations == 0


@np.errstate(over="ignore", invalid="ignore")
def damped_reference(model, init, tol=1e-12, max_iter=10_000, damping=0.5):
    """The damped loop gibbs_fixed_point runs for every model it does not iterate undamped.

    Returns (density values or None without convergence, iterations,
    residual, factor of the last update).
    """
    v = init.values.copy()
    alpha = damping
    prev_residual = np.inf
    for k in range(max_iter + 1):
        g, _, _ = _softmin(model, v)
        residual = float(np.max(np.abs(v - g)))
        if residual <= tol:
            return Density(v / v.sum()).values, k, residual, alpha
        if math.isnan(residual):
            break
        if residual > prev_residual:
            alpha = max(0.5 * alpha, 2.0**-20)
        prev_residual = residual
        v = (1.0 - alpha) * v + alpha * g
        v /= v.sum()
    return None, k, residual, alpha


def damped_limit(model, init, **kwargs):
    """The damped reference's limit, run to tol 1e-14.

    Stopped at tol 1e-12 it sits up to tol / (1 - slope of G) from the fixed
    point (1.4e-12 on -3 I), so a Newton-polished result is compared with
    the limit, not with that stopping point.
    """
    want, *_ = damped_reference(model, init, tol=1e-14, **kwargs)
    assert want is not None
    return want


def well_model(n=16, wells=4, seed=5):
    """Benchmark-shaped 4-well model: W = -6 U(0.9, 1.1) on each diagonal block, so ||W||_2 is about 25."""
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    for blk in np.array_split(np.arange(n), wells):
        W[np.ix_(blk, blk)] = -6.0 * rng.uniform(0.9, 1.1)
    return EnergyModel(W, rng.uniform(-0.05, 0.05, n), 1.0)


@st.composite
def contracting_case(draw):
    """A symmetric W scaled to ||W||_2 <= 1.99 beta on 2-12 nodes, log-uniform beta and an interior start."""
    n = draw(st.integers(2, 12))
    beta = 10.0 ** draw(st.floats(-3.0, 3.0))
    A = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    W = 0.5 * (A + A.T)
    radius = float(np.max(np.abs(np.linalg.eigvalsh(W))))
    if radius > 0.0:
        W *= draw(st.floats(0.0, 1.99)) * beta / radius
    V = beta * np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    m = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    return EnergyModel(W, V, beta), Density(m / m.sum())


@given(contracting_case())
def test_gibbs_on_contracting_models_meets_the_damped_reference_in_no_more_iterations(case):
    model, init = case
    tol = 1e-12
    result = gibbs_fixed_point(model, init, tol=tol)
    want, iterations, _, _ = damped_reference(model, init, tol=tol)
    assert result.residual <= tol
    assert np.max(np.abs(result.density.values - want)) <= 10.0 * tol
    assert result.iterations <= iterations
    assert result.damping == (1.0 if _undamped(model) else 0.5)


@pytest.mark.parametrize(
    "model, polished",
    [
        (well_model(), True),
        (EnergyModel(-3.0 * np.eye(2), np.zeros(2), 1.0), True),
        (EnergyModel(np.array([[0.0, 0.3, 0.0], [0.0, 0.0, 0.1], [0.2, 0.0, 0.0]]), np.zeros(3), 1.0), True),
        # repulsive, ||W||_2 = 1.99 beta: the map's slope at the uniform state is -0.995,
        # where damping by 1/2 takes 6 iterations and the undamped update 5092
        (EnergyModel(0.995 * np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros(2), 1.0), False),
    ],
    ids=["wells-16", "minus-3I", "nonsymmetric", "repulsive-1.99"],
)
def test_gibbs_outside_the_undamped_range_keeps_the_damped_loop_bit_for_bit(model, polished):
    # the damped loop's bits hold where the Newton polish never engages (repulsive-1.99 cuts its
    # residual more than 4x per update); elsewhere the polish meets the damped loop's limit
    assert not _undamped(model)
    n = model.n
    x = np.full(n, 0.1 / (n - 1))
    x[1] = 0.9  # a corner start, as the multi-start equilibrium search takes
    init = Density(x / x.sum())
    result = gibbs_fixed_point(model, init)
    want, iterations, residual, alpha = damped_reference(model, init)
    assert (result.newton_steps > 0) == polished
    if polished:
        assert np.max(np.abs(result.density.values - damped_limit(model, init))) <= 1e-12
        assert result.residual <= 1e-12 and result.iterations <= iterations and result.damping == alpha
    else:
        assert np.array_equal(result.density.values, want)
        assert (result.iterations, result.residual, result.damping) == (iterations, residual, alpha)


def test_gibbs_without_a_spectrum_keeps_the_damped_loop():
    model = EnergyModel(np.array([[0.0, 0.2], [0.2, 0.0]]), np.array([0.0, 0.3]), 1.0)
    init = Density([0.9, 0.1])
    with patch.object(np.linalg, "eigvalsh", side_effect=np.linalg.LinAlgError("no convergence")):
        assert not _undamped(model)
        result = gibbs_fixed_point(model, init)
    _, iterations, residual, alpha = damped_reference(model, init)
    assert np.max(np.abs(result.density.values - damped_limit(model, init))) <= 1e-12
    assert result.damping == alpha == 0.5
    assert result.residual <= 1e-12 and result.iterations <= iterations
    assert _undamped(model) and gibbs_fixed_point(model, init).iterations < iterations


def test_gibbs_on_a_benchmark_shaped_convex_model_at_n_100_takes_at_most_10_iterations():
    # W = sym(N(0, 0.35^2))/sqrt(n), V ~ U(-0.5, 0.5), beta = 1; the damped loop takes 36
    rng = np.random.default_rng(401)
    n = 100
    A = rng.normal(0.0, 0.35, size=(n, n)) / np.sqrt(n)
    model = EnergyModel(0.5 * (A + A.T), rng.uniform(-0.5, 0.5, n), 1.0)
    init = Density(np.full(n, 1.0 / n))
    result = gibbs_fixed_point(model, init, tol=1e-13)
    assert result.iterations <= 10 and result.damping == 1.0
    want, iterations, _, _ = damped_reference(model, init, tol=1e-13)
    assert iterations >= 30 and np.max(np.abs(result.density.values - want)) <= 1e-12


def test_gibbs_damps_an_update_whose_map_entry_underflows_to_zero():
    # W = 0 contracts for every beta, but G(rho) = (1, 0) here: an undamped update would land on the boundary
    model = EnergyModel(np.zeros((2, 2)), np.array([1e10, 2e10]), 1e-300)
    assert _undamped(model)
    result = gibbs_fixed_point(model, Density([0.5, 0.5]))
    assert result.density.values[1] > 0.0 and result.damping == 0.5


def test_convexity_certificate_reads_the_one_cached_spectrum():
    rng = np.random.default_rng(8)
    A = rng.normal(0.0, 0.35, size=(6, 6))
    W = 0.5 * (A + A.T)
    model = EnergyModel(W, rng.uniform(-1.0, 1.0, 6), 1.0)
    with patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eig:
        gibbs_fixed_point(model, interior_density(rng, 6))
        cert = convexity_certificate(model)
        convexity_certificate(model)
    assert eig.call_count == 1
    assert cert.lambda_min_bound == float(np.linalg.eigvalsh(W)[0]) + model.beta
    assert not model.interaction_spectrum.flags.writeable
    assert EnergyModel(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2), 1.0).interaction_spectrum is None


@st.composite
def multistart_case(draw):
    """A contracting, attractive or non-symmetric model on 2-6 nodes and 1-8 interior starts."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["contracting", "attractive", "nonsymmetric"]))
    beta = 10.0 ** draw(st.floats(-1.0, 1.0))
    A = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    if kind == "nonsymmetric":
        W = 3.0 * beta * A
    else:
        W = 0.5 * (A + A.T)
        radius = float(np.max(np.abs(np.linalg.eigvalsh(W))))
        if kind == "contracting" and radius > 0.0:
            W *= draw(st.floats(0.0, 1.99)) * beta / radius
        if kind == "attractive":  # lambda_min(W) <= -2 beta: damped, often several equilibria
            W = 0.3 * beta * W - draw(st.floats(2.5, 8.0)) * beta * np.eye(n)
    V = beta * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    starts = []
    for _ in range(draw(st.integers(1, 8))):
        m = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
        starts.append(Density(m / m.sum()))
    return EnergyModel(W, V, beta), starts


def one_row(model, start, **solver):
    try:
        return gibbs_fixed_point(model, start, **solver)
    except NoConvergence as exc:
        return exc.result


def same_result(a, b):
    return np.array_equal(a.density.values, b.density.values) and (
        a.normalizer, a.iterations, a.residual, a.damping, a.newton_steps
    ) == (b.normalizer, b.iterations, b.residual, b.damping, b.newton_steps)


@given(multistart_case())
def test_multistart_rows_have_the_bits_of_one_row_calls(case):
    model, starts = case
    solver = {"tol": 1e-12, "max_iter": 500, "damping": 0.5}
    singles = [one_row(model, start, **solver) for start in starts]
    rows = _gibbs_rows(model, np.array([s.values for s in starts]), **solver)
    assert all(same_result(row, single) for row, single in zip(rows, singles, strict=True))
    for kept in find_all_equilibria(model, starts, **solver):
        assert any(same_result(kept, single) for single in singles)


def test_newton_polish_reaches_the_damped_limits_of_the_wells_in_at_most_200_iterations():
    model = well_model()
    starts = corner_starts(model.n)[1:]  # one 0.9 corner per node
    results = [gibbs_fixed_point(model, start) for start in starts]
    for start, result in zip(starts, results):
        assert np.max(np.abs(result.density.values - damped_limit(model, start))) <= 1e-12
        assert result.newton_steps >= 1 and result.residual <= 1e-12
    assert sum(r.iterations for r in results) <= 200  # the damped loop takes 636
    assert len(find_all_equilibria(model, starts)) == 4


def test_newton_polish_reaches_the_damped_limits_of_the_three_wells():
    _, model = three_well_recipe()
    for start in corner_starts(model.n):
        result = gibbs_fixed_point(model, start, tol=1e-13, max_iter=500_000)
        assert np.max(np.abs(result.density.values - damped_limit(model, start))) <= 1e-12


def test_newton_polish_finishes_the_undamped_crawl_near_minus_two_beta():
    # the map's slope at the uniform Gibbs state is +0.995: the undamped loop alone takes 3897 iterations
    model = EnergyModel(-0.995 * np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros(2), 1.0)
    assert _undamped(model)
    result = gibbs_fixed_point(model, Density([0.9, 0.1]))
    assert result.iterations <= 60 and result.newton_steps >= 1
    assert result.damping == 1.0 and np.max(np.abs(result.density.values - 0.5)) <= 1e-12


def test_fast_contracting_rows_keep_the_undamped_bits():
    # the benchmark-shaped convex model cuts its residual about 100x per update, so it never polishes
    rng = np.random.default_rng(401)
    n = 100
    A = rng.normal(0.0, 0.35, size=(n, n)) / np.sqrt(n)
    model = EnergyModel(0.5 * (A + A.T), rng.uniform(-0.5, 0.5, n), 1.0)
    init = Density(np.full(n, 1.0 / n))
    result = gibbs_fixed_point(model, init, tol=1e-13)
    want, iterations, residual, _ = damped_reference(model, init, tol=1e-13, damping=1.0)
    assert result.newton_steps == 0 and np.array_equal(result.density.values, want)
    assert (result.iterations, result.residual) == (iterations, residual)


def test_a_singular_stacked_newton_solve_falls_back_to_one_solve_per_row():
    model = well_model()
    starts = corner_starts(model.n)[1:]  # one 0.9 corner per node
    solve = np.linalg.solve

    def one_matrix_at_a_time(a, b):
        if a.ndim == 3 and len(a) > 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    with patch.object(np.linalg, "solve", side_effect=one_matrix_at_a_time) as solver:
        rows = _gibbs_rows(model, np.array([s.values for s in starts]), 1e-12, 10_000, 0.5)
    assert solver.call_count > 2
    assert all(same_result(row, gibbs_fixed_point(model, s)) for row, s in zip(rows, starts))
    assert all(row.newton_steps >= 1 for row in rows)


@pytest.mark.xfail(
    strict=True,
    raises=NoConvergence,
    reason="|W|/beta = 1e10: the residual floor (about eps |W| / beta) is far above tol and G flips to a corner, "
    "so the residual stays near 0.75 and the Newton polish never engages",
)
def test_gibbs_converges_at_w_1e10_identity():
    model = EnergyModel(1e10 * np.eye(4), np.zeros(4), 1.0)
    gibbs_fixed_point(model, Density([0.4, 0.3, 0.2, 0.1]), tol=1e-13, max_iter=20_000)
