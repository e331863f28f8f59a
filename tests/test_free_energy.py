import math

import numpy as np
import pytest

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
from graphfpe.free_energy import _drift_raw, _energy_raw
from helpers import bare_model, interior_density, random_convex_model, rel_err


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
