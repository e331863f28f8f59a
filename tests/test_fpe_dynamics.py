import math

import numpy as np
import pytest

from graphfpe import (
    BoundaryDensity,
    Density,
    EnergyModel,
    StepSizeUnderflow,
    dissipation,
    energy,
    energy_gradient,
    fpe_rhs,
    gibbs_fixed_point,
    integrate,
    invariant_region,
    weighted_laplacian,
)
from graphfpe.fpe_dynamics import (
    _GUARDS,
    _RK_A,
    _RK_B4,
    _RK_C,
    _RK_ERR,
    _STAGE_ROWS,
    _UPDATE,
)
from helpers import (
    bare_model,
    interior_density,
    k3,
    path2,
    random_connected_graph,
    random_convex_model,
    rel_err,
)


def test_rhs_zero_at_equilibrium():
    g = path2()
    model = bare_model(2)
    rho_inf = gibbs_fixed_point(model, Density([0.9, 0.1]), tol=1e-14).density
    assert np.max(np.abs(fpe_rhs(model, g, rho_inf).values)) <= 1e-10


def test_rhs_hand_value():
    rhs = fpe_rhs(bare_model(2), path2(), Density([0.9, 0.1]))
    expected = 0.5 * (math.log(0.1) - math.log(0.9))
    assert rhs.values[0] == pytest.approx(expected, rel=1e-13)
    assert rhs.values[1] == pytest.approx(-expected, rel=1e-13)


def test_rhs_matches_matrix_form():
    rng = np.random.default_rng(0)
    for _ in range(25):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        model = random_convex_model(rng, g.node_count)
        rho = interior_density(rng, g.node_count)
        rhs = fpe_rhs(model, g, rho)
        L = weighted_laplacian(g, rho).matrix
        F = energy_gradient(model, rho)
        assert np.max(np.abs(rhs.values + L @ F)) <= 1e-12 * max(1.0, np.max(np.abs(L @ F)))


def test_array_tableau_reproduces_the_tuples_and_order_conditions():
    # the array form reproduces the tuples entry for entry
    assert len(_STAGE_ROWS) == 6 and _UPDATE.shape == (2, 6)
    for s in range(6):
        assert _STAGE_ROWS[s].shape == (s,)
        assert tuple(_STAGE_ROWS[s]) == _RK_A[s]
    assert tuple(_UPDATE[0]) == _RK_B4
    assert tuple(_UPDATE[1]) == _RK_ERR
    # order conditions of the propagated 4th-order weights; the error weights sum to 0
    b, c = np.array(_RK_B4), np.array(_RK_C)
    for k in range(4):
        assert float(b @ c**k) == pytest.approx(1.0 / (k + 1), rel=1e-14)
    assert abs(sum(_RK_ERR)) <= 1e-16


def test_stage_rows_sum_to_nodes():
    assert np.allclose([row.sum() for row in _STAGE_ROWS], _RK_C, rtol=0.0, atol=1e-15)


def test_rhs_boundary_rejected():
    with pytest.raises(BoundaryDensity):
        fpe_rhs(bare_model(2), path2(), Density([1.0, 0.0]))


def test_rhs_descends_the_energy():
    # rhs . F = dissipation = -F^T L F <= 0 at every interior density
    rng = np.random.default_rng(14)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 8)))
        model = random_convex_model(rng, g.node_count)
        rho = interior_density(rng, g.node_count)
        rhs = fpe_rhs(model, g, rho)
        F = energy_gradient(model, rho)
        descent = float(rhs.values @ F)
        assert descent <= 1e-12
        assert rel_err(descent, dissipation(model, g, rho)) <= 1e-10


def test_rhs_small_at_converged_gibbs():
    rng = np.random.default_rng(15)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 7)))
        model = random_convex_model(rng, g.node_count)
        rho_inf = gibbs_fixed_point(
            model, interior_density(rng, g.node_count), tol=1e-12
        ).density
        assert np.max(np.abs(fpe_rhs(model, g, rho_inf).values)) <= 1e-8


def test_invariant_region_hand_values():
    g = path2()
    model = bare_model(2)  # M = 1, so (2M)^(1/beta) = 2
    region = invariant_region(model, g, Density([0.9, 0.1]))
    assert region.M == pytest.approx(1.0)
    assert region.m == pytest.approx(0.05, abs=1e-15)

    region_u = invariant_region(model, g, Density([0.5, 0.5]))
    assert region_u.m == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_invariant_region_epsilon_recursion():
    rng = np.random.default_rng(1)
    model = random_convex_model(rng, 5)
    g = random_connected_graph(rng, 5)
    region = invariant_region(model, g, interior_density(rng, 5))
    eps = region.epsilons
    assert eps.size == 5
    ratio = 1.0 / (1.0 + (2.0 * region.M))  # beta = 1
    assert np.all(np.diff(eps) < 0)
    assert np.allclose(eps[1:] / eps[:-1], ratio, rtol=1e-12)
    assert region.m == pytest.approx(eps[-2], rel=1e-12)
    assert region.m > 0


def test_invariant_region_extreme_model_gives_zero_floor():
    # (2M)^(1/beta) = 2 exp(800) overflows a float: c, the epsilons and m are 0
    model = EnergyModel(np.zeros((2, 2)), np.array([400.0, 0.0]), 1.0)
    region = invariant_region(model, path2(), Density([0.5, 0.5]))
    assert region.M == math.inf
    assert region.m == 0.0
    assert np.array_equal(region.epsilons, [0.0, 0.0])


def test_integrate_constant_at_equilibrium():
    g = path2()
    model = bare_model(2)
    rho_inf = gibbs_fixed_point(model, Density([0.9, 0.1]), tol=1e-14).density
    traj = integrate(model, g, rho_inf, 1.0, record_every=1)
    for d in traj.densities:
        assert np.max(np.abs(d.values - rho_inf.values)) <= 1e-9


def test_integrate_canonical_long_time_limit():
    # cross-checked against a tiny fixed-step classical RK4 reference
    g = path2()
    model = bare_model(2)
    traj = integrate(model, g, Density([0.9, 0.1]), 10.0, record_every=0)
    assert np.max(np.abs(traj.final_density.values - 0.5)) <= 1e-6

    def rk4_reference(y, t_end, h):
        def f(v):
            flux = 0.5 * (v[0] + v[1]) * (math.log(v[1]) - math.log(v[0]))
            return np.array([flux, -flux])

        steps = int(round(t_end / h))
        for _ in range(steps):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return y

    ref = rk4_reference(np.array([0.9, 0.1]), 10.0, 1e-3)
    assert np.max(np.abs(traj.final_density.values - ref)) <= 1e-7


def test_integrate_records_and_diagnostics():
    g = path2()
    model = bare_model(2)
    traj = integrate(model, g, Density([0.9, 0.1]), 2.0, record_every=5)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 2.0
    assert np.all(np.diff(traj.times) > 0)
    assert traj.energy[0] == pytest.approx(energy(model, Density([0.9, 0.1])), rel=1e-14)
    assert traj.dissipation[0] == pytest.approx(
        dissipation(model, g, Density([0.9, 0.1])), rel=1e-14
    )
    assert traj.accepted_steps > 0
    assert tuple(traj.rejected_by) == _GUARDS
    assert sum(traj.rejected_by.values()) == traj.rejected_steps


def test_integrate_record_every_zero_keeps_endpoints_only():
    traj = integrate(bare_model(2), path2(), Density([0.9, 0.1]), 1.0, record_every=0)
    assert traj.times.size == 2
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0


def test_integrate_mass_positivity_energy_on_random_models():
    rng = np.random.default_rng(2)
    for _ in range(6):
        n = int(rng.integers(3, 8))
        g = random_connected_graph(rng, n)
        model = random_convex_model(rng, n)
        rho0 = interior_density(rng, n)
        region = invariant_region(model, g, rho0)
        traj = integrate(model, g, rho0, 5.0, record_every=3)
        assert max(abs(float(d.values.sum()) - 1.0) for d in traj.densities) <= 1e-12
        assert min(float(d.values.min()) for d in traj.densities) >= region.m - 1e-12
        assert np.all(np.diff(traj.energy) <= 1e-9)


def test_integrate_order_check():
    # at fixed max_step with loose tolerances the scheme is a fixed-step
    # 4th-order method; halving the step should shrink the error by >= 8
    g = path2()
    model = bare_model(2)
    rho0 = Density([0.7, 0.3])
    ref = integrate(model, g, rho0, 0.5, rel_tol=1e-13, abs_tol=1e-15, record_every=0)

    def err_at(h):
        traj = integrate(
            model, g, rho0, 0.5, rel_tol=10.0, abs_tol=10.0, max_step=h, record_every=0
        )
        return np.max(np.abs(traj.final_density.values - ref.final_density.values))

    e1, e2 = err_at(0.05), err_at(0.025)
    assert e1 / e2 >= 8.0


def test_dissipation_examples():
    g = path2()
    model = bare_model(2)
    rho_inf = gibbs_fixed_point(model, Density([0.9, 0.1]), tol=1e-14).density
    assert abs(dissipation(model, g, rho_inf)) <= 1e-12
    expected = -((math.log(9.0)) ** 2) * 0.5
    assert dissipation(model, g, Density([0.9, 0.1])) == pytest.approx(expected, rel=1e-13)
    assert dissipation(model, g, Density([0.9, 0.1])) <= 0.0


def test_dissipation_matches_energy_slope():
    g = path2()
    model = bare_model(2)
    traj = integrate(model, g, Density([0.9, 0.1]), 1.0, record_every=1, rel_tol=1e-11, abs_tol=1e-13)
    t, e, d = traj.times, traj.energy, traj.dissipation
    # energy change over each step against the trapezoid of the recorded
    # dissipation (a centered difference over two long adaptive steps is too coarse)
    checked = 0
    for k in range(t.size - 1):
        if min(abs(d[k]), abs(d[k + 1])) > 1e-6:
            trapezoid = 0.5 * (t[k + 1] - t[k]) * (d[k] + d[k + 1])
            assert rel_err(e[k + 1] - e[k], trapezoid) <= 1e-3
            checked += 1
    assert checked >= 5


def test_step_size_underflow_reports_partial():
    # drive rho_2 downward from 0.5 toward 0.1 with an artificial positivity
    # floor at 0.3 in the way: progress until the crossing, then endless
    # halving and a partial trajectory
    g = path2()
    model = EnergyModel(np.zeros((2, 2)), np.array([0.0, math.log(9.0)]), 1.0)
    with pytest.raises(StepSizeUnderflow) as info:
        integrate(model, g, Density([0.5, 0.5]), 10.0, positivity_floor=0.3, record_every=1)
    traj = info.value.trajectory
    assert traj is not None
    assert traj.times.size > 1  # made progress before stalling
    assert traj.times[-1] < 10.0
    assert min(float(d.values.min()) for d in traj.densities) >= 0.3 - 1e-12
    # the partial trajectory counts its rejections per guard; the floor is what stops it
    assert sum(traj.rejected_by.values()) == traj.rejected_steps > 0
    assert traj.rejected_by["stage_floor"] + traj.rejected_by["step_floor"] > 0


def test_loose_tolerance_steps_are_caught_by_floor_and_energy_guards():
    # with rel_tol = 100 the error guard accepts any step; steps that
    # overshoot the equilibrium are caught by the positivity and energy guards
    traj = integrate(bare_model(2), path2(), Density([0.6, 0.4]), 5.0, rel_tol=100.0, abs_tol=1e-15)
    assert traj.rejected_by["error"] == 0
    assert traj.rejected_by["stage_floor"] >= 1 and traj.rejected_by["energy"] >= 1
    assert sum(traj.rejected_by.values()) == traj.rejected_steps
    assert np.all(np.diff(traj.energy) <= 1e-15)


def test_integrate_validations():
    with pytest.raises(BoundaryDensity):
        integrate(bare_model(2), path2(), Density([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        integrate(bare_model(2), path2(), Density([0.5, 0.5]), -1.0)
    with pytest.raises(ValueError):
        integrate(bare_model(2), path2(), Density([0.5, 0.5]), 1.0, record_every=-1)


def test_nonsymmetric_interaction_integrates_without_energy_guard():
    g = path2()
    model_ns = EnergyModel(np.array([[0.0, 0.1], [0.0, 0.0]]), np.zeros(2), 1.0)
    assert not model_ns.is_symmetric
    traj = integrate(model_ns, g, Density([0.9, 0.1]), 1.0, record_every=0)
    assert traj.times[-1] == 1.0
