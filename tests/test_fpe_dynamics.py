import functools
import math
import re

import numpy as np
import pytest

from graphfpe import (
    BoundaryDensity,
    Density,
    EnergyModel,
    StepSizeUnderflow,
    asymptotic_rate,
    build_graph,
    dissipation,
    energy,
    energy_gradient,
    energy_hessian,
    fpe_rhs,
    gibbs_fixed_point,
    integrate,
    invariant_region,
    weighted_laplacian,
)
from graphfpe import fpe_dynamics
from graphfpe.fpe_dynamics import (
    _GUARDS,
    _RK_A,
    _RK_B,
    _RK_C,
    _RK_E3,
    _RK_E5,
    _STAGE_ROWS,
    _UPDATE,
    _dissipation_raw,
    _equilibrium_tail,
    _phi,
    _rhs_raw,
)
from graphfpe.free_energy import _drift_raw, _energy_raw
from graphfpe.simplex_calculus import laplacian_apply, laplacian_matrices
from helpers import (
    bare_model,
    interior_density,
    k3,
    path2,
    random_connected_graph,
    random_convex_model,
    rel_err,
    same_bits,
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
    assert len(_STAGE_ROWS) == 12 and _UPDATE.shape == (3, 12)
    for s in range(12):
        assert _STAGE_ROWS[s].shape == (s,)
        assert tuple(_STAGE_ROWS[s]) == _RK_A[s]
    assert tuple(_UPDATE[0]) == _RK_B
    assert tuple(_UPDATE[1]) == _RK_E5
    assert tuple(_UPDATE[2]) == _RK_E3
    # quadrature conditions of the propagated 8th-order weights
    b, c = np.array(_RK_B), np.array(_RK_C)
    for k in range(8):
        assert float(b @ c**k) == pytest.approx(1.0 / (k + 1), rel=1e-14)
    # each error row is a difference of two consistent weight rows, so it sums to 0 (to rounding of 12 terms)
    assert abs(sum(_RK_E5)) <= 1e-15 and abs(sum(_RK_E3)) <= 1e-15


def test_stage_rows_sum_to_nodes():
    assert np.allclose([row.sum() for row in _STAGE_ROWS], _RK_C, rtol=0.0, atol=1e-15)
    # the stability function R(z) = 1 + z b^T (I - zA)^-1 1 stays within the unit disc on [-6.3, 0]: the
    # real stability boundary, about -6.39, is what the switch to the exponential tail is measured against
    A = np.zeros((12, 12))
    for s, row in enumerate(_STAGE_ROWS):
        A[s, :s] = row
    b = np.array(_RK_B)
    for z in np.linspace(-6.3, 0.0, 631):
        assert abs(1.0 + z * (b @ np.linalg.solve(np.eye(12) - z * A, np.ones(12)))) <= 1.0 + 1e-14


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
    # 8th-order method after a few short start-up steps; halving the step
    # should shrink the error by about 2^8 (measured 250), so by >= 64. The
    # errors (about 4e-9 and 2e-11) sit well above rounding.
    g = path2()
    model = bare_model(2)
    rho0 = Density([0.7, 0.3])
    ref = integrate(model, g, rho0, 2.0, rel_tol=1e-13, abs_tol=1e-15, record_every=0)

    def err_at(h):
        traj = integrate(
            model, g, rho0, 2.0, rel_tol=10.0, abs_tol=10.0, max_step=h, record_every=0
        )
        return np.max(np.abs(traj.final_density.values - ref.final_density.values))

    e1, e2 = err_at(0.5), err_at(0.25)
    assert e2 >= 1e-12
    assert e1 / e2 >= 64.0


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
    # the trapezoid's own error grows as h^2; the 8th-order pair's steps reach 0.013 by the second step
    # (2.5e-3 relative), so max_step caps them at 0.005 (4.2e-4 at worst)
    traj = integrate(
        model, g, Density([0.9, 0.1]), 1.0, record_every=1, rel_tol=1e-11, abs_tol=1e-13, max_step=0.005
    )
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


def test_loose_tolerance_steps_are_caught_by_floor_and_energy_guards(monkeypatch):
    # with rel_tol = 100 the error guard accepts any step; explicit steps that
    # overshoot the equilibrium are caught by the positivity and energy guards
    # (from [0.7, 0.3] over t = 20: 3 stage floor and 8 energy rejections). The
    # run is held on the explicit pair: with the tail it switches at t = 3.1,
    # and no step is refused by the energy guard
    monkeypatch.setattr(fpe_dynamics, "_equilibrium_tail", lambda *args: None)
    traj = integrate(bare_model(2), path2(), Density([0.7, 0.3]), 20.0, rel_tol=100.0, abs_tol=1e-15)
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


@pytest.mark.parametrize("t_end", [math.inf, math.nan])
def test_integrate_rejects_non_finite_t_end(t_end):
    # an infinite t_end used to return at once with the start state as final
    with pytest.raises(ValueError, match="t_end"):
        integrate(bare_model(2), path2(), Density([0.5, 0.5]), t_end)


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "positivity_floor"])
@pytest.mark.parametrize("value", [math.nan, -1.0, 0.0, math.inf])
def test_integrate_refuses_a_tolerance_or_floor_that_is_not_positive_and_finite(name, value):
    # unrefused, rel_tol NaN, -1 or inf turns the error control off, and a NaN floor ends in a step size underflow
    # at t = 0
    model = EnergyModel(np.zeros((3, 3)), np.array([0.1, -0.2, 0.05]), 1.0)
    g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        integrate(model, g, Density([0.5, 0.3, 0.2]), 5.0, **{name: value})


def _found_path():
    # the 3-node unit path on which rel_tol = abs_tol = 1e-300 spent the whole step budget before it was refused
    model = EnergyModel(np.zeros((3, 3)), np.array([0.1, -0.2, 0.05]), 1.0)
    return model, build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)]), Density([0.5, 0.3, 0.2]), 5.0


@pytest.mark.parametrize("rel_tol, abs_tol", [(1e-23, 1e-23), (1e-25, 1e-25), (1e-300, 1e-300), (5e-23, 4e-23)])
def test_integrate_refuses_tolerances_that_floating_point_cannot_meet(rel_tol, abs_tol):
    with pytest.raises(ValueError, match=r"abs_tol \+ rel_tol must be at least 1.06e-22"):
        integrate(*_found_path(), rel_tol=rel_tol, abs_tol=abs_tol)


@pytest.mark.parametrize(
    "rel_tol, abs_tol",
    [(1e-17, 1e-17), (1e-20, 1e-20), (1e-22, 1e-22), (1e-300, 1e-11), (1e-8, 1e-300), (1e-17, 1e-300)],
)
def test_integrate_meets_tiny_tolerances_above_the_floor(rel_tol, abs_tol):
    # only the sum is floored: either tolerance alone may be tiny
    traj = integrate(*_found_path(), rel_tol=rel_tol, abs_tol=abs_tol, record_every=0)
    assert traj.times[-1] == 5.0 and traj.accepted_steps < 1000


def _attempt_sizes(monkeypatch) -> list:
    """The step size h of every DOP853 attempt, in order, read where stage 1 scales its increment by h."""
    sizes, row = [], _STAGE_ROWS[1]

    class Increment:
        def __init__(self, value):
            self.value = value

        def __rmul__(self, h):
            sizes.append(h)
            return h * self.value

    class StageRow:
        def __matmul__(self, K):
            return Increment(row @ K)

    monkeypatch.setattr(fpe_dynamics, "_STAGE_ROWS", (_STAGE_ROWS[0], StageRow(), *_STAGE_ROWS[2:]))
    return sizes


@pytest.mark.parametrize("seed, n", [(12, 12), (14, 5)])
def test_the_mass_guard_halves_the_step_on_each_rejection(monkeypatch, seed, n):
    # with no mass drift allowed, a candidate is accepted only where its sum rounds to exactly 1; seed 12
    # (_nonsymmetric_case) halves its way to a step size underflow, seed 14 ends at t_end
    monkeypatch.setattr(fpe_dynamics, "_MASS_DRIFT_BUDGET", 0.0)
    sizes = _attempt_sizes(monkeypatch)
    model, g, rho0, t_end = _nonsymmetric_case(seed, n)
    try:
        traj, last_h = integrate(model, g, rho0, t_end, record_every=1), None
    except StepSizeUnderflow as exc:
        traj, last_h = exc.trajectory, float(re.search(r"h=(\S+)\)", str(exc)).group(1))
        assert last_h == 0.5 * sizes[-1]  # the last rejection halved the step below the floor
        assert traj.times[-1] < t_end
    assert (last_h is None) == (seed == 14)
    mass = traj.rejected_by["mass"]
    assert mass > 0 and traj.rejected_steps == mass and len(sizes) == traj.accepted_steps + mass
    # every rejection halves the step the next attempt takes; no accepted step changes it by exactly 1/2
    assert sum(b == 0.5 * a for a, b in zip(sizes, sizes[1:])) + (last_h is not None) == mass
    assert all(float(d.values.sum()) == 1.0 for d in traj.densities[1:])


def test_the_step_floor_refuses_an_update_below_the_floor_whose_stages_are_above_it():
    # a real case, from a random search over small models with loose tolerances: the 8th-order update, whose
    # weights reach -5.8 and 4.5, lands below the floor where no stage point does
    model = EnergyModel([[1.4, 2.4, 0.4], [2.4, -4.1, 0.1], [0.4, 0.1, -0.3]], [-0.3, 0.0, 0.6], 1.5)
    g = build_graph(3, [(1, 2, 2.0), (2, 3, 0.6)])
    traj = integrate(
        model, g, Density([0.38, 0.54, 0.08]), 3.4, rel_tol=0.1, abs_tol=1e-8, record_every=1, positivity_floor=0.009
    )
    assert traj.rejected_by["step_floor"] == 6 and traj.exponential_steps == 0
    assert traj.times[-1] == 3.4
    assert min(float(d.values.min()) for d in traj.densities) >= 0.009


def test_nonsymmetric_interaction_integrates_without_energy_guard():
    g = path2()
    model_ns = EnergyModel(np.array([[0.0, 0.1], [0.0, 0.0]]), np.zeros(2), 1.0)
    assert not model_ns.is_symmetric
    traj = integrate(model_ns, g, Density([0.9, 0.1]), 1.0, record_every=0)
    assert traj.times[-1] == 1.0


# -- the exponential tail ------------------------------------------------------


def test_equilibrium_jacobian_matches_central_differences():
    rng = np.random.default_rng(12)
    for _ in range(8):
        n = int(rng.integers(2, 9))
        g = random_connected_graph(rng, n)
        model = random_convex_model(rng, n)
        tail = _equilibrium_tail(model, g, interior_density(rng, n))
        rho = tail.rho_inf
        fd = np.empty((n, n))
        for j in range(n):
            step = 1e-6 * rho[j]
            e = np.zeros(n)
            e[j] = step
            fd[:, j] = (_rhs_raw(model, g, rho + e) - _rhs_raw(model, g, rho - e)) / (2.0 * step)
        # the eigenpairs give J = -P diag(lam) Q on the zero-sum plane, where the dropped mass mode has no part
        centred = np.eye(n) - 1.0 / n
        jac = -tail.P @ (tail.lam[:, None] * (tail.Q @ centred))
        assert np.max(np.abs(jac - fd @ centred)) <= 1e-6 * np.max(np.abs(fd))
        exact = -laplacian_matrices(g, rho) @ energy_hessian(model, Density(rho))
        assert np.max(np.abs(jac - exact @ centred)) <= 1e-12 * np.max(np.abs(fd))


def test_phi_functions_match_their_closed_forms_on_both_branches():
    z = np.array([0.0, -1e-12, -0.5, -0.999999, -1.000001, -3.0, -40.0, -1e6])
    phi1, phi2, _ = _phi(z)
    assert phi1[0] == 1.0 and phi2[0] == 0.5
    for k, zk in enumerate(z[1:], start=1):
        exact1 = math.expm1(zk) / zk
        exact2 = (math.expm1(zk) - zk) / (zk * zk) if zk < -1e-3 else 0.5 + zk / 6.0
        assert rel_err(phi1[k], exact1) <= 1e-14
        assert rel_err(phi2[k], exact2) <= 1e-12


def test_phi_functions_are_within_a_few_ulp_of_mpmath_on_the_tail_range():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(15)
    # log-uniform over [-1e3, -1e-16], plus a dense band about |z| = 1
    z = -np.concatenate([10.0 ** rng.uniform(-16.0, 3.0, 1500), rng.uniform(0.9, 1.1, 500), [1.0, 1e3]])
    phi1, phi2, _ = _phi(z)
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for zk, p1, p2 in zip(z, phi1, phi2):
            x = mpmath.mpf(float(zk))
            e = mpmath.expm1(x)
            exact1, exact2 = e / x, (e - x) / (x * x)
            assert abs(p1 - exact1) <= 4 * eps * exact1, zk
            assert abs(p2 - exact2) <= 4 * eps * exact2, zk


def test_phi_3_is_within_4_ulp_of_mpmath_on_the_tail_range():
    # (e^z - 1 - z - z^2/2)/z^3 cancels about 32 digits at |z| = 1e-16, so the reference needs more than 40
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(16)
    # log-uniform over [-1e3, -1e-16], plus dense bands about |z| = 1 and the branch point |z| = 1.25
    z = -np.concatenate([10.0 ** rng.uniform(-16.0, 3.0, 1500), rng.uniform(0.9, 1.4, 1000), [1.0, 1.25, 1e3]])
    # one call on the stacked [z/4, z/2, z], as the tail makes it
    stacked = np.multiply.outer((0.25, 0.5, 1.0), z)
    _, _, phi3 = _phi(stacked)
    eps = np.finfo(float).eps
    with mpmath.workdps(60):
        for zk, p3 in zip(stacked.ravel(), phi3.ravel()):
            x = mpmath.mpf(float(zk))
            exact3 = (mpmath.expm1(x) - x - x * x / 2) / (x * x * x)
            assert abs(p3 - exact3) <= 4 * eps * exact3, zk


def test_tail_setup_declines_what_it_cannot_build():
    g = path2()
    nonsymmetric = EnergyModel(np.array([[0.0, 0.1], [0.0, 0.0]]), np.zeros(2), 1.0)
    assert _equilibrium_tail(nonsymmetric, g, Density([0.9, 0.1])) is None
    # Hess F = W + diag(1/rho) is indefinite at the symmetric equilibrium of this double well
    well = EnergyModel(np.array([[0.0, -5.0], [-5.0, 0.0]]), np.zeros(2), 1.0)
    assert _equilibrium_tail(well, g, Density([0.5, 0.5])) is None
    # Hess F overflows
    assert _equilibrium_tail(bare_model(2, beta=1e308), g, Density([0.5, 0.5])) is None


def _switching_setup():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 6)
    return random_convex_model(rng, 6), g, interior_density(rng, 6), 60.0


def _switching_case(**kwargs):
    model, g, rho0, t_end = _switching_setup()
    return model, g, integrate(model, g, rho0, t_end, record_every=1, **kwargs)


def _switching_run(**kwargs):
    return _switching_case(**kwargs)[2]


def test_tail_keeps_mass_one_and_descends_the_energy():
    traj = _switching_run()
    assert traj.switch_time is not None and traj.exponential_steps > 0
    after = traj.times > traj.switch_time
    assert np.count_nonzero(after) > 1
    values = np.array([d.values for d in traj.densities])
    assert np.max(np.abs(values[after].sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(np.diff(traj.energy) <= 1e-11)


def test_tail_switched_off_gives_the_same_records_up_to_the_switch(monkeypatch):
    traj = _switching_run()
    monkeypatch.setattr(fpe_dynamics, "_equilibrium_tail", lambda *args: None)
    plain = _switching_run()
    assert plain.switch_time is None and plain.exponential_steps == 0
    assert plain.accepted_steps > traj.accepted_steps
    upto = np.count_nonzero(traj.times <= traj.switch_time)
    assert np.array_equal(traj.times[:upto], plain.times[:upto])
    for a, b in zip(traj.densities[:upto], plain.densities[:upto]):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(traj.energy[:upto], plain.energy[:upto])
    assert np.max(np.abs(traj.final_density.values - plain.final_density.values)) <= 1e-9


def test_tail_honours_max_step_and_lands_on_t_end():
    traj = _switching_run(max_step=2.0)
    assert traj.exponential_steps > 0
    # each step is at most 2.0 and rounding is monotone, so t + h <= t + 2.0 exactly; the difference
    # of two accumulated times can exceed 2.0 by rounding
    assert np.all(traj.times[1:] <= traj.times[:-1] + 2.0)
    assert traj.times[-1] == 60.0


def test_the_run_switches_at_the_first_accepted_state_that_passes_both_tests():
    # the switch test replayed on every accepted state of a record-per-step run up to the switch: the step that
    # reached y has h lambda_max >= 2, and |f(y) - J (y - rho_inf)| <= 5e-2 |f(y)| with J = -P diag(lam) Q
    model, g, rho0, _ = _switching_setup()
    traj = _switching_run()
    tail = _equilibrium_tail(model, g, rho0)
    passes = []
    for k in range(1, np.count_nonzero(traj.times <= traj.switch_time)):
        y = traj.densities[k].values
        f = _rhs_raw(model, g, y)
        residual = f + tail.P @ (tail.lam * (tail.Q @ (y - tail.rho_inf)))
        stiff = (traj.times[k] - traj.times[k - 1]) * tail.lam[-1] >= 2.0
        passes.append(bool(stiff and np.max(np.abs(residual)) <= 5e-2 * np.max(np.abs(f))))
    assert len(passes) > 1 and passes[-1] and not any(passes[:-1])


def test_the_linearity_test_keeps_a_tail_about_another_basin_off(monkeypatch):
    # on a 4-node path, W = -2.8821 I + 20.775 11^T makes two basins: the Gibbs solve from rho0 finds
    # (0.559, 0.092, 0.176, 0.173), and the tail is built about it, while the flow goes to (0.336, 0.113, 0.278, 0.272).
    # The explicit steps pass h lambda_max >= 2, but f(y) never comes within 5e-2 of J (y - rho_inf), so the run
    # stays on DOP853 (802 rows); switching on the stiffness test alone, it switched at t = 3.5 and took 1895 rows
    g = build_graph(4, [(1, 2, 1.4557), (2, 3, 0.8872), (3, 4, 1.2148)])
    W = -2.8821 * np.eye(4) + 20.775 * np.ones((4, 4))
    model = EnergyModel(W, np.array([-0.1781, 0.2772, -0.1265, -0.1164]), 1.0)
    x = np.array([0.1046, 0.057, 0.3707, 0.4678])
    rho0 = Density(x / x.sum())
    tail = _equilibrium_tail(model, g, rho0)
    assert tail is not None
    traj = integrate(model, g, rho0, 30.0, record_every=1)
    assert traj.switch_time is None and traj.exponential_steps == 0
    assert np.max(np.abs(tail.rho_inf - traj.final_density.values)) > 0.2
    assert np.max(np.diff(traj.times)[:-1]) * tail.lam[-1] >= 2.0  # a step before the last passes the stiffness test
    monkeypatch.setattr(fpe_dynamics, "_equilibrium_tail", lambda *args: None)
    ref = integrate(model, g, rho0, 30.0, rel_tol=1e-12, abs_tol=1e-15, record_every=0)
    assert np.max(np.abs(traj.final_density.values - ref.final_density.values)) <= 1e-9


def _weak_interaction_model(rng, n):
    """W = sym(N(0, 0.35^2))/sqrt(n) with lambda_min(W) >= -1/2, V ~ U(-1/2, 1/2), beta = 1: convex at every size."""
    while True:
        A = rng.normal(0.0, 0.35, (n, n)) / np.sqrt(n)
        W = 0.5 * (A + A.T)
        if np.linalg.eigvalsh(W)[0] >= -0.5:
            return EnergyModel(W, rng.uniform(-0.5, 0.5, n), 1.0)


def _rk4_steps(model, g, y, h, substep):
    """Classical RK4 from each row of y over its own step h (a column), in equal substeps of at most ``substep``."""
    count = int(np.ceil(np.max(h) / substep))
    dt = h / count
    for _ in range(count):
        k1 = _rhs_raw(model, g, y)
        k2 = _rhs_raw(model, g, y + 0.5 * dt * k1)
        k3 = _rhs_raw(model, g, y + 0.5 * dt * k2)
        k4 = _rhs_raw(model, g, y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


@pytest.mark.parametrize("seed, n", [(1, 10), (2, 24), (3, 50)])
def test_step_doubling_tracks_the_true_local_error_of_the_first_tail_steps(seed, n):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    model = _weak_interaction_model(rng, n)
    rho0 = interior_density(rng, n)
    traj = integrate(model, g, rho0, 200.0, record_every=1)
    assert traj.switch_time is not None and traj.exponential_steps >= 5
    first = int(np.searchsorted(traj.times, traj.switch_time))
    ys = np.array([d.values for d in traj.densities[first : first + 6]])
    y, h = ys[:-1], np.diff(traj.times[first : first + 6])[:, None]
    tail = _equilibrium_tail(model, g, rho0)
    # the reference: RK4 in substeps of 0.05/lambda_max from each accepted state over its step
    reference = _rk4_steps(model, g, y, h, 0.05 / tail.lam[-1])
    scale = 1e-11 + 1e-8 * np.abs(y)  # the scaled norm of integrate at its default tolerances
    true = np.max(np.abs(ys[1:] - reference) / scale, axis=1)
    rhs = functools.partial(_rhs_raw, model, g)
    estimate = np.array(
        [np.max(np.abs(tail.step(rhs, yk, rhs(yk), hk)[1]) / sk) for yk, hk, sk in zip(y, h[:, 0], scale)]
    )
    assert np.all(true <= 1.0), true
    big = true > 0.01
    assert np.all((estimate[big] >= true[big] / 8.0) & (estimate[big] <= 8.0 * true[big])), (true, estimate)


def test_the_fourth_order_tail_spends_few_steps_on_a_bench_like_ring():
    # a 24-node ring as the benchmark's flow builds it, with its t_end: within 1e-6 of Gibbs by the asymptotic rate;
    # RKF45 up to an order-2 tail switched on at a 1e-3 linear residual took 210 attempted steps here, RKF45 up to
    # the fourth-order tail 100, DOP853 up to it 37 (18 of them exponential), and with the tail's steps sized by
    # Gustafsson's predictive factor 32 (13 exponential); the bound leaves 8 steps of margin
    rng = np.random.default_rng(0)
    n = 24
    g = build_graph(n, [(i + 1, (i + 1) % n + 1, float(rng.uniform(0.75, 1.25))) for i in range(n)])
    model = _weak_interaction_model(rng, n)
    rho0 = Density(0.5 / n + 0.5 * rng.dirichlet(np.ones(n)))
    rho_inf = gibbs_fixed_point(model, rho0).density
    gap = float(np.max(np.abs(rho0.values - rho_inf.values)))
    t_end = 1.2 * math.log(gap / 1e-6) / asymptotic_rate(model, g, rho_inf)
    traj = integrate(model, g, rho0, t_end)
    assert traj.accepted_steps + traj.rejected_steps <= 40
    assert np.max(np.abs(traj.final_density.values - rho_inf.values)) <= 1e-6


def _nonsymmetric_case(seed=12, n=12):
    # W not symmetric: no tail, the explicit pair end to end
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    W = 0.3 * rng.standard_normal((n, n))
    return EnergyModel(W, rng.uniform(-0.5, 0.5, n), 1.0), g, interior_density(rng, n), 3.0


def _weak_switching_setup(seed, n):
    # a weak-interaction model on a random graph over t_end 200: it switches before t = 2.5 and spends 6-14 tail steps
    # to t_end/16 and t_end/4
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    return _weak_interaction_model(rng, n), g, interior_density(rng, n), 200.0


@pytest.mark.parametrize(
    "make_case",
    [
        _nonsymmetric_case,
        _switching_setup,
        *(functools.partial(_weak_switching_setup, seed, n) for seed, n in ((21, 10), (22, 24), (23, 50))),
    ],
    ids=["explicit", "switching", "weak-10", "weak-24", "weak-50"],
)
def test_runs_stay_within_1e_8_of_a_tight_reference_at_t_end_over_16_and_4(monkeypatch, make_case):
    model, g, rho0, t_end = make_case()
    switched = integrate(model, g, rho0, t_end, record_every=0).switch_time
    assert (switched is not None) == (make_case is not _nonsymmetric_case)
    assert switched is None or switched < t_end / 16
    for t in (t_end / 16, t_end / 4):
        run = integrate(model, g, rho0, t, record_every=0)
        with monkeypatch.context() as m:  # the reference takes explicit steps only, whatever W is
            m.setattr(fpe_dynamics, "_equilibrium_tail", lambda *args: None)
            ref = integrate(model, g, rho0, t, rel_tol=1e-12, abs_tol=1e-15, record_every=0)
        assert np.max(np.abs(run.final_density.values - ref.final_density.values)) <= 1e-8


def test_the_predictive_step_factor_acts_only_between_two_accepted_tail_steps(monkeypatch):
    # after an accepted exponential step of size h and scaled error err, the next step is h times
    # 0.9 err^(-1/5) (h / h_prev) (max(err_prev, 1e-2) / err)^(1/5) in [0.2, 5] when the attempt before was an
    # accepted exponential step (h_prev, err_prev), and h times 0.9 err^(-1/5) in [0.2, 5] otherwise: after the
    # first tail step and after the first acceptance that follows a rejection. One inflated error estimate, on the
    # third tail attempt, forces a rejection.
    step, calls = fpe_dynamics._Tail.step, []

    def inflating(self, rhs, y, fy, h):
        y_new, err, low = step(self, rhs, y, fy, h)
        scale = 1e-11 + 1e-8 * np.abs(y)  # the scaled norm of integrate at its default tolerances
        if len(calls) == 2:
            err = err * (4.0 / np.max(np.abs(err) / scale))
        calls.append((y, h, float(np.max(np.abs(err) / scale))))
        return y_new, err, low

    monkeypatch.setattr(fpe_dynamics._Tail, "step", inflating)
    model, g, rho0, t_end = _weak_switching_setup(22, 24)
    traj = integrate(model, g, rho0, t_end, record_every=0)
    assert traj.rejected_steps == traj.rejected_by["error"] >= 1 and traj.exponential_steps >= 8
    # an attempt was accepted when the next one starts from a new state
    accepted = [a[0] is not b[0] for a, b in zip(calls, calls[1:])]
    assert accepted[:4] == [True, True, False, True] and calls[2][2] > 1.0
    kinds = []
    for i in range(len(calls) - 2):  # the last attempt may be cut short at t_end
        if not accepted[i]:
            continue
        (_, h, err), h_next = calls[i], calls[i + 1][1]
        factor = 0.9 * err**-0.2
        if i > 0 and accepted[i - 1]:
            h_prev, err_prev = calls[i - 1][1:]
            predictive = factor * h / h_prev * (max(err_prev, 1e-2) / err) ** 0.2
            assert abs(min(max(predictive, 0.2), 5.0) - min(max(factor, 0.2), 5.0)) > 1e-3 * factor
            factor = predictive
            kinds.append("predictive")
        else:
            kinds.append("standard")
        assert h_next == pytest.approx(h * min(max(factor, 0.2), 5.0), rel=1e-13)
    assert kinds[:3] == ["standard", "predictive", "standard"] and kinds.count("predictive") >= 4


@pytest.mark.parametrize("make_case", [_nonsymmetric_case, _switching_setup], ids=["explicit", "switching"])
def test_rhs_evaluations_counts_every_row_either_method_evaluates(monkeypatch, make_case):
    # integrate builds its kernel once per run and calls only the f the builder returned
    model, g, rho0, t_end = make_case()
    built, counted = [], []

    def counting_kernels(model, graph, build=fpe_dynamics._flow_kernels):
        built.append(model)
        f, rows = build(model, graph)

        def counting(values):
            counted.append(values.size // values.shape[-1])
            return f(values)

        return counting, rows

    monkeypatch.setattr(fpe_dynamics, "_flow_kernels", counting_kernels)
    traj = integrate(model, g, rho0, t_end)
    assert built == [model]
    assert (traj.exponential_steps > 0) == (make_case is _switching_setup)
    assert max(counted) == (2 if make_case is _switching_setup else 1)  # the tail stacks two rows in one call
    assert traj.rhs_evaluations == sum(counted) > traj.accepted_steps + traj.rejected_steps


@pytest.mark.parametrize("seed", range(3))
def test_flow_kernel_keeps_the_bits_of_the_drift_apply(seed):
    # f is laplacian_apply's kernel at the drift, and laplacian_apply is that kernel at -x: f is compared with
    # L(rho) applied to the negated drift, whose two negations cancel exactly; -L(rho) F has the same values but
    # may sign a zero otherwise. V = 0 with the uniform row gives all-zero fluxes.
    rng = np.random.default_rng(70 + seed)
    for n in (2, int(rng.integers(3, 40)), 200):
        g = random_connected_graph(rng, n)
        rows = rng.dirichlet(np.ones(n), size=3)
        rows[1] = 1.0 / n
        V, beta = rng.uniform(-1.0, 1.0, n), float(rng.uniform(0.5, 2.0))
        for model in (bare_model(n), EnergyModel(np.zeros((n, n)), V, beta),
                      EnergyModel(0.3 * rng.standard_normal((n, n)), V, beta)):
            f, evaluated = fpe_dynamics._flow_kernels(model, g)
            expected = [laplacian_apply(g, r, -_drift_raw(model, r)) for r in rows]
            for k in range(3):
                assert same_bits(f(rows[k]), expected[k])
            for k in (2, 3):
                assert same_bits(f(rows[:k]), np.array(expected[:k]))
                assert same_bits(f(rows[:k]), laplacian_apply(g, rows[:k], -_drift_raw(model, rows[:k])))
            assert evaluated() == 3 + 2 * (2 + 3)
            assert same_bits(_rhs_raw(model, g, rows), np.array(expected))


@pytest.mark.parametrize(
    "make_case, tolerances",
    [
        (_nonsymmetric_case, {}),
        (_switching_setup, {}),
        # the loose-tolerance 2-node case, whose overshooting steps are refused by the stage floor
        (lambda: (bare_model(2), path2(), Density([0.7, 0.3]), 20.0), {"rel_tol": 100.0, "abs_tol": 1e-15}),
    ],
    ids=["explicit", "switching", "loose-2"],
)
def test_every_attempt_costs_a_fixed_number_of_rows(monkeypatch, make_case, tolerances):
    # one row at the start and one per accepted state, plus 11 per DOP853 attempt and 10 per exponential
    # attempt, refused attempts included: every stage is evaluated before the floor is compared
    step, tail_attempts = fpe_dynamics._Tail.step, []

    def counting(self, *args):
        tail_attempts.append(args)
        return step(self, *args)

    monkeypatch.setattr(fpe_dynamics._Tail, "step", counting)
    model, g, rho0, t_end = make_case()
    traj = integrate(model, g, rho0, t_end, **tolerances)
    explicit = traj.accepted_steps + traj.rejected_steps - len(tail_attempts)
    assert traj.rhs_evaluations == 1 + traj.accepted_steps + 11 * explicit + 10 * len(tail_attempts)
    assert (len(tail_attempts) > 0) == (make_case is not _nonsymmetric_case)
    assert (traj.rejected_by["stage_floor"] > 0) == bool(tolerances)


def _budget_stop(monkeypatch, record_every):
    # a non-symmetric W keeps the run on the explicit pair, whose step stays near the
    # stability limit at equilibrium, so t_end 1e300 spends the (shrunk) budget:
    # 497 accepted steps and 5 rejected ones
    monkeypatch.setattr(fpe_dynamics, "_STEP_BUDGET", 502)
    model, g = EnergyModel(np.array([[0.0, 0.1], [0.0, 0.0]]), np.zeros(2), 1.0), path2()
    with pytest.raises(StepSizeUnderflow) as info:
        integrate(model, g, Density([0.9, 0.1]), 1e300, record_every=record_every)
    return model, g, info.value


@pytest.mark.parametrize("record_every", [0, 7, 10])
def test_a_stopped_run_ends_at_its_last_accepted_state(monkeypatch, record_every):
    _, _, every = _budget_stop(monkeypatch, record_every=1)
    _, _, stop = _budget_stop(monkeypatch, record_every=record_every)
    full, traj = every.trajectory, stop.trajectory
    # records do not change the steps: the run with a record per step shows every accepted state
    assert traj.accepted_steps == full.accepted_steps == full.times.size - 1
    # the last accepted step is due for a record at 7 (kept once), not at 10 or 0 (added at the stop)
    assert full.accepted_steps % 7 == 0 and full.accepted_steps % 10 != 0
    assert traj.times[-1] == full.times[-1] and f"at t={float(traj.times[-1])!r}" in str(stop)
    assert np.array_equal(traj.final_density.values, full.final_density.values)
    expected = full.times[:: record_every or full.times.size]
    if expected[-1] != full.times[-1]:
        expected = np.append(expected, full.times[-1])
    assert np.array_equal(traj.times, expected)
    for k, rho in zip(range(0, full.times.size, record_every or full.times.size), traj.densities):
        assert np.array_equal(rho.values, full.densities[k].values)


def _dop853_run():
    model, g, rho0, t_end = _nonsymmetric_case()
    assert not model.is_symmetric
    return model, g, integrate(model, g, rho0, t_end, record_every=1)


def _partial_run():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 9)
    model = EnergyModel(np.zeros((9, 9)), rng.uniform(-1.0, 1.0, 9), 1.0)
    rho0 = interior_density(rng, 9, floor=0.05)
    with pytest.raises(StepSizeUnderflow) as info:  # the floor at 0.05 stops the drift toward low-V nodes
        integrate(model, g, rho0, 10.0, positivity_floor=0.049, record_every=3)
    return model, g, info.value.trajectory


@pytest.mark.parametrize("make_run", [_dop853_run, _switching_case, _partial_run], ids=["dop853", "tail", "partial"])
def test_recorded_energy_and_dissipation_are_the_per_state_values_bit_for_bit(make_run):
    model, g, traj = make_run()
    assert (traj.switch_time is not None) == (make_run is _switching_case)
    assert traj.times.size == len(traj.densities) == traj.energy.size == traj.dissipation.size > 3
    for k, rho in enumerate(traj.densities):
        assert traj.energy[k] == _energy_raw(model, rho.values)
        assert traj.dissipation[k] == _dissipation_raw(model, g, rho.values)
        assert traj.dissipation[k] == dissipation(model, g, rho)
