import dataclasses
import json
import math
import time

import numpy as np
import pytest

from graphfpe import (
    Density,
    EnergyModel,
    NoConvergence,
    NonPositiveHessian,
    NonPositiveSymmetrizedJacobian,
    NotCertifiedConvex,
    VacuousCertificate,
    asymptotic_rate,
    build_graph,
    equilibrium_rates,
    dissipation,
    estimate_lsi_constant,
    find_all_equilibria,
    fisher_rate,
    gibbs_fixed_point,
    hessian_quadratic_rate,
    integrate,
    linearized_rate,
    rate_constants,
    relative_entropy,
    relative_fisher,
    tail_slope,
    verify_decay_bound,
)
from graphfpe import rate_analysis
from graphfpe.cli import main
from helpers import (
    bare_model,
    corner_starts,
    interior_density,
    k3,
    path2,
    random_connected_graph,
    random_convex_model,
    rel_err,
    three_well_recipe,
)

UNIFORM2 = Density([0.5, 0.5])
UNIFORM3 = Density([1 / 3, 1 / 3, 1 / 3])


def test_relative_entropy_examples():
    m = bare_model(2)
    assert relative_entropy(m, UNIFORM2, UNIFORM2) == 0.0
    expected = (0.9 * math.log(0.9) + 0.1 * math.log(0.1)) + math.log(2.0)
    assert relative_entropy(m, Density([0.9, 0.1]), UNIFORM2) == pytest.approx(
        expected, rel=1e-12
    )


def test_relative_entropy_equals_kl_when_no_interaction():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        V = rng.uniform(-1.0, 1.0, size=n)
        model = EnergyModel(np.zeros((n, n)), V, 1.0)
        rho_inf = gibbs_fixed_point(model, interior_density(rng, n), tol=1e-14).density
        rho = interior_density(rng, n)
        kl = float(np.sum(rho.values * np.log(rho.values / rho_inf.values)))
        assert rel_err(relative_entropy(model, rho, rho_inf), kl) <= 1e-10


def test_relative_fisher_examples():
    m = bare_model(2)
    g = path2()
    rho_inf = UNIFORM2
    assert relative_fisher(m, g, rho_inf, rho_inf) <= 1e-15
    assert relative_fisher(m, g, Density([0.9, 0.1]), rho_inf) == pytest.approx(
        (math.log(9.0) ** 2) / 2.0, rel=1e-13
    )


def test_relative_fisher_matches_edge_sum_and_dissipation():
    rng = np.random.default_rng(1)
    from graphfpe import edge_thetas

    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 8)))
        n = g.node_count
        V = rng.uniform(-1.0, 1.0, size=n)
        A = rng.normal(0.0, 0.2, size=(n, n))
        model = EnergyModel(0.5 * (A + A.T), V, 1.0)
        rho = interior_density(rng, n)
        got = relative_fisher(model, g, rho)
        assert got == -dissipation(model, g, rho)
        # explicit log-form edge sum at beta = 1
        drift = model.interaction @ rho.values + V
        logits = np.log(rho.values) + drift
        th = edge_thetas(g, rho)
        edge_sum = sum(
            w * (logits[i] - logits[j]) ** 2 * th[e]
            for e, (i, j, w) in enumerate(g.edges)
        )
        assert rel_err(got, edge_sum) <= 1e-12


def canonical_report():
    return rate_constants(bare_model(2), path2(), Density([0.9, 0.1]))


def test_rate_constants_canonical_values():
    # frozen from an independent hand evaluation of every constant
    rep = canonical_report()
    assert rep.m == pytest.approx(0.05, rel=1e-12)
    assert rep.lambda_sec_hat == pytest.approx(2.0, rel=1e-12)
    assert rep.lambda_max_hat == pytest.approx(2.0, rel=1e-12)
    assert rep.lambda_min_hess == pytest.approx(1.0, rel=1e-12)
    assert rep.hess_norm1 == pytest.approx(20.0, rel=1e-12)
    assert rep.delta_F == pytest.approx(0.3680642071684971, rel=1e-12)
    assert rep.C1 == pytest.approx(0.5433834534973988, rel=1e-12)
    assert rep.C2 == pytest.approx(0.2, rel=1e-12)
    assert rep.C3 == pytest.approx(760.0 * math.sqrt(2.0), rel=1e-12)
    assert rep.r == pytest.approx(3260.321196297413, rel=1e-12)
    assert rep.C == pytest.approx(1.8803679901416788e-08, rel=1e-11)


def test_rate_constants_second_start():
    rep = rate_constants(bare_model(2), path2(), Density([0.6, 0.4]))
    assert rep.m == pytest.approx(1.0 / 6.0, rel=1e-13)
    for value in (rep.C1, rep.C2, rep.C3, rep.r, rep.C, rep.x_star):
        assert math.isfinite(value) and value > 0


def test_rate_constants_theorem_algebra_on_random_models():
    rng = np.random.default_rng(2)
    count = 0
    while count < 10:
        n = int(rng.integers(2, 7))
        g = random_connected_graph(rng, n)
        model = random_convex_model(rng, n)
        rho0 = interior_density(rng, n)
        rep = rate_constants(model, g, rho0)
        r_alt = rep.C3 / math.sqrt(rep.C1 * rep.C2)
        assert rel_err(rep.r, r_alt) <= 1e-9
        assert rel_err(rep.C, rep.C2 / (r_alt + 1.0) ** 2) <= 1e-9
        # x* solves C1 x + C3 sqrt(x) = C2 (checked in the cancellation-free
        # arrangement; C2 - C3 sqrt(x*) wipes out in floats when C3 is huge)
        assert rel_err(rep.C1 * rep.x_star + rep.C3 * math.sqrt(rep.x_star), rep.C2) <= 1e-9
        # the closed-form C lower-bounds the max-min value C1 x*
        assert rep.C <= rep.C1 * rep.x_star * (1.0 + 1e-6)
        count += 1


def test_rate_constants_requires_convexity_and_interior():
    with pytest.raises(NotCertifiedConvex):
        rate_constants(EnergyModel(-3.0 * np.eye(2), np.zeros(2), 1.0), path2(), UNIFORM2)
    from graphfpe import BoundaryDensity

    with pytest.raises(BoundaryDensity):
        rate_constants(bare_model(2), path2(), Density([1.0, 0.0]))


def test_rate_constants_at_equilibrium_start():
    rep = rate_constants(bare_model(2), path2(), UNIFORM2)
    assert rep.delta_F == 0.0
    assert rep.r == 0.0
    assert rep.C == pytest.approx(rep.C2)
    assert math.isinf(rep.C1)


def test_verify_decay_bound_holds_and_inflated_fails():
    rep = canonical_report()
    traj = integrate(bare_model(2), path2(), Density([0.9, 0.1]), 8.0, record_every=1)
    check = verify_decay_bound(traj.times, traj.energy, rep)
    assert check.holds
    assert check.max_violation <= 1e-9

    inflated = dataclasses.replace(rep, C=rep.C * 1e9)
    assert not verify_decay_bound(traj.times, traj.energy, inflated).holds


def test_verify_decay_bound_constant_trajectory():
    model = bare_model(2)
    rep = rate_constants(model, path2(), UNIFORM2)
    traj = integrate(model, path2(), UNIFORM2, 1.0, record_every=1)
    check = verify_decay_bound(traj.times, traj.energy, rep)
    assert check.holds


def test_asymptotic_rate_canonical():
    assert asymptotic_rate(bare_model(2), path2(), UNIFORM2) == pytest.approx(2.0, abs=1e-10)
    assert asymptotic_rate(bare_model(3), k3(), UNIFORM3) == pytest.approx(3.0, abs=1e-10)


def test_asymptotic_rate_nonpositive_hessian():
    m = EnergyModel(-3.0 * np.eye(2), np.zeros(2), 1.0)
    with pytest.raises(NonPositiveHessian):
        asymptotic_rate(m, path2(), UNIFORM2)


def test_hessian_quadratic_rate_hand_value():
    # L has tangent eigenvalue 1; H = diag(1/0.9, 1/0.1); single generalized
    # eigenvalue = (LHL quadratic form) / (L quadratic form) = 50/9
    lam = hessian_quadratic_rate(bare_model(2), path2(), Density([0.9, 0.1]))
    assert lam == pytest.approx(50.0 / 9.0, rel=1e-12)


def test_hessian_quadratic_rate_agrees_at_equilibrium():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        g = random_connected_graph(rng, n)
        model = random_convex_model(rng, n)
        rho_inf = gibbs_fixed_point(model, interior_density(rng, n), tol=1e-14).density
        a = asymptotic_rate(model, g, rho_inf)
        b = hessian_quadratic_rate(model, g, rho_inf)
        assert abs(a - b) <= 1e-10 * max(1.0, a)
        assert b > 0


def test_linearized_rate_matches_asymptotic_when_pd():
    rng = np.random.default_rng(4)
    for n in (2, 4, 7):
        model = random_convex_model(rng, n)
        g = random_connected_graph(rng, n)
        rho_inf = gibbs_fixed_point(model, interior_density(rng, n), tol=1e-14).density
        assert linearized_rate(model, g, rho_inf) == asymptotic_rate(model, g, rho_inf)


def test_linearized_rate_nonconvex_wells_and_saddle():
    m = EnergyModel(-3.0 * np.eye(2), np.zeros(2), 1.0)
    well = gibbs_fixed_point(m, Density([0.9, 0.1]), tol=1e-13).density
    # tangent rate: L tangent eigenvalue is 1 (theta = 1/2), times sigma^T H sigma / 2
    h = -3.0 + 1.0 / well.values
    expected = (h[0] + h[1]) / 2.0
    assert linearized_rate(m, path2(), well) == pytest.approx(expected, rel=1e-10)
    assert linearized_rate(m, path2(), UNIFORM2) == pytest.approx(-1.0, rel=1e-10)


def test_fisher_rate_doubles_asymptotic_for_symmetric():
    assert fisher_rate(bare_model(2), path2(), UNIFORM2) == pytest.approx(4.0, abs=1e-10)
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        g = random_connected_graph(rng, n)
        model = random_convex_model(rng, n)
        rho_inf = gibbs_fixed_point(model, interior_density(rng, n), tol=1e-14).density
        assert abs(
            fisher_rate(model, g, rho_inf) - 2.0 * asymptotic_rate(model, g, rho_inf)
        ) <= 1e-10


def test_equilibrium_rates_equal_the_single_rate_functions_bit_for_bit():
    rng = np.random.default_rng(6)
    for n in (2, 4, 7):
        model = random_convex_model(rng, n)
        g = random_connected_graph(rng, n)
        rho_inf = gibbs_fixed_point(model, interior_density(rng, n), tol=1e-14).density
        expected = (asymptotic_rate(model, g, rho_inf), True, 2.0 * asymptotic_rate(model, g, rho_inf))
        assert equilibrium_rates(model, g, rho_inf) == expected
        assert equilibrium_rates(model, g, rho_inf, strict=False) == expected
    m = EnergyModel(-3.0 * np.eye(2), np.zeros(2), 1.0)
    assert equilibrium_rates(m, path2(), UNIFORM2, strict=False) == (linearized_rate(m, path2(), UNIFORM2), False, None)
    with pytest.raises(NonPositiveHessian):
        equilibrium_rates(m, path2(), UNIFORM2)


def test_equilibrium_rates_out_of_float_range_raise_no_convergence():
    # the rate, about 1e24 * 1e300, overflows: N underflows to 0
    huge = EnergyModel(np.zeros((2, 2)), np.zeros(2), 1e300)
    with pytest.raises(NoConvergence, match="float range"):
        equilibrium_rates(huge, build_graph(2, [(1, 2, 1e24)]), UNIFORM2)
    # a 1e-206 bottleneck at beta 1e-206: the rate is ~1e-412 and N overflows
    tiny = EnergyModel(np.zeros((4, 4)), np.zeros(4), 1e-206)
    star = build_graph(4, [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1e-206)])
    with pytest.raises(NoConvergence, match="float range"):
        equilibrium_rates(tiny, star, Density(np.full(4, 0.25)))
    # beta / rho overflows in Hess F itself
    with np.errstate(over="ignore"), pytest.raises(NoConvergence, match="Hess F leaves the float range"):
        equilibrium_rates(EnergyModel(np.zeros((2, 2)), np.zeros(2), 1e300), path2(), Density([1.0 - 1e-10, 1e-10]))


def test_fisher_rate_rejects_indefinite_jacobian():
    m = EnergyModel(-3.0 * np.eye(2), np.zeros(2), 1.0)
    with pytest.raises(NonPositiveSymmetrizedJacobian):
        fisher_rate(m, path2(), UNIFORM2)


def test_only_the_schur_complement_sees_an_indefinite_hessian():
    # on the simplex W = -5 11^T adds a constant to F: the tangent block is 3 I, but rho^T Hess F rho = -4
    model = EnergyModel(-5.0 * np.ones((3, 3)), np.zeros(3), 1.0)
    path3 = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
    lam, positive, lam_fisher = equilibrium_rates(model, path3, UNIFORM3, strict=False)
    assert lam == pytest.approx(1.0, rel=1e-12)
    assert (positive, lam_fisher) == (False, None)
    with pytest.raises(NonPositiveHessian, match="Hess F is not positive definite"):
        equilibrium_rates(model, path3, UNIFORM3)
    with pytest.raises(NonPositiveSymmetrizedJacobian, match="symmetrized Jacobian is not positive definite"):
        fisher_rate(model, path3, UNIFORM3)


def test_an_indefinite_hessian_is_refused_before_n_leaves_the_float_range():
    # the 1e-206 bottleneck at beta 1e-206 overflows N; with Hess F = -1e-206 I the sign is decided first
    star = build_graph(4, [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1e-206)])
    model = EnergyModel(-5e-206 * np.eye(4), np.zeros(4), 1e-206)
    uniform = Density(np.full(4, 0.25))
    with pytest.raises(NonPositiveHessian):
        equilibrium_rates(model, star, uniform)
    with pytest.raises(NonPositiveSymmetrizedJacobian):
        fisher_rate(model, star, uniform)
    with pytest.raises(NoConvergence, match="float range"):
        equilibrium_rates(model, star, uniform, strict=False)


def test_tail_slope_recovers_known_exponential():
    t = np.linspace(0.0, 5.0, 200)
    v = 3.0 * np.exp(-1.7 * t)
    assert tail_slope(t, v, min_value=1e-30) == pytest.approx(-1.7, rel=1e-10)
    with pytest.raises(ValueError):
        tail_slope(t, np.full_like(t, 1e-20))


def test_lsi_ratio_near_equilibrium_matches_quadratic_form():
    # Taylor: H ~ 2 delta^2, I ~ 8 delta^2, so I/(2H) -> 2 on this model
    model = bare_model(2)
    g = path2()
    d = 1e-3
    rho = Density([0.5 + d, 0.5 - d])
    ratio = relative_fisher(model, g, rho) / (2.0 * relative_entropy(model, rho, UNIFORM2))
    assert abs(ratio - 2.0) <= 0.02 * 2.0


def test_lsi_estimate_deterministic_and_bounding():
    model = bare_model(2)
    g = path2()
    a = estimate_lsi_constant(model, g, UNIFORM2, count=2000, seed=7)
    b = estimate_lsi_constant(model, g, UNIFORM2, count=2000, seed=7)
    assert a.lambda_hat == b.lambda_hat
    assert np.array_equal(a.worst_density.values, b.worst_density.values)
    # by construction every retained sample satisfies H <= I/(2 lambda_hat)
    gap = relative_entropy(model, a.worst_density, UNIFORM2)
    fisher = relative_fisher(model, g, a.worst_density)
    assert gap <= fisher / (2.0 * a.lambda_hat) * (1.0 + 1e-12)


def test_lsi_estimate_matches_per_sample_loop():
    rng = np.random.default_rng(6)
    n, count, seed, min_mass = 6, 700, 11, 0.02
    model = random_convex_model(rng, n)
    g = random_connected_graph(rng, n)
    rho_inf = gibbs_fixed_point(model, Density(np.full(n, 1.0 / n)), tol=1e-14).density
    est = estimate_lsi_constant(model, g, rho_inf, count=count, seed=seed, min_mass=min_mass)

    # reference: the documented sampling recipe, one validated sample at a time
    draw_rng = np.random.default_rng(seed)
    draws = draw_rng.dirichlet(np.ones(n), size=count)
    kept = draws[draws.min(axis=1) >= min_mass]
    fill = min_mass + (1.0 - n * min_mass) * draw_rng.dirichlet(np.ones(n), size=count - len(kept))
    r = rho_inf.values
    size = abs(r @ model.interaction @ r / 2) + abs(model.potential @ r) + model.beta * abs(np.sum(r * np.log(r)))
    retained = 0
    for x in np.concatenate([kept, fill]):
        retained += relative_entropy(model, Density(x), rho_inf) >= 1e-12 * size
    assert est.samples_retained == retained

    worst = est.worst_density
    ratio = relative_fisher(model, g, worst) / (2.0 * relative_entropy(model, worst, rho_inf))
    assert rel_err(est.lambda_hat, ratio) <= 1e-12


def test_lsi_estimate_blocked_equals_unblocked(monkeypatch):
    rng = np.random.default_rng(7)
    model = random_convex_model(rng, 5)
    g = random_connected_graph(rng, 5)
    rho_inf = gibbs_fixed_point(model, Density(np.full(5, 0.2)), tol=1e-14).density
    blocked = estimate_lsi_constant(model, g, rho_inf, count=1000, seed=3)
    monkeypatch.setattr(rate_analysis, "_LSI_BLOCK", 1000)
    whole = estimate_lsi_constant(model, g, rho_inf, count=1000, seed=3)
    assert blocked.lambda_hat == whole.lambda_hat
    assert np.array_equal(blocked.worst_density.values, whole.worst_density.values)
    assert blocked.samples_retained == whole.samples_retained


def test_lsi_estimate_tight_min_mass_returns_quickly():
    # only a 1e-9 share of flat Dirichlet draws has every coordinate >= 0.09
    # on 10 nodes; the estimate must not wait for them
    rng = np.random.default_rng(4)
    model = random_convex_model(rng, 10)
    g = random_connected_graph(rng, 10)
    rho_inf = gibbs_fixed_point(model, Density(np.full(10, 0.1)), tol=1e-13).density
    started = time.perf_counter()
    est = estimate_lsi_constant(model, g, rho_inf, count=300, seed=5, min_mass=0.09)
    assert time.perf_counter() - started < 5.0
    assert float(est.worst_density.values.min()) >= 0.09
    assert est.samples_retained == 300
    assert est.lambda_hat > 0


def test_rate_constants_vacuous_certificate():
    # 40-node ring: the floor m ~ 5e-51 makes (r + 1)^2 overflow
    rng = np.random.default_rng(40)
    n = 40
    A = rng.normal(0.0, 0.35, size=(n, n)) / np.sqrt(n)
    model = EnergyModel(0.5 * (A + A.T), rng.uniform(-1.0, 1.0, n), 1.0)
    ring = build_graph(n, [(i + 1, (i + 1) % n + 1, 1.0) for i in range(n)])
    x = 0.5 / n + 0.5 * rng.dirichlet(np.ones(n))
    with pytest.raises(VacuousCertificate, match="vacuous"):
        rate_constants(model, ring, Density(x / x.sum()))
    # pure-entropy paths, where m = 3^-(n-2) min(1/3, min rho0) / 2: at n = 420
    # m ~ 1e-203 and m^2 underflows, at n = 700 m itself underflows to 0
    for n in (420, 700):
        path = build_graph(n, [(i, i + 1, 1.0) for i in range(1, n)])
        x = np.linspace(1.0, 2.0, n)
        with pytest.raises(VacuousCertificate, match="vacuous"):
            rate_constants(bare_model(n), path, Density(x / x.sum()))


def test_lsi_estimate_requires_convexity():
    m = EnergyModel(-3.0 * np.eye(2), np.zeros(2), 1.0)
    with pytest.raises(NotCertifiedConvex):
        estimate_lsi_constant(m, path2(), UNIFORM2, count=10, seed=0)


def test_theorem4_bound_conservative_vs_observed():
    # observed decay rate dominates the certified constant C
    rep = canonical_report()
    traj = integrate(
        bare_model(2), path2(), Density([0.9, 0.1]), 5.0, record_every=1,
        rel_tol=1e-10, abs_tol=1e-13,
    )
    slope = tail_slope(traj.times, traj.energy - rep.f_inf)
    assert -slope >= rep.C


def mp_tangent_rate(mpmath, graph, model, rho):
    """Smallest tangent eigenvalue of L(rho) Hess F(rho) in 50-digit arithmetic from the float inputs.

    The tangent eigenvalues are real (L H is similar to L^1/2 H L^1/2); the
    one of least modulus, the zero of the constants, is dropped.
    """
    with mpmath.workdps(50):
        n = graph.node_count
        L = mpmath.zeros(n, n)
        for i, j, w in graph.edges:
            c = mpmath.mpf(w) * (mpmath.mpf(rho[i]) + mpmath.mpf(rho[j])) / 2
            L[i, i] += c
            L[j, j] += c
            L[i, j] -= c
            L[j, i] -= c
        H = mpmath.matrix(model.interaction.tolist())
        for i in range(n):
            H[i, i] += mpmath.mpf(model.beta) / mpmath.mpf(rho[i])
        eigenvalues = sorted(mpmath.eig(L * H, left=False, right=False), key=abs)[1:]
        return float(min(mpmath.re(z) for z in eigenvalues))


def test_linearized_rate_matches_mpmath_near_the_boundary():
    # three-well equilibria (min rho 5e-16 to 1e-15), a saddle between two of
    # the wells and densities with two wells emptied to 1e-25..1e-18; the
    # eigendecomposition of L(rho) got these wrong by up to 14%, or the sign
    mpmath = pytest.importorskip("mpmath")
    graph, model = three_well_recipe()
    n = graph.node_count
    equilibria = find_all_equilibria(model, corner_starts(n), tol=1e-13, max_iter=500_000)
    assert len(equilibria) == 3
    cases = [(model, eq.density) for eq in equilibria]

    W = np.zeros((n, n))
    for b in range(0, n, 4):
        W[b : b + 4, b : b + 4] = -13.5
    even = EnergyModel(W, np.zeros(n), 0.25)
    x = np.ones(n)
    x[8:] = 1e-6
    cases.append((even, gibbs_fixed_point(even, Density(x / x.sum()), tol=1e-14, max_iter=500_000).density))

    rng = np.random.default_rng(3)
    for b in range(0, n, 4):
        x = rng.uniform(0.5, 1.5, n)
        empty = np.r_[0:b, b + 4 : n]
        x[empty] *= 10.0 ** rng.uniform(-25.0, -18.0, empty.size)
        cases.append((model, Density(x / x.sum())))

    signs = []
    for m, rho in cases:
        ref = mp_tangent_rate(mpmath, graph, m, rho.values)
        got = linearized_rate(m, graph, rho)
        assert np.sign(got) == np.sign(ref)
        assert rel_err(got, ref) <= 1e-10
        signs.append(np.sign(ref))
    # the saddle is unstable, the other six are stable
    assert signs == [1, 1, 1, -1, 1, 1, 1]


def test_rates_equilibrium_cli_matches_mpmath(tmp_path):
    mpmath = pytest.importorskip("mpmath")
    graph, model = three_well_recipe()
    config = {
        "graph": {"n": graph.node_count, "edges": [[i + 1, j + 1, w] for i, j, w in graph.edges]},
        "model": {"beta": model.beta, "V": model.potential.tolist(), "W": model.interaction.tolist()},
        "rates": {"rho0": np.full(graph.node_count, 1.0 / graph.node_count).tolist()},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "out"), "--equilibrium"]) == 0
    entries = json.loads((tmp_path / "out" / "rates.json").read_text())["equilibria"]
    assert len(entries) == 3
    for entry in entries:
        ref = mp_tangent_rate(mpmath, graph, model, np.array(entry["density"]))
        assert np.sign(entry["lambda_asymptotic"]) == np.sign(ref)
        assert rel_err(entry["lambda_asymptotic"], ref) <= 1e-10
