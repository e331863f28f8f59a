"""Acceptance suite: one test per published criterion, run at the stated
tolerances, each printing a pass line. Shared canonical setups live at module
scope so the stated runtime budgets are measured per criterion."""

import hashlib
import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from graphfpe import (
    Density,
    EnergyModel,
    Potential,
    VectorField,
    asymptotic_rate,
    divergence,
    energy,
    estimate_lsi_constant,
    fisher_rate,
    gibbs_fixed_point,
    graph_gradient,
    graph_laplacian,
    inner_product,
    integrate,
    invariant_region,
    rate_constants,
    relative_fisher,
    symmetric_eigen,
    tail_slope,
    verify_decay_bound,
    w2_distance,
    w2_metric_checks,
    weighted_laplacian,
)
from graphfpe.cli import main as cli_main
from helpers import (
    bare_model,
    interior_density,
    k3,
    path2,
    random_connected_graph,
    random_convex_model,
)


def ok(num: int, message: str) -> None:
    print(f"[acceptance] criterion {num}: PASS — {message}")


def test_criterion_1_calculus_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        rho = interior_density(rng, g.node_count, floor=0.0)
        v = VectorField(g, rng.standard_normal(g.edge_count))
        phi = Potential(rng.standard_normal(g.node_count))
        div = divergence(g, rho, v)
        lhs = -float(div.values @ phi.values)
        rhs = inner_product(v, graph_gradient(g, phi), rho)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
        total = float(div.values.sum())
        assert abs(total) <= 1e-12 * max(1.0, float(np.abs(div.values).sum()))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    ok(1, f"integration by parts + zero-sum divergence on 100 instances ({elapsed:.2f}s)")


def test_criterion_2_hodge_decomposition():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    from graphfpe import hodge_decompose

    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        rho = interior_density(rng, g.node_count)
        v = VectorField(g, rng.standard_normal(g.edge_count))
        phi, u = hodge_decompose(g, rho, v)
        assert np.max(np.abs(divergence(g, rho, u).values)) <= 1e-10
        total = inner_product(v, v, rho)
        grad = graph_gradient(g, phi)
        parts = inner_product(grad, grad, rho) + inner_product(u, u, rho)
        assert abs(total - parts) <= 1e-10 * max(1.0, abs(total))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    ok(2, f"divergence-free remainder + Pythagoras on 50 instances ({elapsed:.2f}s)")


def test_criterion_3_eigenvalue_sandwich():
    rng = np.random.default_rng(103)
    slack = 1e-10
    hat_cache = {}
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 13)))
        if g not in hat_cache:
            hat_cache[g] = symmetric_eigen(graph_laplacian(g)).eigenvalues
        hat = hat_cache[g]
        rho = interior_density(rng, g.node_count, floor=0.005)
        lam = weighted_laplacian(g, rho).spectrum.eigenvalues
        lo, hi = float(rho.values.min()), float(rho.values.max())
        assert hat[1] * lo <= lam[1] + slack
        assert lam[1] <= lam[-1] + slack
        assert lam[-1] <= hi * hat[-1] + slack
        assert 1.0 / (hi * hat[-1]) <= 1.0 / lam[-1] + slack
        assert 1.0 / lam[-1] <= 1.0 / lam[1] + slack
        assert 1.0 / lam[1] <= 1.0 / (lo * hat[1]) + slack
    ok(3, "all four sandwich inequalities on 100 random interior densities")


def _dynamics_runs():
    """Criterion-4 runs, reused by criterion 5: per model, a stitched recorded
    trajectory integrated until the dissipation magnitude drops below 1e-13."""
    rng = np.random.default_rng(104)
    runs = []
    for _ in range(20):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n)
        model = random_convex_model(rng, n)
        rho0 = interior_density(rng, n)
        region = invariant_region(model, g, rho0)
        gibbs = gibbs_fixed_point(model, rho0, tol=1e-13, max_iter=500_000)

        times, energies, masses, minima = [0.0], [energy(model, rho0)], [1.0], []
        minima.append(float(rho0.values.min()))
        state, offset, reached = rho0, 0.0, False
        for _chunk in range(24):
            traj = integrate(model, g, state, 8.0, record_every=10)
            times.extend((offset + t) for t in traj.times[1:])
            energies.extend(traj.energy[1:])
            masses.extend(float(d.values.sum()) for d in traj.densities[1:])
            minima.extend(float(d.values.min()) for d in traj.densities[1:])
            offset += traj.times[-1]
            state = traj.final_density
            if abs(traj.dissipation[-1]) < 1e-13:
                reached = True
                break
        assert reached, "dissipation floor not reached within the time budget"
        runs.append(
            SimpleNamespace(
                graph=g,
                model=model,
                rho0=rho0,
                region=region,
                gibbs=gibbs,
                times=np.asarray(times),
                energies=np.asarray(energies),
                masses=np.asarray(masses),
                minima=np.asarray(minima),
                final=state,
            )
        )
    return runs


RUNS = None


def get_runs():
    global RUNS
    if RUNS is None:
        RUNS = _dynamics_runs()
    return RUNS


def test_criterion_4_dynamics():
    started = time.perf_counter()
    runs = get_runs()
    for run in runs:
        assert np.max(np.abs(run.masses - 1.0)) <= 1e-12
        assert np.min(run.minima) >= run.region.m - 1e-12
        assert np.all(np.diff(run.energies) <= 1e-9)
        gap = float(np.max(np.abs(run.final.values - run.gibbs.density.values)))
        assert gap <= 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.2f}s"
    ok(4, f"mass/floor/monotonicity/convergence on 20 convex models ({elapsed:.2f}s)")


def _canonical_constants_oracle():
    """Standalone recomputation of every Theorem-style constant for the
    canonical 2-node model (w=1, W=0, V=0, beta=1, rho0=(0.9, 0.1)) from
    plain math, independent of the library."""
    n, beta = 2, 1.0
    M = math.exp(0.0)
    c = 1.0 / (1.0 + (2.0 * M) ** (1.0 / beta))
    m = 0.5 * c ** (n - 2) * min(c, 0.1)
    lam_sec = lam_max = 2.0
    lam_min_hess = beta
    f0 = 0.9 * math.log(0.9) + 0.1 * math.log(0.1)
    delta_f = f0 + math.log(2.0)
    hess1 = beta / m
    deg, max_w = 1, 1.0
    C1 = 2 * m * lam_sec * lam_min_hess / delta_f
    C2 = 2 * m * lam_sec * lam_min_hess
    C3 = 2 * math.sqrt(2) * deg * max_w * hess1 / math.sqrt(lam_min_hess) * (1 - m) / m * lam_max / lam_sec
    r = (
        math.sqrt(2) * deg * max_w * hess1 / lam_min_hess**1.5
        * (1 - m) / m**2 * lam_max / lam_sec**2 * math.sqrt(delta_f)
    )
    C = 2 * m * lam_sec * lam_min_hess / (r + 1.0) ** 2
    return SimpleNamespace(m=m, C1=C1, C2=C2, C3=C3, r=r, C=C, delta_F=delta_f)


def test_criterion_5_theorem4_bound():
    runs = get_runs()
    for run in runs:
        report = rate_constants(run.model, run.graph, run.rho0)
        check = verify_decay_bound(run.times, run.energies, report)
        assert check.holds, f"decay bound violated by {check.max_violation:.3e}"

    oracle = _canonical_constants_oracle()
    report = rate_constants(bare_model(2), path2(), Density([0.9, 0.1]))
    for name in ("m", "C1", "C2", "C3", "r", "C", "delta_F"):
        got = getattr(report, name)
        want = getattr(oracle, name)
        assert abs(got - want) <= 1e-9 * abs(want), (name, got, want)
    # the published approximate citations
    assert report.m == 0.05
    assert abs(report.C2 - 0.2) <= 1e-12
    assert abs(report.C - 1.88e-8) <= 0.01e-8
    ok(5, "decay bound on all 20 runs + canonical constants vs standalone oracle")


def test_criterion_6_asymptotic_rate_sharpness():
    started = time.perf_counter()
    model2, g2 = bare_model(2), path2()
    model3, g3 = bare_model(3), k3()
    lam2 = asymptotic_rate(model2, g2, Density([0.5, 0.5]))
    lam3 = asymptotic_rate(model3, g3, Density([1 / 3, 1 / 3, 1 / 3]))
    assert abs(lam2 - 2.0) <= 1e-10
    assert abs(lam3 - 3.0) <= 1e-10

    traj2 = integrate(model2, g2, Density([0.9, 0.1]), 5.0, record_every=1,
                      rel_tol=1e-10, abs_tol=1e-13)
    slope2 = tail_slope(traj2.times, traj2.energy + math.log(2.0))
    assert 2 * 0.95 * lam2 <= -slope2 <= 2 * 1.05 * lam2, slope2

    traj3 = integrate(model3, g3, Density([0.6, 0.3, 0.1]), 3.2, record_every=1,
                      rel_tol=1e-10, abs_tol=1e-13)
    slope3 = tail_slope(traj3.times, traj3.energy + math.log(3.0))
    assert 2 * 0.95 * lam3 <= -slope3 <= 2 * 1.05 * lam3, slope3
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 6 took {elapsed:.2f}s"
    ok(6, f"lambda exactly 2 and 3; observed slopes {-slope2:.3f}, {-slope3:.3f} ({elapsed:.2f}s)")


def test_criterion_7_fisher_rate():
    # symmetric interaction: the Fisher rate doubles the asymptotic rate
    rng = np.random.default_rng(107)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        g = random_connected_graph(rng, n)
        model = random_convex_model(rng, n)
        rho_inf = gibbs_fixed_point(model, interior_density(rng, n), tol=1e-14).density
        assert abs(fisher_rate(model, g, rho_inf) - 2.0 * asymptotic_rate(model, g, rho_inf)) <= 1e-10

    # non-symmetric perturbation: observe the Fisher-information decay.
    # The true tail exponent equals lambda itself (the symmetrized-Jacobian
    # rate already carries the factor 2: linearization decays at lambda/2 and
    # the quadratic functional at 2 * lambda/2); the bound is checked with
    # the 10% slack against that exponent. See the decisions ledger for why
    # the doubled reading is unattainable.
    g2 = path2()
    model_ns = EnergyModel(np.array([[0.0, 0.1], [0.0, 0.0]]), np.zeros(2), 1.0)
    rho_inf = gibbs_fixed_point(model_ns, Density([0.5, 0.5]), tol=1e-13).density
    lam = fisher_rate(model_ns, g2, rho_inf)
    traj = integrate(model_ns, g2, Density([0.9, 0.1]), 2.8, record_every=1,
                     rel_tol=1e-10, abs_tol=1e-13)
    slope = tail_slope(traj.times, -traj.dissipation)
    half = lam / 2.0
    assert slope <= -2.0 * (half - 0.1 * half), (slope, lam)
    assert abs(-slope - lam) <= 0.1 * lam
    ok(7, f"fisher = 2*asymptotic; observed Fisher slope {slope:.3f} vs lambda {lam:.3f}")


def test_criterion_8_log_sobolev_validation():
    model, g = bare_model(2), path2()
    rho_inf = Density([0.5, 0.5])
    count = 10_000
    est = estimate_lsi_constant(model, g, rho_inf, count=count, seed=1, min_mass=1e-4)

    f_inf = energy(model, rho_inf)

    def gap_rounding(f: float) -> float:
        # Bound on the rounding of a computed gap F(rho) - F_inf on this model,
        # where F = sum_i rho_i log rho_i exactly (W = 0, V = 0, beta = 1). With
        # log accurate to 4 ulp, each term rho_i log rho_i is within 4.5 eps of
        # itself; both terms are <= 0, so their sum is within 5 eps |F|. The gap
        # adds eps/2 |gap| <= eps/2 max(|F|, |F_inf|) (F_inf is the minimum and
        # F <= 0). In all: 10.5 eps max(|F|, |F_inf|), rounded up to 16 for the
        # second-order terms. A 40-digit mpmath check of 10^4 such draws found at
        # most 1.15.
        return 16.0 * np.finfo(float).eps * max(abs(f), abs(f_inf))

    # The infimum of fisher / (2 gap) on this model is 2, approached at rho_inf.
    # lambda_hat is that ratio at its worst sample, whose gap is tiny: a gap
    # error of at most delta moves the ratio by at most the factor 1 - delta / gap.
    # The fisher term's own rounding there is relative and orders smaller.
    f_worst = energy(model, est.worst_density)
    assert est.lambda_hat >= 2.0 * (1.0 - gap_rounding(f_worst) / (f_worst - f_inf))

    # fresh validation set, same distribution, different seed; a violation is a
    # gap above fisher / (2 lambda_hat) by more than the gap's rounding
    rng = np.random.default_rng(0)
    violations = 0
    drawn = 0
    while drawn < count:
        x = rng.dirichlet(np.ones(2))
        if float(x.min()) < 1e-4:
            continue
        drawn += 1
        rho = Density(x)
        f = energy(model, rho)
        gap = f - f_inf
        if gap < 1e-12:
            continue
        fisher = relative_fisher(model, g, rho)
        if gap - fisher / (2.0 * est.lambda_hat) > gap_rounding(f):
            violations += 1
    assert violations == 0
    ok(8, f"lambda_hat {est.lambda_hat:.9f} valid on 10^4 fresh samples, zero violations")


def test_criterion_9_wasserstein_distance():
    started = time.perf_counter()
    rho0, rho1 = Density([0.5, 0.5]), Density([0.9, 0.1])
    res = w2_distance(path2(), rho0, rho1, K=32)
    closed = math.sqrt(2.0) * 0.4
    assert res.converged
    assert abs(res.distance - closed) <= 1e-4 * closed

    rng = np.random.default_rng(109)
    triples = [
        (interior_density(rng, 3), interior_density(rng, 3), interior_density(rng, 3))
        for _ in range(10)
    ]
    report = w2_metric_checks(k3(), triples, rel_tol=1e-3, K=8, grad_tol=1e-6)
    assert report.symmetry_ok
    assert report.triangle_ok
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 9 took {elapsed:.2f}s"
    ok(9, f"closed form at K=32 + 10 random K3 triples ({elapsed:.2f}s)")


CLI_CONFIG = {
    "graph": {"n": 2, "edges": [[1, 2, 1.0]]},
    "model": {"beta": 1.0},
    "gibbs": {"tol": 1e-12},
    "simulate": {"rho0": [0.9, 0.1], "t_end": 5.0, "record_every": 5},
    "rates": {"rho0": [0.9, 0.1]},
    "lsi": {"count": 400},
    "w2": {"rho0": [0.5, 0.5], "rho1": [0.9, 0.1], "K": 16, "path_csv": True},
    "decompose": {"rho": [0.9, 0.1], "field": [[1, 2, 1.0]]},
    "seed": 5,
}


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CLI_CONFIG))
    digests = []
    for label in ("first", "second"):
        out = tmp_path / label
        for cmd in ("gibbs", "simulate", "rates", "lsi", "w2", "decompose"):
            code = cli_main([cmd, "--config", str(cfg), "--out", str(out), "--seed", "5"])
            assert code == 0, cmd
        h = hashlib.sha256()
        for f in sorted(Path(out).iterdir()):
            h.update(f.name.encode())
            h.update(f.read_bytes())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]
    ok(10, "byte-identical outputs for all six subcommands on rerun")
