"""The argument contract, on every public function that takes a graph or a model with node vectors.

A density, tangent vector, potential, model or graph of another size raises
DimensionMismatch; a boundary density where an interior one is needed
raises BoundaryDensity. Each case changes exactly one argument of a call
that succeeds as given.
"""

import inspect
import sys

import numpy as np
import pytest

import graphfpe as g
from graphfpe import BoundaryDensity, Density, DimensionMismatch, EnergyModel, TangentVector
from helpers import k3, path2

A = Density([0.5, 0.3, 0.2])
B = Density([0.2, 0.3, 0.5])
C = Density([0.3, 0.4, 0.3])
SHORT = Density([0.5, 0.5])  # two nodes where three are expected
EMPTY_NODE = Density([0.5, 0.5, 0.0])


def model(n: int) -> EnergyModel:
    """A certified-convex model: W = 0, V = (0, 0.1, ...), beta 1."""
    return EnergyModel(np.zeros((n, n)), 0.1 * np.arange(n), 1.0)


def ring4():
    return g.build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)])


def field(graph):
    return g.VectorField(graph, np.arange(1.0, graph.edge_count + 1.0))


# name -> (call(graph, model, **args), args, the args that must be interior, takes a graph, takes a model)
ENTRY_POINTS = {
    "theta": (lambda G, M, rho: g.theta(G, rho, 0, 1), {"rho": A}, (), True, False),
    "edge_thetas": (lambda G, M, rho: g.edge_thetas(G, rho), {"rho": A}, (), True, False),
    "graph_gradient": (
        lambda G, M, phi: g.graph_gradient(G, phi), {"phi": g.Potential([1.0, 0.0, -1.0])}, (), True, False
    ),
    "divergence": (lambda G, M, rho: g.divergence(G, rho, field(G)), {"rho": A}, (), True, False),
    "inner_product": (lambda G, M, rho: g.inner_product(field(G), field(G), rho), {"rho": A}, (), True, False),
    "weighted_laplacian": (lambda G, M, rho: g.weighted_laplacian(G, rho), {"rho": A}, (), True, False),
    "solve_potential": (
        lambda G, M, rho, sigma: g.solve_potential(g.weighted_laplacian(G, rho), sigma),
        {"rho": A, "sigma": TangentVector([1.0, -1.0, 0.0])},
        ("rho",),
        True,
        False,
    ),
    "metric_inner": (
        lambda G, M, rho, sigma1, sigma2: g.metric_inner(sigma1, sigma2, g.weighted_laplacian(G, rho)),
        {"rho": A, "sigma1": TangentVector([1.0, -1.0, 0.0]), "sigma2": TangentVector([0.0, 1.0, -1.0])},
        ("rho",),
        True,
        False,
    ),
    "hodge_decompose": (lambda G, M, rho: g.hodge_decompose(G, rho, field(G)), {"rho": A}, ("rho",), True, False),
    "energy": (lambda G, M, rho: g.energy(M, rho), {"rho": A}, (), False, True),
    "energy_gradient": (lambda G, M, rho: g.energy_gradient(M, rho), {"rho": A}, ("rho",), False, True),
    "energy_hessian": (lambda G, M, rho: g.energy_hessian(M, rho), {"rho": A}, ("rho",), False, True),
    "gibbs_fixed_point": (lambda G, M, init: g.gibbs_fixed_point(M, init), {"init": A}, ("init",), False, True),
    "find_all_equilibria": (
        lambda G, M, start: g.find_all_equilibria(M, [A, start]), {"start": B}, ("start",), False, True
    ),
    "fpe_rhs": (lambda G, M, rho: g.fpe_rhs(M, G, rho), {"rho": A}, ("rho",), True, True),
    "dissipation": (lambda G, M, rho: g.dissipation(M, G, rho), {"rho": A}, ("rho",), True, True),
    "invariant_region": (lambda G, M, rho0: g.invariant_region(M, G, rho0), {"rho0": A}, ("rho0",), True, True),
    "integrate": (lambda G, M, rho0: g.integrate(M, G, rho0, t_end=0.1), {"rho0": A}, ("rho0",), True, True),
    "relative_entropy": (
        lambda G, M, rho, rho_inf: g.relative_entropy(M, rho, rho_inf), {"rho": A, "rho_inf": B}, (), False, True
    ),
    "relative_fisher": (
        lambda G, M, rho, rho_inf: g.relative_fisher(M, G, rho, rho_inf),
        {"rho": A, "rho_inf": B},
        ("rho",),
        True,
        True,
    ),
    "rate_constants": (lambda G, M, rho0: g.rate_constants(M, G, rho0), {"rho0": A}, ("rho0",), True, True),
    **{
        name: (
            lambda G, M, rho_inf, fn=getattr(g, name): fn(M, G, rho_inf), {"rho_inf": A}, ("rho_inf",), True, True
        )
        for name in (
            "equilibrium_rates",
            "asymptotic_rate",
            "hessian_quadratic_rate",
            "linearized_rate",
            "fisher_rate",
        )
    },
    "estimate_lsi_constant": (
        lambda G, M, rho_inf: g.estimate_lsi_constant(M, G, rho_inf, count=8, seed=1),
        {"rho_inf": A},
        ("rho_inf",),
        True,
        True,
    ),
    "path_action": (
        lambda G, M, mid: g.path_action(G, g.DiscretePath((A, mid, B))), {"mid": C}, ("mid",), True, False
    ),
    "w2_distance": (
        lambda G, M, rho0, rho1: g.w2_distance(G, rho0, rho1, K=2),
        {"rho0": A, "rho1": B},
        ("rho0", "rho1"),
        True,
        False,
    ),
    "w2_metric_checks": (
        lambda G, M, c: g.w2_metric_checks(G, [(A, B, c)], K=2), {"c": C}, ("c",), True, False
    ),
}


def _cases():
    for name, (_, args, interior, takes_graph, takes_model) in ENTRY_POINTS.items():
        yield pytest.param(name, {}, None, id=f"{name}-valid")
        for arg, value in args.items():
            short = SHORT if isinstance(value, Density) else type(value)(value.values[:2] - value.values[:2].mean())
            yield pytest.param(name, {arg: short}, DimensionMismatch, id=f"{name}-short-{arg}")
        for arg in interior:
            yield pytest.param(name, {arg: EMPTY_NODE}, BoundaryDensity, id=f"{name}-boundary-{arg}")
        for size in (2, 4) if takes_graph else ():
            yield pytest.param(name, {"graph": size}, DimensionMismatch, id=f"{name}-graph-of-{size}")
        for size in (2, 4) if takes_model else ():
            yield pytest.param(name, {"model": size}, DimensionMismatch, id=f"{name}-model-of-{size}")


GRAPHS = {2: path2, 3: k3, 4: ring4}


@pytest.mark.parametrize("name, change, error", list(_cases()))
def test_every_entry_point_checks_its_arguments(name, change, error):
    call, args, *_ = ENTRY_POINTS[name]
    G = GRAPHS[change.pop("graph", 3)]()
    M = model(change.pop("model", 3))
    args = {**args, **change}
    if error is None:
        call(G, M, **args)
    else:
        with pytest.raises(error):
            call(G, M, **args)


def test_every_public_function_with_node_arguments_is_listed():
    node_arguments = {"rho", "rho0", "rho_inf", "init", "starts", "lap", "phi", "path", "triples"}
    for module in (g.simplex_calculus, g.free_energy, g.fpe_dynamics, g.rate_analysis, g.wasserstein_metric):
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and node_arguments & set(inspect.signature(fn).parameters):
                assert name in ENTRY_POINTS


def test_every_name_the_package_exports_is_public_in_its_module():
    """A re-exported function or class is listed in its module's ``__all__``, which bench/tracer.py reads as public."""
    for name, obj in vars(g).items():
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__.startswith("graphfpe."):
            exported = getattr(sys.modules[obj.__module__], "__all__", None)
            assert exported is None or name in exported, f"{obj.__module__}.{name}"


def test_messages_name_the_argument():
    with pytest.raises(DimensionMismatch, match="model"):
        g.integrate(model(3), path2(), A, t_end=0.1)
    with pytest.raises(DimensionMismatch, match="rho_inf"):
        g.relative_fisher(model(3), k3(), A, SHORT)
    with pytest.raises(BoundaryDensity, match="rho1"):
        g.w2_distance(k3(), A, EMPTY_NODE)
    with pytest.raises(BoundaryDensity, match=r"path\.densities\[1\]"):
        g.path_action(k3(), g.DiscretePath((A, EMPTY_NODE, B)))
    with pytest.raises(BoundaryDensity, match=r"lap\.density"):
        g.solve_potential(g.weighted_laplacian(k3(), EMPTY_NODE), TangentVector([1.0, -1.0, 0.0]))
