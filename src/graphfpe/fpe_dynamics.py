"""Nonlinear Fokker-Planck dynamics on the simplex of a graph.

The flow is d rho / dt = -L(rho) F(rho), written per node as
sum_j w_ij theta_ij (F_j - F_i) with F the drift field of the energy model.
One right-hand-side kernel, prepared once per (model, graph), evaluates it
for ``fpe_rhs``, ``dissipation`` and ``integrate``. Integration uses an
explicit embedded Fehlberg 4(5) pair in array form (the six stages are rows
of one array, each stage point and the update with its error estimate are
matrix products with the tableau) and rejects a step on any of four guards:
a positivity floor derived from the invariant region (at each stage and at
the new state), scaled local error, the mass budget and, for gradient flows,
monotonicity of the free energy.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import BoundaryDensity, DimensionMismatch, StepSizeUnderflow
from .free_energy import EnergyModel, _drift_raw, _energy_raw
from .graph_core import Graph, freeze
from .simplex_calculus import Density, TangentVector, laplacian_apply, laplacian_form

__all__ = [
    "Trajectory",
    "InvariantRegion",
    "fpe_rhs",
    "invariant_region",
    "integrate",
    "dissipation",
]

# Fehlberg 4(5) tableau: six stages, 4th-order propagated solution with a
# 5th-order companion for the local error estimate.
_RK_C = (0.0, 1.0 / 4.0, 3.0 / 8.0, 12.0 / 13.0, 1.0, 1.0 / 2.0)
_RK_A = (
    (),
    (1.0 / 4.0,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RK_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)
_RK_ERR = (1.0 / 360.0, 0.0, -128.0 / 4275.0, -2197.0 / 75240.0, 1.0 / 50.0, 2.0 / 55.0)

# The same tableau as arrays: _STAGE_ROWS[s] weighs stages 0..s-1 into stage
# s, and _UPDATE stacks the 4th-order weights over the error weights, so one
# product with the stage array gives both.
_STAGE_ROWS = tuple(np.array(row) for row in _RK_A)
_UPDATE = np.array((_RK_B4, _RK_ERR))

# the rejection guards of integrate, in the order a step meets them
_GUARDS = ("stage_floor", "step_floor", "error", "mass", "energy")

_ABS_FLOOR = 1e-14  # keeps log(rho) representable even with the region guard off
_MASS_DRIFT_BUDGET = 1e-13  # per accepted step, before renormalization
# attempted steps (accepted or rejected) per run; at equilibrium the step
# stays near the explicit stability limit, so a huge t_end would never end
_STEP_BUDGET = 100_000


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states of one integration run with energy/dissipation diagnostics."""

    times: np.ndarray
    densities: tuple[Density, ...]
    energy: np.ndarray
    dissipation: np.ndarray
    accepted_steps: int
    rejected_steps: int
    # rejected steps per guard (keys as in _GUARDS); integrate fills every
    # guard and the counts sum to rejected_steps
    rejected_by: Mapping[str, int] = field(default_factory=lambda: MappingProxyType({}))

    @property
    def final_density(self) -> Density:
        return self.densities[-1]


@dataclass(frozen=True, eq=False)
class InvariantRegion:
    """Repeller-bounded compact region that trajectories never leave.

    ``epsilons`` is the defining sequence eps_1..eps_n, ``m`` the resulting
    componentwise floor, and ``M`` the model magnitude constant it is built
    from.
    """

    epsilons: np.ndarray
    m: float
    M: float


def _check_inputs(model: EnergyModel, graph: Graph, rho: Density) -> None:
    if model.n != graph.node_count:
        raise DimensionMismatch(
            f"model has {model.n} nodes, graph has {graph.node_count}"
        )
    if rho.n != graph.node_count:
        raise DimensionMismatch(
            f"density has {rho.n} entries, graph has {graph.node_count} nodes"
        )


class _FlowKernel:
    """Right-hand side -L(rho) F(rho) of one (model, graph), and its dissipation.

    The only right-hand-side path: ``fpe_rhs``, ``dissipation`` and
    ``integrate`` bind one to their (model, graph) and evaluate through it.
    The arrays it needs are prepared once: the graph caches its edge index
    arrays and weights, the model holds W, V and beta. It composes the shared
    batched kernels (the drift, L(rho) apply and L(rho) form), so it takes
    raw positive density rows of shape (..., n), validates nothing, and a
    stacked call gives the same bits as one call per row.
    """

    __slots__ = ("model", "graph")

    def __init__(self, model: EnergyModel, graph: Graph):
        self.model = model
        self.graph = graph

    def rhs(self, values: np.ndarray) -> np.ndarray:
        """-L(rho) F(rho) per row, (..., n) -> (..., n)."""
        return laplacian_apply(self.graph, values, -_drift_raw(self.model, values))

    def dissipation(self, values: np.ndarray) -> np.ndarray:
        """-F^T L(rho) F per row, (..., n) -> (...), a sum of nonpositive edge terms."""
        return -laplacian_form(self.graph, values, _drift_raw(self.model, values))


def fpe_rhs(model: EnergyModel, graph: Graph, rho: Density) -> TangentVector:
    """Time derivative of the density: equals -L(rho) F(rho), zero-sum."""
    _check_inputs(model, graph, rho)
    if not rho.interior:
        raise BoundaryDensity("FPE right-hand side needs an interior density")
    return TangentVector(_FlowKernel(model, graph).rhs(rho.values))


def dissipation(model: EnergyModel, graph: Graph, rho: Density) -> float:
    """Energy production -F^T L(rho) F <= 0 (equals dF/dt along the flow)."""
    _check_inputs(model, graph, rho)
    if not rho.interior:
        raise BoundaryDensity("dissipation needs an interior density")
    return float(_FlowKernel(model, graph).dissipation(rho.values))


def invariant_region(model: EnergyModel, graph: Graph, rho0: Density) -> InvariantRegion:
    """Repeller constants for the starting density.

    M = exp(2 max_{i,j}(|V_i| + |W_ij|)); with c = 1/(1 + (2M)^(1/beta)),
    eps_1 = min(c, min rho0)/2, eps_l = c eps_{l-1}, and the floor is
    m = c^(n-2) min(c, min rho0)/2. Extreme models give M = inf and c = 0,
    hence zero epsilons and m, instead of an overflow.
    """
    _check_inputs(model, graph, rho0)
    if not rho0.interior:
        raise BoundaryDensity("invariant region needs an interior starting density")
    n = model.n
    mag = float(np.max(np.abs(model.potential)[:, None] + np.abs(model.interaction)))
    c = 1.0 / (1.0 + _exp_or_inf((math.log(2.0) + 2.0 * mag) / model.beta))
    min0 = float(rho0.values.min())
    eps1 = 0.5 * min(c, min0)
    epsilons = eps1 * np.power(c, np.arange(n))
    m = 0.5 * c ** (n - 2) * min(c, min0)
    return InvariantRegion(epsilons=freeze(epsilons), m=float(m), M=_exp_or_inf(2.0 * mag))


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def integrate(
    model: EnergyModel,
    graph: Graph,
    rho0: Density,
    t_end: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-11,
    max_step: float | None = None,
    record_every: int = 10,
    positivity_floor: float | None = None,
) -> Trajectory:
    """Integrate the flow from rho0 over [0, t_end] with adaptive steps.

    Each step evaluates the six Fehlberg stages into one (6, n) array through
    the prepared right-hand-side kernel: stage s starts from
    y + h (A[s, :s] @ K[:s]), and one product of the stacked 4th-order and
    error weights with the stage array gives the update and the local error
    estimate. A step is rejected, and the step size halved, if any component
    of a stage point or of the candidate would drop below the positivity
    floor (max(m(rho0)/2, 1e-14) by default; pass ``positivity_floor=1e-14``
    to disable the invariant-region guard), if the mass drifts by more than
    1e-13, or, for symmetric interactions, if the free energy would increase
    by more than ``abs_tol``; a step whose scaled error exceeds 1 is retried
    with a smaller step. The trajectory counts rejections per guard in
    ``rejected_by``. Accepted states are renormalized onto the simplex. States
    are recorded every ``record_every`` accepted steps (0 = initial and final
    only), plus the final state. A run that underflows the step size or
    attempts 100 000 steps raises :class:`StepSizeUnderflow` carrying the
    partial trajectory.
    """
    _check_inputs(model, graph, rho0)
    if not rho0.interior:
        raise BoundaryDensity("integration starts from an interior density")
    if not (t_end > 0):
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if record_every < 0:
        raise ValueError(f"record_every must be >= 0, got {record_every!r}")
    if max_step is not None and not max_step > 0:
        raise ValueError(f"max_step must be positive, got {max_step!r}")

    if positivity_floor is None:
        floor = max(invariant_region(model, graph, rho0).m / 2.0, _ABS_FLOOR)
    else:
        floor = max(float(positivity_floor), _ABS_FLOOR)
    guard_energy = model.is_symmetric
    h_cap = float(max_step) if max_step is not None else math.inf
    kernel = _FlowKernel(model, graph)
    rhs = kernel.rhs

    y = rho0.values.copy()
    t = 0.0
    current_energy = float(_energy_raw(model, y))

    times: list[float] = []
    states: list[np.ndarray] = []
    energies: list[float] = []
    dissipations: list[float] = []

    def record(time: float, values: np.ndarray, e: float | None = None) -> None:
        times.append(time)
        states.append(values.copy())
        energies.append(float(_energy_raw(model, values)) if e is None else e)
        dissipations.append(float(kernel.dissipation(values)))

    record(0.0, y, current_energy)

    K = np.empty((6, y.size))  # stage derivatives; K[0] is reused across rejections of one state
    K[0] = rhs(y)
    h = min(t_end, h_cap, 0.01 / (1.0 + float(np.max(np.abs(K[0])))))
    accepted = 0
    rejected_by = dict.fromkeys(_GUARDS, 0)
    t_tiny = 1e-15 * max(1.0, t_end)

    def partial() -> Trajectory:
        return _build_trajectory(times, states, energies, dissipations, accepted, rejected_by)

    attempts = 0
    while t < t_end - t_tiny:
        if h < 1e-14 * max(1.0, t):
            raise StepSizeUnderflow(
                f"step size underflow at t={t!r} (h={h!r})", trajectory=partial()
            )
        if attempts == _STEP_BUDGET:
            raise StepSizeUnderflow(
                f"step budget of {_STEP_BUDGET} attempted steps spent at t={t!r}", trajectory=partial()
            )
        attempts += 1
        h_try = min(h, t_end - t)

        stage_ok = True
        for s in range(1, 6):
            ys = y + h_try * (_STAGE_ROWS[s] @ K[:s])
            if ys.min() < floor:
                stage_ok = False
                break
            K[s] = rhs(ys)
        if not stage_ok:
            rejected_by["stage_floor"] += 1
            h = 0.5 * h_try
            continue

        update, err = _UPDATE @ K
        y_new = y + h_try * update
        if y_new.min() < floor:
            rejected_by["step_floor"] += 1
            h = 0.5 * h_try
            continue

        err_norm = float(np.max(np.abs(h_try * err) / (abs_tol + rel_tol * np.abs(y))))
        if err_norm > 1.0:
            rejected_by["error"] += 1
            h = h_try * min(max(0.9 * err_norm**-0.2, 0.2), 1.0)
            continue

        mass = float(y_new.sum())
        if abs(mass - 1.0) > _MASS_DRIFT_BUDGET:
            rejected_by["mass"] += 1
            h = 0.5 * h_try
            continue
        y_new /= mass

        if guard_energy:
            new_energy = float(_energy_raw(model, y_new))
            if new_energy - current_energy > abs_tol:
                rejected_by["energy"] += 1
                h = 0.5 * h_try
                continue
            current_energy = new_energy

        y = y_new
        t += h_try
        accepted += 1
        K[0] = rhs(y)
        h = min(h_try * min(max(0.9 * max(err_norm, 1e-12) ** -0.2, 0.2), 5.0), h_cap)
        if record_every > 0 and accepted % record_every == 0 and t < t_end - t_tiny:
            record(t, y, current_energy if guard_energy else None)

    record(t_end, y, current_energy if guard_energy else None)
    return _build_trajectory(times, states, energies, dissipations, accepted, rejected_by)


def _build_trajectory(times, states, energies, dissipations, accepted, rejected_by) -> Trajectory:
    return Trajectory(
        times=freeze(times),
        densities=tuple(Density(s) for s in states),
        energy=freeze(energies),
        dissipation=freeze(dissipations),
        accepted_steps=accepted,
        rejected_steps=sum(rejected_by.values()),
        rejected_by=MappingProxyType(dict(rejected_by)),
    )
