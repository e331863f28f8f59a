"""Nonlinear Fokker-Planck dynamics on the simplex of a graph.

The flow is d rho / dt = -L(rho) F(rho), written per node as
sum_j w_ij theta_ij (F_j - F_i) with F the drift field of the energy model.
One batched right-hand-side kernel, ``_rhs_raw``, evaluates it for
``fpe_rhs`` and ``integrate``. Integration uses an explicit embedded
Fehlberg 4(5) pair in array form (the six stages are rows of one array,
each stage point and the update with its error estimate are matrix
products with the tableau). For symmetric W the run switches, once the flow
is linear and RKF45's step sits at its stability limit, to exponential
ETD2RK steps (Cox & Matthews, J. Comput. Phys. 2002) whose linear part is
the equilibrium Jacobian J = -L(rho_inf) Hess F(rho_inf), applied through
one eigendecomposition per run. Both methods reject a step on any of four
guards: a positivity floor derived from the invariant region (at each stage
and at the new state), scaled local error, the mass budget and, for gradient
flows, monotonicity of the free energy.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import BoundaryDensity, NoConvergence, StepSizeUnderflow
from .free_energy import EnergyModel, _drift_raw, _energy_raw, energy_hessian, gibbs_fixed_point
from .graph_core import Graph, freeze
from .simplex_calculus import Density, TangentVector, _require, laplacian_apply, laplacian_form, laplacian_matrices

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

# Switch to the exponential tail once _TAIL_STEPS accepted RKF45 steps in a
# row find |f(y) - J (y - rho_inf)| <= _TAIL_LINEAR |f(y)| (the flow is
# linear) and h lambda_max(-J) >= _TAIL_STIFF (RKF45's real stability
# boundary is about 3); one such step while h still grows is not yet a limit.
_TAIL_LINEAR = 1e-3
_TAIL_STIFF = 2.0
_TAIL_STEPS = 2
# Taylor coefficients 1/(j + 2)! of phi_2, lowest power first; for |z| < 1 the
# first term left out, z^17/19!, is below 2^-55 of phi_2(z) > 1/e
_PHI2_TAYLOR = np.array([1.0 / math.factorial(j + 2) for j in range(17)])


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
    # accepted exponential tail steps (counted in accepted_steps too) and the
    # time of the switch to them, None if the run never switched
    exponential_steps: int = 0
    switch_time: float | None = None

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


def _rhs_raw(model: EnergyModel, graph: Graph, values: np.ndarray) -> np.ndarray:
    """-L(rho) F(rho) per row, (..., n) -> (..., n); the only right-hand-side path.

    Composes the shared batched kernels (the drift and the L(rho) apply), so
    it takes raw positive density rows, validates nothing, and a stacked
    call gives the same bits as one call per row.
    """
    return laplacian_apply(graph, values, -_drift_raw(model, values))


def _dissipation_raw(model: EnergyModel, graph: Graph, values: np.ndarray) -> np.ndarray:
    """-F^T L(rho) F per row, (..., n) -> (...), a sum of nonpositive edge terms."""
    return -laplacian_form(graph, values, _drift_raw(model, values))


def fpe_rhs(model: EnergyModel, graph: Graph, rho: Density) -> TangentVector:
    """Time derivative of the density: equals -L(rho) F(rho), zero-sum."""
    _require(graph.node_count, interior=("rho",), model=model, rho=rho)
    return TangentVector(_rhs_raw(model, graph, rho.values))


def dissipation(model: EnergyModel, graph: Graph, rho: Density) -> float:
    """Energy production -F^T L(rho) F <= 0 (equals dF/dt along the flow)."""
    _require(graph.node_count, interior=("rho",), model=model, rho=rho)
    return float(_dissipation_raw(model, graph, rho.values))


def invariant_region(model: EnergyModel, graph: Graph, rho0: Density) -> InvariantRegion:
    """Repeller constants for the starting density.

    M = exp(2 max_{i,j}(|V_i| + |W_ij|)); with c = 1/(1 + (2M)^(1/beta)),
    eps_1 = min(c, min rho0)/2, eps_l = c eps_{l-1}, and the floor is
    m = c^(n-2) min(c, min rho0)/2. Extreme models give M = inf and c = 0,
    hence zero epsilons and m, instead of an overflow.
    """
    _require(graph.node_count, interior=("rho0",), model=model, rho0=rho0)
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


@dataclass(frozen=True, eq=False)
class _Tail:
    """The equilibrium Jacobian J = -L(rho_inf) H, H = Hess F(rho_inf), through its eigenpairs.

    With H = R R^T (Cholesky) and R^T L(rho_inf) R = U diag(lam) U^T,
    J = -P diag(lam) Q for P = R^-T U and Q = U^T R^T = P^-1, so
    phi_k(h J) v = P (phi_k(-h lam) * (Q v)). The first eigenpair, lam = 0
    with Q-row proportional to 1^T, carries the mass; zero-sum v have no part
    in it, so it is dropped, and every product below stays zero-sum.
    """

    rho_inf: np.ndarray
    lam: np.ndarray
    P: np.ndarray
    Q: np.ndarray

    def apply(self, coeffs: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.P @ (coeffs * (self.Q @ v))

    def jac(self, v: np.ndarray) -> np.ndarray:
        return self.apply(-self.lam, v)


def _phi12(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phi_1(z), phi_2(z)) entrywise for z <= 0, phi_1 = (e^z - 1)/z and phi_2 = (phi_1 - 1)/z.

    Where |z| < 1, phi_2 is its Taylor sum, one power table times the
    coefficients, and phi_1 = 1 + z phi_2; elsewhere both are the closed
    forms, which lose no digits there. Each is within a few ulp.
    """
    small = np.abs(z) < 1.0
    w = np.where(small, 1.0, z)
    phi1 = np.expm1(w) / w
    phi2 = (phi1 - 1.0) / w
    zs = z[small]
    phi2[small] = np.vander(zs, _PHI2_TAYLOR.size, increasing=True) @ _PHI2_TAYLOR
    phi1[small] = 1.0 + zs * phi2[small]
    return phi1, phi2


@np.errstate(all="ignore")  # a non-finite Hess F or pencil is refused, not warned about
def _equilibrium_tail(model: EnergyModel, graph: Graph, rho0: Density) -> _Tail | None:
    """The tail's operator at rho_inf = gibbs_fixed_point(model, rho0), from one Cholesky and one eigh.

    None where it cannot be built: W not symmetric, no Gibbs convergence
    within the default 10 000 iterations, rho_inf on the boundary, Hess F(rho_inf)
    not finite or not positive definite, or eigenpairs that are not finite.
    """
    if not model.is_symmetric:
        return None
    try:
        rho_inf = gibbs_fixed_point(model, rho0).density
        R = np.linalg.cholesky(energy_hessian(model, rho_inf))
        lam, U = np.linalg.eigh(R.T @ laplacian_matrices(graph, rho_inf.values) @ R)
        P = np.linalg.solve(R.T, U)
    except (NoConvergence, BoundaryDensity, np.linalg.LinAlgError):  # a non-finite Hess F fails Cholesky or eigh
        return None
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(P))):
        return None
    return _Tail(rho_inf.values, lam[1:], P[:, 1:], U[:, 1:].T @ R.T)


@np.errstate(all="ignore")  # not warned about: a non-finite stage or state fails a floor guard
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
    the right-hand-side kernel: stage s starts from y + h (A[s, :s] @ K[:s]),
    and one product of the stacked 4th-order and error weights with the
    stage array gives the update and the local error estimate. For symmetric
    W, once two accepted steps in a row find the flow linear about rho_inf
    and h lambda_max(-J) >= 2, the rest of the run takes ETD2RK steps
    a = y + h phi_1(hJ) f(y), y+ = a + h phi_2(hJ) (f(a) - f(y) - J (a - y))
    on the equilibrium Jacobian J (see :class:`_Tail`), with the phi_2 term
    as error estimate, a as stage point and the same guards. ``t_end``
    must be positive and finite. A step is rejected, and the step size
    halved, if any component of a stage point or of the candidate would drop
    below the positivity floor (max(m(rho0)/2, 1e-14) by default; pass
    ``positivity_floor=1e-14`` to disable the invariant-region guard) or is
    not finite (floating-point overflow is not warned about), if the
    mass drifts by more than 1e-13, or, for symmetric interactions, if the
    free energy would increase by more than ``abs_tol``; a step whose scaled
    error exceeds 1 is retried with a smaller step. The trajectory counts
    rejections per guard in ``rejected_by``, and the exponential steps and
    switch time in ``exponential_steps`` and ``switch_time``. Accepted states
    are renormalized onto the simplex. States are recorded every
    ``record_every`` accepted steps (0 = initial and final only), plus the
    final state. A run that underflows the step size or attempts 100 000
    steps raises :class:`StepSizeUnderflow` carrying the partial trajectory,
    which ends at the last accepted state.
    """
    _require(graph.node_count, interior=("rho0",), model=model, rho0=rho0)
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
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

    y = rho0.values.copy()
    t = 0.0
    current_energy = float(_energy_raw(model, y))

    # the (t, state) records; an accepted step binds y to a new array, so no kept state is written to
    times, states = [0.0], [y]

    K = np.empty((6, y.size))  # stage derivatives; K[0] is reused across rejections of one state
    K[0] = _rhs_raw(model, graph, y)
    h = min(t_end, h_cap, 0.01 / (1.0 + float(np.max(np.abs(K[0])))))
    accepted = 0
    rejected_by = dict.fromkeys(_GUARDS, 0)
    t_tiny = 1e-15 * max(1.0, t_end)

    eq = _equilibrium_tail(model, graph, rho0)
    switch_time = None  # the run takes exponential steps on eq once this is set
    exponential = 0
    stiff = 0  # consecutive accepted RKF45 steps that passed the switch test

    def trajectory(end: float) -> Trajectory:
        """The run so far, ending at (end, y) unless y was just recorded; one batched energy and dissipation call."""
        if times[-1] != end:
            times.append(end)
            states.append(y)
        stacked = np.array(states)
        return Trajectory(
            times=freeze(times),
            densities=tuple(Density(s) for s in states),
            energy=freeze(_energy_raw(model, stacked)),
            dissipation=freeze(_dissipation_raw(model, graph, stacked)),
            accepted_steps=accepted,
            rejected_steps=sum(rejected_by.values()),
            rejected_by=MappingProxyType(dict(rejected_by)),
            exponential_steps=exponential,
            switch_time=switch_time,
        )

    while t < t_end - t_tiny:
        if h < 1e-14 * max(1.0, t):
            raise StepSizeUnderflow(f"step size underflow at t={t!r} (h={h!r})", trajectory=trajectory(t))
        if accepted + sum(rejected_by.values()) == _STEP_BUDGET:
            message = f"step budget of {_STEP_BUDGET} attempted steps spent at t={t!r}"
            raise StepSizeUnderflow(message, trajectory=trajectory(t))
        h_try = min(h, t_end - t)

        y_new = None  # stays None when a stage point fails the floor
        if switch_time is None:
            for s in range(1, 6):
                ys = y + h_try * (_STAGE_ROWS[s] @ K[:s])
                if not ys.min() >= floor:  # NaN fails it too, so an overflowing stage is retried smaller
                    break
                K[s] = _rhs_raw(model, graph, ys)
            else:
                update, err = _UPDATE @ K
                y_new, err = y + h_try * update, h_try * err
            order = 5.0
        else:
            # ETD2RK: a = y + h phi_1 f(y), y+ = a + h phi_2 (f(a) - f(y) - J (a - y)); the phi_2 term is the error
            phi1, phi2 = _phi12(-h_try * eq.lam)
            a = y + h_try * eq.apply(phi1, K[0])
            if a.min() >= floor:
                K[1] = _rhs_raw(model, graph, a)
                err = h_try * eq.apply(phi2, K[1] - K[0] - eq.jac(a - y))
                y_new = a + err
            order = 2.0
        if y_new is None:
            rejected_by["stage_floor"] += 1
            h = 0.5 * h_try
            continue

        if not y_new.min() >= floor:
            rejected_by["step_floor"] += 1
            h = 0.5 * h_try
            continue

        err_norm = float(np.max(np.abs(err) / (abs_tol + rel_tol * np.abs(y))))
        if err_norm > 1.0:
            rejected_by["error"] += 1
            h = h_try * min(max(0.9 * err_norm ** (-1.0 / order), 0.2), 1.0)
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
        exponential += switch_time is not None
        K[0] = _rhs_raw(model, graph, y)
        h = min(h_try * min(max(0.9 * max(err_norm, 1e-12) ** (-1.0 / order), 0.2), 5.0), h_cap)
        if switch_time is None and eq is not None and t < t_end - t_tiny:
            stiff = stiff + 1 if (
                h_try * eq.lam[-1] >= _TAIL_STIFF
                and np.max(np.abs(K[0] - eq.jac(y - eq.rho_inf))) <= _TAIL_LINEAR * np.max(np.abs(K[0]))
            ) else 0
            if stiff == _TAIL_STEPS:
                switch_time = t
        if record_every > 0 and accepted % record_every == 0 and t < t_end - t_tiny:
            times.append(t)
            states.append(y)

    return trajectory(t_end)
