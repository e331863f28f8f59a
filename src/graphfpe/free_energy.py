"""Free energy on the simplex and its Gibbs equilibria.

F(rho) = 1/2 rho^T W rho + V^T rho + beta * sum_i rho_i log rho_i, with the
0 log 0 = 0 convention. The drift field returned by :func:`energy_gradient`
is W rho + V + beta (log rho + 1); for a symmetric interaction matrix this
is the free-energy gradient, and for a non-symmetric one it is the drift
that defines the Fisher-rate dynamics (the free energy then no longer
generates the flow).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonSymmetricW
from .graph_core import freeze
from .simplex_calculus import Density, _require

__all__ = [
    "EnergyModel",
    "GibbsResult",
    "ConvexityCertificate",
    "energy",
    "energy_gradient",
    "energy_hessian",
    "convexity_certificate",
    "gibbs_fixed_point",
    "find_all_equilibria",
]

logger = logging.getLogger(__name__)

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EnergyModel:
    """Interaction matrix, linear potential, and entropy temperature."""

    interaction: np.ndarray  # n x n coupling matrix
    potential: np.ndarray  # per-node linear term
    beta: float  # entropy weight, > 0

    def __post_init__(self):
        W = np.asarray(self.interaction, dtype=float)
        V = np.asarray(self.potential, dtype=float)
        if V.ndim != 1 or V.size == 0:
            raise DimensionMismatch(f"potential must be a vector, got shape {V.shape}")
        if W.shape != (V.size, V.size):
            raise DimensionMismatch(
                f"interaction shape {W.shape} does not match potential length {V.size}"
            )
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(V))):
            raise ValueError("model has non-finite entries")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive, got {self.beta!r}")
        object.__setattr__(self, "interaction", freeze(W))
        object.__setattr__(self, "potential", freeze(V))
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def n(self) -> int:
        return self.potential.size

    @cached_property
    def is_symmetric(self) -> bool:
        W = self.interaction
        scale = max(1.0, float(np.max(np.abs(W))) if W.size else 0.0)
        return float(np.max(np.abs(W - W.T))) <= SYMMETRY_TOL * scale


@dataclass(frozen=True, eq=False)
class GibbsResult:
    """Converged (or best partial) Gibbs fixed point."""

    density: Density
    normalizer: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class ConvexityCertificate:
    """Sufficient convexity check: lambda_min(W) + beta > 0 on the whole simplex.

    ``certified_convex`` False means inconclusive, not a disproof.
    """

    certified_convex: bool
    lambda_min_bound: float


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product along the last axis, one BLAS call per row: a row of a batch gives a single call's bits."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _energy_raw(model: EnergyModel, values: np.ndarray) -> np.ndarray:
    """F at each row, (..., n) -> (...), unvalidated; 0 log 0 is taken as 0."""
    ent = np.sum(values * np.log(np.where(values > 0, values, 1.0)), axis=-1)
    quad = _row_dot(0.5 * values, (model.interaction @ values[..., None])[..., 0])
    return quad + _row_dot(values, model.potential) + model.beta * ent


def _drift_raw(model: EnergyModel, values: np.ndarray) -> np.ndarray:
    """W rho + V + beta (log rho + 1) at each row, (..., n) -> (..., n), unvalidated; rows must be positive."""
    drift = (model.interaction @ values[..., None])[..., 0]
    drift += model.potential
    entropic = np.log(values)
    entropic += 1.0
    entropic *= model.beta
    drift += entropic
    return drift


def energy(model: EnergyModel, rho: Density) -> float:
    """Free energy F(rho); 0 log 0 is taken as 0."""
    _require(model.n, rho=rho)
    return float(_energy_raw(model, rho.values))


def energy_gradient(model: EnergyModel, rho: Density) -> np.ndarray:
    """Drift field F(rho) = W rho + V + beta (log rho + 1); needs an interior rho.

    Only differences F_i - F_j enter the dynamics, so the constant beta term
    is harmless.
    """
    _require(model.n, interior=("rho",), rho=rho)
    return _drift_raw(model, rho.values)


def energy_hessian(model: EnergyModel, rho: Density) -> np.ndarray:
    """Hess F(rho) = W + beta diag(1/rho); needs an interior rho."""
    _require(model.n, interior=("rho",), rho=rho)
    return model.interaction + model.beta * np.diag(1.0 / rho.values)


def convexity_certificate(model: EnergyModel) -> ConvexityCertificate:
    """Certify strict convexity via diag(1/rho) >= I on the simplex."""
    if not model.is_symmetric:
        raise NonSymmetricW("convexity certificate requires a symmetric interaction matrix")
    lam_min_w = float(np.linalg.eigvalsh(model.interaction)[0])  # W is symmetric, checked above
    bound = lam_min_w + model.beta
    return ConvexityCertificate(certified_convex=bound > 0, lambda_min_bound=bound)


def _gibbs_map(model: EnergyModel, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Softmin map G(rho)_i = exp(-((W rho)_i + V_i)/beta) / K and the normalizer K.

    u = W rho + V is shifted by its minimum before the division by beta, so a
    tiny beta sends the other exponents to -inf, not to inf - inf. K may
    overflow to inf or underflow to 0; G is non-finite only if u is.
    """
    u = model.interaction @ v + model.potential
    low = float(u.min())
    g = np.exp(-(u - low) / model.beta)
    total = float(g.sum())
    return g / total, float(np.exp(-low / model.beta) * total)


@np.errstate(over="ignore", invalid="ignore")  # the map overflows for extreme beta, W or V; see _gibbs_map
def gibbs_fixed_point(
    model: EnergyModel,
    init: Density,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    damping: float = 0.5,
) -> GibbsResult:
    """Damped fixed-point iteration rho <- (1-a) rho + a G(rho).

    The damping factor halves automatically whenever the residual grows,
    which keeps strongly attractive interactions from oscillating. Raises
    :class:`NoConvergence` with the last iterate attached if ``max_iter``
    is exhausted or the map is not finite.
    """
    _require(model.n, interior=("init",), init=init)
    if not (0 < damping <= 1):
        raise ValueError(f"damping must lie in (0, 1], got {damping!r}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    v = init.values.copy()
    alpha = damping
    prev_residual = np.inf
    for k in range(max_iter + 1):
        g, normalizer = _gibbs_map(model, v)
        residual = float(np.max(np.abs(v - g)))
        if residual <= tol:
            return GibbsResult(
                density=Density(v / v.sum()),
                normalizer=normalizer,
                iterations=k,
                residual=residual,
            )
        if math.isnan(residual):  # W rho + V overflows: keep the last finite iterate
            break
        if residual > prev_residual:
            alpha = max(0.5 * alpha, 2.0**-20)
        prev_residual = residual
        v = (1.0 - alpha) * v + alpha * g
        v /= v.sum()
    partial = GibbsResult(
        density=Density(v / v.sum()),
        normalizer=normalizer,
        iterations=k,
        residual=residual,
    )
    raise NoConvergence(
        f"Gibbs iteration residual {residual:.3e} > tol {tol:.3e} after {k} iterations",
        result=partial,
    )


def find_all_equilibria(
    model: EnergyModel,
    starts,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    damping: float = 0.5,
) -> list[GibbsResult]:
    """Run the fixed-point solver from every start and deduplicate.

    Results closer than 10*tol in the max norm are merged; the survivors are
    sorted by free energy (ties broken lexicographically by density). Starts
    that fail to converge are skipped and counted in a warning.
    """
    starts = list(starts)
    candidates: list[GibbsResult] = []
    for rho0 in starts:
        try:
            candidates.append(
                gibbs_fixed_point(model, rho0, tol=tol, max_iter=max_iter, damping=damping)
            )
        except NoConvergence:
            pass
    failed = len(starts) - len(candidates)
    if failed:
        logger.warning("%d of %d equilibrium starts did not converge", failed, len(starts))

    candidates.sort(key=lambda r: (energy(model, r.density), tuple(r.density.values)))
    kept: list[GibbsResult] = []
    for cand in candidates:
        if all(
            float(np.max(np.abs(cand.density.values - k.density.values))) > 10.0 * tol
            for k in kept
        ):
            kept.append(cand)
    return kept
