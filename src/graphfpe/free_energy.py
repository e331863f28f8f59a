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
    def has_interaction(self) -> bool:
        """Whether W has a nonzero entry; without one the kernels skip every product with W, which is exactly +0."""
        return bool(self.interaction.any())

    @cached_property
    def is_symmetric(self) -> bool:
        if not self.has_interaction:
            return True
        W = self.interaction
        scale = max(1.0, float(np.max(np.abs(W))) if W.size else 0.0)
        return float(np.max(np.abs(W - W.T))) <= SYMMETRY_TOL * scale

    @cached_property
    def interaction_spectrum(self) -> np.ndarray | None:
        """Ascending eigenvalues of a symmetric W from one ``eigvalsh`` per model (zeros, with no call, for an all-zero W); None for a non-symmetric W.

        Raises ``LinAlgError`` where LAPACK does not converge.
        """
        if not self.has_interaction:
            return freeze(np.zeros(self.n))
        return freeze(np.linalg.eigvalsh(self.interaction)) if self.is_symmetric else None


@dataclass(frozen=True, eq=False)
class GibbsResult:
    """Converged (or best partial) Gibbs fixed point.

    ``damping`` is the factor a of the last update rho <- (1-a) rho + a G(rho)
    (of the first one when the start has converged): 1.0 on the undamped path,
    the ``damping`` argument times 2^-k after k halvings otherwise.
    ``newton_steps`` counts the Newton steps kept among the ``iterations``.
    """

    density: Density
    normalizer: float
    iterations: int
    residual: float
    damping: float
    newton_steps: int


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


# Without W (EnergyModel.has_interaction False) the three kernels below skip
# their products with it. On finite rows each skipped term is exactly +0, and
# +0 + a equals a but for a = -0, which changes no sum that follows, so the
# rows keep their bits; a row with an infinite entry, which the flow's guards
# reject, no longer turns all-NaN through the product.

def _energy_raw(model: EnergyModel, values: np.ndarray) -> np.ndarray:
    """F at each row, (..., n) -> (...), unvalidated; 0 log 0 is taken as 0."""
    ent = np.sum(values * np.log(np.where(values > 0, values, 1.0)), axis=-1)
    f = _row_dot(values, model.potential)
    if model.has_interaction:
        f = _row_dot(0.5 * values, (model.interaction @ values[..., None])[..., 0]) + f
    return f + model.beta * ent


def _drift_raw(model: EnergyModel, values: np.ndarray) -> np.ndarray:
    """W rho + V + beta (log rho + 1) at each row, (..., n) -> (..., n), unvalidated; rows must be positive."""
    entropic = np.log(values)
    entropic += 1.0
    entropic *= model.beta
    if not model.has_interaction:
        entropic += model.potential
        return entropic
    drift = (model.interaction @ values[..., None])[..., 0]
    drift += model.potential
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
    lam_min_w = float(model.interaction_spectrum[0])  # W is symmetric, checked above
    bound = lam_min_w + model.beta
    return ConvexityCertificate(certified_convex=bound > 0, lambda_min_bound=bound)


def _softmin(model: EnergyModel, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G(rho)_i = exp(-((W rho)_i + V_i)/beta) / K at each row, (..., n), with the shift and sum that give K.

    u = W rho + V is shifted by its minimum ``low`` before the division by
    beta, so a tiny beta sends the other exponents to -inf, not to
    inf - inf; G is non-finite only if u is. Returns G, ``low`` and the sum
    ``total`` of the shifted exponentials, K = exp(-low/beta) total, both of
    shape (..., 1). Row-wise only: a stacked call gives each row the bits of
    a one-row call.
    """
    if model.has_interaction:
        u = (model.interaction @ v[..., None])[..., 0]
        u += model.potential
    else:
        u = np.zeros_like(v)
        u += model.potential
    low = np.minimum.reduce(u, axis=-1, keepdims=True)
    u -= low
    u /= -model.beta
    g = np.exp(u, out=u)
    total = np.add.reduce(g, axis=-1, keepdims=True)
    g /= total
    return g, low, total


def _undamped(model: EnergyModel) -> bool:
    """Whether -2 beta < lambda(W) < 2 beta / 3 for a symmetric W with a finite spectrum.

    DG(rho) = -(1/beta) C W with C = diag g - g g^T, the covariance of a
    categorical law, so 0 <= C <= I/2. The eigenvalues mu of DG are those of
    -(1/beta) C^(1/2) W C^(1/2) and lie in [-lambda_max(W)/(2 beta),
    -lambda_min(W)/(2 beta)] widened to contain 0; here that is [-1/3, 1).
    G is then a global 2-norm contraction (||W||_2 < 2 beta), so every start
    reaches its one fixed point, and on every mode the undamped factor |mu|
    is at most the factor 1 - a (1 - mu) of every damping a <= 1/2. A
    repulsive W whose mu come near -1 contracts faster under a = 1/2, so it
    keeps the damped loop.
    """
    try:
        lam = model.interaction_spectrum
    except np.linalg.LinAlgError:
        return False
    # a non-finite spectrum fails both comparisons
    return lam is not None and bool(-2.0 * model.beta < lam[0] and lam[-1] < 2.0 * model.beta / 3.0)


# Newton polish of a row (Kelley 1995, ch. 5): a row whose residual is at most
# _POLISH_RESIDUAL and whose last fixed-point update cut it by less than
# 1/_POLISH_CUT tries a Newton step on r(v) = v - G(v), and keeps trying after
# each step it keeps. A damped update (a <= 1/2) cuts the residual by at most
# 2x on every mode with mu >= 0, so damped rows qualify; an undamped row
# qualifies only where the map's slope |mu| exceeds 1/4, and there it needs 15
# updates or more from 1e-3 to 1e-12 where Newton needs 2-3 steps. The
# benchmark's contracting rows cut their residual about 100x per update and
# keep their bits. 1e-3 keeps the polish local: by then the fixed-point map
# has picked the row's basin, and Newton from the start changed a three-well
# basin.
_POLISH_RESIDUAL = 1e-3
_POLISH_CUT = 0.25


def _newton_trials(model: EnergyModel, v: np.ndarray, g: np.ndarray, residual: np.ndarray):
    """Newton steps v + d, (I + C W / beta) d = G(v) - v with C = diag g - g g^T, from rows v with g = G(v).

    1^T (I + C W / beta) = 1^T, so d is zero-sum. Returns the normalized
    trial rows and a mask of those that are interior (so finite) and lower
    in residual. One singular matrix fails a stacked solve, so that solve
    falls back to one solve per row, and a singular row gets no step.
    """
    W = model.interaction
    jac = g[..., :, None] * (W - g[..., None, :] @ W)  # C W = diag(g) W - g (g^T W)
    jac /= model.beta
    jac += np.eye(model.n)
    rhs = (g - v)[..., None]
    try:
        d = np.linalg.solve(jac, rhs)[..., 0]
    except np.linalg.LinAlgError:
        d = np.full_like(v, np.nan)
        for j in range(len(v)):
            try:
                d[j] = np.linalg.solve(jac[j : j + 1], rhs[j : j + 1])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
    trial = v + d
    trial /= trial.sum(axis=-1, keepdims=True)
    g_trial, _, _ = _softmin(model, trial)
    lower = np.max(np.abs(trial - g_trial), axis=-1) < residual
    return trial, np.all(trial > 0.0, axis=-1) & lower


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # the map overflows for extreme beta, W or V
def _gibbs_rows(model: EnergyModel, starts: np.ndarray, tol: float, max_iter: int, damping: float) -> list[GibbsResult]:
    """Fixed-point solves from the rows of ``starts`` (k, n) in lockstep, one GibbsResult per row.

    A row leaves the loop once its residual is at most tol, is NaN (a map
    that is not finite) or ``max_iter`` is spent; its ``iterations`` is the
    loop count then. Every row keeps its own damping, halvings and previous
    residual, and only row-wise arithmetic touches it, so a stacked call
    gives each row the bits of a one-row call.
    """
    if not (0 < damping <= 1):
        raise ValueError(f"damping must lie in (0, 1], got {damping!r}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    undamped = _undamped(model)
    v = starts.copy()
    rows = np.arange(len(v))  # the start each live row came from
    # per-row state: factors in (k, 1) columns, which broadcast against the rows of v, and the
    # residuals at the current and the last iterate as Python floats, which the loop's gates read
    alpha = np.full((len(v), 1), float(damping))
    step = np.full((len(v), 1), 1.0 if undamped else float(damping))
    stepped = np.zeros((len(v), 1), dtype=bool)  # the last update was a Newton step
    newton = np.zeros(len(v), dtype=int)
    prev = [np.inf] * len(v)
    results: list[GibbsResult] = [None] * len(v)
    for k in range(max_iter + 1):
        g, low, total = _softmin(model, v)
        residual = np.maximum.reduce(np.abs(v - g), axis=-1, keepdims=True)
        current = residual[:, 0].tolist()
        if k == max_iter or not all(r > tol for r in current):  # NaN fails the test too: keep the last finite iterate
            stop = [k == max_iter or not r > tol for r in current]
            for j in np.flatnonzero(stop):
                normalizer = float(np.exp(-low[j, 0] / model.beta) * total[j, 0])
                density = Density(v[j] / v[j].sum())
                results[rows[j]] = GibbsResult(density, normalizer, k, current[j], float(step[j, 0]), int(newton[j]))
            if all(stop):
                break
            live = np.logical_not(stop)
            v, g, residual, rows, alpha, step, stepped, newton = (
                a[live] for a in (v, g, residual, rows, alpha, step, stepped, newton)
            )
            current, prev = residual[:, 0].tolist(), [p for p, keep in zip(prev, live) if keep]
        grew = [r > p for r, p in zip(current, prev)]
        if any(grew):  # halve where the residual grew
            np.maximum(0.5 * alpha, 2.0**-20, out=alpha, where=np.array(grew)[:, None])
        step = np.where(np.minimum.reduce(g, axis=-1, keepdims=True) > 0.0, 1.0, alpha) if undamped else alpha
        fixed = (1.0 - step) * v
        fixed += step * g
        fixed /= np.add.reduce(fixed, axis=-1, keepdims=True)
        if min(current) <= _POLISH_RESIDUAL:  # a Newton step leaves the residual below, so stepped is reset here
            crawls = stepped | (residual > _POLISH_CUT * np.array(prev)[:, None])
            polish = np.flatnonzero((residual <= _POLISH_RESIDUAL) & crawls)
            stepped = np.zeros_like(stepped)
            if polish.size:
                trial, keep = _newton_trials(model, v[polish], g[polish], residual[polish, 0])
                fixed[polish[keep]] = trial[keep]
                newton[polish[keep]] += 1
                stepped[polish[keep]] = True
        prev = current
        v = fixed
    return results


def gibbs_fixed_point(
    model: EnergyModel,
    init: Density,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    damping: float = 0.5,
) -> GibbsResult:
    """Fixed-point iteration rho <- (1-a) rho + a G(rho) for the Gibbs state rho = G(rho), finished by Newton steps.

    For a symmetric W with -2 beta < lambda(W) < 2 beta / 3, G contracts on
    the whole simplex and every mode converges at least as fast undamped as
    with a damping of 1/2 or less (see :func:`_undamped`), so the update
    takes a = 1. Every other model (a non-symmetric W, a spectrum outside
    that range, not finite or not computable) takes a = ``damping``, which
    halves whenever the residual grows, down to 2^-20; that keeps strongly
    attractive interactions from oscillating. An update whose G(rho) has an
    entry that underflows to 0 takes the damped a on both paths, so no
    iterate lands on the boundary.

    Where the map crawls (residual at most 1e-3, cut by less than 4x in the
    last fixed-point update) an iteration tries a Newton step on
    rho - G(rho) instead and keeps it only if it stays interior and lowers
    the residual; each step kept counts as an iteration and in
    ``newton_steps``, and leaves ``damping`` at the factor of the last
    fixed-point update. Raises :class:`NoConvergence` with the last iterate
    attached if ``max_iter`` is exhausted or the map is not finite.
    """
    _require(model.n, interior=("init",), init=init)
    (result,) = _gibbs_rows(model, init.values[None, :], tol, max_iter, damping)
    if result.residual <= tol:
        return result
    raise NoConvergence(
        f"Gibbs iteration residual {result.residual:.3e} > tol {tol:.3e} after {result.iterations} iterations",
        result=result,
    )


def find_all_equilibria(
    model: EnergyModel,
    starts,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    damping: float = 0.5,
) -> list[GibbsResult]:
    """Solve from every start in one lockstep run of :func:`gibbs_fixed_point`'s iteration and deduplicate.

    Each start's result has the bits of a :func:`gibbs_fixed_point` call
    from it. Results closer than 10*tol in the max norm are merged; the
    survivors are sorted by free energy (ties broken lexicographically by
    density). Starts that fail to converge are skipped and counted in a
    warning.
    """
    starts = list(starts)
    for i, rho0 in enumerate(starts):
        _require(model.n, interior=(f"starts[{i}]",), **{f"starts[{i}]": rho0})
    values = np.array([rho0.values for rho0 in starts]).reshape(len(starts), model.n)
    results = _gibbs_rows(model, values, tol, max_iter, damping) if starts else []
    candidates = [r for r in results if r.residual <= tol]
    failed = len(starts) - len(candidates)
    if failed:
        logger.warning("%d of %d equilibrium starts did not converge", failed, len(starts))
    if not candidates:
        return []

    energies = _energy_raw(model, np.array([r.density.values for r in candidates]))
    order = sorted(range(len(candidates)), key=lambda i: (energies[i], tuple(candidates[i].density.values)))
    kept: list[GibbsResult] = []
    for cand in (candidates[i] for i in order):
        if all(
            float(np.max(np.abs(cand.density.values - k.density.values))) > 10.0 * tol
            for k in kept
        ):
            kept.append(cand)
    return kept
