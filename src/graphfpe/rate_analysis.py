"""Convergence-rate formulas: global decay constant, asymptotic and Fisher
rates, relative entropy/Fisher functionals, and log-Sobolev estimation.

Two domain restrictions are deliberate. The 1-norm of the Hessian is taken
over the invariant region (bounded by |||W|||_1 + beta/m) because over the
whole simplex the entropy term makes it infinite. The minimal Hessian
eigenvalue uses the certified global bound lambda_min(W) + beta instead of
a numeric search over the simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryDensity,
    DimensionMismatch,
    InconsistentRateConstants,
    NonPositiveHessian,
    NonPositiveSymmetrizedJacobian,
    NonSymmetricW,
    NotCertifiedConvex,
    NoValidSamples,
    VacuousCertificate,
)
from .fpe_dynamics import dissipation, invariant_region
from .free_energy import (
    EnergyModel,
    _drift_raw,
    _energy_raw,
    convexity_certificate,
    energy,
    energy_hessian,
    gibbs_fixed_point,
)
from .graph_core import Graph, graph_laplacian
from .simplex_calculus import Density, _gth_solve, laplacian_form, laplacian_matrices

__all__ = [
    "RateReport",
    "DecayCheck",
    "LsiEstimate",
    "relative_entropy",
    "relative_fisher",
    "rate_constants",
    "verify_decay_bound",
    "asymptotic_rate",
    "hessian_quadratic_rate",
    "fisher_rate",
    "equilibrium_rates",
    "estimate_lsi_constant",
    "tail_slope",
]

_LSI_BLOCK = 256  # sample rows per batched evaluation; bounds the (rows x edges) temporaries


@dataclass(frozen=True, eq=False)
class RateReport:
    """Every constant entering the global exponential decay bound.

    ``hess_norm1`` is the 1-norm bound over the invariant region (floor m),
    not over the whole simplex. ``x_star`` is the optimal region-splitting
    parameter where the far-field and near-field rates cross.
    """

    m: float
    lambda_sec_hat: float
    lambda_max_hat: float
    lambda_min_hess: float
    hess_norm1: float
    delta_F: float
    C1: float
    C2: float
    C3: float
    r: float
    C: float
    x_star: float
    rho_inf: Density
    f_inf: float


@dataclass(frozen=True)
class DecayCheck:
    """Outcome of checking the exponential bound along a trajectory.

    ``max_violation`` is the worst observed (F(t) - F_inf) / (e^{-Ct} dF)
    minus one; negative values mean the bound held with slack.
    """

    holds: bool
    max_violation: float


@dataclass(frozen=True, eq=False)
class LsiEstimate:
    """Sampled upper estimate of the optimal log-Sobolev constant."""

    lambda_hat: float
    worst_density: Density
    samples_retained: int


def relative_entropy(model: EnergyModel, rho: Density, rho_inf: Density) -> float:
    """H(rho | rho_inf) = F(rho) - F(rho_inf)."""
    return energy(model, rho) - energy(model, rho_inf)


def relative_fisher(model: EnergyModel, graph: Graph, rho: Density, rho_inf: Density | None = None) -> float:
    """I(rho | rho_inf) = F(rho)^T L(rho) F(rho) = -dissipation.

    The equilibrium argument is accepted for interface symmetry with
    :func:`relative_entropy`; the functional depends on it only through the
    drift already encoded in the model.
    """
    if rho_inf is not None and rho_inf.n != rho.n:
        raise DimensionMismatch("rho and rho_inf have different lengths")
    return -dissipation(model, graph, rho)


def _tangent_rates(graph: Graph, rho: Density, *S: np.ndarray) -> list[float]:
    """Smallest of the n - 1 tangent eigenvalues of L(rho) S, for each symmetric S, from one GTH elimination.

    On the zero-sum plane, with basis V = diag(s) Q (s = sqrt(rho), Q
    orthonormal and orthogonal to s), L(rho) S v = lam v is the pencil
    S^ a = lam X^ a with S^ = V^T S V and X^ = V^T X V, where X is the
    inverse of L(rho) grounded at the heaviest node, from the one GTH
    elimination (:func:`_gth_solve`) that every S shares. S^ is well
    conditioned for S = Hess F, as diag(s) S diag(s) = diag(s) W diag(s) +
    beta I, and GTH gives X entrywise accurately, so tiny masses keep full
    relative accuracy. With S^ = U G U^T and T = U |G|^-1/2, the reciprocals
    mu = 1/lam are the eigenvalues of N^1/2 J N^1/2, N = T^T X^ T and
    J = sign(G). By Sylvester's law of inertia the number k of negative
    entries of G is the number of negative rates: the smallest rate is
    1/mu_max(N) for k = 0 and otherwise 1/mu_k, the negative mu nearest zero.
    """
    order = np.argsort(-rho.values, kind="stable")
    s = np.sqrt(rho.values[order])
    V = s[:, None] * np.linalg.qr(s[:, None], mode="complete")[0][:, 1:]
    X_hat = _gth_solve(laplacian_matrices(graph, rho.values)[np.ix_(order, order)], V.T)[0] @ V
    X_sym = 0.5 * (X_hat + X_hat.T)
    rates = []
    for S_k in S:
        gamma, U = np.linalg.eigh(V.T @ S_k[np.ix_(order, order)] @ V)
        T = U / np.sqrt(np.abs(gamma))
        N = T.T @ X_sym @ T
        k = int(np.sum(gamma < 0.0))
        if k == 0:
            rates.append(float(1.0 / np.linalg.eigvalsh(N)[-1]))
            continue
        nu, Z = np.linalg.eigh(N)
        # N is positive semidefinite: clip the rounding-sized negative eigenvalues of its huge-rate modes
        root = (Z * np.sqrt(np.maximum(nu, 0.0))) @ Z.T
        rates.append(float(1.0 / np.linalg.eigvalsh((root * np.sign(gamma)) @ root)[k - 1]))
    return rates


def _require_positive_definite(S: np.ndarray, error: type[Exception], what: str, strict: bool = True) -> bool:
    """Whether S is positive definite; with strict, raises error instead of returning False."""
    low = float(np.linalg.eigvalsh(S)[0])  # S is symmetric by construction
    if low <= 0.0 and strict:
        raise error(f"{what} is not positive definite (min eigenvalue {low:.3e})")
    return low > 0.0


def hessian_quadratic_rate(model: EnergyModel, graph: Graph, rho: Density) -> float:
    """min over potentials of Phi^T L HessF L Phi subject to Phi^T L Phi = 1.

    Equals the second-smallest eigenvalue of L(rho) HessF(rho); at an
    equilibrium this is the asymptotic decay rate.
    """
    if not model.is_symmetric:
        raise NonSymmetricW("Hessian quadratic form requires a symmetric interaction matrix")
    hess = energy_hessian(model, rho)  # raises BoundaryDensity unless rho is interior
    _require_positive_definite(hess, NonPositiveHessian, "Hess F")
    return _tangent_rates(graph, rho, hess)[0]


def asymptotic_rate(model: EnergyModel, graph: Graph, rho_inf: Density) -> float:
    """lambda = lambda_sec(L(rho_inf) HessF(rho_inf)) governing the decay tail."""
    return hessian_quadratic_rate(model, graph, rho_inf)


def linearized_rate(model: EnergyModel, graph: Graph, rho_inf: Density) -> float:
    """Slowest tangent eigenvalue of L(rho_inf) HessF(rho_inf).

    Needs no positive-definite Hessian, so it also covers equilibria of
    non-convex energies where the full-space Hessian is indefinite; a
    negative return value flags an unstable equilibrium. The sign comes from
    the tangent inertia: the number of negative rates is the number of
    negative eigenvalues of HessF on the zero-sum plane, so it stays right
    for masses near the simplex boundary. Equals :func:`asymptotic_rate` bit
    for bit whenever the Hessian is positive definite.
    """
    if not model.is_symmetric:
        raise NonSymmetricW("linearized rate requires a symmetric interaction matrix")
    return _tangent_rates(graph, rho_inf, energy_hessian(model, rho_inf))[0]


def fisher_rate(model: EnergyModel, graph: Graph, rho_inf: Density) -> float:
    """lambda = lambda_sec(L(rho_inf) (JF^T + JF)(rho_inf)).

    Valid for non-symmetric interaction matrices; JF = W + beta diag(1/rho).
    With a symmetric W this is exactly twice the asymptotic rate.
    """
    if not rho_inf.interior:
        raise BoundaryDensity("Fisher rate needs an interior equilibrium")
    sym_jac = _symmetrized_jacobian(model, rho_inf)
    _require_positive_definite(sym_jac, NonPositiveSymmetrizedJacobian, "symmetrized Jacobian")
    return _tangent_rates(graph, rho_inf, sym_jac)[0]


def _symmetrized_jacobian(model: EnergyModel, rho: Density) -> np.ndarray:
    return model.interaction + model.interaction.T + 2.0 * model.beta * np.diag(1.0 / rho.values)


def equilibrium_rates(
    model: EnergyModel, graph: Graph, rho_inf: Density, strict: bool = True
) -> tuple[float, bool, float | None]:
    """(lambda, hessian_positive, lambda_fisher) at rho_inf from one GTH elimination of L(rho_inf).

    The rates are bit for bit those of :func:`asymptotic_rate` and :func:`fisher_rate`. Where Hess F
    or the symmetrized Jacobian is not positive definite, strict raises as they do; otherwise lambda
    is :func:`linearized_rate` with hessian_positive False, or lambda_fisher is None.
    """
    if not model.is_symmetric:
        raise NonSymmetricW("Hessian quadratic form requires a symmetric interaction matrix")
    hess = energy_hessian(model, rho_inf)  # raises BoundaryDensity unless rho_inf is interior
    sym_jac = _symmetrized_jacobian(model, rho_inf)
    positive = _require_positive_definite(hess, NonPositiveHessian, "Hess F", strict)
    fisher = _require_positive_definite(sym_jac, NonPositiveSymmetrizedJacobian, "symmetrized Jacobian", strict)
    if not fisher:
        return _tangent_rates(graph, rho_inf, hess)[0], positive, None
    lam, lam_fisher = _tangent_rates(graph, rho_inf, hess, sym_jac)
    return lam, positive, lam_fisher


def rate_constants(
    model: EnergyModel,
    graph: Graph,
    rho0: Density,
    gibbs_tol: float = 1e-13,
    gibbs_max_iter: int = 500_000,
) -> RateReport:
    """Assemble every explicit constant of the global decay bound.

    Requires a certified-convex model and an interior start. The Gibbs
    equilibrium is computed internally. The Theorem-style r and the
    C3/sqrt(C1 C2) route agree algebraically; both are evaluated and
    cross-checked to 1e-9 relative as an internal consistency guard
    (:class:`InconsistentRateConstants` on failure). Raises
    :class:`VacuousCertificate` when the floor m or the constant C underflows
    to 0 or (r + 1)^2 overflows.
    """
    cert = convexity_certificate(model)
    if not cert.certified_convex:
        raise NotCertifiedConvex(
            f"convexity certificate failed (lambda_min(W) + beta = {cert.lambda_min_bound:.6g})"
        )
    if not rho0.interior:
        raise BoundaryDensity("rate constants need an interior starting density")

    gibbs = gibbs_fixed_point(model, rho0, tol=gibbs_tol, max_iter=gibbs_max_iter)
    rho_inf = gibbs.density
    f_inf = energy(model, rho_inf)

    region = invariant_region(model, graph, rho0)
    m = region.m
    if m == 0.0:
        raise VacuousCertificate(
            "the invariant-region floor m underflows to 0; the decay certificate is vacuous"
        )
    hat = np.linalg.eigvalsh(graph_laplacian(graph))
    lam_sec = float(hat[1])
    lam_max = float(hat[-1])
    lam_min_hess = cert.lambda_min_bound
    hess_norm1 = float(np.max(np.abs(model.interaction).sum(axis=0))) + model.beta / m
    delta_f = max(energy(model, rho0) - f_inf, 0.0)

    deg_w = graph.max_degree * graph.max_weight
    C2 = 2.0 * m * lam_sec * lam_min_hess
    C3 = (
        2.0
        * math.sqrt(2.0)
        * deg_w
        * hess_norm1
        / math.sqrt(lam_min_hess)
        * (1.0 - m)
        / m
        * lam_max
        / lam_sec
    )
    if delta_f > 0.0:
        C1 = C2 / delta_f
        r = (
            math.sqrt(2.0)
            * deg_w
            * hess_norm1
            / lam_min_hess**1.5
            * (1.0 - m)
            / m
            / m
            * lam_max
            / lam_sec**2
            * math.sqrt(delta_f)
        )
        # rationalized root of C1 x = C2 - C3 sqrt(x); the naive quadratic
        # formula cancels catastrophically when C3^2 >> C1 C2
        sqrt_x = 2.0 * C2 / (C3 + math.sqrt(C3 * C3 + 4.0 * C1 * C2))
    else:
        # started at the equilibrium: the far-field branch is vacuous
        C1 = math.inf
        r = 0.0
        sqrt_x = 0.0
    try:
        C = C2 / (r + 1.0) ** 2
    except OverflowError:
        C = 0.0
    if C == 0.0:
        raise VacuousCertificate(
            f"C = C2 / (r + 1)^2 is not representable (r={r!r}, floor m={m!r}); "
            "the decay certificate is vacuous"
        )
    c_alt = C2
    if delta_f > 0.0:
        r_alt = C3 / math.sqrt(C1 * C2)
        if abs(r - r_alt) > 1e-9 * max(r, r_alt):
            raise InconsistentRateConstants(
                f"rate constant inconsistency: r={r!r} vs C3/sqrt(C1 C2)={r_alt!r}"
            )
        c_alt = C2 / (r_alt + 1.0) ** 2
    if abs(C - c_alt) > 1e-9 * max(C, c_alt):
        raise InconsistentRateConstants(
            f"rate constant inconsistency: C={C!r} vs C2/(r'+1)^2={c_alt!r}"
        )

    return RateReport(
        m=m,
        lambda_sec_hat=lam_sec,
        lambda_max_hat=lam_max,
        lambda_min_hess=lam_min_hess,
        hess_norm1=hess_norm1,
        delta_F=delta_f,
        C1=C1,
        C2=C2,
        C3=C3,
        r=r,
        C=C,
        x_star=sqrt_x * sqrt_x,
        rho_inf=rho_inf,
        f_inf=f_inf,
    )


def verify_decay_bound(times, energies, report: RateReport, f_inf: float) -> DecayCheck:
    """Check F(rho(t)) - F_inf <= e^{-Ct} (F(rho0) - F_inf) at every recorded time.

    ``times`` and ``energies`` are arrays of the recorded samples, for
    instance a :class:`Trajectory`'s ``times`` and ``energy``.
    """
    gaps = energies - f_inf
    bounds = np.exp(-report.C * times) * report.delta_F
    worst = -math.inf
    for gap, bound in zip(gaps, bounds):
        if bound > 0.0:
            ratio = float(gap) / float(bound)
        elif gap <= 1e-12 * max(1.0, abs(f_inf)):
            ratio = 0.0
        else:
            ratio = math.inf
        worst = max(worst, ratio)
    return DecayCheck(holds=bool(worst <= 1.0 + 1e-9), max_violation=worst - 1.0)


def tail_slope(times, values, min_value: float = 1e-11, fraction: float = 0.3) -> float:
    """Least-squares slope of log(values) vs time over the decay tail.

    Keeps samples above ``min_value`` and regresses on the last ``fraction``
    of them (at least two points).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = v > min_value
    if int(mask.sum()) < 2:
        raise ValueError(f"fewer than two samples above {min_value!r}")
    t = t[mask]
    v = v[mask]
    k = max(2, int(math.ceil(fraction * t.size)))
    t = t[-k:]
    v = v[-k:]
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(v), rcond=None)
    return float(coef[0])


def estimate_lsi_constant(
    model: EnergyModel,
    graph: Graph,
    rho_inf: Density,
    count: int,
    seed: int,
    min_mass: float = 1e-4,
) -> LsiEstimate:
    """Sampled estimate of the largest lambda with H <= I / (2 lambda).

    Draws ``count`` points uniformly from the region of the simplex where
    every coordinate is >= ``min_mass``: flat Dirichlet draws that lie in the
    region, the others replaced by min_mass + (1 - n min_mass) Dirichlet(1),
    which never rejects. Minimizes I/(2H) over samples whose entropy gap
    exceeds 1e-12. Deterministic for a fixed seed. The inequality is stated
    for beta = 1; other temperatures are accepted as an extension (both
    functionals carry beta consistently).
    """
    cert = convexity_certificate(model)
    if not cert.certified_convex:
        raise NotCertifiedConvex(
            f"LSI estimation requires a certified-convex model "
            f"(lambda_min(W) + beta = {cert.lambda_min_bound:.6g})"
        )
    if not rho_inf.interior:
        raise BoundaryDensity("LSI estimation needs an interior equilibrium")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    n = model.n
    if not (0 <= min_mass < 1.0 / n):
        raise ValueError(f"min_mass must lie in [0, 1/n), got {min_mass!r}")

    # Given how many draws land in the region, those draws are uniform on
    # it, and so are the affine images that replace the others. The kept
    # draws are the first samples an accept/reject loop on the same seed
    # returns, so seeded results move little where few draws miss.
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(np.ones(n), size=count)
    kept = draws[draws.min(axis=1) >= min_mass]
    fill = min_mass + (1.0 - n * min_mass) * rng.dirichlet(np.ones(n), size=count - len(kept))
    samples = np.concatenate([kept, fill])

    f_inf = energy(model, rho_inf)
    ratios = np.empty(count)
    for start in range(0, count, _LSI_BLOCK):
        block = samples[start : start + _LSI_BLOCK]
        gap = _energy_raw(model, block) - f_inf
        fisher = laplacian_form(graph, block, _drift_raw(model, block))
        ratios[start : start + _LSI_BLOCK] = np.divide(
            fisher, 2.0 * gap, out=np.full_like(gap, math.inf), where=gap >= 1e-12
        )

    retained = int(np.sum(np.isfinite(ratios)))
    if retained == 0:
        raise NoValidSamples("every sample fell within 1e-12 of the equilibrium energy")
    best = int(np.argmin(ratios))
    return LsiEstimate(
        lambda_hat=float(ratios[best]),
        worst_density=Density(samples[best]),
        samples_retained=retained,
    )
