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
    InconsistentRateConstants,
    NoConvergence,
    NonPositiveHessian,
    NonPositiveSymmetrizedJacobian,
    NonSymmetricW,
    NotCertifiedConvex,
    NoValidSamples,
    VacuousCertificate,
)
from .fpe_dynamics import _dissipation_raw, invariant_region
from .free_energy import (
    ConvexityCertificate,
    EnergyModel,
    GibbsResult,
    _energy_raw,
    convexity_certificate,
    energy,
    energy_hessian,
    gibbs_fixed_point,
)
from .graph_core import Graph, graph_laplacian
from .simplex_calculus import Density, _gth_solve, _require, laplacian_matrices

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
    "linearized_rate",
    "fisher_rate",
    "equilibrium_rates",
    "estimate_lsi_constant",
    "tail_slope",
]

_LSI_BLOCK = 256  # sample rows per batched evaluation; bounds the (rows x edges) temporaries

# the Gibbs budget of a certified solve (rate_constants and the lsi command's
# equilibrium): tighter and longer than gibbs_fixed_point's defaults
GIBBS_TOL = 1e-13
GIBBS_MAX_ITER = 500_000
LSI_MIN_MASS = 1e-4  # estimate_lsi_constant's mass floor, which the lsi command checks before its Gibbs solve


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
    _require(model.n, rho=rho, rho_inf=rho_inf)
    return energy(model, rho) - energy(model, rho_inf)


def relative_fisher(model: EnergyModel, graph: Graph, rho: Density, rho_inf: Density | None = None) -> float:
    """I(rho | rho_inf) = F(rho)^T L(rho) F(rho) = -dissipation.

    The equilibrium argument is accepted for interface symmetry with
    :func:`relative_entropy`; the functional depends on it only through the
    drift already encoded in the model.
    """
    _require(graph.node_count, interior=("rho",), model=model, rho=rho, rho_inf=rho_inf)
    return -float(_dissipation_raw(model, graph, rho.values))


def _tangent_rate(
    graph: Graph, rho: Density, S: np.ndarray, what: str = "S", error: type[Exception] | None = None
) -> tuple[float, bool]:
    """(lambda, positive): the smallest tangent eigenvalue of L(rho) S for a symmetric S, and whether S > 0.

    On the zero-sum plane, with basis V = diag(s) Q (s = sqrt(rho), Q
    orthonormal and orthogonal to s), L(rho) S v = lam v is the pencil
    S^ a = lam X^ a with S^ = V^T S V and X^ = V^T X V, where X is the
    inverse of L(rho) grounded at the heaviest node, from one GTH
    elimination (:func:`_gth_solve`). S^ is well conditioned for
    S = Hess F, as diag(s) S diag(s) = diag(s) W diag(s) + beta I, and GTH
    gives X entrywise accurately, so tiny masses keep full relative
    accuracy. With S^ = U G U^T and T = U |G|^-1/2, the reciprocals
    mu = 1/lam are the eigenvalues of N^1/2 J N^1/2, N = T^T X^ T and
    J = sign(G). By Sylvester's law of inertia the number k of negative
    entries of G is the number of negative rates: the smallest rate is
    1/mu_max(N) for k = 0 and otherwise 1/mu_k, the negative mu nearest zero.

    The same decomposition decides S's sign. With r = s * s, B = [r, V] is invertible, so
    by Haynsworth's inertia additivity S > 0 exactly when every gamma and the Schur complement
    r^T S r - |T^T V^T S r|^2 are positive. With ``error``, an S that is not positive definite
    raises it before X^ is formed. A non-finite S^ (named ``what``), N or rate raises NoConvergence.
    """
    order = np.argsort(-rho.values, kind="stable")
    s = np.sqrt(rho.values[order])
    r = s * s
    V = s[:, None] * np.linalg.qr(s[:, None], mode="complete")[0][:, 1:]
    out_of_range = NoConvergence("the tangent eigenproblem of L(rho) S leaves the float range at this density")
    with np.errstate(all="ignore"):  # a pencil or rate out of float range is refused, not warned about
        S_perm = S[np.ix_(order, order)]
        VS = V.T @ S_perm
        S_hat = VS @ V
        if not np.all(np.isfinite(S_hat)):
            raise NoConvergence(f"{what} leaves the float range at this density")
        gamma, U = np.linalg.eigh(S_hat)
        T = U / np.sqrt(np.abs(gamma))
        y = T.T @ (VS @ r)
        positive = bool(gamma[0] > 0.0 and r @ S_perm @ r - y @ y > 0.0)
        if error is not None and not positive:
            raise error(f"{what} is not positive definite")
        X_hat = _gth_solve(laplacian_matrices(graph, rho.values)[np.ix_(order, order)], V.T)[0] @ V
        N = T.T @ (0.5 * (X_hat + X_hat.T)) @ T
        if not np.all(np.isfinite(N)):
            raise out_of_range
        k = int(np.sum(gamma < 0.0))
        if k == 0:
            rate = 1.0 / np.linalg.eigvalsh(N)[-1]
        else:
            nu, Z = np.linalg.eigh(N)
            # N is positive semidefinite: clip the rounding-sized negative eigenvalues of its huge-rate modes
            root = (Z * np.sqrt(np.maximum(nu, 0.0))) @ Z.T
            rate = 1.0 / np.linalg.eigvalsh((root * np.sign(gamma)) @ root)[k - 1]
    if not np.isfinite(rate):
        raise out_of_range
    return float(rate), positive


def equilibrium_rates(
    model: EnergyModel, graph: Graph, rho_inf: Density, strict: bool = True
) -> tuple[float, bool, float | None]:
    """(lambda, hessian_positive, lambda_fisher) at rho_inf, all from one tangent eigenproblem.

    lambda is the slowest tangent rate of L(rho_inf) Hess F(rho_inf). For the symmetric W required
    here the symmetrized Jacobian W + W^T + 2 beta diag(1/rho) is 2 Hess F, so lambda_fisher is
    2 lambda when Hess F is positive definite and None otherwise. With strict, an indefinite Hess F
    raises :class:`NonPositiveHessian` instead.
    """
    _require(graph.node_count, interior=("rho_inf",), model=model, rho_inf=rho_inf)
    if not model.is_symmetric:
        raise NonSymmetricW("equilibrium rates require a symmetric interaction matrix")
    error = NonPositiveHessian if strict else None
    lam, positive = _tangent_rate(graph, rho_inf, energy_hessian(model, rho_inf), "Hess F", error)
    return lam, positive, 2.0 * lam if positive else None


def asymptotic_rate(model: EnergyModel, graph: Graph, rho_inf: Density) -> float:
    """lambda_sec(L(rho) HessF(rho)) = min over potentials of Phi^T L HessF L Phi subject to Phi^T L Phi = 1.

    Bound to both names: ``hessian_quadratic_rate`` at any interior rho, and
    at an equilibrium rho_inf the asymptotic rate governing the decay tail.
    """
    return equilibrium_rates(model, graph, rho_inf)[0]


hessian_quadratic_rate = asymptotic_rate


def linearized_rate(model: EnergyModel, graph: Graph, rho_inf: Density) -> float:
    """Slowest tangent eigenvalue of L(rho_inf) HessF(rho_inf).

    Needs no positive-definite Hessian, so it also covers equilibria of
    non-convex energies where the full-space Hessian is indefinite; a
    negative return value flags an unstable equilibrium. The sign comes from
    the tangent inertia: the number of negative rates is the number of
    negative eigenvalues of HessF on the zero-sum plane, so it stays right
    for masses near the simplex boundary.
    """
    return equilibrium_rates(model, graph, rho_inf, strict=False)[0]


def fisher_rate(model: EnergyModel, graph: Graph, rho_inf: Density) -> float:
    """lambda = lambda_sec(L(rho_inf) (JF^T + JF)(rho_inf)).

    Valid for non-symmetric interaction matrices; JF = W + beta diag(1/rho).
    With a symmetric W this is twice the asymptotic rate, which
    :func:`equilibrium_rates` reports without a second eigenproblem.
    """
    _require(graph.node_count, interior=("rho_inf",), model=model, rho_inf=rho_inf)
    W = model.interaction
    sym_jac = W + W.T + 2.0 * model.beta * np.diag(1.0 / rho_inf.values)
    return _tangent_rate(graph, rho_inf, sym_jac, "symmetrized Jacobian", NonPositiveSymmetrizedJacobian)[0]


def _certificate(model: EnergyModel) -> ConvexityCertificate:
    """The model's convexity certificate; raises :class:`NotCertifiedConvex` where it fails."""
    cert = convexity_certificate(model)
    if not cert.certified_convex:
        raise NotCertifiedConvex(f"convexity certificate failed (lambda_min(W) + beta = {cert.lambda_min_bound:.6g})")
    return cert


def _certified_gibbs(
    model: EnergyModel, rho0: Density, tol: float = GIBBS_TOL, max_iter: int = GIBBS_MAX_ITER
) -> tuple[ConvexityCertificate, GibbsResult]:
    """The certificate, then the Gibbs state from rho0 at the certified budget: an uncertified model runs no solve."""
    return _certificate(model), gibbs_fixed_point(model, rho0, tol=tol, max_iter=max_iter)


def rate_constants(
    model: EnergyModel,
    graph: Graph,
    rho0: Density,
    gibbs_tol: float = GIBBS_TOL,
    gibbs_max_iter: int = GIBBS_MAX_ITER,
) -> RateReport:
    """Assemble every explicit constant of the global decay bound.

    Requires a certified-convex model and an interior start. The Gibbs
    equilibrium is computed internally. The Theorem-style r and the
    C3/sqrt(C1 C2) route agree algebraically; both are evaluated and
    cross-checked to 1e-9 relative as an internal consistency guard
    (:class:`InconsistentRateConstants` on failure). Raises
    :class:`VacuousCertificate` when the floor m underflows to 0 or C, C1, C3
    or lambda_sec is not a positive float (e.g. (r + 1)^2 overflows), and
    :class:`NoConvergence` when lambda_sec is at most 1e3 n eps lambda_max,
    below what ``eigvalsh`` resolves.
    """
    _require(graph.node_count, interior=("rho0",), model=model, rho0=rho0)
    cert, gibbs = _certified_gibbs(model, rho0, gibbs_tol, gibbs_max_iter)
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
    if not lam_sec > 0.0:
        raise VacuousCertificate(
            f"lambda_sec of the graph Laplacian evaluates to {lam_sec!r}; the decay certificate is vacuous"
        )
    # eigvalsh is accurate to about eps lambda_max, so a smaller lambda_sec is noise, not a bound
    resolved = 1e3 * graph.node_count * np.finfo(float).eps * lam_max
    if math.isfinite(resolved) and lam_sec <= resolved:
        raise NoConvergence(
            f"lambda_sec of the graph Laplacian evaluates to {lam_sec:.3e}, below the {resolved:.3e} that "
            f"eigvalsh resolves next to lambda_max {lam_max:.3e}"
        )
    lam_min_hess = cert.lambda_min_bound
    hess_norm1 = float(np.max(np.abs(model.interaction).sum(axis=0))) + model.beta / m
    delta_f = max(energy(model, rho0) - f_inf, 0.0)

    # deg_w and lam_max enter r and C3 through their ratios to lam_sec, which
    # edge weights anywhere in the float range leave representable
    deg_w = graph.max_degree * graph.max_weight
    spread = lam_max / lam_sec
    C2 = 2.0 * m * lam_sec * lam_min_hess
    C3 = 2.0 * math.sqrt(2.0) * deg_w * hess_norm1 / math.sqrt(lam_min_hess) * (1.0 - m) / m * spread
    if delta_f > 0.0:
        C1 = C2 / delta_f
        r = (
            math.sqrt(2.0)
            * (deg_w / lam_sec)
            * hess_norm1
            / lam_min_hess
            / math.sqrt(lam_min_hess)
            * (1.0 - m)
            / m
            / m
            * spread
            * math.sqrt(delta_f)
        )
    else:
        # started at the equilibrium: the far-field branch is vacuous
        C1 = math.inf
        r = 0.0
    try:
        C = C2 / (r + 1.0) ** 2
    except OverflowError:
        C = 0.0
    if not (0.0 < C < math.inf and 0.0 < C3 < math.inf and (C1 < math.inf or delta_f == 0.0)):
        raise VacuousCertificate(
            f"the rate constants are not representable (C={C!r}, C1={C1!r}, C3={C3!r}, r={r!r}, "
            f"floor m={m!r}); the decay certificate is vacuous"
        )
    sqrt_x = 0.0
    c_alt = C2
    if delta_f > 0.0:
        # rationalized root of C1 x = C2 - C3 sqrt(x); the naive quadratic
        # formula cancels catastrophically when C3^2 >> C1 C2
        sqrt_x = 2.0 * C2 / (C3 + math.sqrt(C3 * C3 + 4.0 * C1 * C2))
        r_alt = C3 / math.sqrt(C1) / math.sqrt(C2)
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


def verify_decay_bound(times, energies, report: RateReport) -> DecayCheck:
    """Check F(rho(t)) - F_inf <= e^{-Ct} (F(rho0) - F_inf) at every recorded time, with F_inf = ``report.f_inf``.

    ``times`` and ``energies`` are arrays of the recorded samples, for
    instance a :class:`Trajectory`'s ``times`` and ``energy``.
    """
    f_inf = report.f_inf
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
    min_mass: float = LSI_MIN_MASS,
) -> LsiEstimate:
    """Sampled estimate of the largest lambda with H <= I / (2 lambda).

    Draws ``count`` points uniformly from the region of the simplex where
    every coordinate is >= ``min_mass``, as min_mass + (1 - n min_mass)
    Dirichlet(1): the affine image of the uniform law on the simplex, so
    nothing is rejected. Minimizes I/(2H) over samples whose entropy gap
    is at least 1e-12 s, where s = |rho^T W rho / 2| + |V^T rho| +
    beta |sum rho log rho| at rho_inf is the size of F's terms, which sets
    the gap's rounding. Deterministic for a fixed seed. The inequality is stated
    for beta = 1; other temperatures are accepted as an extension (both
    functionals carry beta consistently).
    """
    _require(graph.node_count, interior=("rho_inf",), model=model, rho_inf=rho_inf)
    _certificate(model)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    n = model.n
    if not (0 <= min_mass < 1.0 / n):
        raise ValueError(f"min_mass must lie in [0, 1/n), got {min_mass!r}")
    if count * n > np.iinfo(np.intp).max // 8:  # numpy refuses to size the (count, n) samples
        raise MemoryError(f"{count} samples on {n} nodes are more than numpy can index")

    rng = np.random.default_rng(seed)
    samples = min_mass + (1.0 - n * min_mass) * rng.dirichlet(np.ones(n), size=count)

    f_inf = energy(model, rho_inf)
    r = rho_inf.values
    least = 1e-12 * (abs(0.5 * r @ model.interaction @ r) + abs(model.potential @ r) + model.beta * abs(r @ np.log(r)))
    ratios = np.empty(count)
    for start in range(0, count, _LSI_BLOCK):
        block = samples[start : start + _LSI_BLOCK]
        gap = _energy_raw(model, block) - f_inf
        fisher = -_dissipation_raw(model, graph, block)
        ratios[start : start + _LSI_BLOCK] = np.divide(
            fisher, 2.0 * gap, out=np.full_like(gap, math.inf), where=gap >= least
        )

    retained = int(np.sum(np.isfinite(ratios)))
    if retained == 0:
        raise NoValidSamples("every sample's entropy gap fell below 1e-12 times the size of F's terms at equilibrium")
    best = int(np.argmin(ratios))
    return LsiEstimate(
        lambda_hat=float(ratios[best]),
        worst_density=Density(samples[best]),
        samples_retained=retained,
    )
