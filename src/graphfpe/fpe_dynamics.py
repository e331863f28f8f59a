"""Nonlinear Fokker-Planck dynamics on the simplex of a graph.

The flow is d rho / dt = -L(rho) F(rho), written per node as
sum_j w_ij theta_ij (F_j - F_i) with F the drift field of the energy model.
One builder, ``_flow_kernels``, binds the model and the graph and returns
the flow's right-hand side, the kernel of ``laplacian_apply`` at the drift,
which counts the rows it evaluates.
``integrate`` builds it once per run, and ``_rhs_raw``, behind ``fpe_rhs``,
once per call, so both run the same code. Integration uses the explicit embedded
Dormand-Prince 8(5,3) pair (DOP853; Hairer, Norsett & Wanner, Solving ODEs I,
II.10) in array form: the twelve stages are rows of one array, and each
stage point, and the update with its two error estimates, are matrix
products with the tableau. For symmetric W the run switches, at the first
accepted step that has grown to h lambda_max >= 2 and finds the flow linear
to within 5e-2, to fourth-order exponential ETDRK4 steps (Cox & Matthews,
J. Comput. Phys. 2002) whose linear part is the equilibrium Jacobian
J = -L(rho_inf) Hess F(rho_inf), taken in the modal coordinates of one
eigendecomposition per run; their error is estimated by step doubling.
Their local error shrinks geometrically as the flow nears rho_inf, and the
step after each accepted exponential step is sized by Gustafsson's
predictive controller (ACM TOMS 1994; Hairer & Wanner, Solving ODEs II,
IV.8), which follows that decay. Both methods reject a step on any of four
guards: a positivity floor derived from the invariant region (at each stage
and at the new state), scaled local error, the mass budget and, for gradient
flows, monotonicity of the free energy.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import BoundaryDensity, NoConvergence, StepSizeUnderflow
from .free_energy import EnergyModel, _drift_raw, _energy_raw, energy_hessian, gibbs_fixed_point
from .graph_core import Graph, freeze
from .simplex_calculus import Density, TangentVector, _flux_kernel, _require, laplacian_form, laplacian_matrices

__all__ = [
    "Trajectory",
    "InvariantRegion",
    "fpe_rhs",
    "invariant_region",
    "integrate",
    "dissipation",
]

# Dormand-Prince 8(5,3) tableau (Hairer's dop853.f; Hairer, Norsett & Wanner,
# Solving ODEs I, II.10): twelve stages, an 8th-order propagated solution and
# two error weight rows, E5 (a 5th-order estimate) and E3 (B less the
# 3rd-order weights, which are nonzero only at stages 0, 8 and 11). The
# error needs no stage at the new state.
_RK_C = (
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
)
_RK_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
        -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
        -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
        -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
        2.27394870993505042818970056734e1, 2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
        -2.85899827713502369474065508674, -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
)
_RK_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
_RK_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
_RK_B3 = (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.733846688281611857341361741547, 0.0, 0.0,
    0.220588235294117647058823529412e-1,
)
_RK_E3 = tuple(b - b3 for b, b3 in zip(_RK_B, _RK_B3))

# The same tableau as arrays: _STAGE_ROWS[s] weighs stages 0..s-1 into stage
# s, and _UPDATE stacks the 8th-order weights over the two error rows, so one
# product with the stage array gives the update and both error vectors.
_STAGE_ROWS = tuple(np.array(row) for row in _RK_A)
_UPDATE = np.array((_RK_B, _RK_E5, _RK_E3))

# the rejection guards of integrate, in the order a step meets them
_GUARDS = ("stage_floor", "step_floor", "error", "mass", "energy")

_ABS_FLOOR = 1e-14  # keeps log(rho) representable even with the region guard off
_MASS_DRIFT_BUDGET = 1e-13  # per accepted step, before renormalization
# integrate refuses abs_tol + rel_tol below it, 2^-73 = 1.06e-22: at rel_tol = abs_tol = 1e-23
# five 2- and 3-node flows all spend the step budget, and at 1e-22 four of them finish
# (the nine 10- to 200-node benchmark flows spend it at 1e-20 and finish at 1e-17).
# A power of two adds no float literal to those hypothesis draws its examples from.
_TOL_FLOOR = 2.0**-73
# attempted steps (accepted or rejected) per run; at equilibrium the step
# stays near the explicit stability limit, so a huge t_end would never end
_STEP_BUDGET = 100_000

# Switch to the exponential tail at the first accepted DOP853 step that finds
# h lambda_max(-J) >= _TAIL_STIFF (the step has grown to where the stiff
# modes, not the accuracy, will soon bound it; DOP853's real stability
# boundary is -6.39) and |f(y) - J (y - rho_inf)| <= _TAIL_LINEAR |f(y)|
# (the flow is nearly linear about rho_inf; the fourth-order tail follows
# what remains of N(y) with the error control). Over the nine benchmark
# flows at seeds 401-410 this takes 30 583 right-hand-side rows; waiting
# for two passing steps in a row took 30 761, as accurate. The linearity
# test also keeps off a tail about a Gibbs state in another basin than the
# flow's: without it, a 4-node double well switches onto one, takes 1895
# rows where 802 suffice, and ends 4.5e-8 from a tight DOP853 run. At seeds
# 401 and 402, a switch at h lambda_max 1-4 spends the same rows within 3%;
# at 6 it spends 13-15% more.
_TAIL_LINEAR = 5e-2
_TAIL_STIFF = 2.0
# Taylor coefficients 1/(j + 3)! of phi_3, lowest power first, used for
# |z| < 1.25 (the closed form of phi_3 loses up to 4 ulp just above |z| = 1);
# the first term left out, z^18/21!, is below 2^-55 of phi_3(z) > 0.12 there
_PHI3_TAYLOR = np.array([1.0 / math.factorial(j + 3) for j in range(18)])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states of one integration run with energy/dissipation diagnostics."""

    times: np.ndarray
    densities: tuple[Density, ...]
    energy: np.ndarray
    dissipation: np.ndarray
    accepted_steps: int
    # rejected steps per guard (keys as in _GUARDS); integrate fills every guard
    rejected_by: Mapping[str, int] = field(default_factory=lambda: MappingProxyType({}))
    # accepted exponential tail steps (counted in accepted_steps too) and the
    # time of the switch to them, None if the run never switched
    exponential_steps: int = 0
    switch_time: float | None = None
    # right-hand-side rows evaluated by either method, rejected attempts included
    rhs_evaluations: int = 0

    @property
    def final_density(self) -> Density:
        return self.densities[-1]

    @property
    def rejected_steps(self) -> int:
        return sum(self.rejected_by.values())


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


def _flow_kernels(model: EnergyModel, graph: Graph) -> tuple[Callable, Callable[[], int]]:
    """(f, evaluated): the flow's right-hand side for one run, and the reader of the rows f has evaluated.

    f(rho) = -L(rho) F(rho) is ``simplex_calculus._flux_kernel``, bound to the
    graph once, at the drift d = ``_drift_raw(model, rho)``, so no negation
    pass runs. f takes positive rows (..., n), validates nothing, and gives a
    stacked call the bits of one call per row.
    """
    n, flux = model.n, _flux_kernel(graph)
    rows = 0

    def f(values: np.ndarray) -> np.ndarray:
        nonlocal rows
        rows += values.size // n
        return flux(values, _drift_raw(model, values))

    return f, lambda: rows


def _rhs_raw(model: EnergyModel, graph: Graph, values: np.ndarray) -> np.ndarray:
    """-L(rho) F(rho) per row, (..., n) -> (..., n): one call of the f of :func:`_flow_kernels`.

    Takes raw positive density rows, validates nothing, and a stacked call
    gives the same bits as one call per row.
    """
    return _flow_kernels(model, graph)[0](values)


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
    mag = np.abs(model.potential)
    if model.has_interaction:
        mag = mag[:, None] + np.abs(model.interaction)
    mag = float(np.max(mag))
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


def _phi(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi_1(z), phi_2(z), phi_3(z)) entrywise for z <= 0, phi_{k+1}(z) = (phi_k(z) - 1/k!)/z, phi_0 = e^z.

    Where |z| < 1.25, phi_3 is its Taylor sum, one power table times the
    coefficients, and the recurrence runs downward (phi_2 = 1/2 + z phi_3,
    phi_1 = 1 + z phi_2); elsewhere it runs upward from phi_1 = expm1(z)/z
    in the closed forms. Each is within 3 ulp.
    """
    small = np.abs(z) < 1.25
    w = np.where(small, 1.0, z)
    phi1 = np.expm1(w) / w
    phi2 = (phi1 - 1.0) / w
    phi3 = (phi2 - 0.5) / w
    zs = z[small]
    phi3[small] = np.vander(zs, _PHI3_TAYLOR.size, increasing=True) @ _PHI3_TAYLOR
    phi2[small] = 0.5 + zs * phi3[small]
    phi1[small] = 1.0 + zs * phi2[small]
    return phi1, phi2, phi3


@dataclass(frozen=True, eq=False)
class _Tail:
    """The exponential tail of one flow, on the equilibrium Jacobian J = -L(rho_inf) H, H = Hess F(rho_inf).

    With H = R R^T (Cholesky) and R^T L(rho_inf) R = U diag(lam) U^T,
    J = -P diag(lam) Q for P = R^-T U and Q = U^T R^T = P^-1: in the modal
    coordinates Q v, J and every phi_k(h J) act entrywise. The first
    eigenpair, lam = 0 with Q-row proportional to 1^T, carries the mass;
    zero-sum v have no part in it, so it is dropped, and every P product
    stays zero-sum. Its steps evaluate f through the integrator's
    right-hand side ``rhs``, which counts the rows.
    """

    rho_inf: np.ndarray
    lam: np.ndarray
    P: np.ndarray
    Q: np.ndarray

    def step(self, rhs, y, fy, h: float) -> tuple[np.ndarray, np.ndarray, float]:
        """One step of size h from y (fy = rhs(y)): (y+, error estimate, lowest entry of its stage points).

        Step doubling: y+ is two ETDRK4 steps of h/2, and the error estimate
        is (y+ - y_h)/15 against one step of h, the leading term of the
        local error of y+ (which is O(h^5)). The phi values of both step
        sizes, at z/4, z/2 and z for z = -h lam, come from one :func:`_phi`
        call, and the four ETDRK4 weight rows of the [h/2, h] pair are built
        from them once; the second half step reuses row 0. The first half
        step and the whole step, which both start at y, share their
        right-hand-side calls as stacked rows: 10 rows a step. The half-step
        state counts as a stage point. :func:`integrate` compares the lowest
        entry (NaN if any is) with the floor, and sizes the next step from
        the scaled estimate: by Gustafsson's predictive controller (Hairer &
        Wanner, Solving ODEs II, IV.8) between two accepted tail steps, and
        by the plain h 0.9 err^(-1/5) otherwise.
        """
        phi1, phi2, phi3 = _phi(np.multiply.outer((-0.25 * h, -0.5 * h, -h), self.lam))
        # row 0 the first half step, row 1 the whole step: each takes phi_1 at half its z, and phi_k at its z
        hs = np.array([[0.5 * h], [h]])
        weights = (0.5 * hs * phi1[:2], hs * phi1[1:], hs * (2.0 * phi2[1:] - 4.0 * phi3[1:]),
                   hs * (4.0 * phi3[1:] - phi2[1:]))
        (half, whole), low_first = self._etdrk4(rhs, y, self.Q @ fy, *weights)
        y_mid = y + self.P @ half
        second, low_second = self._etdrk4(rhs, y_mid, self.Q @ rhs(y_mid), *(w[0] for w in weights))
        low = np.min((low_first, y_mid.min(), low_second))  # unlike min, keeps a NaN in any place
        return y_mid + self.P @ second, self.P @ ((half + second - whole) / 15.0), low

    def _etdrk4(self, rhs, y, f0, w_a, w_1, w_ab, w_c) -> tuple[np.ndarray, float]:
        """(modal increments Q (y+ - y) of Cox-Matthews ETDRK4 steps, one per row, lowest entry of their stage points).

        In modal coordinates the flow is f = J (y - rho_inf) + N(y) with
        J = -diag(lam), so for a stage point x = y + P d the nonlinear
        difference N(x) - N(y) is D = Q f(x) - Q f(y) + lam d. With
        z = -h lam and phi_k = phi_k(z), the weights are w_a = h/2 phi_1(z/2),
        w_1 = h phi_1, w_ab = h (2 phi_2 - 4 phi_3) and w_c = h (4 phi_3 - phi_2),
        and the stage formulas of Cox & Matthews, written as increments of y, read
            a = w_a f0,  b = a + w_a D_a,  c = w_1 f0 + 2 w_a D_b,
            y+ - y = w_1 f0 + w_ab (D_a + D_b) + w_c D_c.
        Each stage is one P product, one right-hand side of the stacked
        rows and one Q product, and the three stage points share one array.
        ``y`` and ``f0 = Q f(y)`` are one state or a row per step, and the
        weights one row or a row per step.
        """
        points = np.empty((3, *w_a.shape[:-1], y.shape[-1]))
        PT, QT, lam = self.P.T, self.Q.T, self.lam

        def difference(k, d):
            return rhs(np.add(y, d @ PT, out=points[k])) @ QT - f0 + lam * d

        a = w_a * f0
        d_a = difference(0, a)
        d_b = difference(1, a + w_a * d_a)
        linear = w_1 * f0
        d_c = difference(2, linear + 2.0 * (w_a * d_b))
        return linear + w_ab * (d_a + d_b) + w_c * d_c, points.min()


@np.errstate(all="ignore")  # a non-finite Hess F or pencil is refused, not warned about
def _equilibrium_tail(model: EnergyModel, graph: Graph, rho0: Density) -> _Tail | None:
    """The tail's operator at rho_inf = gibbs_fixed_point(model, rho0), from one eigh (and one Cholesky with W).

    Without W, Hess F(rho_inf) = beta diag(1/rho_inf) has the diagonal
    Cholesky factor R = diag(r), r = sqrt(beta (1/rho_inf)), and the
    operator is built from r alone: R^T L R = r_i L_ij r_j, P = U (1/r) and
    Q = U^T r. Cholesky, the GEMMs and the LU solve give the same bits (the
    solve multiplies by the reciprocal pivot), but for the sign of a zero
    where U has one; Q is kept C-ordered, as the GEMM left it, since its
    layout picks the BLAS kernel of every product with it.

    None where it cannot be built: W not symmetric, no Gibbs convergence
    within the default 10 000 iterations, rho_inf on the boundary, Hess F(rho_inf)
    not finite or not positive definite, or eigenpairs that are not finite.
    """
    if not model.is_symmetric:
        return None
    try:
        rho_inf = gibbs_fixed_point(model, rho0).density
        L = laplacian_matrices(graph, rho_inf.values)
        if model.has_interaction:
            R = np.linalg.cholesky(energy_hessian(model, rho_inf))
            lam, U = np.linalg.eigh(R.T @ L @ R)
            P = np.linalg.solve(R.T, U)
            Q = U[:, 1:].T @ R.T
        else:
            r = np.sqrt(model.beta * (1.0 / rho_inf.values))
            lam, U = np.linalg.eigh(r[:, None] * L * r)
            P = U * (1.0 / r)[:, None]
            Q = np.multiply(U[:, 1:].T, r, order="C")
    except (NoConvergence, BoundaryDensity, np.linalg.LinAlgError):  # a non-finite Hess F fails Cholesky or eigh
        return None
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(P))):
        return None
    return _Tail(rho_inf.values, lam[1:], P[:, 1:], Q)


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

    The run builds the flow's right-hand side f once
    (:func:`_flow_kernels`); both methods call it, it counts the rows, and it
    keeps the bits of :func:`_rhs_raw`. Each step evaluates the twelve
    DOP853 stages into one (12, n) array through f: stage s starts from
    y + h (A[s, :s] @ K[:s]), and one product of the stacked 8th-order and
    two error weight rows with the stage array gives the update and the
    error vectors E5 K and E3 K. Their scaled max norms e5 and e3 combine
    into Hairer's estimate h e5^2 / sqrt(e5^2 + e3^2/100), and the next step
    is sized for an O(h^8) error. For symmetric W, from the first accepted
    step with h lambda_max(-J) >= 2 that finds the flow linear about rho_inf
    to within 5e-2 (|f(y) - J (y - rho_inf)| <= 5e-2 |f(y)|), the rest of
    the run takes Cox-Matthews ETDRK4
    steps on the equilibrium Jacobian J (see :class:`_Tail` and
    :meth:`_Tail.step`) in its modal coordinates. Their error is estimated by
    step doubling: two h/2 steps are propagated, and their difference from
    one h step, over 15, is the error estimate, and the next step is sized
    for an O(h^5) local error. Between two accepted exponential steps
    (h_prev, err_prev) and (h, err) the size is Gustafsson's predictive
    h 0.9 err^(-1/5) (h / h_prev) (max(err_prev, 1e-2) / err)^(1/5)
    (Hairer & Wanner, Solving ODEs II, IV.8; the 1e-2 floor is RADAU5's),
    which keeps pace with the geometric decay of the tail's error; after
    the first exponential step, and after the first acceptance that follows
    a rejection, it is h 0.9 err^(-1/5), as for DOP853. Either factor is
    kept within [0.2, 5]. Every attempt evaluates all its stages and then
    compares its stage points, the tail's half-step state among them, with
    the floor once. ``t_end``, ``rel_tol``, ``abs_tol`` and a given
    ``positivity_floor`` must be positive and finite, and abs_tol + rel_tol
    at least 2^-73 = 1.06e-22 (``ValueError`` otherwise). A step is rejected, and the step size
    halved, if any component of a stage point or of the candidate would drop
    below the positivity floor (max(m(rho0)/2, 1e-14) by default; pass
    ``positivity_floor=1e-14`` to disable the invariant-region guard) or is
    not finite (floating-point overflow is not warned about), if the
    mass drifts by more than 1e-13, or, for symmetric interactions, if the
    free energy would increase by more than ``abs_tol``; a step whose scaled
    error exceeds 1 is retried with a smaller step. The trajectory counts
    rejections per guard in ``rejected_by``, the exponential steps and
    switch time in ``exponential_steps`` and ``switch_time``, and the
    right-hand-side rows both methods evaluated, rejected attempts included,
    in ``rhs_evaluations``: 1 + accepted steps + 11 per DOP853 attempt + 10
    per exponential attempt. Accepted states
    are renormalized onto the simplex. States are recorded every
    ``record_every`` accepted steps (0 = initial and final only), plus the
    final state. A run that underflows the step size or attempts 100 000
    steps raises :class:`StepSizeUnderflow` carrying the partial trajectory,
    which ends at the last accepted state.
    """
    _require(graph.node_count, interior=("rho0",), model=model, rho0=rho0)
    positive = {"t_end": t_end, "rel_tol": rel_tol, "abs_tol": abs_tol}
    if positivity_floor is not None:
        positive["positivity_floor"] = positivity_floor
    for name, value in positive.items():
        if not 0 < value < math.inf:  # NaN fails it too
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if abs_tol + rel_tol < _TOL_FLOOR:
        raise ValueError(f"abs_tol + rel_tol must be at least {_TOL_FLOOR:.3g}, got {abs_tol + rel_tol!r}")
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

    # rhs counts the rows either method evaluates, one per row of a stacked call
    rhs, evaluated = _flow_kernels(model, graph)
    y = rho0.values.copy()
    t = 0.0
    current_energy = float(_energy_raw(model, y))

    # the (t, state) records; an accepted step binds y to a new array, so no kept state is written to
    times, states = [0.0], [y]

    K = np.empty((12, y.size))  # stage derivatives; K[0] is reused across rejections of one state
    stages = np.empty((12, y.size))  # DOP853 stage points 1..11 of an attempt; row 0 stays unwritten
    K[0] = rhs(y)
    h = min(t_end, h_cap, 0.01 / (1.0 + float(np.max(np.abs(K[0])))))
    accepted = 0
    rejected_by = dict.fromkeys(_GUARDS, 0)
    t_tiny = 1e-15 * max(1.0, t_end)

    eq = _equilibrium_tail(model, graph, rho0)
    switch_time = None  # the run takes exponential steps on eq once this is set
    exponential = 0
    last = None  # (h, max(err, 1e-2)) of the last attempt if it was an accepted exponential step

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
            rejected_by=MappingProxyType(dict(rejected_by)),
            exponential_steps=exponential,
            switch_time=switch_time,
            rhs_evaluations=evaluated(),
        )

    while t < t_end - t_tiny:
        if h < 1e-14 * max(1.0, t):
            raise StepSizeUnderflow(f"step size underflow at t={t!r} (h={h!r})", trajectory=trajectory(t))
        if accepted + sum(rejected_by.values()) == _STEP_BUDGET:
            message = f"step budget of {_STEP_BUDGET} attempted steps spent at t={t!r}"
            raise StepSizeUnderflow(message, trajectory=trajectory(t))
        h_try = min(h, t_end - t)
        previous, last = last, None

        scale = abs_tol + rel_tol * np.abs(y)
        if switch_time is None:
            for s in range(1, 12):
                K[s] = rhs(np.add(y, h_try * (_STAGE_ROWS[s] @ K[:s]), out=stages[s]))
            low = stages[1:].min()
            update, e5, e3 = _UPDATE @ K
            y_new = y + h_try * update
            e5, e3 = float((np.abs(e5) / scale).max()), float((np.abs(e3) / scale).max())
            # Hairer's combined estimate h e5^2 / sqrt(e5^2 + e3^2/100), O(h^8); 0 for e5 = 0, not 0/0
            err_norm = h_try * e5 * e5 / math.sqrt(e5 * e5 + 0.01 * e3 * e3) if e5 > 0.0 else 0.0
            exponent = -1.0 / 8.0
        else:
            y_new, err, low = eq.step(rhs, y, K[0], h_try)
            err_norm = float((np.abs(err) / scale).max())
            exponent = -1.0 / 5.0  # step doubling estimates an O(h^5) error
        if not low >= floor:  # NaN fails it too, so an overflowing stage is retried smaller
            rejected_by["stage_floor"] += 1
            h = 0.5 * h_try
            continue

        if not y_new.min() >= floor:
            rejected_by["step_floor"] += 1
            h = 0.5 * h_try
            continue

        if err_norm > 1.0:
            rejected_by["error"] += 1
            h = h_try * min(max(0.9 * err_norm**exponent, 0.2), 1.0)
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
        K[0] = rhs(y)
        err_norm = max(err_norm, 1e-12)
        factor = 0.9 * err_norm**exponent
        if switch_time is not None:
            if previous is not None:  # Gustafsson's predictive factor, between two accepted exponential steps
                factor *= h_try / previous[0] * (previous[1] / err_norm) ** 0.2
            last = (h_try, max(err_norm, 1e-2))
        h = min(h_try * min(max(factor, 0.2), 5.0), h_cap)
        if switch_time is None and eq is not None and t < t_end - t_tiny and h_try * eq.lam[-1] >= _TAIL_STIFF:
            linear_residual = K[0] + eq.P @ (eq.lam * (eq.Q @ (y - eq.rho_inf)))  # f(y) - J (y - rho_inf)
            if np.max(np.abs(linear_residual)) <= _TAIL_LINEAR * np.max(np.abs(K[0])):
                switch_time = t
        if record_every > 0 and accepted % record_every == 0 and t < t_end - t_tiny:
            times.append(t)
            states.append(y)

    return trajectory(t_end)
