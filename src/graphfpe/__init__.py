"""Discrete Wasserstein calculus, Fokker-Planck flows, and rate certificates on graphs."""

from .errors import (
    BoundaryDensity,
    ConfigError,
    DimensionMismatch,
    DisconnectedGraph,
    DuplicateEdge,
    GraphFpeError,
    GraphMismatch,
    InconsistentRateConstants,
    NoConvergence,
    NonpositiveWeight,
    NonPositiveHessian,
    NonPositiveSymmetrizedJacobian,
    NonSymmetricW,
    NotAnEdge,
    NotCertifiedConvex,
    NotSymmetric,
    NotZeroSum,
    NoValidSamples,
    SelfLoop,
    StepSizeUnderflow,
    VacuousCertificate,
)
from .graph_core import (
    Graph,
    SymmetricSpectrum,
    build_graph,
    graph_laplacian,
    incidence_matrix,
    symmetric_eigen,
)
from .simplex_calculus import (
    Density,
    Potential,
    TangentVector,
    VectorField,
    WeightedLaplacian,
    divergence,
    edge_thetas,
    graph_gradient,
    hodge_decompose,
    inner_product,
    metric_inner,
    solve_potential,
    theta,
    weighted_laplacian,
)
from .free_energy import (
    ConvexityCertificate,
    EnergyModel,
    GibbsResult,
    convexity_certificate,
    energy,
    energy_gradient,
    energy_hessian,
    find_all_equilibria,
    gibbs_fixed_point,
)
from .fpe_dynamics import (
    InvariantRegion,
    Trajectory,
    dissipation,
    fpe_rhs,
    integrate,
    invariant_region,
)
from .rate_analysis import (
    DecayCheck,
    LsiEstimate,
    RateReport,
    asymptotic_rate,
    equilibrium_rates,
    estimate_lsi_constant,
    fisher_rate,
    hessian_quadratic_rate,
    linearized_rate,
    rate_constants,
    relative_entropy,
    relative_fisher,
    tail_slope,
    verify_decay_bound,
)
from .wasserstein_metric import (
    DiscretePath,
    MetricChecksReport,
    W2Result,
    path_action,
    w2_distance,
    w2_metric_checks,
)

__version__ = "0.1.0"
