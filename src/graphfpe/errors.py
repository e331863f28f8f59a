"""Exception types shared across the library."""


class GraphFpeError(Exception):
    """Base class for every error raised by graphfpe; ``exit_code`` is the CLI's exit code for it, None to propagate."""

    exit_code: int | None = None


# -- graph construction and lookup ---------------------------------------

class SelfLoop(GraphFpeError):
    pass


class DuplicateEdge(GraphFpeError):
    pass


class NonpositiveWeight(GraphFpeError):
    pass


class DisconnectedGraph(GraphFpeError):
    pass


class NotAnEdge(GraphFpeError):
    exit_code = 2


class GraphMismatch(GraphFpeError):
    pass


# -- dense linear algebra -------------------------------------------------

class NotSymmetric(GraphFpeError):
    pass


class NoConvergence(GraphFpeError):
    """Iteration budget exhausted.

    ``result`` carries the best partial answer when the failing routine has
    one (e.g. the last Gibbs iterate), so callers can inspect or dump it.
    """

    exit_code = 3

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


# -- simplex / tangent-space types ----------------------------------------

class BoundaryDensity(GraphFpeError):
    exit_code = 4


class NotZeroSum(GraphFpeError):
    exit_code = 4


class DimensionMismatch(GraphFpeError):
    exit_code = 2


# -- energy models and rate formulas --------------------------------------

class NonSymmetricW(GraphFpeError):
    exit_code = 4


class NotCertifiedConvex(GraphFpeError):
    exit_code = 4


class NonPositiveHessian(GraphFpeError):
    exit_code = 4


class NonPositiveSymmetrizedJacobian(GraphFpeError):
    exit_code = 4


class NoValidSamples(GraphFpeError):
    exit_code = 4


class VacuousCertificate(GraphFpeError):
    """The decay constant C of the global bound is not representable (m or C
    underflows to 0, or (r + 1)^2 overflows), so the bound certifies nothing."""

    exit_code = 4


class InconsistentRateConstants(GraphFpeError, RuntimeError):
    """Two algebraically equal routes to a rate constant disagree."""

    exit_code = 3


# -- time integration -------------------------------------------------------

class StepSizeUnderflow(GraphFpeError):
    """Adaptive step fell below the representable floor, or the run spent its step budget.

    ``trajectory`` holds every record so far and ends at the last accepted state.
    """

    exit_code = 3

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


# -- CLI -------------------------------------------------------------------

class ConfigError(GraphFpeError):
    exit_code = 2
