"""Exception types shared across the library."""


class GraphFpeError(Exception):
    """Base class for every error raised by graphfpe."""


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
    pass


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

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


# -- simplex / tangent-space types ----------------------------------------

class BoundaryDensity(GraphFpeError):
    pass


class NotZeroSum(GraphFpeError):
    pass


class DimensionMismatch(GraphFpeError):
    pass


# -- energy models and rate formulas --------------------------------------

class NonSymmetricW(GraphFpeError):
    pass


class NotCertifiedConvex(GraphFpeError):
    pass


class NonPositiveHessian(GraphFpeError):
    pass


class NonPositiveSymmetrizedJacobian(GraphFpeError):
    pass


class NoValidSamples(GraphFpeError):
    pass


class VacuousCertificate(GraphFpeError):
    """The decay constant C of the global bound is not representable (m or C
    underflows to 0, or (r + 1)^2 overflows), so the bound certifies nothing."""


class InconsistentRateConstants(GraphFpeError, RuntimeError):
    """Two algebraically equal routes to a rate constant disagree."""


# -- time integration -------------------------------------------------------

class StepSizeUnderflow(GraphFpeError):
    """Adaptive step fell below the representable floor, or the run spent its step budget.

    ``trajectory`` holds everything recorded up to the last good state.
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


# -- CLI -------------------------------------------------------------------

class ConfigError(GraphFpeError):
    pass
