"""Exception types shared across the package."""


class SubentError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(SubentError):
    """A bipartite split does not match the vector it is applied to."""


class DimensionOrder(SubentError):
    """System dimension m exceeds ancilla dimension n where m <= n is required."""


class DomainError(SubentError):
    """A parameter lies outside the domain of the requested formula."""


class ConvergenceFailure(SubentError):
    """An iterative eigensolver exceeded its budget or returned garbage."""


class SingularSample(SubentError):
    """A probability-zero singular draw; it is never redrawn, since that would bias the measure."""


class QuadratureFailure(SubentError):
    """Adaptive quadrature could not certify the requested accuracy."""
