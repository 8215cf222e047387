"""Exception types shared across the package."""


class SubentError(Exception):
    """Base class for all package-specific failures."""


class DimensionOrder(SubentError):
    """System dimension m exceeds ancilla dimension n where m <= n is required."""


class DomainError(SubentError):
    """A parameter lies outside the domain of the requested formula."""


class ConvergenceFailure(SubentError):
    """An iterative eigensolver exceeded its budget or returned garbage."""


class QuadratureFailure(SubentError):
    """Adaptive quadrature could not certify the requested accuracy."""
