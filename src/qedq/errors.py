"""Exception hierarchy shared by all qedq modules.

The split mirrors how callers need to react: bad arguments
(:class:`DomainError`), models without a stationary regime
(:class:`InstabilityError`), series or state spaces that failed to reach
the requested tolerance within their budget (:class:`NumericalError`),
and inconsistent simulation/CLI setups (:class:`ConfigurationError`).
"""


class QedqError(Exception):
    """Base class for all qedq errors."""


class DomainError(QedqError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class InstabilityError(QedqError, ValueError):
    """The requested model has no stationary distribution (overload)."""


class NumericalError(QedqError, ArithmeticError):
    """A series or truncated state space did not reach the requested
    tolerance within its budget."""


class ConfigurationError(QedqError, ValueError):
    """Inconsistent configuration, e.g. a metric the model cannot produce."""
