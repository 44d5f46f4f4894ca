"""Shared exception types."""


class CertificationError(RuntimeError):
    """A definiteness or step-size certificate required by an operation failed."""


class ToleranceNotMet(RuntimeError):
    """An iterative subsolver hit its budget before reaching its tolerance.

    Carries the best iterate found and its residual so callers can decide
    whether to accept it anyway.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class MissingSolutionError(ValueError):
    """The operation needs a known primal/dual solution the problem does not carry."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class IntegrationError(RuntimeError):
    """The trajectory left the finite range or the stepper broke down."""
