"""pdflow: primal-dual flow and proximal ADMM solvers for min f(x) + h(x) + g(Ax)."""

from .errors import (
    CertificationError,
    ConfigError,
    IntegrationError,
    MissingSolutionError,
    ToleranceNotMet,
)
from .linops import LinearMap, SelfAdjointPSD, load_dense, operator_norm, psd_floor

__version__ = "0.1.0"
