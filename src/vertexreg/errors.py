"""Exception types shared across the laboratory modules."""


class DomainError(ValueError):
    """Evaluation or integration left the declared domain."""


class QuadratureError(ArithmeticError):
    """Quadrature truncation or convergence guarantee violated."""


class FitError(RuntimeError):
    """Asymptotic fit rejected: residual too large or model inapplicable."""


class UnsupportedOrder(ValueError):
    """Operator half-order m outside the implemented range."""


class ConfigError(ValueError):
    """Invalid or incomplete configuration."""


class StiffnessError(RuntimeError):
    """Adaptive ODE step collapsed; the problem is too stiff as posed."""


class NoConvergence(RuntimeError):
    """Iteration finished without producing a certificate.

    The partial iteration record is attached as ``record`` so callers can
    keep an Inconclusive verdict with full diagnostics.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class BlowupError(RuntimeError):
    """Simulated amplitude exceeded the blow-up guard."""


class StepFailure(RuntimeError):
    """An implicit solve inside a time step failed."""


class ResolutionError(RuntimeError):
    """Grid too coarse to resolve the boundary layer; refine and retry."""
