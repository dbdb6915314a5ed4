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


class BlowupError(RuntimeError):
    """Simulated amplitude exceeded the blow-up guard."""


class StepFailure(RuntimeError):
    """An implicit solve inside a time step failed."""
