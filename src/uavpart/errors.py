"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Bad or inconsistent configuration input."""


class InfeasibleError(RuntimeError):
    """The instance violates a feasibility requirement, e.g. uncovered user mass,
    more users than the fleet's budgets can control, or demand with no usable link."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without meeting its tolerance."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
