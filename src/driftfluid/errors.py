"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Inconsistent sizes, grids, or run configuration."""


class InvariantError(RuntimeError):
    """A structural invariant (Hermitian symmetry, zero mean, ...) is broken."""


class SolvabilityError(ValueError):
    """An elliptic problem has no solution for the given right-hand side."""


class AdmissibilityError(ValueError):
    """Initial data violates the admissibility hypotheses of the model."""


class BlowUpError(RuntimeError):
    """Time integration produced NaN/Inf; carries the last valid state, its
    time and the name of the system that was stepped."""

    def __init__(self, message, last_state=None, last_time=None, system=None):
        super().__init__(message)
        self.last_state = last_state
        self.last_time = last_time
        self.system = system
