"""Exception types shared across the package."""


class RankDeficiencyError(ValueError):
    """Design matrix is rank deficient or too ill-conditioned to invert."""


class DegreesOfFreedomError(ValueError):
    """Sample size too small for the requested fit."""


class CostLimitError(RuntimeError):
    """Estimated experiment cost exceeds the configured budget."""


class NumericFailure(ValueError):
    """An internal numeric self-check failed (the CLI exits 1)."""
