"""Exceptions and warnings shared across the package."""


class TruncationError(ValueError):
    """A Fock cutoff is too small to hold the requested state.

    Carries ``suggested_dim`` when a safe cutoff can be estimated.
    """

    def __init__(self, message: str, suggested_dim: int | None = None):
        if suggested_dim is not None:
            message = f"{message} (suggested dim: {suggested_dim})"
        super().__init__(message)
        self.suggested_dim = suggested_dim


class TruncationWarning(UserWarning):
    """Amplitude leaked out of the truncation window beyond tolerance."""


class StrongCouplingWarning(UserWarning):
    """Interaction strength outside the weak-coupling regime (lam > 0.3).

    Exact evolution stays valid; only leading-order scaling claims degrade.
    """


class DimensionBudgetError(RuntimeError):
    """A requested chain, state or grid would exceed the CLI's array budget."""


class ScenarioError(ValueError):
    """A scenario file failed validation; message names the offending field."""
