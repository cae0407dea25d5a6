"""Exceptions and warnings shared across the package. A record that refuses
a field raises FieldError, which names it for the caller to report."""


class TruncationError(ValueError):
    """A Fock cutoff is too small to hold the requested state.

    Carries ``suggested_dim`` when a safe cutoff can be estimated.
    """

    def __init__(self, message: str, suggested_dim: int | None = None):
        if suggested_dim is not None:
            message = f"{message} (suggested dim: {suggested_dim})"
        super().__init__(message)
        self.suggested_dim = suggested_dim


class FieldError(ValueError):
    """A record refused the value of its field ``field``."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class TruncationWarning(UserWarning):
    """Amplitude leaked out of the truncation window beyond tolerance."""


class StrongCouplingWarning(UserWarning):
    """Interaction strength outside the weak-coupling regime (lam > 0.3).

    Leading-order scaling claims degrade, and the idler cutoff drops mass:
    one exact stage puts at least tanh(lam)^(2 idler_dim) of the probability
    on idler numbers that the cutoff does not hold (0.113 at lam = 1 and
    5.2e-5 at lam = 0.3, both at idler_dim 4).
    """


class DimensionBudgetError(RuntimeError):
    """A requested chain, state or grid would exceed the CLI's array budget."""


class ScenarioError(ValueError):
    """A scenario failed validation or an output could not be written; the
    message names the offending field."""
