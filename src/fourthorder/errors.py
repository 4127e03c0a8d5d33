"""Exception types shared across the toolkit."""
from __future__ import annotations


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best estimate computed so far and the achieved error so a
    caller can decide whether the partial answer is still usable.
    """

    def __init__(self, message: str, best_estimate=None, achieved_error=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error


class TruncationError(RuntimeError):
    """A truncated tail cannot be certified to the requested tolerance."""


class SingularFactorError(RuntimeError):
    """A factor required to be invertible is numerically singular.

    ``factor`` names which one (e.g. ``"M + S"``, ``"M1"`` or ``"sector 3 M"``).
    """

    def __init__(self, factor: str, cond: float):
        super().__init__(f"factor {factor} is numerically singular (cond {cond:.3e})")
        self.factor = factor
        self.cond = cond


class BracketError(ValueError):
    """A bisection bracket does not actually straddle a sign change."""


class ConfigError(ValueError):
    """An experiment config is malformed or fails validation."""


class IndeterminateClassification(RuntimeError):
    """Spectrum too ambiguous near the null-space threshold to classify.

    Never guessed over silently; carries the offending singular values.
    """

    def __init__(self, message: str, singular_values=None):
        super().__init__(message)
        self.singular_values = singular_values


class ExpansionMismatchError(RuntimeError):
    """A fitted expansion disagrees with its expected remainder scale."""
