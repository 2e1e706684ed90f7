"""Typed exceptions raised by the solver and its helpers."""

from __future__ import annotations


class FronfixError(Exception):
    """Base class for all package errors."""


class ValidationError(FronfixError, ValueError):
    """Invalid model or grid inputs; message lists every violation."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class DomainError(FronfixError, ValueError):
    """A result outside the model's domain: a march whose boundary path left
    (0, 1] or fell below the perpetual put's boundary, which level_price and
    y_truncation_study refuse, or a spot beyond the truncation bound, which
    level_price refuses."""


class DenominatorNearZeroError(FronfixError):
    """Free-boundary update denominator below the safety floor."""

    def __init__(self, step: int, denominator: float, floor: float):
        self.step = step
        self.denominator = denominator
        self.floor = floor
        super().__init__(
            f"free-boundary denominator {denominator:.3e} below floor "
            f"{floor:.3e} at step {step}"
        )


class NonConvergenceError(FronfixError):
    """Inner free-boundary iteration failed to settle."""

    def __init__(self, step: int, iterations: int, last_iterates: tuple[float, float]):
        self.step = step
        self.iterations = iterations
        self.last_iterates = last_iterates
        super().__init__(
            f"free-boundary iteration did not converge at step {step} "
            f"after {iterations} iterations (last iterates {last_iterates[0]:.12g}, "
            f"{last_iterates[1]:.12g})"
        )
