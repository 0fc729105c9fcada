"""Exception types shared across the package.

The CLI maps these onto its exit codes: InputError -> 2,
UndersampledLoopError -> 3, InvariantViolation -> 1.
"""


class SymprodError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SymprodError, ValueError):
    """Rejected input: dimension mismatch, non-finite entries, parse errors."""


class CapExceededError(InputError):
    """A brute-force enumeration was requested above the supported size."""


class UndersampledLoopError(SymprodError):
    """A loop's consecutive samples move too far to track components safely.

    `suggested_steps` is a step count expected to satisfy the anti-aliasing
    condition, or None when no refinement can help (e.g. a sample contains
    two equal components, so the minimal intra-tuple gap is zero).
    """

    def __init__(self, message: str, suggested_steps: int | None = None):
        super().__init__(message)
        self.suggested_steps = suggested_steps


class InvariantViolation(SymprodError):
    """A property that must hold by construction was observed to fail."""


__all__ = [
    "CapExceededError",
    "InputError",
    "InvariantViolation",
    "SymprodError",
    "UndersampledLoopError",
]
