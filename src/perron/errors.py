"""Exception types shared across the library."""


class PerronError(Exception):
    """Base class for all library errors."""


class ValidationError(PerronError):
    """Invalid input: dimension mismatch, malformed step, violated precondition."""


class _PartialTrace(PerronError):
    """An error that carries the trace played before it, in `steps`."""

    def __init__(self, message, steps=()):
        super().__init__(message)
        self.steps = steps


class StepLimitExceeded(_PartialTrace):
    """An iteration ran past its step limit; carries the partial trace."""


class InteractiveAborted(_PartialTrace):
    """An interactive session hit end-of-input; carries the partial trace."""


class InternalError(PerronError):
    """Consistency failure that validated inputs should make impossible."""
