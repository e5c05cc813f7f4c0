"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid static configuration (shapes, distribution params, config files)."""


class ProtocolViolationError(RuntimeError):
    """The reveal/ingest protocol was driven out of order."""


class DivergedTrainingError(RuntimeError):
    """Gradient descent produced a non-finite loss."""

    def __init__(self, step: int):
        super().__init__(f"training loss became non-finite at step {step}")
        self.step = step

    def __reduce__(self):  # rebuild from the step, not the message, across processes
        return type(self), (self.step,)


class DesignUpdateError(RuntimeError):
    """A design-matrix update met a non-finite vector or a pivot that is not finite and positive."""


class FormatError(ValueError):
    """A dataset file does not match its declared binary/text format."""


class DegenerateContextError(ValueError):
    """A context vector is zero where a nonzero one is required."""
