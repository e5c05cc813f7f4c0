"""Exception types shared across the package. Each keeps a builtin base and derives
from DelayBanditError, whose ``exit_code`` is the command line's exit status: 1 for
a ConfigurationError, 2 for every other (runtime) error. The codes live here only."""


class DelayBanditError(Exception):
    exit_code = 2


class ConfigurationError(DelayBanditError, ValueError):
    """Invalid static configuration (shapes, distribution params, config files)."""
    exit_code = 1


class ProtocolViolationError(DelayBanditError, RuntimeError):
    """The reveal/ingest protocol was driven out of order."""


class DivergedTrainingError(DelayBanditError, RuntimeError):
    """Gradient descent produced a non-finite loss at step ``args[0]``, its one argument."""
    step = property(lambda self: self.args[0])

    def __str__(self):
        return f"training loss became non-finite at step {self.step}"


class NonFiniteScoreError(DelayBanditError, RuntimeError):
    """A policy's mean or exploration bonus for an arm, or its gamma, is not finite."""


class DesignUpdateError(DelayBanditError, RuntimeError):
    """A design-matrix update met a non-finite vector or a pivot that is not finite
    and positive, or the computed inverse is not positive definite where it must be."""


class FormatError(DelayBanditError, ValueError):
    """A dataset file does not match its declared binary/text format."""


class DegenerateContextError(DelayBanditError, ValueError):
    """A context vector is zero where a nonzero one is required."""


class NotPositiveSemidefiniteError(DelayBanditError, ArithmeticError):
    """A kernel Gram matrix has an eigenvalue below zero beyond rounding."""
