"""Exception taxonomy shared by all flowgad modules.

Each class maps to one CLI exit code (see cli.EXIT_CODES).
"""


class FlowgadError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolation(FlowgadError):
    """An operation was called with arguments that break its contract."""


class NumericFault(FlowgadError):
    """Non-finite values appeared where finite ones are guaranteed."""


class DatasetError(FlowgadError):
    """Dataset ingestion failed (missing file, malformed line, bad index).

    Carries the offending file and, when known, the 1-based line number.
    """

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + loc)
        self.path = path
        self.line = line


class ConfigError(FlowgadError):
    """A configuration value is missing, malformed, or out of range."""


class TrainingFault(FlowgadError):
    """Training diverged: a loss went non-finite. The message names the
    epoch and the operation that first produced a non-finite value."""


class PhaseOrderError(FlowgadError):
    """A later training phase ran against stale or missing upstream state."""


class UndefinedMetricError(FlowgadError):
    """A metric was requested on inputs where it is undefined."""


class DeterminismError(FlowgadError):
    """A function expected to be deterministic produced differing outputs."""
