"""Exception types shared across the package."""


class XmalError(Exception):
    """Base class for all package errors."""


class DimensionError(XmalError):
    """Operand shapes are incompatible."""


class ContractError(XmalError):
    """A precondition of an operation was violated."""


class ConfigError(XmalError):
    """Invalid or inconsistent configuration."""


class BatchTooSmallError(ContractError):
    """Batch statistics need at least two items."""


class FormatError(XmalError):
    """File does not follow the expected container layout."""


class VersionError(FormatError):
    """File schema version is not supported."""


class CorruptedRecordError(FormatError):
    """File ended or desynchronized mid-record."""


class TrainingDiverged(XmalError):
    """Loss became non-finite during training."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite loss at step {step}")
