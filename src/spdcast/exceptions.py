"""Shared exception types."""

__all__ = ["SpdcastError", "DimensionMismatchError", "DecompositionError",
           "NotPositiveDefiniteError", "SeriesFormatError", "TrainingDivergedError",
           "ConvergenceError", "ConfigError", "DataFileError"]


class SpdcastError(Exception):
    """Base class for library errors."""


class DimensionMismatchError(SpdcastError, ValueError):
    """Operands have incompatible shapes."""


class DecompositionError(SpdcastError, RuntimeError):
    """A matrix factorization failed to converge."""


class NotPositiveDefiniteError(SpdcastError, ValueError):
    """Strict positive definiteness was required but not satisfied."""


class SeriesFormatError(SpdcastError, ValueError):
    """A matrix-series file is malformed or inconsistent."""


class TrainingDivergedError(SpdcastError, RuntimeError):
    """Training aborted on a non-finite loss."""


class ConvergenceError(SpdcastError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class ConfigError(SpdcastError, ValueError):
    """A run configuration file is invalid."""


class DataFileError(SpdcastError, OSError):
    """A configured data file is missing or cannot be read."""
