"""Exception types shared across the egoflux package."""


class EgofluxError(Exception):
    """Base class for all egoflux-specific errors."""


class CorpusFormatError(EgofluxError):
    """Raised on unreadable files or, in strict mode, on malformed rows."""


class EmbeddingFormatError(EgofluxError):
    """Raised on bad embedding files (bad header, dim mismatch, missing ids)."""


class DegenerateSeriesError(EgofluxError):
    """Raised when a series is constant and a test on it is undefined."""


class InsufficientDataError(EgofluxError):
    """Raised when a series or design matrix is too short for the requested fit."""


class NonStationarizableError(EgofluxError):
    """Raised when a pair of series still fails the unit-root test at max differencing."""


class SingularDesignError(EgofluxError):
    """Raised when an OLS design matrix is rank deficient."""
