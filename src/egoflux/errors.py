"""Exception types shared across the egoflux package, and readers that name a faulty file."""

import json
from contextlib import contextmanager
from pathlib import Path


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


def read_json(path, parse):
    """`parse(d)` of the JSON object `d` in UTF-8 file `path`.  A fault in the file is
    a ValueError starting `<path>: `: a KeyError reads "missing field 'k'", a TypeError,
    AttributeError or OverflowError "malformed entry: ...", any other ValueError keeps
    its message.  An OSError passes through."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        return parse(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except (TypeError, AttributeError, OverflowError) as exc:  # OverflowError: float(10**400)
        raise ValueError(f"{path}: malformed entry: {exc}") from None
    except ValueError as exc:  # as are json.JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None


@contextmanager
def open_text(path, error: type[Exception] = ValueError, newline: str | None = None):
    """`path` opened as UTF-8 text; bytes that do not decode raise `error`
    starting `<path>: `, wherever in the with block the file is read."""
    with open(path, newline=newline, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: {exc}") from None
