"""Exception types shared across the egoflux package, and readers that name a faulty file."""

import csv
import json
import operator
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


def csv_rows(path, columns, error: type[Exception] = ValueError):
    """Yield `(line, cells)` for each row of the CSV file `path`: its cells of
    `columns` (two or more), in that order, and the file line the row ends on.

    Rows are read as csv.DictReader would: blank rows are skipped, a cell past
    the end of a short row is None, extra columns are ignored, and of a
    repeated header name the last column wins.  Bytes that do not decode, and
    a header that lacks one of `columns`, raise `error` naming the path.
    """
    with open_text(path, error, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not set(columns).issubset(header):
            raise error(f"{path}: CSV header must contain {list(columns)}")
        column = {name: i for i, name in enumerate(header)}
        picks = [column[name] for name in columns]
        width = max(picks) + 1
        pick = operator.itemgetter(*picks)
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                row += [None] * (width - len(row))
            # line_num: the file line a row ends on, blank lines counted
            yield reader.line_num, pick(row)
