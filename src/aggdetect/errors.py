"""Error taxonomy shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, data errors
(corpus/prediction content) exit 2, resource errors (models, embeddings,
lexicons, dictionaries) exit 3. :func:`read_utf8` reads a whole text file
and raises the error class its caller names when the file is not UTF-8.
"""

from pathlib import Path


class AggdetectError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(AggdetectError):
    """Bad flags, bad config keys, or an invalid block combination."""


class DataError(AggdetectError):
    """Malformed or inconsistent corpus / prediction data."""


class ResourceError(AggdetectError):
    """A referenced resource (model, embeddings, lexicon, dictionary) is
    missing, malformed, or fails its checksum."""


def read_utf8(path: Path, error: type[AggdetectError]) -> str:
    """The text of the UTF-8 file at ``path``; bytes that are not UTF-8
    raise ``error``, the class the file's other faults get, naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte offset {exc.start})") from None
