"""Corpus readers and prediction writers.

The canonical on-disk corpus format is escaped TSV: UTF-8, one record per
line, fields ``id<TAB>text[<TAB>label]``.  Backslash, tab, newline and
carriage return inside a field are escaped as ``\\\\``, ``\\t``, ``\\n`` and
``\\r`` on write and unescaped on read, which makes round trips bit-exact.
RFC-4180 CSV is accepted behind a format flag for compatibility with the
original shared-task distribution; TSV remains the internal format.

Prediction files are ``id<TAB>label`` rows, UTF-8, LF line endings.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterable

from .errors import DataError


class Label(IntEnum):
    """The three aggression tags, in their fixed report order."""

    NAG = 0  # non-aggressive
    CAG = 1  # covertly aggressive
    OAG = 2  # overtly aggressive


LABELS: tuple[Label, Label, Label] = (Label.NAG, Label.CAG, Label.OAG)

_LABEL_BY_NAME = {label.name: label for label in LABELS}


def parse_label(s: str) -> Label:
    """Parse a label string, case-insensitively. Raises DataError otherwise."""
    label = _LABEL_BY_NAME.get(s.strip().upper())
    if label is None:
        raise DataError(f"unknown label {s!r}")
    return label


@dataclass(frozen=True)
class Document:
    """One comment: unique id, raw text, optional gold label."""

    id: str
    text: str
    gold: Label | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("document id must be non-empty")


@dataclass
class Corpus:
    """An ordered collection of documents with unique ids."""

    documents: list[Document]

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def gold_labels(self) -> list[Label]:
        missing = [doc.id for doc in self.documents if doc.gold is None]
        if missing:
            raise DataError(f"document {missing[0]!r} has no gold label")
        return [doc.gold for doc in self.documents]  # type: ignore[misc]


_ESCAPE_TABLE = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def escape_field(value: str) -> str:
    """Escape a field for the canonical TSV format."""
    return value.translate(_ESCAPE_TABLE)


def unescape_field(value: str) -> str:
    """Inverse of :func:`escape_field`."""
    if "\\" not in value:
        return value
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt in _UNESCAPES:
                out.append(_UNESCAPES[nxt])
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _iter_tsv_records(raw: str) -> Iterable[tuple[int, list[str]]]:
    for lineno, line in enumerate(raw.split("\n"), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if not line:
            continue
        yield lineno, [unescape_field(f) for f in line.split("\t")]


def _iter_csv_records(raw: str) -> Iterable[tuple[int, list[str]]]:
    reader = csv.reader(io.StringIO(raw))
    for row in reader:
        if not row or all(f == "" for f in row):
            continue
        yield reader.line_num, list(row)


def load_corpus(
    path: str | Path,
    has_labels: bool = True,
    format: str = "tsv",
) -> Corpus:
    """Load a corpus file into a :class:`Corpus`.

    Each record needs at least two fields (id, text) and a third when
    ``has_labels`` is set.  Empty lines are skipped; empty text is legal.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"corpus file not found: {path}")
    if format not in ("tsv", "csv"):
        raise DataError(f"unknown corpus format {format!r} (expected tsv or csv)")

    raw = path.read_text(encoding="utf-8")
    records = _iter_tsv_records(raw) if format == "tsv" else _iter_csv_records(raw)

    min_fields = 3 if has_labels else 2
    documents: list[Document] = []
    seen: set[str] = set()
    for lineno, fields in records:
        if len(fields) < min_fields:
            raise DataError(
                f"{path}: malformed record at line {lineno}: expected at least "
                f"{min_fields} fields, got {len(fields)}"
            )
        doc_id = fields[0]
        if not doc_id:
            raise DataError(f"{path}: empty document id at line {lineno}")
        if doc_id in seen:
            raise DataError(f"{path}: duplicate document id {doc_id!r} at line {lineno}")
        seen.add(doc_id)
        gold: Label | None = None
        if has_labels:
            try:
                gold = parse_label(fields[2])
            except DataError as exc:
                raise DataError(f"{path}: {exc} at line {lineno}") from None
        documents.append(Document(id=doc_id, text=fields[1], gold=gold))

    return Corpus(documents)


def write_predictions(corpus: Corpus, predictions: list[Label], path: str | Path) -> None:
    """Write ``id<TAB>label`` rows in corpus order."""
    if len(predictions) != len(corpus.documents):
        raise DataError(
            f"prediction count {len(predictions)} does not match corpus size "
            f"{len(corpus.documents)}"
        )
    lines = [
        f"{escape_field(doc.id)}\t{label.name}\n"
        for doc, label in zip(corpus.documents, predictions)
    ]
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_predictions(path: str | Path) -> dict[str, Label]:
    """Read a prediction file back into an id -> label map."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"prediction file not found: {path}")
    result: dict[str, Label] = {}
    for lineno, fields in _iter_tsv_records(path.read_text(encoding="utf-8")):
        if len(fields) != 2:
            raise DataError(f"{path}: malformed prediction at line {lineno}")
        doc_id = fields[0]
        if doc_id in result:
            raise DataError(f"{path}: duplicate prediction id {doc_id!r} at line {lineno}")
        try:
            result[doc_id] = parse_label(fields[1])
        except DataError as exc:
            raise DataError(f"{path}: {exc} at line {lineno}") from None
    return result
