"""CSV import/export for relations.

Keeps experiments reproducible from flat files: datasets generated by
:mod:`repro.datagen` can be saved, inspected, and re-loaded.  Nulls are
round-tripped as empty fields; everything else as strings (data
standardization in the paper's pipeline works on string-typed attributes).
"""

from __future__ import annotations

import csv
from itertools import compress, islice, repeat
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple, Union

from repro.core.schema import RelationSchema

from .relation import Relation

#: Sentinel written for null values (empty CSV field).
_NULL = ""

#: Records read per step: the relation's columns grow a chunk at a time.
_CHUNK = 128


def save_relation(relation: Relation, path: Union[str, Path]) -> None:
    """Write ``relation`` to ``path`` as a headered CSV file, records in
    insertion order, read off the columns.

    The first column is the tuple id, so identities survive a round-trip.
    """
    path = Path(path)
    names = relation.schema.attribute_names
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("__tid__",) + names)
        writer.writerows(zip(
            relation.tids(), *[map(_field, relation.column(name)) for name in names]
        ))


def _field(value: object) -> str:
    return _NULL if value is None else str(value)


def load_relation(
    schema: RelationSchema, path: Union[str, Path]
) -> Relation:
    """Read a relation from a headered CSV file.

    Two headers are accepted.  The one :func:`save_relation` writes —
    ``__tid__``, then exactly the schema's attributes — keeps the tuple
    ids; any other header led by ``__tid__`` raises ``ValueError`` rather
    than silently mis-aligning columns.  A *plain* header names some of
    the schema's attributes, each once, in any order: its records get
    fresh ids in file order, and the attributes it does not name read as
    null.  Under either header a short record reads as trailing nulls,
    and a record with more fields than the header raises ``ValueError``.
    A leading UTF-8 byte-order mark is dropped.

    The records are read a chunk at a time and stored column by column
    (:meth:`Relation.extend`); equal field texts are read as one ``str``
    object (one table per call): a column repeats its values many times
    over, and matching only ever reads them.

    Blank records are skipped.  A tuple id that is not an integer or
    repeats an earlier one, a column the schema lacks or the header
    repeats, and text that is not UTF-8 raise ``ValueError`` naming the
    file (and the line, for a record); a file that cannot be opened raises
    ``OSError``.
    """
    path = Path(path)
    relation = Relation(schema)
    try:
        with path.open("r", newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is not None:
                read = _read_saved if header[:1] == ["__tid__"] else _read_plain
                # One table per call: it maps a text to the one object
                # every equal field is read as, and the empty text to null.
                read(relation, header, reader, path, {_NULL: None}.setdefault)
    except UnicodeDecodeError as error:
        raise ValueError(f"{path}: not UTF-8 text ({error.reason})") from None
    return relation


def _chunks(
    reader, width: int, path: Path
) -> Iterator[Tuple[List[Tuple[str, ...]], Sequence[int]]]:
    """The non-blank records, ``_CHUNK`` at a time, as ``(fields, lines)``:
    ``fields`` the chunk transposed — one tuple per column of the header,
    a short record padded with empty fields — and ``lines`` the line each
    record ends on.  A record longer than ``width`` raises ``ValueError``."""
    # Each record is paired with the line it ends on: ``line_num`` read
    # right after the reader yields it.
    numbered = zip(reader, map(getattr, repeat(reader), repeat("line_num")))
    while block := list(islice(numbered, _CHUNK)):
        records, lines = zip(*block)
        if not all(records):
            lines = tuple(compress(lines, records))
            records = tuple(filter(None, records))
            if not records:
                continue
        if max(map(len, records)) > width:
            at = next(k for k, record in enumerate(records) if len(record) > width)
            raise ValueError(
                f"{path}, line {lines[at]}: "
                f"{len(records[at])} fields, the header has {width}"
            )
        if min(map(len, records)) < width:
            records = [record + [_NULL] * (width - len(record)) for record in records]
        yield list(zip(*records)), lines


def _read_saved(relation: Relation, header, reader, path: Path, intern) -> None:
    """The records under a :func:`save_relation` header, ids kept; every
    field text passes through ``intern`` (``intern(text, text)`` is the
    value it reads as)."""
    expected = ["__tid__", *relation.schema.attribute_names]
    if header != expected:
        raise ValueError(
            f"{path}: CSV header {header} does not match schema "
            f"{relation.schema.name!r} ({expected})"
        )
    for (texts, *columns), lines in _chunks(reader, len(header), path):
        tids = []
        seen = set()
        for text, line in zip(texts, lines):
            # The form ``save_relation`` writes: an optional ``-``, then
            # ASCII digits (``int()`` alone would also take ``+``, ``_``
            # and spaces).
            digits = text.removeprefix("-")
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError(text)
                tid = int(text)
            except ValueError:  # the form, or beyond ``int``'s digit limit
                raise ValueError(
                    f"{path}, line {line}: tuple id {text!r} is not an integer"
                ) from None
            if tid in seen or tid in relation:
                raise ValueError(
                    f"{path}, line {line}: tuple id {tid} already present"
                )
            seen.add(tid)
            tids.append(tid)
        relation.extend(tids, [map(intern, column, column) for column in columns])


def _read_plain(relation: Relation, header, reader, path: Path, intern) -> None:
    """The records under a plain header of attribute names, fresh ids;
    every field text passes through ``intern``."""
    names = relation.schema.attribute_names
    unknown = set(header).difference(names)
    if unknown:
        raise ValueError(
            f"{path}: columns {sorted(unknown)} not in schema "
            f"{relation.schema.name!r}"
        )
    if len(set(header)) < len(header):
        repeated = next(name for k, name in enumerate(header) if name in header[:k])
        raise ValueError(f"{path}: column {repeated!r} appears twice in the CSV header")
    where = {name: k for k, name in enumerate(header)}
    for fields, _ in _chunks(reader, len(header), path):
        count = len(fields[0]) if fields else 0
        start = relation.next_tid
        relation.extend(range(start, start + count), [
            repeat(None, count) if (k := where.get(name)) is None
            else map(intern, fields[k], fields[k])
            for name in names
        ])
