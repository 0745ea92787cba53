"""CSV import/export for relations.

Keeps experiments reproducible from flat files: datasets generated by
:mod:`repro.datagen` can be saved, inspected, and re-loaded.  Nulls are
round-tripped as empty fields; everything else as strings (data
standardization in the paper's pipeline works on string-typed attributes).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Union

from repro.core.schema import RelationSchema

from .relation import Relation

#: Sentinel written for null values (empty CSV field).
_NULL = ""


def save_relation(relation: Relation, path: Union[str, Path]) -> None:
    """Write ``relation`` to ``path`` as a headered CSV file.

    The first column is the tuple id, so identities survive a round-trip.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("__tid__",) + relation.schema.attribute_names)
        for row in relation:
            writer.writerow(
                [row.tid]
                + [
                    _NULL if row[name] is None else str(row[name])
                    for name in relation.schema.attribute_names
                ]
            )


def load_relation(
    schema: RelationSchema, path: Union[str, Path]
) -> Relation:
    """Read a relation from a headered CSV file.

    Two headers are accepted.  The one :func:`save_relation` writes —
    ``__tid__``, then exactly the schema's attributes — keeps the tuple
    ids; any other header led by ``__tid__`` raises ``ValueError`` rather
    than silently mis-aligning columns, and a short record reads as
    trailing nulls.  A *plain* header names some of the schema's
    attributes, in any order: its records get fresh ids in file order,
    and the attributes it does not name read as null.  Under either
    header a record with more fields than the header raises
    ``ValueError``.

    Equal field texts are read as one ``str`` object (one table per
    call): a column repeats its values many times over, and matching
    only ever reads them.

    Blank records are skipped.  A tuple id that is not an integer or
    repeats an earlier one, a column the schema lacks, and text that is
    not UTF-8 raise ``ValueError`` naming the file; a file that cannot be
    opened raises ``OSError``.
    """
    path = Path(path)
    relation = Relation(schema)
    try:
        with path.open("r", newline="", encoding="utf-8") as handle:
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


def _read_saved(relation: Relation, header, reader, path: Path, intern) -> None:
    """The records under a :func:`save_relation` header, ids kept; every
    field text passes through ``intern`` (``intern(text, text)`` is the
    value it reads as)."""
    names = relation.schema.attribute_names
    expected = ["__tid__"] + list(names)
    if header != expected:
        raise ValueError(
            f"{path}: CSV header {header} does not match schema "
            f"{relation.schema.name!r} ({expected})"
        )
    # The header was checked, so every record's interned field list is
    # adopted as a schema-complete positional row (a short record reads
    # as trailing nulls).
    for record in reader:
        if not record:
            continue
        if len(record) > len(header):
            raise ValueError(
                f"{path}, line {reader.line_num}: "
                f"{len(record)} fields, the header has {len(header)}"
            )
        fields = record[1:]
        if len(fields) < len(names):
            fields += [_NULL] * (len(names) - len(fields))
        # The form ``save_relation`` writes: an optional ``-``, then ASCII
        # digits (``int()`` alone would also take ``+``, ``_`` and spaces).
        digits = record[0].removeprefix("-")
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(record[0])
            tid = int(record[0])
        except ValueError:
            raise ValueError(
                f"{path}, line {reader.line_num}: "
                f"tuple id {record[0]!r} is not an integer"
            ) from None
        try:
            relation.adopt(tid, list(map(intern, fields, fields)))
        except ValueError as error:
            raise ValueError(f"{path}, line {reader.line_num}: {error}") from None


def _read_plain(relation: Relation, header, reader, path: Path, intern) -> None:
    """The records under a plain header of attribute names, fresh ids;
    every field text passes through ``intern``."""
    unknown = set(header) - set(relation.schema.attribute_names)
    if unknown:
        raise ValueError(
            f"{path}: columns {sorted(unknown)} not in schema "
            f"{relation.schema.name!r}"
        )
    for record in reader:
        if not record:
            continue
        if len(record) > len(header):
            raise ValueError(
                f"{path}, line {reader.line_num}: "
                f"{len(record)} fields, the header has {len(header)}"
            )
        relation.insert(dict(zip(header, map(intern, record, record))))
