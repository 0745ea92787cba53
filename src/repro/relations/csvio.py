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
    """Read a relation saved by :func:`save_relation`.

    The file's header must list exactly the schema's attributes (after the
    tuple-id column); a mismatch raises ``ValueError`` rather than silently
    mis-aligning columns.  Blank records are skipped; a record whose tuple
    id is not an integer, or repeats an earlier one, raises ``ValueError``
    naming the file and line (every error names the file).
    """
    path = Path(path)
    relation = Relation(schema)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return relation
        expected = ["__tid__"] + list(schema.attribute_names)
        if header != expected:
            raise ValueError(
                f"{path}: CSV header {header} does not match schema "
                f"{schema.name!r} ({expected})"
            )
        # The header was checked, so every record is adopted as a
        # schema-complete row (a short record reads as trailing nulls).
        names = schema.attribute_names
        for record in reader:
            if not record:
                continue
            fields = record[1:]
            if len(fields) < len(names):
                fields += [_NULL] * (len(names) - len(fields))
            try:
                tid = int(record[0])
            except ValueError:
                raise ValueError(
                    f"{path}, line {reader.line_num}: "
                    f"tuple id {record[0]!r} is not an integer"
                ) from None
            try:
                relation.adopt(
                    tid,
                    {
                        name: (None if text == _NULL else text)
                        for name, text in zip(names, fields)
                    },
                )
            except ValueError as error:
                raise ValueError(f"{path}, line {reader.line_num}: {error}") from None
    return relation
