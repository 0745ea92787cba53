"""In-memory relation instances with stable tuple identities.

The dynamic semantics of MDs (Section 2.1) tracks tuples *across updates*:
"to keep track of tuples during a matching process, we assume a temporary
unique tuple id for each tuple", and an instance ``I'`` extends ``I``
(``I ⊑ I'``) when every tuple of ``I`` has a same-id counterpart in ``I'``
(possibly with different attribute values).

:class:`Relation` implements exactly that: a schema-bound multiset of rows,
each carrying an integer tuple id assigned at insertion and preserved by
:meth:`copy`, stored as one column per attribute.  No third-party dataframe
library is used (none is available offline); the matching workloads only
need iteration, id lookup, column reads and cell updates.
"""

from __future__ import annotations

from collections import deque
from itertools import islice, repeat
from operator import lt
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.core.schema import RelationSchema


def is_tid(tid: object) -> bool:
    """Whether ``tid`` can be a tuple id: an ``int``, not a ``bool`` nor
    any other subclass (one type test, cheap enough for every row an
    insert takes)."""
    return type(tid) is int


def _not_a_tid(tid: object) -> ValueError:
    return ValueError(f"tuple id {tid!r} is not an int")


class Row:
    """A single tuple: an id plus attribute values.

    Access values with ``row[attr]``; every row covers the full schema
    (``None`` stands for null).  ``Row(tid, mapping)`` builds a standalone
    row from an attribute → value mapping.  A relation's rows are *views*
    instead: ``Row(tid, columns, position)`` reads the relation's own
    ``name -> column`` map at one position, so the relation keeps no
    object per record, and a view sees every later
    :meth:`Relation.set_value` of its record.
    """

    __slots__ = ("tid", "_columns", "_position")

    def __init__(
        self,
        tid: int,
        values: Mapping[str, object],
        position: Optional[int] = None,
    ) -> None:
        self.tid = tid
        if position is None:
            values = {name: [value] for name, value in values.items()}
            position = 0
        self._columns = values
        self._position = position

    def __getitem__(self, attribute: str) -> object:
        return self._columns[attribute][self._position]

    def get(self, attribute: str, default: object = None) -> object:
        """Value of ``attribute`` or ``default`` when absent."""
        column = self._columns.get(attribute)
        return default if column is None else column[self._position]

    def values(self) -> Dict[str, object]:
        """A copy of the attribute → value mapping."""
        position = self._position
        return {name: column[position] for name, column in self._columns.items()}

    def project(self, attributes: Iterable[str]) -> Tuple[object, ...]:
        """The tuple of values for the listed attributes, in order."""
        columns, position = self._columns, self._position
        return tuple([columns[attribute][position] for attribute in attributes])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.tid == other.tid and self.values() == other.values()

    def __hash__(self) -> int:
        return hash(self.tid)

    def __repr__(self) -> str:
        return f"Row(tid={self.tid}, {self.values()!r})"


class Relation:
    """A schema-bound instance: rows with stable tuple ids.

    Stored as columns: per attribute, in ``schema.attribute_names`` order,
    one list of values (references, ``None`` for null) indexed by a
    record's *position* — its insertion rank — beside the list of tids
    and a ``tid -> position`` map.  Equal values a loader shares are held
    once, and no object exists per record: ``relation[tid]`` is a
    :class:`Row` view made on access, and bulk readers (:meth:`project`,
    CSV export, blocking) read :meth:`column` directly.

    >>> from repro.core.schema import RelationSchema
    >>> schema = RelationSchema("R", ["A", "B"])
    >>> instance = Relation(schema)
    >>> tid = instance.insert({"A": 1, "B": "x"})
    >>> instance[tid]["A"]
    1
    >>> len(instance)
    1
    """

    def __init__(
        self,
        schema: RelationSchema,
        rows: Optional[Iterable[Dict[str, object]]] = None,
    ) -> None:
        self.schema = schema
        #: ``name -> column``, in schema order: a record's value of
        #: ``name`` sits at its position in the column.
        self._columns: Dict[str, List[object]] = {
            name: [] for name in schema.attribute_names
        }
        #: The tids by position, and each tid's position.
        self._tids: List[int] = []
        self._positions: Dict[int, int] = {}
        self._next_tid = 0
        if rows is not None:
            for values in rows:
                self.insert(values)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(
        self, values: Dict[str, object], tid: Optional[int] = None
    ) -> int:
        """Insert a row; missing schema attributes are filled with ``None``.

        Unknown attribute names are rejected.  An explicit ``tid`` may be
        supplied (the engine's stores preserve ids); it must be a fresh
        ``int`` (:func:`is_tid`), else ``ValueError`` and nothing stored.
        """
        names = self.schema.attribute_names
        unknown = set(values).difference(names)
        if unknown:
            raise KeyError(
                f"attributes {sorted(unknown)} not in schema {self.schema.name!r}"
            )
        if tid is None:
            tid = self._next_tid
        elif not is_tid(tid):
            raise _not_a_tid(tid)
        if tid in self._positions:
            raise ValueError(f"tuple id {tid} already present")
        self._append(tid, map(values.get, names))
        return tid

    def adopt(self, tid: int, values: Mapping[str, object]) -> None:
        """Take over an already schema-complete row under a fresh ``tid``.

        The trusted twin of :meth:`insert` for rows that came out of a
        relation of this schema (a store's name-keyed records): the
        mapping is read by name, its names not checked.  ``tid`` is held
        to :func:`is_tid` like :meth:`insert`'s.
        """
        if not is_tid(tid):
            raise _not_a_tid(tid)
        if tid in self._positions:
            raise ValueError(f"tuple id {tid} already present")
        self._append(tid, map(values.get, self.schema.attribute_names))

    def _append(self, tid: int, values: Iterable[object]) -> None:
        """One record at the next position: ``values`` in schema order."""
        self._positions[tid] = len(self._tids)
        self._tids.append(tid)
        # One append per column, run by ``deque`` without a bytecode loop.
        deque(map(list.append, self._columns.values(), values), 0)
        if tid >= self._next_tid:
            self._next_tid = tid + 1

    def extend(
        self, tids: Sequence[int], columns: Sequence[Iterable[object]]
    ) -> None:
        """Append records column-wise: the bulk twin of :meth:`adopt`.

        ``tids`` are the records' ids, each held to :func:`is_tid`, fresh
        and distinct (else ``ValueError`` naming the first that is not,
        and nothing stored); ``columns`` holds one iterable per attribute,
        in ``schema.attribute_names`` order, each of ``len(tids)`` values,
        and is trusted like :meth:`adopt`'s lists.
        """
        positions = self._positions
        distinct = set(tids)
        if (
            not {int}.issuperset(map(type, tids))
            or len(distinct) < len(tids)
            or not positions.keys().isdisjoint(distinct)
        ):
            seen = set()
            for tid in tids:
                if not is_tid(tid):
                    raise _not_a_tid(tid)
                if tid in seen or tid in positions:
                    raise ValueError(f"tuple id {tid} already present")
                seen.add(tid)
        start = len(self._tids)
        positions.update(zip(tids, range(start, start + len(tids))))
        self._tids.extend(tids)
        for column, values in zip(self._columns.values(), columns):
            column.extend(values)
        if tids:
            self._next_tid = max(self._next_tid, max(tids) + 1)

    def set_value(self, tid: int, attribute: str, value: object) -> None:
        """Update one cell of the row with id ``tid``."""
        column = self._columns.get(attribute)
        if column is None:
            raise KeyError(
                f"{attribute!r} is not an attribute of {self.schema.name!r}"
            )
        column[self._positions[tid]] = value

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __getitem__(self, tid: int) -> Row:
        try:
            return Row(tid, self._columns, self._positions[tid])
        except KeyError:
            raise KeyError(
                f"no tuple with id {tid} in {self.schema.name!r}"
            ) from None

    def __contains__(self, tid: object) -> bool:
        return tid in self._positions

    def __iter__(self) -> Iterator[Row]:
        tids = self._tids
        return map(Row, tids, repeat(self._columns), range(len(tids)))

    def __len__(self) -> int:
        return len(self._tids)

    @property
    def next_tid(self) -> int:
        """The tuple id :meth:`insert` assigns when given none."""
        return self._next_tid

    def tids(self) -> List[int]:
        """All tuple ids, in insertion order."""
        return list(self._tids)

    def rows(self) -> List[Row]:
        """All rows, in insertion order."""
        return list(self)

    def column(self, attribute: str) -> Sequence[object]:
        """The values of ``attribute``, by position (:meth:`by_tid`): the
        relation's own column, to read and not to write."""
        try:
            return self._columns[attribute]
        except KeyError:
            raise KeyError(
                f"{attribute!r} is not an attribute of {self.schema.name!r}"
            ) from None

    def by_tid(self) -> Tuple[Sequence[int], Sequence[int]]:
        """The tuple ids ascending, and the position of each: a bulk
        reader walks the records in tid order through these, reading
        :meth:`column` and building no row.  A relation filled in tid
        order (a CSV load, generated data) answers with its own tid list,
        not to be written, and a ``range``."""
        tids = self._tids
        if all(map(lt, tids, islice(tids, 1, None))):
            return tids, range(len(tids))
        order = sorted(range(len(tids)), key=tids.__getitem__)
        return [tids[position] for position in order], order

    def positions(self, tids: Iterable[int]) -> List[int]:
        """The listed tuples' positions, in order: what :meth:`gather`
        reads at."""
        try:
            return list(map(self._positions.__getitem__, tids))
        except KeyError as error:
            raise KeyError(
                f"no tuple with id {error.args[0]} in {self.schema.name!r}"
            ) from None

    def gather(
        self, positions: Sequence[int], attributes: Sequence[str]
    ) -> List[object]:
        """The values of the listed attributes at the listed positions as
        one flat, column-major list (a snapshot: later :meth:`set_value`
        calls do not reach it) — ``positions[p]``'s ``attributes[k]`` sits
        at ``k * len(positions) + p``."""
        try:
            return [
                column[position]
                for column in map(self._columns.__getitem__, attributes)
                for position in positions
            ]
        except KeyError as error:
            raise KeyError(
                f"{error.args[0]!r} is not an attribute of {self.schema.name!r}"
            ) from None

    def project(
        self, tids: Iterable[int], attributes: Sequence[str]
    ) -> List[object]:
        """:meth:`gather` at the listed tuples: the value of ``tids[p]``'s
        ``attributes[k]`` sits at ``k * len(tids) + p``."""
        return self.gather(self.positions(tids), attributes)

    # ------------------------------------------------------------------
    # Extension semantics
    # ------------------------------------------------------------------

    def copy(self) -> "Relation":
        """A deep-enough copy preserving tuple ids (an extension of self)."""
        duplicate = Relation(self.schema)
        duplicate._columns = {
            name: column.copy() for name, column in self._columns.items()
        }
        duplicate._tids = self._tids.copy()
        duplicate._positions = self._positions.copy()
        duplicate._next_tid = self._next_tid
        return duplicate

    def extends(self, original: "Relation") -> bool:
        """``original ⊑ self``: every original tuple id is present here.

        Values may differ — that is the point of the dynamic semantics.
        """
        if self.schema != original.schema:
            return False
        return self._positions.keys() >= original._positions.keys()

    def __repr__(self) -> str:
        return f"Relation({self.schema.name!r}, {len(self)} rows)"
