"""In-memory relation instances with stable tuple identities.

The dynamic semantics of MDs (Section 2.1) tracks tuples *across updates*:
"to keep track of tuples during a matching process, we assume a temporary
unique tuple id for each tuple", and an instance ``I'`` extends ``I``
(``I ⊑ I'``) when every tuple of ``I`` has a same-id counterpart in ``I'``
(possibly with different attribute values).

:class:`Relation` implements exactly that: a schema-bound multiset of rows,
each carrying an integer tuple id assigned at insertion and preserved by
:meth:`copy`.  No third-party dataframe library is used (none is available
offline); the matching workloads only need iteration, id lookup, and cell
updates.
"""

from __future__ import annotations

from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.core.schema import RelationSchema


def is_tid(tid: object) -> bool:
    """Whether ``tid`` can be a tuple id: an ``int``, not a ``bool`` nor
    any other subclass (one type test, cheap enough for every row a CSV
    load adopts)."""
    return type(tid) is int


def _not_a_tid(tid: object) -> ValueError:
    return ValueError(f"tuple id {tid!r} is not an int")


class Row:
    """A single tuple: an id plus attribute values.

    Access values with ``row[attr]``; every row covers the full schema
    (``None`` stands for null).  ``Row(tid, mapping)`` builds a row from
    an attribute → value mapping.  A relation's rows are *positional*
    instead: ``values`` is a list in ``schema.attribute_names`` order and
    ``positions`` the relation's one ``name -> index`` map, shared by all
    its rows, so a row holds one list rather than a dict of its own.
    """

    __slots__ = ("tid", "_values", "_positions")

    def __init__(
        self,
        tid: int,
        values: Union[Mapping[str, object], List[object]],
        positions: Optional[Dict[str, int]] = None,
    ) -> None:
        self.tid = tid
        if positions is None:
            positions = {name: k for k, name in enumerate(values)}
            values = list(values.values())
        self._values = values
        self._positions = positions

    def __getitem__(self, attribute: str) -> object:
        return self._values[self._positions[attribute]]

    def get(self, attribute: str, default: object = None) -> object:
        """Value of ``attribute`` or ``default`` when absent."""
        k = self._positions.get(attribute)
        return default if k is None else self._values[k]

    def values(self) -> Dict[str, object]:
        """A copy of the attribute → value mapping."""
        return dict(zip(self._positions, self._values))

    def project(self, attributes: Iterable[str]) -> Tuple[object, ...]:
        """The tuple of values for the listed attributes, in order."""
        values, positions = self._values, self._positions
        return tuple(values[positions[attr]] for attr in attributes)

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
        #: ``name -> index`` into every row's value list, shared by the rows.
        self._positions: Dict[str, int] = {
            name: k for k, name in enumerate(schema.attribute_names)
        }
        self._rows: Dict[int, Row] = {}
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
        if tid in self._rows:
            raise ValueError(f"tuple id {tid} already present")
        self._rows[tid] = Row(tid, list(map(values.get, names)), self._positions)
        self._next_tid = max(self._next_tid, tid + 1)
        return tid

    def adopt(
        self, tid: int, values: Union[List[object], Mapping[str, object]]
    ) -> None:
        """Take over an already schema-complete row under a fresh ``tid``.

        The trusted twin of :meth:`insert` for rows that came out of a
        relation of this schema (a store's rows, a CSV whose header was
        checked).  A list is *positional* — one value per attribute, in
        ``schema.attribute_names`` order — and becomes the row's storage
        as is, not validated, not copied: the caller must hand over a list
        of the schema's length that nothing else will write to.  A mapping
        (a stored record's name-keyed form) is read into such a list.
        ``tid`` is held to :func:`is_tid` like :meth:`insert`'s.
        """
        if not is_tid(tid):
            raise _not_a_tid(tid)
        if tid in self._rows:
            raise ValueError(f"tuple id {tid} already present")
        if not isinstance(values, list):
            values = list(map(values.get, self.schema.attribute_names))
        self._rows[tid] = Row(tid, values, self._positions)
        self._next_tid = max(self._next_tid, tid + 1)

    def set_value(self, tid: int, attribute: str, value: object) -> None:
        """Update one cell of the row with id ``tid``."""
        if attribute not in self.schema:
            raise KeyError(
                f"{attribute!r} is not an attribute of {self.schema.name!r}"
            )
        self._rows[tid]._values[self._positions[attribute]] = value

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __getitem__(self, tid: int) -> Row:
        try:
            return self._rows[tid]
        except KeyError:
            raise KeyError(
                f"no tuple with id {tid} in {self.schema.name!r}"
            ) from None

    def __contains__(self, tid: object) -> bool:
        return tid in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def next_tid(self) -> int:
        """The tuple id :meth:`insert` assigns when given none."""
        return self._next_tid

    def tids(self) -> List[int]:
        """All tuple ids, in insertion order."""
        return list(self._rows)

    def rows(self) -> List[Row]:
        """All rows, in insertion order."""
        return list(self._rows.values())

    def project(
        self, tids: Iterable[int], attributes: Sequence[str]
    ) -> List[object]:
        """The listed tuples' values of the listed attributes as one flat,
        row-major list (a snapshot: later :meth:`set_value` calls do not
        reach it) — the value of ``tids[p]``'s ``attributes[k]`` sits at
        ``p * len(attributes) + k``."""
        if not self.schema.name_set.issuperset(attributes):
            unknown = next(a for a in attributes if a not in self.schema.name_set)
            raise KeyError(
                f"{unknown!r} is not an attribute of {self.schema.name!r}"
            )
        rows = self._rows
        try:
            selected = [rows[tid]._values for tid in tids]
        except KeyError as error:
            raise KeyError(
                f"no tuple with id {error.args[0]} in {self.schema.name!r}"
            ) from None
        indexes = [self._positions[attribute] for attribute in attributes]
        return [values[k] for values in selected for k in indexes]

    # ------------------------------------------------------------------
    # Extension semantics
    # ------------------------------------------------------------------

    def copy(self) -> "Relation":
        """A deep-enough copy preserving tuple ids (an extension of self)."""
        duplicate = Relation(self.schema)
        # Every stored row is already schema-complete and its tid unique,
        # so the value lists are copied without insert()'s validation.
        positions = duplicate._positions = self._positions
        duplicate._rows = {
            tid: Row(tid, row._values.copy(), positions)
            for tid, row in self._rows.items()
        }
        duplicate._next_tid = self._next_tid
        return duplicate

    def extends(self, original: "Relation") -> bool:
        """``original ⊑ self``: every original tuple id is present here.

        Values may differ — that is the point of the dynamic semantics.
        """
        if self.schema != original.schema:
            return False
        return all(tid in self._rows for tid in original._rows)

    def __repr__(self) -> str:
        return f"Relation({self.schema.name!r}, {len(self)} rows)"
