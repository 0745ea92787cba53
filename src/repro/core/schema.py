"""Relation schemas, attributes, and comparable attribute lists.

Matching dependencies are defined over a *pair* of relation schemas
``(R1, R2)`` (which may be the same schema twice — Example 2.3 of the paper
uses ``(R, R)``).  Because of that, the reasoning machinery never refers to
an attribute by schema name alone: every attribute occurrence is *qualified*
by the side of the pair it belongs to (:class:`QualifiedAttribute` with
``side`` in ``{LEFT, RIGHT}``).

A pair of attribute lists ``(X1, X2)`` is *comparable* over ``(R1, R2)``
(Section 2.1) when the lists have the same length and their elements are
pairwise comparable: ``X1[j] ∈ R1``, ``X2[j] ∈ R2`` and
``dom(X1[j]) = dom(X2[j])``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

#: Side tags for the two positions in a schema pair.
LEFT = 0
RIGHT = 1

#: Default attribute domain when none is declared.  Data standardization
#: (Section 2.1) is assumed to have unified representations, so a single
#: string domain is the common case.
STRING = "string"


@dataclass(frozen=True)
class Attribute:
    """A named, typed attribute of a relation schema."""

    name: str
    domain: str = STRING

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")

    def __str__(self) -> str:
        return self.name


class RelationSchema:
    """A relation schema: an ordered set of named attributes.

    Parameters
    ----------
    name:
        The relation name, e.g. ``"credit"``.
    attributes:
        Either :class:`Attribute` objects or plain strings (which get the
        default string domain).

    >>> credit = RelationSchema("credit", ["c#", "FN", "LN"])
    >>> credit.arity
    3
    >>> credit["FN"].domain
    'string'
    >>> "LN" in credit
    True
    """

    def __init__(self, name: str, attributes: Iterable) -> None:
        if not name:
            raise ValueError("relation name must be non-empty")
        self.name = name
        self._attributes: Tuple[Attribute, ...] = tuple(
            attr if isinstance(attr, Attribute) else Attribute(attr)
            for attr in attributes
        )
        #: The attribute names, in declaration order.
        self.attribute_names: Tuple[str, ...] = tuple(
            attr.name for attr in self._attributes
        )
        self._by_name: Dict[str, Attribute] = {}
        for attr in self._attributes:
            if attr.name in self._by_name:
                raise ValueError(
                    f"duplicate attribute {attr.name!r} in schema {name!r}"
                )
            self._by_name[attr.name] = attr
        if not self._attributes:
            raise ValueError(f"schema {name!r} must have at least one attribute")
        #: The attribute names as a set, for one-call subset tests.
        self.name_set: FrozenSet[str] = frozenset(self.attribute_names)

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        """The attributes, in declaration order."""
        return self._attributes

    @property
    def arity(self) -> int:
        """The number of attributes."""
        return len(self._attributes)

    def __getitem__(self, attribute_name: str) -> Attribute:
        try:
            return self._by_name[attribute_name]
        except KeyError:
            raise KeyError(
                f"schema {self.name!r} has no attribute {attribute_name!r}; "
                f"attributes are {list(self._by_name)}"
            ) from None

    def __contains__(self, attribute_name: object) -> bool:
        return attribute_name in self._by_name

    def __iter__(self):
        return iter(self._attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self.name == other.name and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash((self.name, self._attributes))

    def __repr__(self) -> str:
        return f"RelationSchema({self.name!r}, {list(self.attribute_names)!r})"


@dataclass(frozen=True)
class QualifiedAttribute:
    """An attribute occurrence qualified by its side in a schema pair.

    Two occurrences of attribute ``A`` are distinct when they live on
    different sides, even if ``R1`` and ``R2`` are the same schema — exactly
    what the paper needs for MDs of the form ``R[A] = R[A] → ...``.
    """

    side: int
    relation: str
    attribute: str

    def __post_init__(self) -> None:
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be LEFT (0) or RIGHT (1), got {self.side}")

    def __str__(self) -> str:
        return f"{self.relation}[{self.attribute}]"

    @property
    def display(self) -> str:
        """Unambiguous rendering including the side tag."""
        tag = "L" if self.side == LEFT else "R"
        return f"{tag}:{self.relation}[{self.attribute}]"


@dataclass(frozen=True)
class SchemaPair:
    """An ordered pair of relation schemas ``(R1, R2)``.

    All MD reasoning happens relative to one schema pair; the pair also
    provides qualified-attribute constructors and comparability checks.

    >>> pair = SchemaPair(RelationSchema("R", ["A", "B"]),
    ...                   RelationSchema("S", ["C", "D"]))
    >>> pair.left_attr("A")
    QualifiedAttribute(side=0, relation='R', attribute='A')
    >>> pair.comparable(["A", "B"], ["C", "D"])
    True
    """

    left: RelationSchema
    right: RelationSchema

    def left_attr(self, attribute_name: str) -> QualifiedAttribute:
        """Qualify ``attribute_name`` on the left schema, validating it."""
        self.left[attribute_name]
        return QualifiedAttribute(LEFT, self.left.name, attribute_name)

    def right_attr(self, attribute_name: str) -> QualifiedAttribute:
        """Qualify ``attribute_name`` on the right schema, validating it."""
        self.right[attribute_name]
        return QualifiedAttribute(RIGHT, self.right.name, attribute_name)

    def attr(self, side: int, attribute_name: str) -> QualifiedAttribute:
        """Qualify ``attribute_name`` on the given side."""
        if side == LEFT:
            return self.left_attr(attribute_name)
        if side == RIGHT:
            return self.right_attr(attribute_name)
        raise ValueError(f"side must be LEFT (0) or RIGHT (1), got {side}")

    def schema(self, side: int) -> RelationSchema:
        """Return the schema on the given side."""
        if side == LEFT:
            return self.left
        if side == RIGHT:
            return self.right
        raise ValueError(f"side must be LEFT (0) or RIGHT (1), got {side}")

    @property
    def total_arity(self) -> int:
        """Total number of qualified attributes, the paper's ``h``."""
        return self.left.arity + self.right.arity

    def all_qualified_attributes(self) -> Tuple[QualifiedAttribute, ...]:
        """All qualified attributes of both sides, left side first."""
        left = tuple(
            QualifiedAttribute(LEFT, self.left.name, attr.name)
            for attr in self.left
        )
        right = tuple(
            QualifiedAttribute(RIGHT, self.right.name, attr.name)
            for attr in self.right
        )
        return left + right

    def comparable(
        self, left_list: Sequence[str], right_list: Sequence[str]
    ) -> bool:
        """Check that ``(left_list, right_list)`` is a comparable pair.

        Same length, every element present in its schema, and pairwise
        equal domains (Section 2.1).
        """
        if len(left_list) != len(right_list):
            return False
        for left_name, right_name in zip(left_list, right_list):
            if left_name not in self.left or right_name not in self.right:
                return False
            if self.left[left_name].domain != self.right[right_name].domain:
                return False
        return True

    def require_comparable(
        self, left_list: Sequence[str], right_list: Sequence[str]
    ) -> None:
        """Raise ``ValueError`` with a precise message when not comparable."""
        if len(left_list) != len(right_list):
            raise ValueError(
                f"attribute lists have different lengths: "
                f"{len(left_list)} vs {len(right_list)}"
            )
        for position, (left_name, right_name) in enumerate(
            zip(left_list, right_list)
        ):
            if left_name not in self.left:
                raise ValueError(
                    f"position {position}: {left_name!r} is not an attribute "
                    f"of {self.left.name!r}"
                )
            if right_name not in self.right:
                raise ValueError(
                    f"position {position}: {right_name!r} is not an attribute "
                    f"of {self.right.name!r}"
                )
            left_dom = self.left[left_name].domain
            right_dom = self.right[right_name].domain
            if left_dom != right_dom:
                raise ValueError(
                    f"position {position}: domains differ for "
                    f"{self.left.name}[{left_name}] ({left_dom}) and "
                    f"{self.right.name}[{right_name}] ({right_dom})"
                )


@dataclass(frozen=True)
class ComparableLists:
    """A validated comparable pair of attribute lists over a schema pair.

    This is the paper's ``(Y1, Y2)`` — e.g. the card-holder attributes of
    Example 1.1.  Element access mirrors the paper's ``(X1[j], X2[j])``
    notation.
    """

    pair: SchemaPair
    left_list: Tuple[str, ...]
    right_list: Tuple[str, ...]
    _positions: Tuple[Tuple[str, str], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "left_list", tuple(self.left_list))
        object.__setattr__(self, "right_list", tuple(self.right_list))
        self.pair.require_comparable(self.left_list, self.right_list)
        object.__setattr__(
            self, "_positions", tuple(zip(self.left_list, self.right_list))
        )

    def __len__(self) -> int:
        return len(self.left_list)

    def __getitem__(self, position: int) -> Tuple[str, str]:
        return self._positions[position]

    def __iter__(self):
        return iter(self._positions)

    def qualified(self) -> Tuple[Tuple[QualifiedAttribute, QualifiedAttribute], ...]:
        """The positions as pairs of qualified attributes."""
        return tuple(
            (self.pair.left_attr(left_name), self.pair.right_attr(right_name))
            for left_name, right_name in self._positions
        )

    def attribute_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """The positions as plain name pairs."""
        return self._positions

    def __str__(self) -> str:
        left = ", ".join(self.left_list)
        right = ", ".join(self.right_list)
        return f"([{left}], [{right}])"
