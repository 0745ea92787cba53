"""In-memory relational substrate: instances and CSV I/O."""

from .csvio import load_relation, save_relation
from .relation import Relation, Row

__all__ = [
    "Relation",
    "Row",
    "load_relation",
    "save_relation",
]
