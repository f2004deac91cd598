"""Integer multidegrees: one degree per irreducible component of a curve.

The coordinate order of a multidegree is the vertex order of the dual graph
it refers to; all modules in this package use that convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


def fmt_md(entries: Sequence[int]) -> str:
    """A multidegree's printed form: a lone entry bare, otherwise (a,b,...)."""
    if len(entries) == 1:
        return str(entries[0])
    return "(" + ",".join(map(str, entries)) + ")"


@dataclass(frozen=True, init=False)
class Multidegree:
    """Immutable integer vector with a cached total."""

    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int]):
        object.__setattr__(self, "entries", tuple(map(int, entries)))

    @cached_property
    def total(self) -> int:
        return sum(self.entries)

    def degree_on(self, indices: Iterable[int]) -> int:
        """Total degree of the restriction to the given vertex positions."""
        return sum(map(self.entries.__getitem__, indices))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __add__(self, other: "Multidegree") -> "Multidegree":
        if len(other) != len(self):
            raise ValueError("multidegree length mismatch")
        return Multidegree(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Multidegree") -> "Multidegree":
        if len(other) != len(self):
            raise ValueError("multidegree length mismatch")
        return Multidegree(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Multidegree":
        return Multidegree(-a for a in self.entries)

    def __str__(self) -> str:
        return fmt_md(self.entries)
