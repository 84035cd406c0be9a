"""Iteration domains: rectangular affine bounds over named iterators.

Tensor convolutions have static, convex, affine (in fact rectangular) loop
bounds, which is the property the paper exploits (§4).  A :class:`Domain`
is an ordered list of :class:`Iterator` with integer extents; the ordering
reflects the loop nest order before any schedule is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator as TypingIterator

from repro.errors import TransformError
from repro.utils import prod


@dataclass(frozen=True)
class Iterator:
    """A loop iterator ``lower <= name < lower + extent`` with unit stride."""

    name: str
    extent: int
    lower: int = 0

    def __post_init__(self) -> None:
        if self.extent <= 0:
            raise TransformError(f"iterator '{self.name}' must have positive extent")

    @property
    def upper(self) -> int:
        return self.lower + self.extent

    def with_extent(self, extent: int) -> "Iterator":
        return Iterator(self.name, extent, self.lower)

    def __str__(self) -> str:
        return f"{self.lower} <= {self.name} < {self.upper}"


@dataclass(frozen=True)
class Domain:
    """An ordered rectangular iteration domain."""

    iterators: tuple[Iterator, ...]

    @classmethod
    def of(cls, **extents: int) -> "Domain":
        """Build a domain from keyword extents, preserving keyword order."""
        return cls(tuple(Iterator(name, extent) for name, extent in extents.items()))

    # ------------------------------------------------------------------
    def _lookup(self) -> tuple[tuple[str, ...], dict[str, int]]:
        # Names and name -> first index, memoised per instance:
        # transformations and the tuner look iterators up by name many
        # times per domain.
        cached = self.__dict__.get("_lookup_table")
        if cached is None:
            names = tuple(it.name for it in self.iterators)
            positions: dict[str, int] = {}
            for index, name in enumerate(names):
                positions.setdefault(name, index)
            cached = (names, positions)
            object.__setattr__(self, "_lookup_table", cached)
        return cached

    def positions(self) -> dict[str, int]:
        """Iterator name -> loop index (treat as read-only)."""
        return self._lookup()[1]

    @property
    def names(self) -> tuple[str, ...]:
        return self._lookup()[0]

    @property
    def rank(self) -> int:
        return len(self.iterators)

    def cardinality(self) -> int:
        """Number of statement instances in the domain."""
        return prod(it.extent for it in self.iterators)

    def extent(self, name: str) -> int:
        return self[name].extent

    def __getitem__(self, name: str) -> Iterator:
        return self.iterators[self.index_of(name)]

    def __contains__(self, name: str) -> bool:
        return name in self.positions()

    def index_of(self, name: str) -> int:
        index = self.positions().get(name)
        if index is None:
            raise TransformError(f"iterator '{name}' not in domain {self.names}")
        return index

    # ------------------------------------------------------------------
    def points(self) -> TypingIterator[dict[str, int]]:
        """Enumerate every statement instance as an iterator-value mapping.

        Only used by tests and the reference interpreter on small domains.
        """
        ranges = [range(it.lower, it.upper) for it in self.iterators]
        for values in product(*ranges):
            yield dict(zip(self.names, values))

    # ------------------------------------------------------------------
    def replace(self, name: str, *replacements: Iterator) -> "Domain":
        """Replace one iterator with zero or more new iterators in place."""
        index = self.index_of(name)
        iterators = list(self.iterators)
        iterators[index:index + 1] = list(replacements)
        new_names = [it.name for it in iterators]
        if len(set(new_names)) != len(new_names):
            raise TransformError(f"duplicate iterator names after replace: {new_names}")
        return Domain(tuple(iterators))

    def reorder(self, order: list[str]) -> "Domain":
        if sorted(order) != sorted(self.names):
            raise TransformError(
                f"reorder {order} is not a permutation of domain iterators {self.names}"
            )
        return Domain(tuple(self[name] for name in order))

    def restrict(self, name: str, new_extent: int) -> "Domain":
        """Shrink one iterator's extent (the bottleneck transformation)."""
        if new_extent <= 0:
            raise TransformError("restricted extent must be positive")
        target = self[name]
        if new_extent > target.extent:
            raise TransformError(
                f"cannot restrict '{name}' from {target.extent} to larger extent {new_extent}"
            )
        return self.replace(name, target.with_extent(new_extent))

    def prepend(self, iterator: Iterator) -> "Domain":
        if iterator.name in self:
            raise TransformError(f"iterator '{iterator.name}' already in domain")
        return Domain((iterator,) + self.iterators)

    def drop(self, name: str) -> "Domain":
        index = self.index_of(name)
        return Domain(self.iterators[:index] + self.iterators[index + 1:])

    def __str__(self) -> str:
        return "{ " + " and ".join(str(it) for it in self.iterators) + " }"
