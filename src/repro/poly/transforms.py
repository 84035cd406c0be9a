"""Program transformations over convolution loop nests.

Classic transformations (interchange/reorder, strip-mine, tile, fuse,
reverse) preserve the computed values and are checked against data
dependences.  The neural transformations of §5.1 (bottleneck, group,
depthwise) deliberately change the computed values; their legality is
deferred to the Fisher-Potential check (``is_neural = True``).

Every transformation rewrites the statement's *domain* and its integer
*access matrix* (:class:`~repro.poly.statement.Statement`) so that the
result is again a plain affine statement:

* split, tile, group, fuse, reverse and depthwise substitute the old
  iterators by affine combinations of the new ones — strip-mining ``ci``
  by 4 substitutes ``ci := 4 * ci_o + ci_i`` — which is one product of
  the access matrix with an integer substitution matrix (plus a constant
  shift for reverse), and keeps schedules affine instead of introducing
  div/mod;
* reorder and interchange permute the matrix columns with the domain;
* bottleneck only shrinks an extent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import LegalityError, TransformError
from repro.poly.dependence import schedule_preserves_dependences
from repro.poly.domain import Domain, Iterator
from repro.poly.statement import Statement


@dataclass(frozen=True)
class Transformation:
    """Base class: a rewrite of a statement's loop nest."""

    #: True for the NAS transformations whose legality is representational.
    is_neural: bool = field(default=False, init=False, repr=False)

    @property
    def name(self) -> str:
        return type(self).__name__.lower()

    def applicable(self, statement: Statement) -> bool:
        """Cheap check whether the transformation can be constructed."""
        try:
            self.validate(statement)
            return True
        except TransformError:
            return False

    def validate(self, statement: Statement) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def apply(self, statement: Statement) -> Statement:  # pragma: no cover - overridden
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


def _substitute(statement: Statement, domain: Domain,
                replaced: Mapping[str, Mapping[str, int]],
                shift: Mapping[str, int] | None = None) -> Statement:
    """Rewrite ``statement`` onto ``domain`` by one substitution product.

    Each iterator in ``replaced`` becomes the given integer combination of
    ``domain``'s iterators (an empty combination substitutes 0), plus its
    ``shift`` constant; every other iterator keeps its name.
    """
    position = domain.positions()
    substitution = []
    for name in statement.domain.names:
        row = [0] * domain.rank
        for target, coeff in replaced.get(name, {name: 1}).items():
            row[position[target]] = coeff
        substitution.append(row)
    constants = None
    if shift:
        constants = np.array([shift.get(name, 0) for name in statement.domain.names],
                             dtype=np.int64)
    return statement.substituted(
        domain, np.array(substitution, dtype=np.int64).reshape(statement.domain.rank,
                                                               domain.rank), constants)


def _reordered(statement: Statement, order: Sequence[str]) -> Statement:
    """The statement with its loops in ``order`` (a column permutation)."""
    position = statement.domain.positions()
    return statement.permuted([position[name] for name in order])


# ---------------------------------------------------------------------------
# Classic, semantics-preserving transformations
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Interchange(Transformation):
    """Swap two loops in the nest (Table 1 ``reorder`` for a pair)."""

    first: str
    second: str

    def validate(self, statement: Statement) -> None:
        for name in (self.first, self.second):
            if name not in statement.domain:
                raise TransformError(f"interchange: iterator '{name}' not in nest")
        order = list(statement.domain.names)
        i, j = order.index(self.first), order.index(self.second)
        order[i], order[j] = order[j], order[i]
        if not schedule_preserves_dependences(statement, order):
            raise LegalityError(
                f"interchange({self.first},{self.second}) violates a data dependence",
                primitive="reorder", reason="violates a data dependence")

    def apply(self, statement: Statement) -> Statement:
        self.validate(statement)
        order = list(statement.domain.names)
        i, j = order.index(self.first), order.index(self.second)
        order[i], order[j] = order[j], order[i]
        return _reordered(statement, order)

    def describe(self) -> str:
        return f"interchange({self.first},{self.second})"


@dataclass(frozen=True)
class Reorder(Transformation):
    """Arbitrary permutation of the loop order (Table 1 ``reorder``)."""

    order: tuple[str, ...]

    def validate(self, statement: Statement) -> None:
        if sorted(self.order) != sorted(statement.domain.names):
            raise TransformError(
                f"reorder {self.order} is not a permutation of {statement.domain.names}")
        if not schedule_preserves_dependences(statement, list(self.order)):
            raise LegalityError(f"reorder{self.order} violates a data dependence",
                                primitive="reorder", reason="violates a data dependence")

    def apply(self, statement: Statement) -> Statement:
        self.validate(statement)
        return _reordered(statement, self.order)

    def describe(self) -> str:
        return f"reorder({','.join(self.order)})"


@dataclass(frozen=True)
class Reverse(Transformation):
    """Reverse one loop's iteration direction.

    Included to exercise the classic legality machinery: reversing a loop
    that carries a dependence is illegal, which the tests verify.
    """

    iterator: str

    def validate(self, statement: Statement) -> None:
        if self.iterator not in statement.domain:
            raise TransformError(f"reverse: iterator '{self.iterator}' not in nest")
        from repro.poly.dependence import has_loop_carried_dependence

        if has_loop_carried_dependence(statement, self.iterator):
            raise LegalityError(
                f"reverse({self.iterator}) inverts a loop-carried dependence",
                primitive="reverse", reason="inverts a loop-carried dependence")

    def apply(self, statement: Statement) -> Statement:
        self.validate(statement)
        extent = statement.domain.extent(self.iterator)
        return _substitute(statement, statement.domain, {self.iterator: {self.iterator: -1}},
                           shift={self.iterator: extent - 1})

    def describe(self) -> str:
        return f"reverse({self.iterator})"


@dataclass(frozen=True)
class StripMine(Transformation):
    """Split one iterator into an outer/inner pair (Table 1 ``split``).

    ``iterator`` of extent ``N`` becomes ``iterator_o`` (extent ``N /
    factor``) and ``iterator_i`` (extent ``factor``), with
    ``iterator := factor * iterator_o + iterator_i`` substituted into all
    accesses.  Always legal.
    """

    iterator: str
    factor: int

    def validate(self, statement: Statement) -> None:
        if self.iterator not in statement.domain:
            raise TransformError(f"strip-mine: iterator '{self.iterator}' not in nest")
        extent = statement.domain.extent(self.iterator)
        if self.factor <= 0 or extent % self.factor != 0:
            raise TransformError(
                f"strip-mine factor {self.factor} does not divide extent {extent} of "
                f"'{self.iterator}'")

    def apply(self, statement: Statement) -> Statement:
        self.validate(statement)
        extent = statement.domain.extent(self.iterator)
        outer = Iterator(f"{self.iterator}_o", extent // self.factor)
        inner = Iterator(f"{self.iterator}_i", self.factor)
        domain = statement.domain.replace(self.iterator, outer, inner)
        return _substitute(statement, domain,
                           {self.iterator: {outer.name: self.factor, inner.name: 1}})

    def describe(self) -> str:
        return f"split({self.iterator},{self.factor})"


@dataclass(frozen=True)
class Tile(Transformation):
    """Strip-mine followed by hoisting the outer iterator to the front.

    This is the combined transformation described in §4 (strip-mining +
    interchange), i.e. cache/register blocking (Table 1 ``tile``).
    """

    iterator: str
    factor: int

    def validate(self, statement: Statement) -> None:
        StripMine(self.iterator, self.factor).validate(statement)

    def apply(self, statement: Statement) -> Statement:
        stripped = StripMine(self.iterator, self.factor).apply(statement)
        outer_name = f"{self.iterator}_o"
        order = [outer_name] + [n for n in stripped.domain.names if n != outer_name]
        if not schedule_preserves_dependences(stripped, order):
            raise LegalityError(f"tile({self.iterator},{self.factor}) violates a dependence",
                                primitive="tile", reason="violates a data dependence")
        return _reordered(stripped, order)

    def describe(self) -> str:
        return f"tile({self.iterator},{self.factor})"


@dataclass(frozen=True)
class Fuse(Transformation):
    """Fuse two adjacent iterators into one (Table 1 ``fuse``).

    The two iterators must be adjacent in the loop order; the fused
    iterator has extent ``extent(first) * extent(second)`` and original
    iterators are recovered as ``first = fused / extent(second)``,
    ``second = fused mod extent(second)``.  Because accesses must stay
    affine, fusion is expressed by keeping the fused iterator and
    substituting ``first := 0`` shifts only when both accesses use the
    iterators linearly; in practice the convolution nests fuse iterators
    that appear in separate access dimensions, so we instead relabel the
    pair as a single iterator whose extent is the product and rewrite the
    accesses with the quotient/remainder decomposition folded into new
    iterator names.
    """

    first: str
    second: str

    def validate(self, statement: Statement) -> None:
        names = list(statement.domain.names)
        for name in (self.first, self.second):
            if name not in names:
                raise TransformError(f"fuse: iterator '{name}' not in nest")
        i, j = names.index(self.first), names.index(self.second)
        if j != i + 1:
            raise TransformError(
                f"fuse: iterators '{self.first}' and '{self.second}' must be adjacent")

    def apply(self, statement: Statement) -> Statement:
        """Fusion at this level is the inverse of strip-mining.

        The fused statement is represented with the pair replaced by a
        single iterator; accesses that referenced the inner iterator keep
        their stride through the substitution ``first -> fused // extent_i``
        which is affine only when the original pair came from a prior
        strip-mine.  We therefore only fuse pairs that the access maps use
        with the pattern ``first * extent(second) + second`` (or use each
        iterator independently), which covers the sequences explored in the
        paper (``fuse`` directly after ``split``/``interchange``).
        """
        self.validate(statement)
        extent_outer = statement.domain.extent(self.first)
        extent_inner = statement.domain.extent(self.second)
        fused_name = f"{self.first}{self.second}_f"
        fused = Iterator(fused_name, extent_outer * extent_inner)
        # first := fused // extent_inner, second := fused mod extent_inner.
        # To stay affine we verify every access uses the linear combination
        # first*extent_inner + second or a single one of the iterators with
        # the other absent; in the latter case the access becomes
        # non-affine, so we reject.
        combo_ok = True
        columns = statement.coefficients[:, [statement.domain.index_of(self.first),
                                             statement.domain.index_of(self.second)]]
        for c_first, c_second in columns.tolist():
            if c_first == 0 and c_second == 0:
                continue
            if c_second != 0 and c_first == c_second * extent_inner:
                continue
            if c_first == 0 and c_second != 0 and extent_outer == 1:
                continue
            if c_second == 0 and c_first != 0 and extent_inner == 1:
                continue
            combo_ok = False
        if not combo_ok:
            raise TransformError(
                f"fuse({self.first},{self.second}) would produce a non-affine access")
        domain = statement.domain.replace(self.first, fused).drop(self.second)
        return _substitute(statement, domain, {self.first: {},
                                               self.second: {fused_name: 1}})

    def describe(self) -> str:
        return f"fuse({self.first},{self.second})"


# ---------------------------------------------------------------------------
# Neural (representation-preserving, not semantics-preserving) transformations
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NeuralTransformation(Transformation):
    """Base class for the §5.1 transformations checked by Fisher Potential."""

    is_neural: bool = field(default=True, init=False, repr=False)


@dataclass(frozen=True)
class Bottleneck(NeuralTransformation):
    """Shrink one iterator's extent by ``factor`` (§5.1 Bottlenecking).

    Applied to ``co`` this is classic output bottlenecking; applied to
    ``ci`` after an interchange it yields the input-channel bottlenecking of
    §2.3; applied to the spatial iterators it builds spatial bottlenecking
    (§5.3).
    """

    iterator: str
    factor: int

    def validate(self, statement: Statement) -> None:
        if self.iterator not in statement.domain:
            raise TransformError(f"bottleneck: iterator '{self.iterator}' not in nest")
        extent = statement.domain.extent(self.iterator)
        if self.factor <= 1:
            raise TransformError("bottleneck factor must be greater than 1")
        if extent % self.factor != 0:
            raise TransformError(
                f"bottleneck: factor {self.factor} does not divide extent {extent} "
                f"(constraint C (mod B) == 0)")

    def apply(self, statement: Statement) -> Statement:
        self.validate(statement)
        extent = statement.domain.extent(self.iterator)
        return statement.with_domain(
            statement.domain.restrict(self.iterator, extent // self.factor))

    def describe(self) -> str:
        return f"bottleneck({self.iterator},{self.factor})"


@dataclass(frozen=True)
class Group(NeuralTransformation):
    """Grouping (§5.1): tile ``co`` and ``ci`` by G and share the group index.

    The two outer iterators are tiled by a common factor and one of the new
    outer iterators is discarded; each group convolves only its own slice
    of the input and weights (Algorithm 2).
    """

    factor: int
    outer: str = "co"
    inner: str = "ci"

    def validate(self, statement: Statement) -> None:
        if self.factor <= 1:
            raise TransformError("group factor must be greater than 1")
        for name in (self.outer, self.inner):
            if name not in statement.domain:
                raise TransformError(f"group: iterator '{name}' not in nest")
            if statement.domain.extent(name) % self.factor != 0:
                raise TransformError(
                    f"group: factor {self.factor} does not divide extent of '{name}'")

    def apply(self, statement: Statement) -> Statement:
        self.validate(statement)
        domain = statement.domain
        outer_extent = domain.extent(self.outer) // self.factor
        inner_extent = domain.extent(self.inner) // self.factor
        new_domain = self.grouped_domain(domain)
        return _substitute(statement, new_domain, {
            self.outer: {"g": outer_extent, f"{self.outer}_g": 1},
            self.inner: {"g": inner_extent, f"{self.inner}_g": 1},
        })

    def grouped_domain(self, domain: Domain) -> Domain:
        """``g`` prepended, the outer/inner pair replaced by its per-group slice."""
        return (domain.replace(self.outer, Iterator(f"{self.outer}_g",
                                                    domain.extent(self.outer) // self.factor))
                .replace(self.inner, Iterator(f"{self.inner}_g",
                                              domain.extent(self.inner) // self.factor))
                .prepend(Iterator("g", self.factor)))

    def describe(self) -> str:
        return f"group({self.factor})"


@dataclass(frozen=True)
class Depthwise(NeuralTransformation):
    """Depthwise convolution (§5.1): grouping with G = C_o = C_i.

    Requires equal input and output channel extents; the strip counts of
    the inner pair collapse to 1 and the simplified nest of Algorithm 3
    remains.
    """

    outer: str = "co"
    inner: str = "ci"

    def validate(self, statement: Statement) -> None:
        for name in (self.outer, self.inner):
            if name not in statement.domain:
                raise TransformError(f"depthwise: iterator '{name}' not in nest")
        if statement.domain.extent(self.outer) != statement.domain.extent(self.inner):
            raise TransformError(
                "depthwise requires equal input and output channel counts "
                f"({statement.domain.extent(self.outer)} != {statement.domain.extent(self.inner)})")

    def apply(self, statement: Statement) -> Statement:
        self.validate(statement)
        group = Group(statement.domain.extent(self.outer), self.outer, self.inner)
        group.validate(statement)
        # Grouping by the channel count leaves per-group extents of 1; the
        # trivially sized iterators are dropped, so both channels become g.
        domain = (group.grouped_domain(statement.domain)
                  .drop(f"{self.outer}_g").drop(f"{self.inner}_g"))
        return _substitute(statement, domain, {self.outer: {"g": 1}, self.inner: {"g": 1}})

    def describe(self) -> str:
        return "depthwise()"


def apply_sequence(statement: Statement, transformations: Sequence[Transformation]) -> Statement:
    """Apply a sequence of transformations left to right."""
    for transformation in transformations:
        statement = transformation.apply(statement)
    return statement
