"""Schedule primitives over tensor computations (the paper's Table 1).

A :class:`Stage` owns a computation and applies schedule primitives to it.
The primitive set is exactly Table 1 of the paper:

====================  =====================================================
Program transformations
    ``reorder``        interchange nested loops
    ``tile``           cache and register blocking
    ``unroll``         loop unrolling
    ``prefetch``       memory coalescing between threads
    ``split``          divide an iteration into multiple axes
    ``fuse``           combine two axes into one
Neural architecture transformations
    ``bottleneck``     reduce a domain by factor B
    ``group``          slice and offset two loops by factor G
Mapping to GPU
    ``bind``           blockIdx / threadIdx / vthread
====================  =====================================================

Structural primitives delegate to the polyhedral transformations so their
legality is the polyhedral legality; annotation primitives (unroll,
vectorize, parallel, prefetch, bind) only attach metadata consumed by the
hardware cost model and the lowering pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ScheduleError
from repro.poly.statement import Statement
from repro.poly.transforms import (
    Bottleneck,
    Depthwise,
    Fuse,
    Group,
    Interchange,
    Reorder,
    StripMine,
    Tile,
    Transformation,
)
from repro.tenir.expr import Computation

#: GPU binding targets accepted by :meth:`Stage.bind`.
THREAD_TAGS = ("blockIdx.x", "blockIdx.y", "threadIdx.x", "threadIdx.y", "vthread")


@dataclass
class LoopAnnotation:
    """Schedule metadata attached to one loop iterator."""

    unroll: int = 1
    vectorize: bool = False
    parallel: bool = False
    bind: str | None = None
    prefetch: bool = False

    def merged_with(self, **updates) -> "LoopAnnotation":
        return LoopAnnotation(**{**self.__dict__, **updates})


class Stage:
    """A schedulable computation: structural state plus loop annotations."""

    def __init__(self, computation: Computation):
        self.computation = computation
        self.statement: Statement = computation.statement
        self.annotations: dict[str, LoopAnnotation] = {}
        self.history: list[str] = []
        self.neural_transformations: list[Transformation] = []

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _require_iterator(self, name: str) -> None:
        if name not in self.statement.domain:
            raise ScheduleError(
                f"iterator '{name}' is not part of the loop nest {self.statement.domain.names}")

    def _annotation(self, name: str) -> LoopAnnotation:
        annotation = self.annotations.get(name)
        return LoopAnnotation() if annotation is None else annotation

    def _apply_structural(self, transformation: Transformation) -> None:
        self.statement = transformation.apply(self.statement)
        self.history.append(transformation.describe())
        if transformation.is_neural:
            self.neural_transformations.append(transformation)

    @property
    def loop_order(self) -> tuple[str, ...]:
        return self.statement.domain.names

    @property
    def is_neural(self) -> bool:
        """True when any applied primitive changes the computed values."""
        return bool(self.neural_transformations)

    # ------------------------------------------------------------------
    # Program transformations (Table 1, top section)
    # ------------------------------------------------------------------
    def reorder(self, *order: str) -> "Stage":
        if len(order) == 2:
            self._apply_structural(Interchange(order[0], order[1]))
        else:
            remaining = [n for n in self.loop_order if n not in order]
            self._apply_structural(Reorder(tuple(order) + tuple(remaining)))
        return self

    def split(self, iterator: str, factor: int) -> tuple[str, str]:
        self._require_iterator(iterator)
        self._apply_structural(StripMine(iterator, factor))
        return f"{iterator}_o", f"{iterator}_i"

    def tile(self, iterator: str, factor: int) -> tuple[str, str]:
        self._require_iterator(iterator)
        self._apply_structural(Tile(iterator, factor))
        return f"{iterator}_o", f"{iterator}_i"

    def fuse(self, first: str, second: str) -> str:
        self._apply_structural(Fuse(first, second))
        return f"{first}{second}_f"

    def unroll(self, iterator: str, factor: int | None = None) -> "Stage":
        self._require_iterator(iterator)
        extent = self.statement.domain.extent(iterator)
        factor = extent if factor is None else min(factor, extent)
        if factor < 1:
            raise ScheduleError("unroll factor must be at least 1")
        self.annotations[iterator] = self._annotation(iterator).merged_with(unroll=factor)
        self.history.append(f"unroll({iterator},{factor})")
        return self

    def vectorize(self, iterator: str) -> "Stage":
        self._require_iterator(iterator)
        self.annotations[iterator] = self._annotation(iterator).merged_with(vectorize=True)
        self.history.append(f"vectorize({iterator})")
        return self

    def parallel(self, iterator: str) -> "Stage":
        self._require_iterator(iterator)
        self.annotations[iterator] = self._annotation(iterator).merged_with(parallel=True)
        self.history.append(f"parallel({iterator})")
        return self

    def prefetch(self, iterator: str) -> "Stage":
        self._require_iterator(iterator)
        self.annotations[iterator] = self._annotation(iterator).merged_with(prefetch=True)
        self.history.append(f"prefetch({iterator})")
        return self

    # ------------------------------------------------------------------
    # Neural architecture transformations (Table 1, middle section)
    # ------------------------------------------------------------------
    def bottleneck(self, iterator: str, factor: int) -> "Stage":
        self._require_iterator(iterator)
        self._apply_structural(Bottleneck(iterator, factor))
        return self

    def group(self, factor: int, outer: str = "co", inner: str = "ci") -> "Stage":
        self._apply_structural(Group(factor, outer, inner))
        return self

    def depthwise(self) -> "Stage":
        self._apply_structural(Depthwise())
        return self

    # ------------------------------------------------------------------
    # GPU mapping (Table 1, bottom section)
    # ------------------------------------------------------------------
    def bind(self, iterator: str, thread_tag: str) -> "Stage":
        self._require_iterator(iterator)
        if thread_tag not in THREAD_TAGS:
            raise ScheduleError(
                f"unknown thread tag '{thread_tag}'; expected one of {THREAD_TAGS}")
        for name, annotation in self.annotations.items():
            if annotation.bind == thread_tag and name in self.statement.domain:
                raise ScheduleError(f"thread tag '{thread_tag}' is already bound to '{name}'")
        self.annotations[iterator] = self._annotation(iterator).merged_with(bind=thread_tag)
        self.history.append(f"bind({iterator},{thread_tag})")
        return self

    # ------------------------------------------------------------------
    def clone(self) -> "Stage":
        """An independent copy of this stage's schedule state.

        The statement and the annotation values are immutable (every
        mutation replaces them), so sharing them is safe; only the
        containers are copied.  Used for all-or-nothing application of a
        primitive across several stages.
        """
        twin = Stage(self.computation)
        twin.statement = self.statement
        twin.annotations = dict(self.annotations)
        twin.history = list(self.history)
        twin.neural_transformations = list(self.neural_transformations)
        return twin

    def signature(self) -> tuple:
        """Canonical content of the scheduled nest, independent of how it
        was built.

        Two stages with equal signatures lower to the same nest and cost
        the same under the analytic model; the transform-program golden
        tests use this to prove the IR's single lowering path reproduces
        the legacy per-kind builders.
        """
        statement = self.statement
        return (
            tuple((it.name, it.extent) for it in statement.domain.iterators),
            tuple((a.tensor, a.is_write, str(a.map)) for a in statement.accesses),
            tuple(sorted((name, repr(annotation))
                         for name, annotation in self.annotations.items()
                         if name in statement.domain)),
        )

    def describe(self) -> str:
        return " -> ".join(self.history) if self.history else "default"


def create_schedule(computation: Computation) -> Stage:
    """TVM-style entry point: obtain a schedulable stage for a computation."""
    return Stage(computation)
