"""Lowering: from a scheduled stage to an explicit loop-nest description.

The :class:`LoweredNest` is the object the hardware models consume.  It
records, for every loop, its extent and schedule annotations, and for every
tensor access, the information needed for locality analysis:

* the flattened element stride of each loop iterator in that tensor
  (row-major layout inferred from the access ranges), used for
  vectorization and coalescing quality, and
* the data footprint touched by any suffix of the loop nest, used by the
  cache-reuse traffic model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LoweringError
from repro.poly.statement import Statement, frozen_array
from repro.tenir.schedule import LoopAnnotation, Stage
from repro.utils import prod


@dataclass(frozen=True)
class LoweredLoop:
    """One loop of the lowered nest, outermost first."""

    name: str
    extent: int
    annotation: LoopAnnotation


@dataclass(frozen=True, eq=False)
class LoweredAccess:
    """One tensor access with layout information."""

    tensor: str
    is_write: bool
    #: extent of each tensor dimension as implied by the access over the domain
    dim_extents: tuple[int, ...]
    #: flattened (row-major) element stride contributed by each loop iterator
    iterator_strides: dict[str, int]
    #: per dimension, the coefficient of every loop iterator: the access's
    #: rows of the statement's integer matrix (read-only)
    coefficients: np.ndarray
    #: ``(name, extent)`` of every loop iterator, in loop order
    iterators: tuple[tuple[str, int], ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoweredAccess):
            return NotImplemented
        return (self.tensor == other.tensor and self.is_write == other.is_write
                and self.dim_extents == other.dim_extents
                and self.iterator_strides == other.iterator_strides
                and self.iterators == other.iterators
                and np.array_equal(self.coefficients, other.coefficients))

    @property
    def dim_coefficients(self) -> tuple[dict[str, tuple[int, int]], ...]:
        """Per dimension, ``(coefficient, extent)`` of each iterator it uses."""
        return tuple({name: (coeff, extent)
                      for (name, extent), coeff in zip(self.iterators, row) if coeff}
                     for row in self.coefficients.tolist())

    def footprint(self, varying: set[str]) -> int:
        """Number of distinct elements touched while ``varying`` iterators sweep."""
        total = 1
        for row, dim_extent in zip(self.coefficients.tolist(), self.dim_extents):
            span = 1
            for (name, extent), coeff in zip(self.iterators, row):
                if coeff and name in varying:
                    span += abs(coeff) * (extent - 1)
            total *= min(span, dim_extent)
        return total

    def stride_of(self, iterator: str) -> int:
        return self.iterator_strides.get(iterator, 0)

    @property
    def total_elements(self) -> int:
        return prod(self.dim_extents)


@dataclass(frozen=True)
class NestTrafficArrays:
    """Locality quantities of one nest packed into numpy arrays.

    Everything the traffic model asks per (start-depth, access) is
    precomputed in one vectorised pass: with ``L`` loops and ``A``
    accesses, row ``d`` of each ``(L + 1, A)`` array describes the
    sub-nest whose outermost loop sits at depth ``d`` (row ``L`` is the
    innermost point where no iterator varies).  All entries are exact
    integers stored as float64, so the vectorised arithmetic built on
    them reproduces the scalar model bit for bit.
    """

    #: distinct elements touched by each access while depth ``d``.. vary
    footprints: np.ndarray
    #: per access: the max footprint over all accesses of the same tensor
    tensor_footprints: np.ndarray
    #: per depth: summed unique-tensor footprint in bytes (the working set)
    working_set_bytes: np.ndarray
    #: per (reuse depth, access): trip count of outer loops forcing refetches
    refetch: np.ndarray
    #: per access: compulsory traffic floor (whole tensor once), in bytes
    compulsory_bytes: np.ndarray
    #: per access: 2.0 for writes (write-allocate + write-back), else 1.0
    write_factor: np.ndarray


def attach_traffic_arrays(nests: list["LoweredNest"], blocks: list[np.ndarray],
                          dim_extents: np.ndarray, starts: np.ndarray) -> None:
    """Build and attach the locality arrays of nests over the same accesses.

    ``blocks[t]`` holds one row per dimension of each of nest ``t``'s
    accesses (one column per loop of that nest); every nest has the same
    accesses, so ``dim_extents`` (the dimensions' extents) and ``starts``
    (the first row of each access) are shared — the trials of one tuned
    computation.  One numpy pass serves the whole batch: nests with fewer
    loops are padded with innermost loops of extent 1, which add zero to
    every span and a factor of 1 to every trip count, and each nest's
    arrays are its unpadded slice, so they equal a one-nest build exactly.
    """
    count = len(nests)
    if not count:
        return
    loop_counts = [len(nest.loops) for nest in nests]
    width = max(loop_counts)
    rows = len(dim_extents)
    magnitudes = np.zeros((count, rows, width), dtype=np.float64)
    extents = np.ones((count, width), dtype=np.float64)
    for index, (nest, block, loops) in enumerate(zip(nests, blocks, loop_counts)):
        magnitudes[index, :, :loops] = np.abs(block)
        extents[index, :loops] = [loop.extent for loop in nest.loops]

    # span at start-depth d: 1 + sum of |coefficient| * (extent - 1) over
    # loops >= d, capped at the dimension's extent; a footprint is the
    # product of an access's spans.
    suffix = np.zeros((count, rows, width + 1), dtype=np.float64)
    suffix[:, :, :width] = (magnitudes * (extents - 1.0)[:, None, :])[:, :, ::-1].cumsum(
        axis=2)[:, :, ::-1]
    spans = np.minimum(1.0 + suffix, dim_extents.astype(np.float64)[None, :, None])
    footprints = np.multiply.reduceat(spans, starts, axis=1)  # (nests, accesses, depths)

    # outer loops whose advance changes each access's working set
    affects = np.logical_or.reduceat(magnitudes != 0, starts, axis=1)
    refetch = np.ones_like(footprints)
    refetch[:, :, 1:] = np.where(affects, extents[:, None, :], 1.0).cumprod(axis=2)

    accesses = nests[0].accesses
    tensor_footprints = footprints.copy()
    grouped: dict[str, list[int]] = {}
    for index, access in enumerate(accesses):
        grouped.setdefault(access.tensor, []).append(index)
    working_set = np.zeros((count, width + 1), dtype=np.float64)
    for indices in grouped.values():
        if len(indices) > 1:
            tensor_footprints[:, indices] = footprints[:, indices].max(axis=1)[:, None]
        working_set += tensor_footprints[:, indices[0]]

    write_factor = np.array([2.0 if access.is_write else 1.0 for access in accesses],
                            dtype=np.float64)
    elements = [access.total_elements for access in accesses]
    compulsory: dict[int, np.ndarray] = {}
    for index, (nest, loops) in enumerate(zip(nests, loop_counts)):
        size = nest.element_bytes
        if size not in compulsory:
            compulsory[size] = np.array([count * size for count in elements], dtype=np.float64)
        object.__setattr__(nest, "_traffic_arrays", NestTrafficArrays(
            footprints=footprints[index, :, :loops + 1].T,
            tensor_footprints=tensor_footprints[index, :, :loops + 1].T,
            working_set_bytes=working_set[index, :loops + 1] * size,
            refetch=refetch[index, :, :loops + 1].T,
            compulsory_bytes=compulsory[size],
            write_factor=write_factor,
        ))


@dataclass(frozen=True)
class LoweredNest:
    """A fully lowered, scheduled loop nest ready for cost estimation."""

    name: str
    loops: tuple[LoweredLoop, ...]
    accesses: tuple[LoweredAccess, ...]
    macs: int
    element_bytes: int
    history: tuple[str, ...] = ()

    @property
    def loop_names(self) -> tuple[str, ...]:
        return tuple(loop.name for loop in self.loops)

    @property
    def innermost(self) -> LoweredLoop:
        return self.loops[-1]

    def loop(self, name: str) -> LoweredLoop:
        for candidate in self.loops:
            if candidate.name == name:
                return candidate
        raise LoweringError(f"loop '{name}' not in lowered nest {self.loop_names}")

    def varying_iterators_from(self, depth: int) -> set[str]:
        """Iterator names at ``depth`` and deeper (0 = outermost)."""
        return {loop.name for loop in self.loops[depth:]}

    def traffic_arrays(self) -> NestTrafficArrays:
        """The vectorised locality arrays, computed once per nest.

        The cache lives outside the dataclass fields (it is derived state,
        not identity) and is dropped on pickling so executor transfers stay
        small.
        """
        cached = self.__dict__.get("_traffic_arrays")
        if cached is None:
            dims = [len(access.dim_extents) for access in self.accesses]
            attach_traffic_arrays(
                [self], [np.concatenate([access.coefficients for access in self.accesses])
                         .reshape(sum(dims), len(self.loops))],
                np.array([extent for access in self.accesses
                          for extent in access.dim_extents], dtype=np.int64),
                np.cumsum([0] + dims)[:-1])
            cached = self.__dict__["_traffic_arrays"]
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_traffic_arrays", None)
        return state

    def footprint_bytes(self, depth: int) -> int:
        """Total data footprint (bytes) of the sub-nest starting at ``depth``.

        Memoised per depth through :meth:`traffic_arrays`; the entries are
        exact integers, so the conversion back to ``int`` is lossless.
        """
        return int(self.traffic_arrays().working_set_bytes[depth])

    def total_data_bytes(self) -> int:
        """Unique bytes touched by the whole nest (compulsory traffic)."""
        return self.footprint_bytes(0)

    def bound_extent(self, thread_tag_prefix: str) -> int:
        """Product of extents of loops bound to tags starting with ``prefix``."""
        total = 1
        for loop in self.loops:
            if loop.annotation.bind and loop.annotation.bind.startswith(thread_tag_prefix):
                total *= loop.extent
        return total


@dataclass(frozen=True)
class AccessRows:
    """A statement's distinct accesses, analysed, with the matrix rows read.

    ``coefficients`` holds one row per dimension of each access in
    ``accesses`` (one column per loop), ``dim_extents`` those dimensions'
    extents and ``starts`` the first row of each access.
    """

    accesses: tuple[LoweredAccess, ...]
    coefficients: np.ndarray
    dim_extents: np.ndarray
    starts: np.ndarray


def access_rows(statement: Statement) -> AccessRows:
    """Layout analysis of a statement's distinct tensor accesses.

    Read off the statement's integer matrix ``M`` (one row per access
    dimension, one column per loop) and constants ``c``: a dimension spans
    ``1 + c + |M| @ (extent - 1)`` elements, the tensor is laid out
    row-major over those extents, and an iterator's stride is its column
    weighted by the row strides.  Accesses with equal tensor, mode, rows
    and constants are one access.
    """
    iterators = tuple((it.name, it.extent) for it in statement.domain.iterators)
    matrix, offsets = statement.coefficients, statement.offsets
    layout, bounds = statement.layout, statement.rows()
    seen: set = set()
    kept = []
    for index, (tensor, is_write, _) in enumerate(layout):
        first, stop = bounds[index]
        key = (tensor, is_write, matrix[first:stop].tobytes(), offsets[first:stop].tobytes())
        if key not in seen:
            seen.add(key)
            kept.append(index)
    if len(kept) < len(layout):
        rows = np.concatenate([np.arange(*bounds[index]) for index in kept])
        matrix, offsets = matrix[rows], offsets[rows]
    dims = [layout[index][2] for index in kept]
    starts = np.cumsum([0] + dims)[:-1]

    spans = (np.abs(matrix) @ np.array([extent - 1 for _, extent in iterators],
                                       dtype=np.int64)) + offsets + 1
    dim_extents = np.maximum(spans, 1)
    extents = dim_extents.tolist()
    # Row-major strides of each access's tensor dimensions.
    dim_strides = [0] * len(extents)
    for first, count in zip(starts.tolist(), dims):
        stride = 1
        for row in range(first + count - 1, first - 1, -1):
            dim_strides[row] = stride
            stride *= extents[row]
    strides = np.add.reduceat(matrix * np.array(dim_strides, dtype=np.int64)[:, None],
                              starts, axis=0).tolist()
    used = np.logical_or.reduceat(matrix != 0, starts, axis=0).tolist()
    matrix = frozen_array(matrix)

    accesses = []
    for position, (index, first) in enumerate(zip(kept, starts.tolist())):
        tensor, is_write, count = layout[index]
        iterator_strides = {name: stride for (name, _), stride, uses
                            in zip(iterators, strides[position], used[position]) if uses}
        accesses.append(LoweredAccess(
            tensor, is_write, tuple(extents[first:first + count]), iterator_strides,
            matrix[first:first + count], iterators))
    return AccessRows(tuple(accesses), matrix, dim_extents, starts)


def lower(stage: Stage) -> LoweredNest:
    """Lower a scheduled stage to an explicit nest description."""
    statement = stage.statement
    loops = tuple(
        LoweredLoop(it.name, it.extent, stage.annotations.get(it.name) or LoopAnnotation())
        for it in statement.domain.iterators
    )
    rows = access_rows(statement)
    nest = LoweredNest(stage.computation.name, loops, rows.accesses,
                       statement.domain.cardinality(), stage.computation.element_bytes,
                       tuple(stage.history))
    # The cost model reads the locality arrays of every nest it scores;
    # build them now, from the matrix rows already in hand.
    attach_traffic_arrays([nest], [rows.coefficients], rows.dim_extents, rows.starts)
    return nest
