"""Dependence analysis and the classic (semantics-preserving) legality check.

For the rectangular, affine loop nests of tensor convolutions, all data
dependences are *uniform*: pairs of statement instances touching the same
memory location differ by a constant distance vector.  §4.1 of the paper
states the classic legality condition — a transformed schedule is legal iff
every dependence's source still executes no later than its sink, i.e. every
transformed distance vector is lexicographically non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.poly.statement import Statement


@dataclass(frozen=True)
class DependenceVector:
    """A constant dependence distance in the statement's iterator basis."""

    distances: tuple[int, ...]
    tensor: str
    kind: str  # "flow", "anti", "output" or "reduction"

    def is_lexicographically_non_negative(self) -> bool:
        for value in self.distances:
            if value > 0:
                return True
            if value < 0:
                return False
        return True

    def permute(self, order: list[int]) -> "DependenceVector":
        return DependenceVector(tuple(self.distances[i] for i in order), self.tensor, self.kind)


def dependence_vectors(statement: Statement) -> list[DependenceVector]:
    """Compute the uniform dependence distance vectors of a statement.

    Two cases cover the convolution nests manipulated in this work:

    * A tensor that is both read and written with the *same* access map
      (the accumulator ``O``) carries a reduction dependence along every
      iterator that does not appear in that access map.
    * Accesses to the same tensor whose maps differ by a constant offset
      carry that constant distance (not exercised by the standard nest but
      kept for generality).

    Both read the access matrix: a map is a block of rows, and two maps
    are equal when their blocks are.
    """
    vectors: list[DependenceVector] = []
    coefficients, offsets = statement.coefficients, statement.offsets
    extents = [iterator.extent for iterator in statement.domain.iterators]
    rank = len(extents)
    bounds = list(zip(statement.layout, statement.rows()))
    for (tensor, is_write, _), (w_first, w_stop) in bounds:
        if not is_write:
            continue
        write = coefficients[w_first:w_stop]
        for (read_tensor, read_is_write, _), (r_first, r_stop) in bounds:
            if read_is_write or read_tensor != tensor:
                continue
            read = coefficients[r_first:r_stop]
            if write.shape != read.shape or not np.array_equal(write, read):
                continue  # neither the same map nor a constant shift of it
            delta = (offsets[r_first:r_stop] - offsets[w_first:w_stop]).tolist()
            if not any(delta):
                # Reduction/accumulation: dependences along the missing iterators.
                used = write.any(axis=0).tolist()
                for index in range(rank):
                    if not used[index] and extents[index] > 1:
                        unit = [0] * rank
                        unit[index] = 1
                        vectors.append(DependenceVector(tuple(unit), tensor, "reduction"))
            else:
                offset = _constant_offset(write.tolist(), delta, rank)
                if offset is not None and any(offset):
                    vectors.append(DependenceVector(offset, tensor, "flow"))
    return vectors


def _constant_offset(rows: list[list[int]], delta: list[int],
                     rank: int) -> tuple[int, ...] | None:
    """The per-iterator shift aligning two maps with equal coefficient
    ``rows`` whose constants differ by ``delta``; None if not uniform."""
    shift = [0] * rank
    for row, difference in zip(rows, delta):
        if difference == 0:
            continue
        # Attribute the constant difference to the single iterator of the
        # dimension when unambiguous; otherwise give up (non-uniform).
        used = [index for index, coeff in enumerate(row) if coeff]
        if len(used) != 1:
            return None
        coeff = row[used[0]]
        if difference % coeff != 0:
            return None
        shift[used[0]] = difference // coeff
    return tuple(shift)


def schedule_preserves_dependences(statement: Statement, new_order: list[str]) -> bool:
    """Classic legality: is executing the iterators in ``new_order`` legal?

    ``new_order`` must be a permutation of the statement's iterators.  The
    check permutes every dependence distance vector into the new order and
    requires it to stay lexicographically non-negative (definition §4.1).
    """
    domain = statement.domain
    order_indices = [domain.index_of(name) for name in new_order]
    for vector in dependence_vectors(statement):
        permuted = vector.permute(order_indices)
        if not permuted.is_lexicographically_non_negative():
            return False
    return True


def has_loop_carried_dependence(statement: Statement, iterator: str) -> bool:
    """True if some dependence is carried by ``iterator`` (distance != 0)."""
    domain = statement.domain
    index = domain.index_of(iterator)
    return any(vector.distances[index] != 0 for vector in dependence_vectors(statement))


def parallel_iterators(statement: Statement) -> list[str]:
    """Iterators that carry no dependence and can be run in parallel."""
    return [name for name in statement.domain.names
            if not has_loop_carried_dependence(statement, name)]
