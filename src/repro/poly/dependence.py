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

from repro.poly.affine import AffineExpr
from repro.poly.domain import Domain
from repro.poly.statement import Access, Statement


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


def _unit_vector(domain: Domain, name: str) -> tuple[int, ...]:
    return tuple(1 if it.name == name else 0 for it in domain.iterators)


def dependence_vectors(statement: Statement) -> list[DependenceVector]:
    """Compute the uniform dependence distance vectors of a statement.

    Two cases cover the convolution nests manipulated in this work:

    * A tensor that is both read and written with the *same* access map
      (the accumulator ``O``) carries a reduction dependence along every
      iterator that does not appear in that access map.
    * Accesses to the same tensor whose maps differ by a constant offset
      carry that constant distance (not exercised by the standard nest but
      kept for generality).
    """
    vectors: list[DependenceVector] = []
    domain = statement.domain
    writes = [acc for acc in statement.writes]
    reads = [acc for acc in statement.reads]

    for write in writes:
        matching_reads = [r for r in reads if r.tensor == write.tensor]
        for read in matching_reads:
            if read.map == write.map:
                # Reduction/accumulation: dependences along the missing iterators.
                used = set()
                for expr in write.map.exprs:
                    used.update(expr.variables)
                for iterator in domain.iterators:
                    if iterator.name not in used and iterator.extent > 1:
                        vectors.append(DependenceVector(
                            _unit_vector(domain, iterator.name), write.tensor, "reduction"))
            else:
                offset = _constant_offset(write, read, domain)
                if offset is not None and any(offset):
                    vectors.append(DependenceVector(offset, write.tensor, "flow"))
    return vectors


def _constant_offset(write: Access, read: Access, domain: Domain) -> tuple[int, ...] | None:
    """If ``write`` and ``read`` maps differ by constants only, return the
    per-iterator shift that aligns them; otherwise None."""
    if write.map.arity != read.map.arity:
        return None
    shift = {name: 0 for name in domain.names}
    for w_expr, r_expr in zip(write.map.exprs, read.map.exprs):
        if w_expr.coeffs != r_expr.coeffs:
            return None
        delta = r_expr.const - w_expr.const
        if delta == 0:
            continue
        # Attribute the constant difference to the single iterator of the
        # dimension when unambiguous; otherwise give up (non-uniform).
        variables = w_expr.variables
        if len(variables) != 1:
            return None
        name = variables[0]
        coeff = w_expr.coeff(name)
        if coeff == 0 or delta % coeff != 0:
            return None
        shift[name] = delta // coeff
    return tuple(shift[name] for name in domain.names)


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
