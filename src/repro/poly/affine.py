"""Affine expressions and maps over named loop iterators.

The polyhedral model (§4 of the paper) describes statement domains,
memory accesses and schedules as affine functions of the surrounding loop
iterators.  :class:`AffineExpr` is a linear combination of iterator names
plus a constant; :class:`AffineMap` is a vector of such expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import TransformError


@dataclass(frozen=True)
class AffineExpr:
    """``sum(coeff[name] * name) + const`` over loop iterators."""

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @classmethod
    def of(cls, coeffs: Mapping[str, int] | None = None, const: int = 0) -> "AffineExpr":
        items = tuple(sorted((name, int(c)) for name, c in (coeffs or {}).items() if c != 0))
        return cls(items, int(const))

    @classmethod
    def var(cls, name: str, coeff: int = 1) -> "AffineExpr":
        return cls.of({name: coeff})

    @classmethod
    def constant(cls, value: int) -> "AffineExpr":
        return cls.of({}, value)

    # ------------------------------------------------------------------
    def coeff(self, name: str) -> int:
        for var, value in self.coeffs:
            if var == name:
                return value
        return 0

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    # ------------------------------------------------------------------
    def __add__(self, other: "AffineExpr | int") -> "AffineExpr":
        if isinstance(other, int):
            return AffineExpr(self.coeffs, self.const + other)
        merged = dict(self.coeffs)
        for name, value in other.coeffs:
            merged[name] = merged.get(name, 0) + value
        return AffineExpr.of(merged, self.const + other.const)

    def __mul__(self, scalar: int) -> "AffineExpr":
        return AffineExpr.of({name: value * scalar for name, value in self.coeffs},
                             self.const * scalar)

    def substitute(self, mapping: Mapping[str, "AffineExpr"]) -> "AffineExpr":
        """Replace iterators with affine expressions (used by strip-mining)."""
        if not any(name in mapping for name, _ in self.coeffs):
            # Substituting only identities is a no-op; expressions are
            # always normalised (built through ``of``), so reuse them.
            return self
        result = AffineExpr.constant(self.const)
        for name, value in self.coeffs:
            replacement = mapping.get(name, AffineExpr.var(name))
            result = result + replacement * value
        return result

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        return AffineExpr.of(
            {mapping.get(name, name): value for name, value in self.coeffs}, self.const
        )

    def evaluate(self, values: Mapping[str, int]) -> int:
        total = self.const
        for name, coeff in self.coeffs:
            if name not in values:
                raise TransformError(f"iterator '{name}' has no value during evaluation")
            total += coeff * values[name]
        return total

    def __str__(self) -> str:
        parts = []
        for name, coeff in self.coeffs:
            if coeff == 1:
                parts.append(name)
            else:
                parts.append(f"{coeff}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


@dataclass(frozen=True)
class AffineMap:
    """A vector of affine expressions, e.g. an access function or schedule."""

    exprs: tuple[AffineExpr, ...]

    @classmethod
    def identity(cls, names: list[str]) -> "AffineMap":
        return cls(tuple(AffineExpr.var(name) for name in names))

    @property
    def arity(self) -> int:
        return len(self.exprs)

    def evaluate(self, values: Mapping[str, int]) -> tuple[int, ...]:
        return tuple(expr.evaluate(values) for expr in self.exprs)

    def substitute(self, mapping: Mapping[str, AffineExpr]) -> "AffineMap":
        exprs = tuple(expr.substitute(mapping) for expr in self.exprs)
        if all(new is old for new, old in zip(exprs, self.exprs)):
            return self
        return AffineMap(exprs)

    def rename(self, mapping: Mapping[str, str]) -> "AffineMap":
        return AffineMap(tuple(expr.rename(mapping) for expr in self.exprs))

    def permute(self, order: list[int]) -> "AffineMap":
        if sorted(order) != list(range(len(self.exprs))):
            raise TransformError(f"{order} is not a permutation of the map dimensions")
        return AffineMap(tuple(self.exprs[i] for i in order))

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.exprs) + "]"
