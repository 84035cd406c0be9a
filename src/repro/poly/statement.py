"""Statements, accesses and the polyhedral representation of a convolution.

This module provides the three components of the polyhedral model listed in
§4 of the paper — domain, accesses, schedule — packaged per statement, plus
:func:`convolution_nest`, the representation of the standard tensor
convolution (Algorithm 1 generalised to K_h x K_w kernels).

A statement stores all of its access maps as one integer matrix: row ``r``
is one tensor dimension of one access, column ``j`` the coefficient of the
domain's ``j``-th iterator, plus one constant per row.  Every
transformation is then an integer rewrite of that matrix (a substitution
product, a column permutation or an extent change, see
:mod:`repro.poly.transforms`), and lowering reads extents, strides and
footprints straight off it.  :class:`Access` and
:class:`~repro.poly.affine.AffineMap` are the named form the maps are
built from and printed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TransformError
from repro.poly.affine import AffineExpr, AffineMap
from repro.poly.domain import Domain


@dataclass(frozen=True)
class Access:
    """An affine memory access: ``tensor[ map(iterators) ]``."""

    tensor: str
    map: AffineMap
    is_write: bool = False

    def indices(self, values: dict[str, int]) -> tuple[int, ...]:
        return self.map.evaluate(values)

    def __str__(self) -> str:
        mode = "write" if self.is_write else "read"
        return f"{mode} {self.tensor}{self.map}"


def frozen_array(values, dtype=np.int64) -> np.ndarray:
    """A read-only integer array (statements share theirs between copies)."""
    array = np.asarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Statement:
    """A statement with its domain and affine accesses.

    ``layout`` lists the accesses, writes first, as ``(tensor, is_write,
    dims)``; their ``dims`` rows follow one another in ``coefficients``
    (one column per domain iterator, in domain order) and ``offsets``.
    The schedule is the identity over the domain's iterator order:
    reordering a nest permutes the domain (and the matrix columns).

    Statements are immutable values: equal content compares equal and
    hashes equally, whatever sequence of rewrites produced it.
    """

    name: str
    domain: Domain
    layout: tuple[tuple[str, bool, int], ...]
    coefficients: np.ndarray
    offsets: np.ndarray

    @classmethod
    def create(cls, name: str, domain: Domain, writes: list[Access],
               reads: list[Access]) -> "Statement":
        position = {iterator: index for index, iterator in enumerate(domain.names)}
        layout, rows, offsets = [], [], []
        for access, is_write in [(a, True) for a in writes] + [(a, False) for a in reads]:
            if access.is_write != is_write:
                raise TransformError(
                    f"access {access} is listed as a {'write' if is_write else 'read'}")
            if not access.map.arity:
                raise TransformError(f"access {access} has no dimensions")
            for expr in access.map.exprs:
                row = [0] * domain.rank
                for iterator, coeff in expr.coeffs:
                    if iterator not in position:
                        raise TransformError(
                            f"access {access} uses '{iterator}', which is not in "
                            f"domain {domain.names}")
                    row[position[iterator]] = coeff
                rows.append(row)
                offsets.append(expr.const)
            layout.append((access.tensor, access.is_write, access.map.arity))
        coefficients = frozen_array(rows).reshape(len(rows), domain.rank)
        return cls(name, domain, tuple(layout), coefficients, frozen_array(offsets))

    # ------------------------------------------------------------------
    # Value semantics over the integer matrix
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Statement):
            return NotImplemented
        return (self is other
                or (self.name == other.name and self.domain == other.domain
                    and self.layout == other.layout
                    and np.array_equal(self.coefficients, other.coefficients)
                    and np.array_equal(self.offsets, other.offsets)))

    def __hash__(self) -> int:
        # Memoised per instance: computations key the tuning-context store
        # and hash their statement once per lookup.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.name, self.domain, self.layout,
                           self.coefficients.shape, self.coefficients.tobytes(),
                           self.offsets.tobytes()))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # str hashes are salted per process; never pickle the memo.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, value)
        for array in (self.coefficients, self.offsets):
            array.flags.writeable = False

    # ------------------------------------------------------------------
    # The named view
    # ------------------------------------------------------------------
    def rows(self) -> list[tuple[int, int]]:
        """``(first, stop)`` matrix rows of every access, in layout order."""
        bounds, start = [], 0
        for _, _, dims in self.layout:
            bounds.append((start, start + dims))
            start += dims
        return bounds

    def access_map(self, first: int, stop: int) -> AffineMap:
        """The rows ``first:stop`` as a named affine map."""
        names = self.domain.names
        exprs = []
        for row, const in zip(self.coefficients[first:stop].tolist(),
                              self.offsets[first:stop].tolist()):
            exprs.append(AffineExpr(tuple(sorted(
                (names[index], coeff) for index, coeff in enumerate(row) if coeff)), const))
        return AffineMap(tuple(exprs))

    @property
    def accesses(self) -> tuple[Access, ...]:
        return tuple(Access(tensor, self.access_map(first, stop), is_write)
                     for (tensor, is_write, _), (first, stop)
                     in zip(self.layout, self.rows()))

    @property
    def writes(self) -> tuple[Access, ...]:
        return tuple(access for access in self.accesses if access.is_write)

    @property
    def reads(self) -> tuple[Access, ...]:
        return tuple(access for access in self.accesses if not access.is_write)

    @property
    def schedule(self) -> AffineMap:
        return AffineMap.identity(list(self.domain.names))

    # ------------------------------------------------------------------
    # Rewrites (used by the transformations)
    # ------------------------------------------------------------------
    def with_domain(self, domain: Domain) -> "Statement":
        """Same accesses over a domain with the same iterator order."""
        return Statement(self.name, domain, self.layout, self.coefficients, self.offsets)

    def substituted(self, domain: Domain, substitution: np.ndarray,
                    shift: np.ndarray | None = None) -> "Statement":
        """Rewrite the accesses for ``old = substitution @ new + shift``.

        ``substitution`` has one row per current iterator and one column
        per iterator of ``domain``; the new coefficients are the product
        of the current ones with it.
        """
        offsets = self.offsets
        if shift is not None:
            offsets = frozen_array(offsets + self.coefficients @ shift)
        return Statement(self.name, domain, self.layout,
                         frozen_array(self.coefficients @ substitution), offsets)

    def permuted(self, order: list[int]) -> "Statement":
        """Reorder the domain: iterator ``order[k]`` becomes the ``k``-th."""
        domain = Domain(tuple(self.domain.iterators[index] for index in order))
        return Statement(self.name, domain, self.layout,
                         frozen_array(self.coefficients[:, order]), self.offsets)

    def __str__(self) -> str:
        return f"{self.name}: {self.domain} schedule={self.schedule}"


@dataclass(frozen=True)
class ConvolutionShape:
    """Extents of the standard tensor-convolution loop nest.

    Example::

        shape = ConvolutionShape(c_out=64, c_in=64, h_out=16, w_out=16,
                                 k_h=3, k_w=3)
        print(shape.macs())
    """

    c_out: int
    c_in: int
    h_out: int
    w_out: int
    k_h: int
    k_w: int
    groups: int = 1
    stride: int = 1

    def __hash__(self) -> int:
        # Shapes are hashed once per engine-cache lookup; the store's
        # warm-start path interns a few hundred shape objects and hashes
        # each thousands of times, so the hash is memoised per instance.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.c_out, self.c_in, self.h_out, self.w_out,
                           self.k_h, self.k_w, self.groups, self.stride))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # The memoised hash depends on PYTHONHASHSEED; never persist it.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def macs(self) -> int:
        """Multiply-accumulate count of the (possibly grouped) convolution."""
        return (self.c_out * (self.c_in // self.groups) * self.h_out * self.w_out
                * self.k_h * self.k_w)


#: Canonical iterator names, in the loop order of Figure 1 row 2.
CONV_ITERATORS = ("co", "ci", "oh", "ow", "kh", "kw")


def convolution_domain(shape: ConvolutionShape) -> Domain:
    """Domain of the multiply-accumulate statement of a standard convolution."""
    return Domain.of(co=shape.c_out, ci=shape.c_in, oh=shape.h_out, ow=shape.w_out,
                     kh=shape.k_h, kw=shape.k_w)


def convolution_nest(shape: ConvolutionShape) -> Statement:
    """The MAC statement S2 of Algorithm 1, generalised to KxK kernels.

    ``O[co][oh][ow] += W[co][ci][kh][kw] * I[ci][oh*stride+kh][ow*stride+kw]``
    """
    domain = convolution_domain(shape)
    output = Access("O", AffineMap((AffineExpr.var("co"), AffineExpr.var("oh"),
                                    AffineExpr.var("ow"))), is_write=True)
    weight = Access("W", AffineMap((AffineExpr.var("co"), AffineExpr.var("ci"),
                                    AffineExpr.var("kh"), AffineExpr.var("kw"))))
    image = Access("I", AffineMap((
        AffineExpr.var("ci"),
        AffineExpr.of({"oh": shape.stride, "kh": 1}),
        AffineExpr.of({"ow": shape.stride, "kw": 1}),
    )))
    # The reduction also reads the output it accumulates into.
    output_read = Access("O", output.map, is_write=False)
    return Statement.create("S_mac", domain, writes=[output], reads=[weight, image, output_read])


def init_statement(shape: ConvolutionShape) -> Statement:
    """The initialisation statement S1 of Algorithm 1 (``O[...] = 0``)."""
    domain = Domain.of(co=shape.c_out, oh=shape.h_out, ow=shape.w_out)
    output = Access("O", AffineMap((AffineExpr.var("co"), AffineExpr.var("oh"),
                                    AffineExpr.var("ow"))), is_write=True)
    return Statement.create("S_init", domain, writes=[output], reads=[])


def pointwise_convolution_nest(c_out: int, c_in: int, h: int, w: int) -> Statement:
    """The 1x1 convolution of Algorithm 1 (start of a residual block)."""
    return convolution_nest(ConvolutionShape(c_out, c_in, h, w, 1, 1))
