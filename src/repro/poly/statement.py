"""Statements, accesses and the polyhedral representation of a convolution.

This module provides the three components of the polyhedral model listed in
§4 of the paper — domain, accesses, schedule — packaged per statement, plus
:func:`convolution_nest`, the representation of the standard tensor
convolution (Algorithm 1 generalised to K_h x K_w kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import TransformError
from repro.poly.affine import AffineExpr, AffineMap
from repro.poly.domain import Domain, Iterator


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


@dataclass(frozen=True)
class Statement:
    """A statement with its domain, schedule and accesses.

    ``schedule`` maps domain iterators to logical time; the identity
    schedule executes the loop nest in its textual order.
    """

    name: str
    domain: Domain
    writes: tuple[Access, ...]
    reads: tuple[Access, ...]
    schedule: AffineMap

    @classmethod
    def create(cls, name: str, domain: Domain, writes: list[Access],
               reads: list[Access]) -> "Statement":
        return cls(name, domain, tuple(writes), tuple(reads),
                   AffineMap.identity(list(domain.names)))

    @property
    def accesses(self) -> tuple[Access, ...]:
        return self.writes + self.reads

    def with_domain(self, domain: Domain) -> "Statement":
        return replace(self, domain=domain)

    def with_schedule(self, schedule: AffineMap) -> "Statement":
        return replace(self, schedule=schedule)

    def with_accesses(self, writes: list[Access], reads: list[Access]) -> "Statement":
        return replace(self, writes=tuple(writes), reads=tuple(reads))

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
