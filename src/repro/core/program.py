"""The compositional transformation-sequence IR (§5 of the paper).

A :class:`TransformProgram` is an ordered list of parameterised primitive
applications — the paper's Table-1 operations (``reorder`` / ``tile`` /
``split`` / ``fuse`` / ``unroll`` / ``prefetch`` / ``group`` /
``bottleneck`` / ``depthwise`` / GPU ``bind``) — over a convolution loop
nest.  Unlike the closed set of hand-coded sequence kinds it replaces, the
IR is *open*: any composition of registered primitives is a program, the
unified search can sample novel compositions, and new primitives plug in
through :func:`register_primitive` without touching any consumer.

Every program compiles through **one lowering path**::

    steps --> polyhedral statement rewrites --> tenir stages --> lowering
                                                                   |
                     staged legality                               v
        1. structural/dependence checks (cheap, during rewrite)  cost model
        2. Fisher Potential (expensive, neural survivors only)
        3. auto-tuning (most expensive, legal survivors only)

so the engine's cache keys, search candidate generation, the NAS candidate
catalogue, Figure-5 frequency counting and the §7.4 interpolation all speak
the same object.  Structural failures surface as
:class:`~repro.errors.LegalityError` carrying the failing primitive's name
and reason, which feeds the per-primitive rejection statistics.

A program is a frozen, hashable value: it is usable directly as an engine
cache key and is shape-independent (the same program can be applied to —
and cached for — many convolution shapes).
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from repro.errors import LegalityError, ScheduleError, TransformError
from repro.nn.convs import ConvTransformConfig
from repro.poly.statement import ConvolutionShape
from repro.tenir.expr import Computation, conv2d_compute, grouped_conv2d_compute
from repro.tenir.schedule import THREAD_TAGS, Stage, create_schedule
from repro.utils import divisors, make_rng


# ---------------------------------------------------------------------------
# Primitive applications: one step of a program
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PrimitiveApplication:
    """One parameterised application of a registered primitive.

    ``params`` is a canonically sorted tuple of (name, value) pairs so
    applications (and the programs containing them) are hashable and
    order-insensitive in their construction.  ``nest`` restricts the step
    to one of the loop nests a prior ``split(parts=...)`` produced (``None``
    applies to every nest).  ``optional`` steps are skipped instead of
    failing when they are structurally inapplicable — the paper's Sequence 1
    lists a ``fuse`` that only fires when the split pair stays adjacent.
    """

    primitive: str
    params: tuple[tuple[str, object], ...] = ()
    nest: int | None = None
    optional: bool = False

    def param(self, name: str, default=None):
        for key, value in self.params:
            if key == name:
                return value
        return default

    def describe(self) -> str:
        rendered = ",".join(f"{key}={value}" for key, value in self.params)
        suffix = f"@{self.nest}" if self.nest is not None else ""
        return f"{self.primitive}({rendered}){suffix}"

    def content_hash(self) -> str:
        """Stable digest of this step's content (the compile-trie key unit).

        Depends on everything that affects the step's compile semantics —
        primitive name, canonicalised params, nest selector, optional flag
        — and on nothing else, so equal steps hash equally across
        processes and sessions (``repr`` of the frozen param values is
        deterministic; no ``PYTHONHASHSEED`` dependence).
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            payload = repr((self.primitive, self.params, self.nest, self.optional))
            cached = hashlib.sha1(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_content_hash", cached)
        return cached


def step(primitive: str, *, nest: int | None = None, optional: bool = False,
         **params) -> PrimitiveApplication:
    """Build a :class:`PrimitiveApplication` with canonicalised parameters.

    Example::

        program = TransformProgram(name="tiled", steps=(
            step("tile", iterator="ci", factor=4),
            step("unroll", iterator="kw", factor=8)))
    """
    frozen = tuple(sorted((key, _freeze(value)) for key, value in params.items()))
    return PrimitiveApplication(primitive=primitive, params=frozen, nest=nest,
                                optional=optional)


def _freeze(value):
    if isinstance(value, list):
        return tuple(value)
    return value


# ---------------------------------------------------------------------------
# Compile state: the loop nests a program has produced so far
# ---------------------------------------------------------------------------
class ProgramState:
    """Mutable compile state: the stages (loop nests) built so far."""

    def __init__(self, shape: ConvolutionShape, name: str = "program"):
        self.shape = shape
        self.name = name
        if shape.groups > 1:
            # Already-grouped convolutions (e.g. ResNeXt) keep their
            # structure; their nest exposes g/co_g/ci_g instead of co/ci, so
            # neural primitives are naturally inapplicable to them.
            initial = create_schedule(grouped_conv2d_compute(shape, shape.groups))
        else:
            initial = create_schedule(conv2d_compute(shape, name=name))
        self.stages: list[Stage] = [initial]

    @classmethod
    def resume(cls, shape: ConvolutionShape, stages: list[Stage],
               name: str = "program") -> "ProgramState":
        """Rebuild a state from a compile-trie snapshot without re-deriving
        the initial nest; ``stages`` must be private (cloned) copies."""
        state = cls.__new__(cls)
        state.shape = shape
        state.name = name
        state.stages = list(stages)
        return state

    def clone(self) -> "ProgramState":
        """An independent copy (stages cloned, see :meth:`Stage.clone`)."""
        return ProgramState.resume(
            self.shape, [stage.clone() for stage in self.stages], name=self.name)

    @property
    def pristine(self) -> bool:
        """True before any primitive touched the initial nest."""
        return len(self.stages) == 1 and not self.stages[0].history

    def select(self, app: PrimitiveApplication) -> list[Stage]:
        if app.nest is None:
            return self.stages
        if not 0 <= app.nest < len(self.stages):
            raise TransformError(
                f"step targets nest {app.nest} but the program built "
                f"{len(self.stages)} nest(s)")
        return [self.stages[app.nest]]

    def partition(self, parts: int) -> None:
        """Split the output channels into ``parts`` independent loop nests.

        This is the nest-level face of Table-1 ``split`` (the paper's
        Sequence 3 opens with it): each part convolves all input channels
        into ``c_out / parts`` filters and may then be transformed
        independently via the step's ``nest`` parameter.
        """
        if parts < 2:
            raise TransformError("split(parts=...) needs at least two parts")
        if not self.pristine:
            raise TransformError(
                "split(parts=...) must be the first structural step of a program")
        if self.shape.groups > 1:
            raise TransformError("cannot partition an already-grouped convolution")
        if self.shape.c_out % parts != 0:
            raise TransformError(
                f"split(parts={parts}) does not divide c_out={self.shape.c_out}")
        part = ConvolutionShape(self.shape.c_out // parts, self.shape.c_in,
                                self.shape.h_out, self.shape.w_out,
                                self.shape.k_h, self.shape.k_w,
                                stride=self.shape.stride)
        self.stages = [create_schedule(conv2d_compute(part, name=f"{self.name}_part{i}"))
                       for i in range(parts)]


# ---------------------------------------------------------------------------
# The primitive registry
# ---------------------------------------------------------------------------
#: Registered primitives, keyed by name.  Extend with
#: :func:`register_primitive`; every consumer of the IR picks them up.
PRIMITIVE_REGISTRY: dict[str, "Primitive"] = {}


def register_primitive(cls):
    """Class decorator registering a :class:`Primitive` singleton by name.

    Registering a primitive is the one event that can change compile
    semantics mid-process (a previously unknown step name becomes
    applicable), so it invalidates the compile trie.
    """
    instance = cls()
    if instance.name in PRIMITIVE_REGISTRY:
        raise TransformError(f"primitive '{instance.name}' is already registered")
    PRIMITIVE_REGISTRY[instance.name] = instance
    # sys.modules guard rather than an import: the built-in primitives
    # register while this very module is still initialising, before the
    # cache module could be imported.
    cache_module = sys.modules.get("repro.core.compile_cache")
    if cache_module is not None:
        cache_module.invalidate()
    return cls


class Primitive:
    """A registrable Table-1 primitive.

    Subclasses set ``name``/``category``/``is_neural``/``description``,
    implement :meth:`apply` (rewrite the program state in place, raising
    :class:`TransformError`/:class:`ScheduleError` on structural
    illegality) and may implement :meth:`sample` to participate in the
    random-composition generator (return ``None`` when inapplicable to the
    current state).
    """

    name: str = ""
    category: str = "program"  # "program" | "neural" | "gpu"
    is_neural: bool = False
    description: str = ""

    def apply(self, state: ProgramState, app: PrimitiveApplication) -> None:
        raise NotImplementedError

    def sample(self, state: ProgramState,
               rng: np.random.Generator) -> PrimitiveApplication | None:
        return None

    # Shared sampling helpers -------------------------------------------
    @staticmethod
    def _random_iterator(state: ProgramState, rng: np.random.Generator,
                         candidates: Iterable[str] | None = None) -> str | None:
        names = state.stages[0].loop_order
        pool = [n for n in names if candidates is None or n in candidates]
        if not pool:
            return None
        return pool[int(rng.integers(0, len(pool)))]

    @staticmethod
    def _random_factor(extent: int, rng: np.random.Generator,
                       options: tuple[int, ...] = (2, 4, 8),
                       proper: bool = True) -> int | None:
        pool = [f for f in options
                if extent % f == 0 and (extent > f if proper else extent >= f)]
        if not pool:
            return None
        return pool[int(rng.integers(0, len(pool)))]


def apply_step(state: ProgramState, app: PrimitiveApplication,
               program_name: str) -> None:
    """Apply one program step to ``state`` in place.

    The step function both compile paths share (the uncached loop and the
    prefix trie's replay).  An unknown primitive and a rejected required
    step raise :class:`LegalityError` naming the primitive; a rejected
    ``optional`` step leaves ``state`` exactly as it was.
    """
    primitive = PRIMITIVE_REGISTRY.get(app.primitive)
    if primitive is None:
        raise LegalityError(f"unknown primitive '{app.primitive}'",
                            primitive=app.primitive, reason="not registered")
    # A skipped optional step must be a no-op even when it fails partway
    # through a multi-nest application, so snapshot the stages it may
    # touch and restore them on failure.
    backup = [stage.clone() for stage in state.stages] if app.optional else None
    try:
        primitive.apply(state, app)
    except LegalityError as error:
        if not app.optional:
            raise LegalityError(
                f"{program_name}: {app.describe()} rejected: {error.reason}",
                primitive=app.primitive, reason=error.reason) from error
        state.stages = backup
    except (TransformError, ScheduleError) as error:
        if not app.optional:
            raise LegalityError(
                f"{program_name}: {app.describe()} rejected: {error}",
                primitive=app.primitive, reason=str(error)) from error
        state.stages = backup


def _require_param(app: PrimitiveApplication, name: str):
    value = app.param(name)
    if value is None:
        raise TransformError(f"{app.primitive} needs a '{name}' parameter")
    return value


@register_primitive
class ReorderPrimitive(Primitive):
    name = "reorder"
    description = "Interchange nested loops"

    def apply(self, state, app):
        front = tuple(_require_param(app, "front"))
        for stage in state.select(app):
            for iterator in front:
                if iterator not in stage.statement.domain:
                    raise TransformError(
                        f"reorder: iterator '{iterator}' not in nest "
                        f"{stage.loop_order}")
            order = list(front) + [n for n in stage.loop_order if n not in front]
            stage.reorder(*order)

    def sample(self, state, rng):
        iterator = self._random_iterator(state, rng)
        if iterator is None:
            return None
        return step("reorder", front=(iterator,))


@register_primitive
class TilePrimitive(Primitive):
    name = "tile"
    description = "Cache and register blocking"

    def apply(self, state, app):
        iterator = _require_param(app, "iterator")
        factor = int(_require_param(app, "factor"))
        for stage in state.select(app):
            stage.tile(iterator, factor)

    def sample(self, state, rng):
        iterator = self._random_iterator(state, rng)
        if iterator is None:
            return None
        extent = state.stages[0].statement.domain.extent(iterator)
        factor = self._random_factor(extent, rng)
        if factor is None:
            return None
        return step("tile", iterator=iterator, factor=factor)


@register_primitive
class SplitPrimitive(Primitive):
    name = "split"
    description = "Divide iteration into multiple axes"

    def apply(self, state, app):
        parts = app.param("parts")
        if parts is not None:
            state.partition(int(parts))
            return
        iterator = _require_param(app, "iterator")
        factor = app.param("factor", "auto")
        for stage in state.select(app):
            stage.split(iterator, self._resolve(stage, iterator, factor, app))

    @staticmethod
    def _resolve(stage: Stage, iterator: str, factor, app: PrimitiveApplication) -> int:
        if factor != "auto":
            return int(factor)
        # The published Sequence 1 leaves the strip size to the autotuner;
        # mirror the reproduction's choice: the largest divisor that fills a
        # SIMD/warp lane group, never below the requested floor.  The floor
        # must divide the extent (the pre-refactor applicability rule).
        extent = stage.statement.domain.extent(iterator)
        floor = int(app.param("floor", 1))
        if floor > 0 and extent % floor != 0:
            raise TransformError(
                f"split({iterator},auto): floor {floor} does not divide "
                f"extent {extent}")
        limit = int(app.param("limit", 8))
        strip = max((d for d in divisors(extent) if d <= limit), default=1)
        return max(strip, floor)

    def sample(self, state, rng):
        if state.pristine and state.shape.groups == 1 and state.shape.c_out % 2 == 0 \
                and rng.random() < 0.25:
            return step("split", parts=2)
        iterator = self._random_iterator(state, rng)
        if iterator is None:
            return None
        extent = state.stages[0].statement.domain.extent(iterator)
        factor = self._random_factor(extent, rng)
        if factor is None:
            return None
        return step("split", iterator=iterator, factor=factor)


@register_primitive
class FusePrimitive(Primitive):
    name = "fuse"
    description = "Combine two axes into one"

    def apply(self, state, app):
        first = _require_param(app, "first")
        second = _require_param(app, "second")
        for stage in state.select(app):
            stage.fuse(first, second)

    def sample(self, state, rng):
        order = state.stages[0].loop_order
        pairs = [(a, b) for a, b in zip(order, order[1:])
                 if a.endswith("_o") and b == a[:-2] + "_i"]
        if not pairs:
            return None
        first, second = pairs[int(rng.integers(0, len(pairs)))]
        return step("fuse", first=first, second=second)


@register_primitive
class UnrollPrimitive(Primitive):
    name = "unroll"
    description = "Loop unrolling"

    def apply(self, state, app):
        iterator = _require_param(app, "iterator")
        factor = app.param("factor")
        for stage in state.select(app):
            stage.unroll(iterator, None if factor is None else int(factor))

    def sample(self, state, rng):
        iterator = self._random_iterator(state, rng)
        if iterator is None:
            return None
        return step("unroll", iterator=iterator,
                    factor=int(rng.choice([2, 4, 8, 16])))


@register_primitive
class PrefetchPrimitive(Primitive):
    name = "prefetch"
    description = "Memory coalescing between threads"

    def apply(self, state, app):
        iterator = _require_param(app, "iterator")
        for stage in state.select(app):
            stage.prefetch(iterator)

    def sample(self, state, rng):
        iterator = self._random_iterator(state, rng)
        if iterator is None:
            return None
        return step("prefetch", iterator=iterator)


@register_primitive
class GroupPrimitive(Primitive):
    name = "group"
    category = "neural"
    is_neural = True
    description = "Slice and offset two loops by factor G"

    def apply(self, state, app):
        factor = int(_require_param(app, "factor"))
        for stage in state.select(app):
            stage.group(factor, outer=app.param("outer", "co"),
                        inner=app.param("inner", "ci"))

    def sample(self, state, rng):
        domain = state.stages[0].statement.domain
        if "co" not in domain or "ci" not in domain:
            return None
        limit = min(domain.extent("co"), domain.extent("ci"))
        pool = [f for f in (2, 4, 8)
                if f <= limit and domain.extent("co") % f == 0
                and domain.extent("ci") % f == 0]
        if not pool:
            return None
        return step("group", factor=pool[int(rng.integers(0, len(pool)))])


@register_primitive
class BottleneckPrimitive(Primitive):
    name = "bottleneck"
    category = "neural"
    is_neural = True
    description = "Reduce domain by factor B"

    def apply(self, state, app):
        iterator = _require_param(app, "iterator")
        factor = int(_require_param(app, "factor"))
        for stage in state.select(app):
            domain = stage.statement.domain
            # A bottleneck that collapses the iterator to a single element
            # is degenerate as a network operator (a one-channel mid layer);
            # the pre-refactor applicability rules required extent > factor.
            if (iterator in domain and factor > 0
                    and domain.extent(iterator) % factor == 0
                    and domain.extent(iterator) // factor < 2):
                raise TransformError(
                    f"bottleneck({iterator},{factor}) would collapse extent "
                    f"{domain.extent(iterator)} to a single element")
            stage.bottleneck(iterator, factor)

    def sample(self, state, rng):
        # The sampler stays on the channel iterators: spatial bottlenecking
        # must shrink oh and ow together to have a faithful network-level
        # operator, and the predefined spatial program already covers that.
        iterator = self._random_iterator(state, rng, candidates=("co", "ci"))
        if iterator is None:
            return None
        extent = state.stages[0].statement.domain.extent(iterator)
        factor = self._random_factor(extent, rng, options=(2, 4))
        if factor is None:
            return None
        return step("bottleneck", iterator=iterator, factor=factor)


@register_primitive
class DepthwisePrimitive(Primitive):
    name = "depthwise"
    category = "neural"
    is_neural = True
    description = "Grouping with G = C_o = C_i"

    def apply(self, state, app):
        for stage in state.select(app):
            stage.depthwise()

    def sample(self, state, rng):
        domain = state.stages[0].statement.domain
        if "co" not in domain or "ci" not in domain:
            return None
        if domain.extent("co") != domain.extent("ci") or domain.extent("ci") <= 1:
            return None
        return step("depthwise")


@register_primitive
class BindPrimitive(Primitive):
    name = "bind"
    category = "gpu"
    description = "Map a loop to blockIdx / threadIdx / vthread"

    def apply(self, state, app):
        iterator = _require_param(app, "iterator")
        tag = _require_param(app, "tag")
        if tag not in THREAD_TAGS:
            raise TransformError(
                f"bind: unknown thread tag '{tag}'; expected one of {THREAD_TAGS}")
        for stage in state.select(app):
            stage.bind(iterator, tag)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LegalityReport:
    """Outcome of the structural (stage-1) legality check of a program."""

    legal: bool
    primitive: str | None = None
    reason: str | None = None


@dataclass(frozen=True)
class TransformProgram:
    """An ordered, parameterised composition of Table-1 primitives.

    ``name`` is a display label only (``compare=False``): two programs
    with identical steps are the *same* program regardless of how they
    were labelled, so a sampled composition that happens to reproduce a
    predefined sequence shares its engine cache entries instead of being
    tuned twice.

    Example::

        program = TransformProgram(name="grouped", steps=(
            step("group", factor=2), step("tile", iterator="ci", factor=4)))
        assert program.is_neural and program.applicable(shape)
    """

    name: str = field(default="standard", compare=False)
    steps: tuple[PrimitiveApplication, ...] = ()

    def __hash__(self) -> int:
        # Programs are hashed millions of times as engine cache keys but
        # hold only a handful of distinct values per search; memoise the
        # (eq-consistent: steps only, never the display name) hash.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.steps)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # The memoised hash depends on PYTHONHASHSEED and must never
        # cross a process boundary (step content hashes are stable).
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # Descriptions
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """The program's name; predefined programs keep the legacy kinds."""
        return self.name

    @property
    def is_neural(self) -> bool:
        """True when any step changes the computed values (§5.1)."""
        return any(PRIMITIVE_REGISTRY[app.primitive].is_neural
                   for app in self.steps if app.primitive in PRIMITIVE_REGISTRY)

    def primitive_names(self) -> tuple[str, ...]:
        """Primitive names in application order (the paper's notation)."""
        return tuple(app.primitive for app in self.steps)

    def describe(self) -> str:
        if not self.steps:
            return self.name
        return f"{self.name}: " + " -> ".join(app.describe() for app in self.steps)

    # ------------------------------------------------------------------
    # The one lowering path
    # ------------------------------------------------------------------
    def compile(self, shape: ConvolutionShape) -> list[Stage]:
        """Apply every step to the convolution's loop nest(s).

        This is the single compile path every consumer shares: polyhedral
        statement rewrites with structural/dependence legality checked per
        step (stage 1 of the staged legality).  Failures raise
        :class:`LegalityError` naming the offending primitive.

        Compilation is incremental: intermediate state is memoised in the
        process-wide prefix trie (:mod:`repro.core.compile_cache`), so a
        program sharing a step prefix with a previously compiled sibling
        replays only the differing suffix, and a repeated compile is a
        snapshot clone.  The returned stages are always private copies;
        results are bit-identical to :meth:`compile_uncached` (pinned by
        the golden tests).
        """
        from repro.core import compile_cache

        return compile_cache.compile_program(self, shape)

    def compile_uncached(self, shape: ConvolutionShape) -> list[Stage]:
        """The from-scratch compile loop, bypassing the prefix trie.

        The fallback when the trie is disabled, and the reference the
        incremental path is pinned against.
        """
        state = ProgramState(shape, name=self.name)
        for app in self.steps:
            apply_step(state, app, self.name)
        return state.stages

    def build_computations(self, shape: ConvolutionShape) -> list[Computation]:
        """The transformed computations (structural part only, no annotations)."""
        computations = []
        for index, stage in enumerate(self.compile(shape)):
            computations.append(Computation(
                name=f"{self.name}_{index}", statement=stage.statement,
                element_bytes=stage.computation.element_bytes, source_shape=shape))
        return computations

    # ------------------------------------------------------------------
    # Staged legality, stage 1
    # ------------------------------------------------------------------
    def legality(self, shape: ConvolutionShape) -> LegalityReport:
        """Structural legality of this program on ``shape`` (memoised)."""
        return _structural_legality(self, shape)

    def applicable(self, shape: ConvolutionShape) -> bool:
        return self.legality(shape).legal

    # ------------------------------------------------------------------
    # Network level
    # ------------------------------------------------------------------
    def conv_config(self, shape: ConvolutionShape) -> ConvTransformConfig:
        """Summarise the program's neural effect for module instantiation."""
        return _conv_config(self, shape)

    def compute_reduction(self, shape: ConvolutionShape) -> float:
        """Factor by which multiply-accumulates shrink under this program."""
        original = shape.macs()
        transformed = sum(c.macs for c in self.build_computations(shape))
        return original / max(transformed, 1)


@lru_cache(maxsize=16384)
def _structural_legality(program: TransformProgram,
                         shape: ConvolutionShape) -> LegalityReport:
    try:
        program.compile(shape)
    except LegalityError as error:
        return LegalityReport(legal=False, primitive=error.primitive,
                              reason=error.reason)
    return LegalityReport(legal=True)


@lru_cache(maxsize=16384)
def _conv_config(program: TransformProgram,
                 shape: ConvolutionShape) -> ConvTransformConfig:
    stages = program.compile(shape)
    return ConvTransformConfig.from_neural_transformations(
        [stage.neural_transformations for stage in stages],
        source_in_channels=shape.c_in)


# ---------------------------------------------------------------------------
# JSON (de)serialisation
# ---------------------------------------------------------------------------
def program_to_dict(program: TransformProgram) -> dict:
    """Serialise a transform program to plain JSON types.

    The inverse of :func:`program_from_dict`; the façade's typed
    documents and the cache store's entry records both speak this format.

    Example::

        document = program_to_dict(predefined_program("seq1"))
        assert program_from_dict(document) == predefined_program("seq1")
    """
    return {
        "name": program.name,
        "steps": [
            {
                "primitive": app.primitive,
                "params": {key: list(value) if isinstance(value, tuple) else value
                           for key, value in app.params},
                "nest": app.nest,
                "optional": app.optional,
            }
            for app in program.steps
        ],
    }


def program_from_dict(document) -> TransformProgram:
    """Rebuild a transform program from :func:`program_to_dict` output.

    Steps go back through the same :func:`step` constructor the IR uses,
    so a deserialised program compares equal to the original and shares
    its engine cache entries.

    Example::

        program = program_from_dict({"name": "standard", "steps": []})
    """
    steps = tuple(
        step(entry["primitive"], nest=entry.get("nest"),
             optional=bool(entry.get("optional", False)),
             **entry.get("params", {}))
        for entry in document.get("steps", ())
    )
    return TransformProgram(name=document.get("name", "standard"), steps=steps)


# ---------------------------------------------------------------------------
# Random composition: sampling the open space
# ---------------------------------------------------------------------------
#: Relative sampling weight per primitive for the composition generator.
COMPOSITION_WEIGHTS: dict[str, float] = {
    "split": 1.0, "tile": 1.0, "reorder": 1.0, "fuse": 1.0, "unroll": 0.5,
    "prefetch": 0.25, "group": 2.0, "bottleneck": 2.0, "depthwise": 0.5,
}


def random_composition(shape: ConvolutionShape,
                       rng: np.random.Generator | None = None, *,
                       max_steps: int = 4) -> TransformProgram | None:
    """Sample a random legal composition of primitives for ``shape``.

    The generator builds the program incrementally: each candidate step is
    sampled by its primitive's applicability filter against the *current*
    compile state and applied immediately, so the emitted program is legal
    by construction.  Returns ``None`` when no primitive was applicable.
    """
    if max_steps < 1:
        raise TransformError("random_composition needs max_steps >= 1")
    rng = rng or make_rng()
    names = [n for n in COMPOSITION_WEIGHTS if n in PRIMITIVE_REGISTRY]
    weights = np.array([COMPOSITION_WEIGHTS[n] for n in names], dtype=float)
    weights /= weights.sum()
    state = ProgramState(shape)
    steps: list[PrimitiveApplication] = []
    budget = int(rng.integers(min(2, max_steps), max_steps + 1))
    for _ in range(budget):
        primitive = PRIMITIVE_REGISTRY[str(rng.choice(names, p=weights))]
        app = primitive.sample(state, rng)
        if app is None:
            continue
        try:
            primitive.apply(state, app)
        except (TransformError, ScheduleError):
            continue
        steps.append(app)
    if not steps:
        return None
    label = "compose[" + "+".join(app.primitive for app in steps) + "]"
    return TransformProgram(name=label, steps=tuple(steps))
