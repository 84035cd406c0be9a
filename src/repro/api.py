"""The public façade: one front door to the unified optimizer.

The paper's pitch is that NAS and program-transformation exploration are
*one* search you can point at any model/platform pair.  This module makes
the repository read that way: instead of hand-wiring an
:class:`~repro.core.engine.EvaluationEngine`, a
:class:`~repro.core.unified_space.UnifiedSpaceConfig`, a
:class:`~repro.core.search.UnifiedSearch`, a platform and a dataset from
five subpackages, callers say::

    import repro

    result = repro.optimize("resnet34", platform="cpu", budget=60)
    print(result.speedup, result.programs())

or, when several searches should share one engine, one cache directory and
one lifecycle::

    with repro.OptimizationSession(cache_dir="~/.cache/repro") as session:
        for platform in ("cpu", "gpu", "mcpu", "mgpu"):
            result = session.optimize("resnet34", platform=platform)

Requests and results are typed frozen dataclasses with ``to_dict`` /
``from_dict`` JSON round-trips, so runs can be archived, diffed and
replayed; an *observer* callback (see :mod:`repro.core.events`) streams
per-generation progress out of long searches.  The session guarantees the
engine teardown contract — persistent worker pools are shut down and dirty
caches are written back even when the body raises.

See DESIGN.md §9 for the façade architecture and the stability policy.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.core.cache_store import CacheStore
from repro.core.engine import EvaluationEngine
from repro.core.events import Observer
from repro.core.program import (
    TransformProgram,
    program_from_dict,
    program_to_dict,
    step,
)
from repro.core.search import SEARCH_STRATEGY_REGISTRY, UnifiedSearch, UnifiedSearchResult
from repro.core.sequences import SEQUENCE_KINDS, predefined_program
from repro.core.unified_space import UnifiedSpaceConfig
from repro.data import SyntheticImageDataset
from repro.errors import ReproError
from repro.hardware.platform import PLATFORMS, PlatformSpec, get_platform
from repro.models import (
    densenet161,
    densenet169,
    densenet201,
    resnet18,
    resnet34,
    resnext29_2x64d,
)
from repro.nn.module import Module
from repro.poly.statement import ConvolutionShape

#: The module's public surface, audited by ``tests/test_docs.py`` (every
#: name must carry an example-bearing docstring).
__all__ = [
    "OptimizationSession", "OptimizationRequest", "OptimizationResult",
    "LayerDecision", "TuningResult", "optimize", "tune", "resume_checkpoint",
    "build_model", "MODEL_BUILDERS", "list_platforms", "list_sequences",
    "program_to_dict", "program_from_dict", "resolve_program",
    "resolve_shape", "default_cache_dir", "env_cache_dir", "CacheStore",
    "REQUEST_SCHEMA", "RESULT_SCHEMA", "TUNING_SCHEMA",
]


def default_cache_dir() -> Path:
    """The directory the ``repro cache`` subcommands inspect by default.

    Engine caches are opt-in: ``optimize``/``tune`` write stores only when
    given a ``cache_dir`` (the CLI also honours the ``REPRO_CACHE_DIR``
    environment variable as that default), and this is where they land
    when ``REPRO_CACHE_DIR`` names no other place.  A ``cache_dir`` holds
    one sharded :class:`~repro.core.cache_store.CacheStore` (one
    ``shard-<platform>.rcs`` segment per platform, shared by every engine
    and every process).

    Example::

        shards = sorted(default_cache_dir().glob("shard-*.rcs"))
    """
    import os

    return Path(os.environ.get("REPRO_CACHE_DIR", "~/.cache/repro")).expanduser()


def env_cache_dir() -> str | None:
    """``REPRO_CACHE_DIR`` when set — the CLI's implicit ``--cache-dir``.

    Example::

        cache_dir = args.cache_dir or env_cache_dir()
    """
    import os

    return os.environ.get("REPRO_CACHE_DIR") or None


#: Schema tags carried by the serialised documents, so readers can reject
#: payloads written by an incompatible build.
REQUEST_SCHEMA = "repro.optimization-request/1"
RESULT_SCHEMA = "repro.optimization-result/1"
TUNING_SCHEMA = "repro.tuning-result/1"

#: Networks :func:`build_model` (and the CLI) can construct by name.
MODEL_BUILDERS: dict[str, Callable[..., Module]] = {
    "resnet18": resnet18,
    "resnet34": resnet34,
    "resnext29_2x64d": resnext29_2x64d,
    "densenet161": densenet161,
    "densenet169": densenet169,
    "densenet201": densenet201,
}


def build_model(name: str, *, width_multiplier: float = 0.25) -> Module:
    """Construct a model-zoo network by name (the CLI's ``--model`` values).

    Example::

        model = build_model("resnet34", width_multiplier=0.5)
    """
    if name.startswith("instance:"):
        raise ReproError(
            f"request model '{name}' records a live module instance, not a "
            f"zoo name; pass the model object to optimize() again to replay")
    try:
        builder = MODEL_BUILDERS[name.lower()]
    except KeyError:
        raise ReproError(
            f"unknown model '{name}'; expected one of {sorted(MODEL_BUILDERS)}"
        ) from None
    return builder(width_multiplier=width_multiplier)


# ---------------------------------------------------------------------------
# Serialisation helpers shared by the typed documents
# ---------------------------------------------------------------------------
def resolve_program(program: TransformProgram | str) -> TransformProgram:
    """Accept a program object or a named sequence kind (``"seq1"``, ...).

    Example::

        program = resolve_program("seq1")
    """
    if isinstance(program, TransformProgram):
        return program
    return predefined_program(program)


def resolve_shape(shape: ConvolutionShape | Sequence[int]) -> ConvolutionShape:
    """Accept a :class:`ConvolutionShape` or a plain ``(co, ci, h, w, kh, kw)``.

    Example::

        shape = resolve_shape((64, 64, 16, 16, 3, 3))
    """
    if isinstance(shape, ConvolutionShape):
        return shape
    values = [int(v) for v in shape]
    if len(values) not in (6, 7, 8):
        raise ReproError(
            "a convolution shape needs (c_out, c_in, h_out, w_out, k_h, k_w"
            "[, groups[, stride]]) — got " + repr(tuple(shape)))
    return ConvolutionShape(*values)


def _shape_to_dict(shape: ConvolutionShape) -> dict:
    return dataclasses.asdict(shape)


def _shape_from_dict(document: Mapping) -> ConvolutionShape:
    return ConvolutionShape(**{key: int(value) for key, value in document.items()})


def _require(document: Mapping, keys: Sequence[str], what: str) -> None:
    missing = [key for key in keys if key not in document]
    if missing:
        raise ReproError(f"{what} document is missing keys {missing}; "
                         f"got keys {sorted(document)}")


# ---------------------------------------------------------------------------
# The typed request / result objects
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OptimizationRequest:
    """Everything one ``repro.optimize`` run depends on, as data.

    ``model`` is a model-zoo name; when a caller passes a live
    :class:`~repro.nn.module.Module` instead, the request records
    ``instance:<ClassName>`` for provenance — such a request cannot be
    replayed without the original object (:func:`build_model` refuses the
    marker with a clear message).  A request round-trips through
    :meth:`to_dict` / :meth:`from_dict`, so an archived result names the
    run that produced it.

    Example::

        request = OptimizationRequest(model="resnet34", platform="gpu",
                                      strategy="model_guided", seed=7)
        result = session.optimize(request=request)
    """

    model: str = "resnet34"
    platform: str = "cpu"
    strategy: str = "greedy"
    configurations: int = 60
    tuner_trials: int = 4
    fisher_threshold: float = 1.0
    seed: int = 0
    width_multiplier: float = 0.25
    image_size: int = 16
    fisher_batch: int = 4
    #: pending-point imputation for model_guided's batch-concurrent rounds
    #: (see repro.core.predictor.LIAR_STRATEGIES; "none" disables it)
    liar: str = "cl_mean"
    #: model_guided's surrogate, acquisition and candidate encoding.  Each
    #: field has one accepted value: the study in DESIGN.md §15 retired
    #: the alternatives.  The fields stay so every request, job and
    #: checkpoint document keeps the same shape.
    learner: str = "ridge"
    acquisition: str = "rank"
    encoding: str = "flat"

    def __post_init__(self) -> None:
        from repro.core.predictor import LIAR_STRATEGIES

        get_platform(self.platform)  # fail fast on unknown targets
        if self.strategy not in SEARCH_STRATEGY_REGISTRY:
            raise ReproError(
                f"unknown strategy '{self.strategy}'; expected one of "
                f"{sorted(SEARCH_STRATEGY_REGISTRY)}")
        if self.liar not in ("none",) + LIAR_STRATEGIES:
            raise ReproError(
                f"unknown liar strategy '{self.liar}'; expected one of "
                f"{('none',) + LIAR_STRATEGIES}")
        for name, only in (("learner", "ridge"), ("acquisition", "rank"),
                           ("encoding", "flat")):
            if getattr(self, name) != only:
                raise ReproError(
                    f"request field '{name}' must be '{only}', got "
                    f"{getattr(self, name)!r}")
        if self.configurations < 1:
            raise ReproError("the search budget must be at least 1 configuration")
        if self.tuner_trials < 1:
            raise ReproError("the tuner needs at least one trial")
        if self.fisher_batch < 1:
            raise ReproError("the Fisher profile needs at least one example")

    def to_dict(self) -> dict:
        document = dataclasses.asdict(self)
        document["schema"] = REQUEST_SCHEMA
        return document

    @classmethod
    def from_dict(cls, document: Mapping) -> "OptimizationRequest":
        schema = document.get("schema", REQUEST_SCHEMA)
        if schema != REQUEST_SCHEMA:
            raise ReproError(f"cannot read request schema '{schema}'; "
                             f"this build reads '{REQUEST_SCHEMA}'")
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(document) - fields - {"schema"})
        if unknown:
            raise ReproError(f"unknown request field(s) {unknown}; expected "
                             f"some of {sorted(fields)}")
        return cls(**{key: value for key, value in document.items()
                      if key != "schema"})


@dataclass(frozen=True)
class LayerDecision:
    """The program chosen for one layer, with the scores behind the choice.

    Example::

        for decision in result.layers:
            if decision.is_neural:
                print(decision.layer, decision.program.kind, decision.speedup)
    """

    layer: str
    program: TransformProgram
    latency_seconds: float
    baseline_latency_seconds: float
    fisher_score: float
    baseline_fisher_score: float
    shape: ConvolutionShape | None = None

    @property
    def speedup(self) -> float:
        return self.baseline_latency_seconds / max(self.latency_seconds, 1e-12)

    @property
    def is_neural(self) -> bool:
        return self.program.is_neural

    def to_dict(self) -> dict:
        return {
            "layer": self.layer,
            "program": program_to_dict(self.program),
            "latency_seconds": self.latency_seconds,
            "baseline_latency_seconds": self.baseline_latency_seconds,
            "fisher_score": self.fisher_score,
            "baseline_fisher_score": self.baseline_fisher_score,
            "shape": _shape_to_dict(self.shape) if self.shape is not None else None,
        }

    @classmethod
    def from_dict(cls, document: Mapping) -> "LayerDecision":
        _require(document, ("layer", "program", "latency_seconds",
                            "baseline_latency_seconds"), "layer decision")
        shape = document.get("shape")
        return cls(
            layer=document["layer"],
            program=program_from_dict(document["program"]),
            latency_seconds=float(document["latency_seconds"]),
            baseline_latency_seconds=float(document["baseline_latency_seconds"]),
            fisher_score=float(document.get("fisher_score", 0.0)),
            baseline_fisher_score=float(document.get("baseline_fisher_score", 0.0)),
            shape=_shape_from_dict(shape) if shape else None,
        )


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one façade optimisation run.

    Carries the chosen program per layer, the per-layer and end-to-end
    latencies, the search and engine statistics, and (when the run went
    through the façade) the originating request.  ``to_dict`` /
    ``from_dict`` round-trip through JSON; ``from_dict`` ignores unknown
    keys, so the experiment registry can embed a result inside a larger
    envelope and the envelope still deserialises as a result.

    Example::

        result = repro.optimize("resnet34", platform="cpu")
        archived = json.dumps(result.to_dict())
        restored = OptimizationResult.from_dict(json.loads(archived))
        model = restored.apply_to(repro.build_model("resnet34"))
    """

    platform: str
    strategy: str
    seed: int
    baseline_latency_seconds: float
    optimized_latency_seconds: float
    layers: tuple[LayerDecision, ...] = ()
    search_statistics: dict = field(default_factory=dict)
    engine_statistics: dict = field(default_factory=dict)
    fisher_original: float = 0.0
    fisher_optimized: float = 0.0
    request: OptimizationRequest | None = None

    @property
    def speedup(self) -> float:
        return self.baseline_latency_seconds / max(self.optimized_latency_seconds, 1e-12)

    def programs(self) -> dict[str, TransformProgram]:
        """The chosen transform program per optimised layer."""
        return {decision.layer: decision.program for decision in self.layers}

    def neural_layers(self) -> tuple[str, ...]:
        """Layers whose chosen program substitutes a derived operator."""
        return tuple(d.layer for d in self.layers if d.is_neural)

    def summary(self) -> str:
        """A one-paragraph human rendering (the CLI's non-JSON output)."""
        lines = [
            f"platform {self.platform} · strategy {self.strategy} · seed {self.seed}",
            f"baseline  {self.baseline_latency_seconds * 1e3:9.3f} ms",
            f"optimised {self.optimized_latency_seconds * 1e3:9.3f} ms "
            f"({self.speedup:.2f}x speedup)",
            f"layers: {len(self.layers)} optimised, "
            f"{len(self.neural_layers())} with derived operators",
        ]
        for decision in self.layers:
            if decision.is_neural:
                lines.append(f"  {decision.layer:32s} {decision.program.kind:20s} "
                             f"{decision.speedup:5.2f}x")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": RESULT_SCHEMA,
            "platform": self.platform,
            "strategy": self.strategy,
            "seed": self.seed,
            "baseline_latency_seconds": self.baseline_latency_seconds,
            "optimized_latency_seconds": self.optimized_latency_seconds,
            "speedup": self.speedup,
            "layers": [decision.to_dict() for decision in self.layers],
            "search_statistics": dict(self.search_statistics),
            "engine_statistics": dict(self.engine_statistics),
            "fisher_original": self.fisher_original,
            "fisher_optimized": self.fisher_optimized,
            "request": self.request.to_dict() if self.request is not None else None,
        }

    @classmethod
    def from_dict(cls, document: Mapping) -> "OptimizationResult":
        _require(document, ("platform", "baseline_latency_seconds",
                            "optimized_latency_seconds"), "optimization result")
        schema = document.get("schema")
        if schema is not None and schema != RESULT_SCHEMA:
            raise ReproError(f"cannot read schema '{schema}'; "
                             f"this build reads '{RESULT_SCHEMA}'")
        request = document.get("request")
        return cls(
            platform=document["platform"],
            strategy=document.get("strategy", "greedy"),
            seed=int(document.get("seed", 0)),
            baseline_latency_seconds=float(document["baseline_latency_seconds"]),
            optimized_latency_seconds=float(document["optimized_latency_seconds"]),
            layers=tuple(LayerDecision.from_dict(entry)
                         for entry in document.get("layers", ())),
            search_statistics=dict(document.get("search_statistics", {})),
            engine_statistics=dict(document.get("engine_statistics", {})),
            fisher_original=float(document.get("fisher_original", 0.0)),
            fisher_optimized=float(document.get("fisher_optimized", 0.0)),
            request=OptimizationRequest.from_dict(request) if request else None,
        )

    @classmethod
    def from_search(cls, outcome: UnifiedSearchResult, *, strategy: str,
                    seed: int, engine_statistics: Mapping | None = None,
                    request: OptimizationRequest | None = None) -> "OptimizationResult":
        """Wrap a :class:`UnifiedSearchResult` in the façade's result type."""
        layers = tuple(
            LayerDecision(
                layer=choice.layer, program=choice.sequence,
                latency_seconds=choice.latency_seconds,
                baseline_latency_seconds=choice.baseline_latency_seconds,
                fisher_score=choice.fisher_score,
                baseline_fisher_score=choice.baseline_fisher_score,
                shape=choice.shape)
            for choice in outcome.choices.values())
        statistics = dataclasses.asdict(outcome.statistics)
        statistics["rejection_rate"] = outcome.statistics.rejection_rate
        return cls(
            platform=outcome.platform, strategy=strategy, seed=seed,
            baseline_latency_seconds=outcome.baseline_latency_seconds,
            optimized_latency_seconds=outcome.optimized_latency_seconds,
            layers=layers, search_statistics=statistics,
            engine_statistics=dict(engine_statistics or {}),
            fisher_original=outcome.fisher_original,
            fisher_optimized=outcome.fisher_optimized,
            request=request)

    # ------------------------------------------------------------------
    def apply_to(self, model: Module, seed: int | None = None) -> Module:
        """Substitute the chosen derived operators into ``model`` (in place).

        Works from the serialised decisions alone, so a result read back
        with :meth:`from_dict` can re-materialise the optimised network.
        Layers whose program is not neural — or that the model does not
        expose — keep their original convolution.
        """
        from repro.core.search import substitute_programs

        return substitute_programs(
            model,
            [(decision.layer, decision.program, decision.shape)
             for decision in self.layers],
            seed=self.seed if seed is None else seed)


@dataclass(frozen=True)
class TuningResult:
    """Outcome of tuning one convolution under one program on one platform.

    Example::

        tuned = repro.tune((64, 64, 16, 16, 3, 3), "seq1", platform="mgpu")
        print(tuned.latency_ms)
    """

    platform: str
    shape: ConvolutionShape
    program: TransformProgram
    latency_seconds: float
    tuner_trials: int
    seed: int

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1e3

    def to_dict(self) -> dict:
        return {
            "schema": TUNING_SCHEMA,
            "platform": self.platform,
            "shape": _shape_to_dict(self.shape),
            "program": program_to_dict(self.program),
            "latency_seconds": self.latency_seconds,
            "tuner_trials": self.tuner_trials,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, document: Mapping) -> "TuningResult":
        _require(document, ("platform", "shape", "program", "latency_seconds"),
                 "tuning result")
        return cls(
            platform=document["platform"],
            shape=_shape_from_dict(document["shape"]),
            program=program_from_dict(document["program"]),
            latency_seconds=float(document["latency_seconds"]),
            tuner_trials=int(document.get("tuner_trials", 0)),
            seed=int(document.get("seed", 0)),
        )


# ---------------------------------------------------------------------------
# The session: engine lifecycle behind a context manager
# ---------------------------------------------------------------------------
class OptimizationSession:
    """Owns engines, caches and seeds for a batch of façade calls.

    One session holds one :class:`EvaluationEngine` per
    ``(platform, tuner_trials, seed)`` it was asked to touch.  Engines are
    created lazily, share the session's ``cache_dir`` — one sharded
    :class:`~repro.core.cache_store.CacheStore`, a shard per platform,
    safe to share with any number of concurrent sessions and processes —
    and are torn down — pending cache entries appended, worker pools shut
    down — by :meth:`close`, which the context-manager exit calls even
    when the body raised.

    Example::

        with OptimizationSession(cache_dir="~/.cache/repro") as session:
            for platform in ("cpu", "gpu"):
                result = session.optimize("resnet34", platform=platform)
    """

    def __init__(self, platform: str = "cpu", *, tuner_trials: int = 4,
                 seed: int = 0, cache_dir: str | Path | None = None,
                 cache_store: CacheStore | None = None,
                 parallel: str = "serial", max_workers: int | None = None,
                 observer: Observer | None = None):
        get_platform(platform)  # fail fast on unknown targets
        if cache_dir is not None and cache_store is not None:
            raise ReproError("pass either cache_dir or a prebuilt "
                             "cache_store, not both")
        self.platform = platform
        self.tuner_trials = tuner_trials
        self.seed = seed
        self.cache_dir = (Path(cache_dir).expanduser()
                          if cache_dir is not None else None)
        if cache_store is not None:
            # A prebuilt store (e.g. the optimization service's, shared by
            # every job in the daemon) wins; sessions never own it.
            self.cache_store = cache_store
            self.cache_dir = cache_store.directory
        else:
            self.cache_store = (CacheStore(self.cache_dir)
                                if self.cache_dir is not None else None)
        self.parallel = parallel
        self.max_workers = max_workers
        self.observer = observer
        self._engines: dict[tuple[str, int, int], EvaluationEngine] = {}
        self._closed = False

    # ------------------------------------------------------------------
    def engine(self, platform: str | None = None, *,
               tuner_trials: int | None = None,
               seed: int | None = None) -> EvaluationEngine:
        """The session's engine for ``(platform, tuner_trials, seed)``.

        Created on first use; later calls with the same key return the
        same engine, so every search in the session shares its caches.
        """
        key = (get_platform(platform or self.platform).name,
               self.tuner_trials if tuner_trials is None else int(tuner_trials),
               self.seed if seed is None else int(seed))
        engine = self._engines.get(key)
        if engine is None:
            engine = EvaluationEngine(
                get_platform(key[0]), tuner_trials=key[1], seed=key[2],
                cache_store=self.cache_store, parallel=self.parallel,
                max_workers=self.max_workers)
            self._engines[key] = engine
            self._closed = False
        return engine

    @property
    def engines(self) -> tuple[EvaluationEngine, ...]:
        return tuple(self._engines.values())

    # ------------------------------------------------------------------
    def optimize(self, model: Module | str | None = None, *,
                 request: OptimizationRequest | None = None,
                 platform: str | None = None, strategy: str | None = None,
                 budget: int | None = None, configurations: int | None = None,
                 tuner_trials: int | None = None,
                 fisher_threshold: float | None = None,
                 seed: int | None = None, width_multiplier: float | None = None,
                 image_size: int | None = None, fisher_batch: int | None = None,
                 liar: str | None = None,
                 observer: Observer | None = None,
                 checkpoint: str | Path | None = None,
                 checkpoint_interval: float = 0.0) -> OptimizationResult:
        """Run the unified search for one model on one platform.

        Either pass a prebuilt ``request`` (every knob as data), or the
        individual keywords — ``budget`` is the number of configurations
        the search may evaluate.  Keywords passed alongside a ``request``
        override the corresponding request fields (re-validated).
        ``model`` may be a zoo name or a live
        :class:`~repro.nn.module.Module`.

        ``checkpoint`` names a file to persist the search's resume point
        to (atomically, after every tuning batch, rate-limited to one
        write per ``checkpoint_interval`` seconds): a killed run continues
        with :func:`resume_checkpoint` / ``repro resume`` to the
        bit-identical result an uninterrupted run would have produced.
        """
        if budget is not None and configurations is not None and budget != configurations:
            raise ReproError("pass either budget or configurations, not both")
        if configurations is None:
            configurations = budget
        instance: Module | None = model if isinstance(model, Module) else None
        overrides = {key: value for key, value in (
            ("platform", None if platform is None else get_platform(platform).name),
            ("strategy", strategy), ("configurations", configurations),
            ("tuner_trials", tuner_trials), ("fisher_threshold", fisher_threshold),
            ("seed", seed), ("width_multiplier", width_multiplier),
            ("image_size", image_size), ("fisher_batch", fisher_batch),
            ("liar", liar),
        ) if value is not None}
        if isinstance(model, str):
            overrides["model"] = model
        elif instance is not None:
            # A live module has no zoo name; the marker keeps the archived
            # request honest (build_model refuses it with a clear message).
            overrides["model"] = f"instance:{type(instance).__name__}"
        if request is None:
            request = OptimizationRequest(**{
                "platform": get_platform(self.platform).name,
                "tuner_trials": self.tuner_trials, "seed": self.seed,
                **overrides})
        elif overrides:
            request = dataclasses.replace(request, **overrides)
        if instance is None:
            instance = build_model(request.model,
                                   width_multiplier=request.width_multiplier)

        dataset = SyntheticImageDataset.cifar10_like(
            train_size=max(32, 4 * request.fisher_batch),
            test_size=16, image_size=request.image_size, seed=request.seed)
        images, labels = dataset.random_minibatch(request.fisher_batch,
                                                  seed=request.seed)
        engine = self.engine(request.platform, tuner_trials=request.tuner_trials,
                             seed=request.seed)
        search = UnifiedSearch(
            engine.platform, configurations=request.configurations,
            fisher_threshold=request.fisher_threshold, strategy=request.strategy,
            space=UnifiedSpaceConfig(seed=request.seed), seed=request.seed,
            engine=engine, observer=observer or self.observer,
            liar=request.liar)
        writer = None
        if checkpoint is not None:
            from repro.core.checkpoint import CheckpointWriter

            writer = CheckpointWriter(checkpoint, request.to_dict(), engine,
                                      interval_seconds=checkpoint_interval)
            engine.subscribe(writer.on_event)
            writer.write()  # the resume point exists before any tuning
        try:
            outcome = search.search(instance, images, labels,
                                    dataset.spec.image_shape)
        except BaseException as abort:
            # An aborted search (exception, SIGTERM/SIGINT translated to
            # one) still flushes everything paid for so far: the writer's
            # periodic saves are rate-limited, and resume must not lose
            # the tunings of the last interval.  A failing flush must not
            # mask the abort itself.
            if writer is not None:
                try:
                    writer.write()
                except ReproError as flush_error:
                    warnings.warn(
                        f"final checkpoint flush failed while the search was "
                        f"aborting ({abort!r}); resume falls back to the last "
                        f"periodic checkpoint: {flush_error}",
                        RuntimeWarning, stacklevel=2)
                finally:
                    engine.unsubscribe(writer.on_event)
                writer = None
            raise
        finally:
            if writer is not None:
                engine.unsubscribe(writer.on_event)
        if writer is not None:
            writer.write(completed=True)
        engine_statistics = dataclasses.asdict(engine.statistics)
        engine_statistics["latency_hit_rate"] = engine.statistics.latency_hit_rate
        return OptimizationResult.from_search(
            outcome, strategy=request.strategy, seed=request.seed,
            engine_statistics=engine_statistics, request=request)

    # ------------------------------------------------------------------
    def tune(self, shape: ConvolutionShape | Sequence[int],
             program: TransformProgram | str = "standard", *,
             platform: str | None = None,
             tuner_trials: int | None = None) -> TuningResult:
        """Auto-tune one convolution under one program; memoised per engine."""
        resolved_shape = resolve_shape(shape)
        resolved_program = resolve_program(program)
        engine = self.engine(platform, tuner_trials=tuner_trials)
        seconds = engine.tuned_latency(resolved_shape, resolved_program)
        return TuningResult(
            platform=engine.platform.name, shape=resolved_shape,
            program=resolved_program, latency_seconds=seconds,
            tuner_trials=engine.tuner_trials, seed=engine.seed)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear every engine down: append pending cache entries, stop pools.

        Idempotent.  Pools are shut down even when a cache write fails;
        the first write failure is re-raised after all engines closed.
        """
        engines, self._engines = self._engines, {}
        self._closed = True
        failures: list[Exception] = []
        for engine in engines.values():
            try:
                if engine.cache_store is not None:
                    engine.save_cache()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)
            finally:
                engine.close()
        if failures:
            raise failures[0]

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "OptimizationSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except (ReproError, OSError) as close_error:
            # Pools are already shut down; a cache-write failure must not
            # mask the body's own exception mid-unwind.  On a clean exit
            # it is the caller's only signal, so let it propagate.
            if exc_type is None:
                raise
            warnings.warn(
                f"session close failed while the body was already raising; "
                f"the cache write-back error was suppressed so the original "
                f"exception propagates: {close_error}",
                RuntimeWarning, stacklevel=2)


# ---------------------------------------------------------------------------
# One-call helpers
# ---------------------------------------------------------------------------
def optimize(model: Module | str = "resnet34", *, platform: str = "cpu",
             strategy: str = "greedy", budget: int = 60, trials: int = 4,
             seed: int = 0, fisher_threshold: float = 1.0,
             width: float = 0.25, image_size: int = 16, fisher_batch: int = 4,
             cache_dir: str | Path | None = None,
             observer: Observer | None = None,
             checkpoint: str | Path | None = None,
             checkpoint_interval: float = 0.0) -> OptimizationResult:
    """One-call façade over the unified search (the README example).

    Builds a session for the call, runs the search, and guarantees the
    engine teardown (cache write-back, pool shutdown) before returning.
    With ``checkpoint=``, the search persists its resume point after
    every tuning batch, so a killed run continues bit-identically with
    :func:`resume_checkpoint`.

    Example::

        result = repro.optimize("resnet34", platform="cpu",
                                strategy="model_guided", budget=60)
        print(f"{result.speedup:.2f}x")
    """
    with OptimizationSession(platform, tuner_trials=trials, seed=seed,
                             cache_dir=cache_dir, observer=observer) as session:
        return session.optimize(model, strategy=strategy, budget=budget,
                                fisher_threshold=fisher_threshold,
                                width_multiplier=width, image_size=image_size,
                                fisher_batch=fisher_batch,
                                checkpoint=checkpoint,
                                checkpoint_interval=checkpoint_interval)


def resume_checkpoint(path: str | Path, *,
                      cache_dir: str | Path | None = None,
                      observer: Observer | None = None,
                      checkpoint: str | Path | None = None) -> OptimizationResult:
    """Continue a killed search from its checkpoint, bit-identically.

    Reads the checkpoint's request document and paid-for tuning entries,
    warms a fresh engine with them, and re-runs the request: every search
    strategy is a deterministic function of its seed given the engine's
    memoised oracles, so the replayed prefix hits the warm cache (no
    tuner work) and the run continues past the kill point exactly as the
    uninterrupted run would have.  Resuming a checkpoint of a *finished*
    search replays to the identical result almost instantly, so resume is
    safe to retry.  The resumed run keeps checkpointing to the same file
    (or to ``checkpoint=`` when given).

    Example::

        result = repro.resume_checkpoint("run.ckpt.json")
        print(f"{result.speedup:.2f}x")
    """
    from repro.core.checkpoint import read_checkpoint

    parsed = read_checkpoint(path)
    request = OptimizationRequest.from_dict(parsed.request_document)
    with OptimizationSession(request.platform,
                             tuner_trials=request.tuner_trials,
                             seed=request.seed, cache_dir=cache_dir,
                             observer=observer) as session:
        engine = session.engine(request.platform,
                                tuner_trials=request.tuner_trials,
                                seed=request.seed)
        engine.absorb_entries(parsed.entries)
        return session.optimize(
            request=request,
            checkpoint=Path(path) if checkpoint is None else checkpoint)


def tune(shape: ConvolutionShape | Sequence[int],
         program: TransformProgram | str = "standard", *, platform: str = "cpu",
         trials: int = 8, seed: int = 0,
         cache_dir: str | Path | None = None) -> TuningResult:
    """One-call façade over the auto-tuner for a single convolution.

    Example::

        tuned = repro.tune((64, 64, 16, 16, 3, 3), "seq1", platform="mgpu")
    """
    with OptimizationSession(platform, tuner_trials=trials, seed=seed,
                             cache_dir=cache_dir) as session:
        return session.tune(shape, program)


def list_platforms() -> dict[str, PlatformSpec]:
    """The deployment targets the library models, keyed by CLI name.

    Example::

        for name, spec in repro.list_platforms().items():
            print(name, spec.peak_gflops)
    """
    return dict(PLATFORMS)


def list_sequences() -> tuple[str, ...]:
    """Named transformation-sequence kinds accepted wherever programs go.

    Example::

        assert "seq1" in repro.list_sequences()
    """
    return tuple(SEQUENCE_KINDS)
