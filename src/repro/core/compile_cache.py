"""Incremental compilation: a prefix-memoised compile trie.

Search generations produce near-duplicate programs by construction —
mutation and crossover change one step, ``model_guided`` rounds re-propose
siblings — yet every candidate used to recompile its whole step list from
scratch.  This module memoises intermediate compile state per
``(shape, step-prefix)``, so compiling a candidate replays only the suffix
that differs from a previously compiled sibling, and a repeated compile of
the same program (legality pre-screen, tuning, the encoding's MAC feature,
fig5's IR accounting) is a snapshot clone.

**Key schema.**  Each :class:`~repro.core.program.PrimitiveApplication`
has a stable content hash (primitive name, canonicalised params, nest
selector, optional flag).  A program's prefix of length ``d`` is keyed by
the chained digest ``h_d = sha1(h_{d-1} + step_d.content_hash())`` with
``h_0`` a fixed root, and the trie entry key is ``(shape, d, h_d)``.
Program *names* are deliberately not part of the key: two differently
labelled programs with equal steps are the same program (they already
share engine cache entries), so they share compile state too.  Snapshots
are built under a canonical internal name and the caller's name is
restored on the returned stages, keeping the output bit-identical to an
uncached compile.

**Copy-on-write.**  Prefix sharing must never alias mutable state: an
entry is stored as clones of the live stages (clone-on-write) and served
as clones of the stored stages (clone-on-read).  :meth:`Stage.clone` is
cheap — statements and annotation values are immutable and shared, only
the containers are copied — so both directions cost far less than one
primitive application.

**Invalidation.**  Entries depend only on step content and the primitive
implementations, which are fixed for the lifetime of a process; the one
event that could change compile semantics — registering a primitive —
clears the cache (see :func:`~repro.core.program.register_primitive`).
:func:`invalidate` is also exposed directly for tests and tools.

**Bounding.**  The trie is LRU-bounded (:data:`DEFAULT_MAX_ENTRIES`,
overridable via ``REPRO_COMPILE_CACHE_ENTRIES`` or :func:`configure`).

**Concurrency.**  The store is guarded by a lock; replay happens outside
it.  Two threads replaying the same suffix both produce the identical
(content-determined) state, so last-writer-wins is safe.  Worker
*processes* keep their own module-level trie: the engine's executor pools
are persistent (DESIGN.md §8), so worker caches warm up on the first
generation and stay warm for the rest of the search.
"""

from __future__ import annotations

import hashlib
import os
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.core.faults import FAULTS
from repro.errors import DegradedExecutionWarning, ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.program import PrimitiveApplication, TransformProgram
    from repro.poly.statement import ConvolutionShape
    from repro.tenir.schedule import Stage

#: Name compile state is built under; the caller's program name is
#: restored on the stages returned from the cache, never stored in it.
CANONICAL_NAME = "program"

#: Digest of the empty prefix (the freshly built :class:`ProgramState`).
ROOT_DIGEST = hashlib.sha1(b"repro-compile-root").hexdigest()

#: Default LRU bound on trie entries (one entry = one stage-list snapshot).
DEFAULT_MAX_ENTRIES = 8192


@dataclass
class CompileCacheStatistics:
    """Counters for the compile trie (process-local)."""

    #: compiles served entirely from a full-program snapshot
    compile_hits: int = 0
    #: compiles that had to replay at least one step (or build the root)
    compile_misses: int = 0
    #: misses that resumed from a cached proper prefix (subset of misses)
    prefix_hits: int = 0
    #: total steps *not* re-applied thanks to cached prefixes
    prefix_depth_saved: int = 0
    #: total steps actually applied by the replay loop
    steps_replayed: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def compiles(self) -> int:
        return self.compile_hits + self.compile_misses

    @property
    def hit_rate(self) -> float:
        total = self.compiles
        return self.compile_hits / total if total else 0.0

    def snapshot(self) -> "CompileCacheStatistics":
        return replace(self)

    def delta(self, baseline: "CompileCacheStatistics") -> "CompileCacheStatistics":
        """Counter increments since ``baseline`` was snapshotted."""
        return CompileCacheStatistics(
            compile_hits=self.compile_hits - baseline.compile_hits,
            compile_misses=self.compile_misses - baseline.compile_misses,
            prefix_hits=self.prefix_hits - baseline.prefix_hits,
            prefix_depth_saved=self.prefix_depth_saved - baseline.prefix_depth_saved,
            steps_replayed=self.steps_replayed - baseline.steps_replayed,
            evictions=self.evictions - baseline.evictions,
            invalidations=self.invalidations - baseline.invalidations,
        )


class CompileCache:
    """The LRU-bounded, thread-safe prefix trie of compile snapshots."""

    def __init__(self, max_entries: int | None = None):
        if max_entries is None:
            max_entries = int(os.environ.get("REPRO_COMPILE_CACHE_ENTRIES",
                                             DEFAULT_MAX_ENTRIES))
        if max_entries < 1:
            raise ValueError("the compile cache needs room for at least one entry")
        self.max_entries = max_entries
        self.enabled = True
        self.statistics = CompileCacheStatistics()
        self._entries: OrderedDict[tuple, list["Stage"]] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Store access (all under the lock; snapshots cross the boundary as
    # clones in both directions so no mutable state is ever shared)
    # ------------------------------------------------------------------
    def longest_prefix(self, shape: "ConvolutionShape",
                       digests: tuple[str, ...]) -> tuple[int, list["Stage"] | None]:
        """Deepest cached prefix of ``digests`` on ``shape``.

        Returns ``(depth, stages)`` where ``stages`` are private clones
        (clone-on-read), or ``(-1, None)`` when not even the root state is
        cached.  Depth ``0`` is the freshly initialised program state.
        """
        with self._lock:
            for depth in range(len(digests), -1, -1):
                digest = digests[depth - 1] if depth else ROOT_DIGEST
                entry = self._entries.get((shape, depth, digest))
                if entry is not None:
                    self._entries.move_to_end((shape, depth, digest))
                    return depth, [stage.clone() for stage in entry]
        return -1, None

    def store(self, shape: "ConvolutionShape", depth: int, digest: str,
              stages: list["Stage"]) -> None:
        """Insert a snapshot (clone-on-write) and enforce the LRU bound."""
        snapshot = [stage.clone() for stage in stages]
        with self._lock:
            key = (shape, depth, digest)
            self._entries[key] = snapshot
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.statistics.evictions += 1

    def clear(self) -> None:
        """Drop every snapshot (the invalidation rule's hammer)."""
        with self._lock:
            self._entries.clear()
            self.statistics.invalidations += 1

    def info(self) -> dict:
        """JSON-ready description of the trie (size, bound, counters)."""
        stats = self.statistics
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "enabled": self.enabled,
            "compile_hits": stats.compile_hits,
            "compile_misses": stats.compile_misses,
            "prefix_hits": stats.prefix_hits,
            "prefix_depth_saved": stats.prefix_depth_saved,
            "steps_replayed": stats.steps_replayed,
            "evictions": stats.evictions,
            "invalidations": stats.invalidations,
        }


#: The process-wide trie every ``TransformProgram.compile`` goes through.
COMPILE_CACHE = CompileCache()


def configure(*, max_entries: int | None = None,
              enabled: bool | None = None) -> CompileCache:
    """Adjust the process-wide trie; shrinking the bound evicts eagerly."""
    if max_entries is not None:
        if max_entries < 1:
            raise ValueError("the compile cache needs room for at least one entry")
        with COMPILE_CACHE._lock:
            COMPILE_CACHE.max_entries = max_entries
            while len(COMPILE_CACHE._entries) > max_entries:
                COMPILE_CACHE._entries.popitem(last=False)
                COMPILE_CACHE.statistics.evictions += 1
    if enabled is not None:
        COMPILE_CACHE.enabled = bool(enabled)
    return COMPILE_CACHE


def invalidate() -> None:
    """Explicitly drop every cached snapshot (and the digest memo)."""
    COMPILE_CACHE.clear()
    prefix_digests.cache_clear()


@lru_cache(maxsize=16384)
def prefix_digests(steps: tuple["PrimitiveApplication", ...]) -> tuple[str, ...]:
    """Chained content digests of every proper prefix of ``steps``.

    ``digests[i]`` identifies the program state after applying
    ``steps[:i + 1]`` to any shape (the shape joins the trie key
    separately).  Chaining from :data:`ROOT_DIGEST` makes a prefix's
    digest independent of what follows it, which is what lets siblings
    share entries.
    """
    digests = []
    parent = ROOT_DIGEST
    for app in steps:
        parent = hashlib.sha1(
            f"{parent}/{app.content_hash()}".encode("utf-8")).hexdigest()
        digests.append(parent)
    return tuple(digests)


def _restore_names(stages: list["Stage"], name: str) -> list["Stage"]:
    """Rewrite the canonical snapshot names to the caller's program name.

    Compile state is built under :data:`CANONICAL_NAME` so differently
    labelled programs share entries; the only name-bearing artefacts are
    the stages' ``computation.name`` (``program`` / ``program_part<i>``),
    restored here on the private clones before they leave the cache.
    """
    if name == CANONICAL_NAME:
        return stages
    for stage in stages:
        current = stage.computation.name
        if current == CANONICAL_NAME:
            stage.computation = replace(stage.computation, name=name)
        elif current.startswith(CANONICAL_NAME + "_part"):
            stage.computation = replace(
                stage.computation, name=name + current[len(CANONICAL_NAME):])
    return stages


def _disable_trie(exc: Exception) -> None:
    """Degrade: turn the trie off process-wide after an internal error.

    Compilation falls back to :meth:`TransformProgram.compile_uncached`
    (the golden-pinned reference path), so results are unchanged — only
    the prefix-sharing speedup is lost until :func:`configure` re-enables
    the cache.
    """
    COMPILE_CACHE.enabled = False
    COMPILE_CACHE.clear()
    warnings.warn(DegradedExecutionWarning(
        f"compile cache disabled after an internal error; compilation "
        f"continues uncached and slower ({exc})",
        component="compile_cache", reason=str(exc)), stacklevel=3)


def compile_program(program: "TransformProgram",
                    shape: "ConvolutionShape") -> list["Stage"]:
    """Compile ``program`` for ``shape`` through the prefix trie.

    Both paths apply steps through the one step function,
    :func:`~repro.core.program.apply_step`, so state evolution,
    optional-step backup/restore and error messages are those of
    :meth:`~repro.core.program.TransformProgram.compile_uncached`; the
    golden tests pin the equivalence.  The deepest cached prefix is
    cloned and only the remaining suffix is replayed, with every newly
    reached prefix stored for the next sibling.

    The trie is an accelerator, never a correctness dependency: an
    internal failure in the cached path (a poisoned snapshot, a broken
    clone) disables the trie with a
    :class:`~repro.errors.DegradedExecutionWarning` and recompiles
    uncached, while genuine compile errors (:class:`LegalityError` and
    friends) propagate unchanged.
    """
    if not COMPILE_CACHE.enabled:
        return program.compile_uncached(shape)
    try:
        return _compile_cached(program, shape)
    except ReproError:
        raise  # a real compile rejection, not a cache defect
    except Exception as exc:
        _disable_trie(exc)
        return program.compile_uncached(shape)


def _compile_cached(program: "TransformProgram",
                    shape: "ConvolutionShape") -> list["Stage"]:
    from repro.core.program import ProgramState, apply_step

    FAULTS.on_compile_lookup()
    steps = program.steps
    digests = prefix_digests(steps)
    stats = COMPILE_CACHE.statistics
    depth, stages = COMPILE_CACHE.longest_prefix(shape, digests)

    if depth == len(steps) and stages is not None:
        stats.compile_hits += 1
        stats.prefix_depth_saved += len(steps)
        return _restore_names(stages, program.name)

    stats.compile_misses += 1
    if stages is None:
        state = ProgramState(shape, name=CANONICAL_NAME)
        COMPILE_CACHE.store(shape, 0, ROOT_DIGEST, state.stages)
        depth = 0
    else:
        state = ProgramState.resume(shape, stages, name=CANONICAL_NAME)
        if depth > 0:
            stats.prefix_hits += 1
            stats.prefix_depth_saved += depth

    for index in range(depth, len(steps)):
        apply_step(state, steps[index], program.name)
        stats.steps_replayed += 1
        COMPILE_CACHE.store(shape, index + 1, digests[index], state.stages)

    return _restore_names(state.stages, program.name)
