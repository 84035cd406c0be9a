"""Search checkpoints: kill a run anywhere, resume it bit-identically.

A multi-hour search must survive the process dying — OOM killer, preempted
node, operator Ctrl-C — without losing the tuning work it already paid
for.  The design follows the cheap-checkpoint + idempotent re-execution
shape (Zeng et al., *Lightweight Soft Error Resilience for In-Order
Cores*): instead of serialising every strategy's in-flight control state
(RNG streams, frontiers, predictor weights — all of which would have to
stay in lock-step with the code forever), a checkpoint records the two
things that make a search a pure function:

* the **request document** (:class:`repro.api.OptimizationRequest` as
  JSON) — everything the run depends on, and
* the **engine's memoised latency entries** — every tuning the run has
  paid for so far, in the store's entry form
  (:func:`~repro.core.cache_store.entry_document`).

Every search strategy is deterministic given the engine's oracles, so
*resuming* is simply re-running the request over an engine warmed with
the checkpointed entries: the replayed prefix hits the cache (fast,
no tuner work) and continues past the kill point exactly as the
uninterrupted run would have — bit-identical results, golden-tested for
all six strategies.  A checkpoint of a *finished* search resumes to the
same result almost instantly, so resume is idempotent too.

Checkpoint files are JSON, written scratch-then-``os.replace`` so a
crash mid-write leaves the previous complete checkpoint in place, never
a torn file.  :class:`CheckpointWriter` subscribes to the engine's event
stream and persists after every tuning batch (rate-limited by
``interval_seconds``), emitting a ``checkpoint_saved`` event per write.

Example::

    result = repro.optimize("resnet18", configurations=12,
                            checkpoint="run.ckpt.json")
    # ... the process is SIGKILLed mid-search ...
    result = repro.resume_checkpoint("run.ckpt.json")   # same answer

See DESIGN.md §13 for the failure model and the checkpoint format.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.core.cache_store import LatencyKey, entry_document, entry_from_document
from repro.errors import CacheStoreError, CheckpointError

#: Schema tag of the checkpoint file format.
CHECKPOINT_SCHEMA = "repro.search-checkpoint/1"


@dataclass(frozen=True)
class SearchCheckpoint:
    """One parsed checkpoint: the request plus the paid-for tuning entries.

    ``request_document`` is the originating
    :class:`~repro.api.OptimizationRequest` as a plain dict (this module
    stays below the façade, so it never imports the typed request);
    ``entries`` are the engine latency-cache entries captured at write
    time; ``completed`` marks a checkpoint written after the search
    finished, and ``progress`` carries informational counters for humans
    and tools.

    Example::

        checkpoint = read_checkpoint("run.ckpt.json")
        print(len(checkpoint.entries), checkpoint.completed)
    """

    request_document: dict
    entries: dict[LatencyKey, float] = field(default_factory=dict)
    completed: bool = False
    progress: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": CHECKPOINT_SCHEMA,
            "request": dict(self.request_document),
            "completed": bool(self.completed),
            "progress": dict(self.progress),
            "entries": [entry_document(key, value)
                        for key, value in self.entries.items()],
        }

    @classmethod
    def from_dict(cls, document: Mapping, *,
                  source: str = "<memory>") -> "SearchCheckpoint":
        if not isinstance(document, Mapping):
            raise CheckpointError(
                f"checkpoint {source} does not hold a JSON object")
        schema = document.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint {source} has schema {schema!r}; this build "
                f"reads '{CHECKPOINT_SCHEMA}' — it was written by an "
                f"incompatible build or is not a checkpoint at all")
        request = document.get("request")
        if not isinstance(request, Mapping):
            raise CheckpointError(
                f"checkpoint {source} is missing its request document; "
                f"it cannot name the search to resume")
        entries: dict[LatencyKey, float] = {}
        for index, entry in enumerate(document.get("entries", ())):
            try:
                key, value = entry_from_document(entry)
            except CacheStoreError as exc:
                raise CheckpointError(
                    f"checkpoint {source} entry #{index} is unreadable "
                    f"({exc}); the file is corrupt — fall back to an older "
                    f"checkpoint or restart the search") from exc
            entries[key] = value
        return cls(request_document=dict(request), entries=entries,
                   completed=bool(document.get("completed", False)),
                   progress=dict(document.get("progress", {})))


def write_checkpoint(path: str | Path, checkpoint: SearchCheckpoint) -> Path:
    """Atomically persist ``checkpoint`` to ``path`` (scratch + rename).

    A crash at any instant leaves either the previous complete checkpoint
    or the new one — never a torn file.

    Example::

        write_checkpoint("run.ckpt.json", checkpoint)
    """
    target = Path(path).expanduser()
    scratch = target.with_name(target.name + f".tmp.{os.getpid()}")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(checkpoint.to_dict(), handle)
        os.replace(scratch, target)
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint to {target}: {exc} — check that the "
            f"directory is writable and has free space") from exc
    finally:
        try:
            scratch.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - unlink in an unwritable dir
            pass
    return target


def read_checkpoint(path: str | Path) -> SearchCheckpoint:
    """Load and validate a checkpoint file.

    Raises :class:`~repro.errors.CheckpointError` naming the file and the
    defect for anything short of a well-formed checkpoint.

    Example::

        checkpoint = read_checkpoint("run.ckpt.json")
    """
    source = Path(path).expanduser()
    try:
        with open(source, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise CheckpointError(
            f"checkpoint {source} does not exist; was the search started "
            f"with checkpoint= pointing somewhere else?") from None
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {source}: {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {source} is not valid JSON ({exc}); the file is "
            f"corrupt — fall back to an older checkpoint or restart "
            f"the search") from exc
    return SearchCheckpoint.from_dict(document, source=str(source))


class CheckpointWriter:
    """An engine observer that persists a checkpoint after tuning batches.

    Subscribes to the engine's event stream (``tune_batch`` marks the
    moment new paid-for work exists) and writes at most one checkpoint
    per ``interval_seconds``; :meth:`write` forces one unconditionally
    (the façade calls it with ``completed=True`` when the search
    finishes).  Each write emits a ``checkpoint_saved`` event through the
    engine, so progress observers can surface the resume point.

    Example::

        writer = CheckpointWriter("run.ckpt.json", request.to_dict(), engine)
        engine.subscribe(writer.on_event)
    """

    def __init__(self, path: str | Path, request_document: dict,
                 engine, interval_seconds: float = 0.0):
        self.path = Path(path).expanduser()
        self.request_document = dict(request_document)
        self.engine = engine
        self.interval_seconds = float(interval_seconds)
        self.writes = 0
        self._last_write: float | None = None

    def on_event(self, event) -> None:
        """The :class:`~repro.core.events.Observer` hook."""
        if event.kind == "tune_batch":
            now = time.monotonic()
            if (self._last_write is not None
                    and now - self._last_write < self.interval_seconds):
                return
            self.write()

    def write(self, *, completed: bool = False) -> Path:
        """Persist the current engine state; returns the checkpoint path."""
        statistics = self.engine.statistics
        checkpoint = SearchCheckpoint(
            request_document=self.request_document,
            entries=self.engine.cache_entries(),
            completed=completed,
            progress={
                "cache_entries": self.engine.cache_size,
                "tuner_calls": statistics.tuner_calls,
                "latency_queries": statistics.latency_queries,
            })
        target = write_checkpoint(self.path, checkpoint)
        self._last_write = time.monotonic()
        self.writes += 1
        self.engine.emit("checkpoint_saved", path=str(target),
                         entries=len(checkpoint.entries), completed=completed)
        return target
