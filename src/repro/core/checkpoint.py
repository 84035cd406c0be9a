"""Search checkpoints: kill a run anywhere, resume it bit-identically.

A multi-hour search must survive the process dying — OOM killer, preempted
node, operator Ctrl-C — without losing the tuning work it already paid
for.  The design follows the cheap-checkpoint + idempotent re-execution
shape (Zeng et al., *Lightweight Soft Error Resilience for In-Order
Cores*): instead of serialising any strategy's in-flight control state
(RNG streams, frontiers, predictor weights), a checkpoint records the
**request document** (:class:`repro.api.OptimizationRequest` as JSON)
and the absolute path of the **store**
(:class:`~repro.core.cache_store.CacheStore`) the search appends to.

The store holds the paid-for work: :class:`CheckpointWriter` flushes the
engine's new latency entries and Fisher rows into it after every tuning
batch and on abort, and a store append dedupes by digest and survives a
torn tail, so it is safe to repeat.  The checkpoint file is a few
hundred bytes of JSON, written scratch-then-``os.replace`` when the
search starts and when it completes.  Every strategy is deterministic
given the engine's oracles, so *resuming* re-runs the request over the
named store: the replayed prefix hits the warm cache (no Fisher profile,
no tuner work) and continues past the kill point exactly as the
uninterrupted run would have; resuming a finished search replays it.  A
store that lost a flush costs the resume re-tuning, never correctness.

The reader is strict: an unknown field or a value of the wrong type
raises :class:`~repro.errors.CheckpointError` naming it.  A
``repro.search-checkpoint/1`` file (0.14 and earlier) carried the
entries itself; it still resumes, its entries appended once to the
resumed run's store.

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
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.core.cache_store import CacheStore, LatencyKey, entry_from_document
from repro.errors import CacheStoreError, CheckpointError, DegradedExecutionWarning

#: Schema tag of the checkpoint file format.
CHECKPOINT_SCHEMA = "repro.search-checkpoint/2"
#: The format up to 0.14, which carried the paid-for entries in the file.
LEGACY_CHECKPOINT_SCHEMA = "repro.search-checkpoint/1"

#: The fields each schema may hold besides ``schema``.
_FIELDS = {CHECKPOINT_SCHEMA: ("request", "store", "completed"),
           LEGACY_CHECKPOINT_SCHEMA: ("request", "completed", "progress", "entries")}


def checkpoint_store(path: str | Path) -> Path:
    """The store a checkpointed run appends to when it was given none.

    Example::

        checkpoint_store("run.ckpt.json")   # .../run.ckpt.json.store
    """
    target = Path(path).expanduser().absolute()
    return target.with_name(target.name + ".store")


@dataclass(frozen=True)
class SearchCheckpoint:
    """One parsed checkpoint: the request plus the store it appends to.

    ``request_document`` is the originating
    :class:`~repro.api.OptimizationRequest` as a plain dict (this module
    stays below the façade); ``store`` is the absolute directory of the
    search's cache store, ``None`` only for a ``/1`` checkpoint (see
    :func:`append_legacy_entries`); ``completed`` marks a checkpoint
    written after the search finished.

    Example::

        checkpoint = read_checkpoint("run.ckpt.json")
        print(checkpoint.store, checkpoint.completed)
    """

    request_document: dict
    store: str | None
    completed: bool = False

    def to_dict(self) -> dict:
        return {"schema": CHECKPOINT_SCHEMA, "request": dict(self.request_document),
                "store": self.store, "completed": bool(self.completed)}

    @classmethod
    def from_dict(cls, document: Mapping, *,
                  source: str = "<memory>") -> "SearchCheckpoint":
        if not isinstance(document, Mapping):
            raise CheckpointError(
                f"checkpoint {source} does not hold a JSON object")
        schema = document.get("schema")
        if not isinstance(schema, str) or schema not in _FIELDS:
            raise CheckpointError(
                f"checkpoint {source} has schema {schema!r}; this build "
                f"reads '{CHECKPOINT_SCHEMA}' and "
                f"'{LEGACY_CHECKPOINT_SCHEMA}' — it was written by an "
                f"incompatible build or is not a checkpoint at all")
        unknown = sorted(set(document) - {"schema", *_FIELDS[schema]})
        if unknown:
            raise CheckpointError(
                f"checkpoint {source} has unknown field(s) {unknown}; "
                f"a '{schema}' checkpoint holds only {list(_FIELDS[schema])}")
        request = document.get("request")
        if not isinstance(request, Mapping):
            raise CheckpointError(
                f"checkpoint {source} is missing its request document; "
                f"it cannot name the search to resume")
        completed = document.get("completed", False)
        if not isinstance(completed, bool):
            raise CheckpointError(
                f"checkpoint {source} field 'completed' must be true or "
                f"false, not {completed!r}")
        if schema == LEGACY_CHECKPOINT_SCHEMA:
            _legacy_entries(document, source)  # refuse a corrupt file now
            return cls(dict(request), None, completed)
        store = document.get("store")
        if not isinstance(store, str):
            raise CheckpointError(
                f"checkpoint {source} field 'store' must be the store "
                f"directory as a string, not {store!r}")
        return cls(dict(request), store, completed)


def _legacy_entries(document: Mapping, source: str) -> dict[LatencyKey, float]:
    """The latency entries of a ``/1`` document, validated."""
    if not isinstance(document.get("progress", {}), Mapping):
        raise CheckpointError(
            f"checkpoint {source} field 'progress' must be an object, "
            f"not {type(document['progress']).__name__}")
    listed = document.get("entries", [])
    if not isinstance(listed, list):
        raise CheckpointError(
            f"checkpoint {source} field 'entries' must be a list, "
            f"not {type(listed).__name__}")
    entries: dict[LatencyKey, float] = {}
    for index, entry in enumerate(listed):
        try:
            key, value = entry_from_document(entry)
        except CacheStoreError as exc:
            raise CheckpointError(
                f"checkpoint {source} entry #{index} is unreadable "
                f"({exc}); the file is corrupt — fall back to an older "
                f"checkpoint or restart the search") from exc
        entries[key] = value
    return entries


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


def _load_document(path: str | Path) -> tuple[object, str]:
    source = Path(path).expanduser()
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return json.load(handle), str(source)
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


def read_checkpoint(path: str | Path) -> SearchCheckpoint:
    """Load and validate a checkpoint file.

    Raises :class:`~repro.errors.CheckpointError` naming the file and the
    defect for anything short of a well-formed checkpoint.

    Example::

        checkpoint = read_checkpoint("run.ckpt.json")
    """
    document, source = _load_document(path)
    return SearchCheckpoint.from_dict(document, source=source)


def append_legacy_entries(path: str | Path, store: CacheStore) -> int:
    """Append a ``/1`` checkpoint's latency entries to ``store``.

    Returns the records appended.  A store that cannot take them is
    reported with a :class:`~repro.errors.DegradedExecutionWarning`: the
    resumed run then re-tunes what the entries held.

    Example::

        append_legacy_entries("old.ckpt.json", CacheStore("old.ckpt.json.store"))
    """
    document, source = _load_document(path)
    try:
        return store.append(_legacy_entries(document, source))
    except (CacheStoreError, OSError) as exc:
        warnings.warn(DegradedExecutionWarning(
            f"the entries of checkpoint {source} could not be appended to "
            f"the store {store.directory}; the resumed run re-tunes them "
            f"({exc})", component="cache_store", reason=str(exc)),
            stacklevel=2)
        return 0


class CheckpointWriter:
    """An engine observer that keeps a search's resume point durable.

    Every ``tune_batch`` event (the moment new paid-for work exists)
    flushes the engine's store with
    :meth:`~repro.core.engine.EvaluationEngine.save_cache`, which appends
    only what is new.  :meth:`write` writes the checkpoint document and
    emits ``checkpoint_saved``; the façade calls it when the search
    starts and, with ``completed=True``, when it completes.  The engine
    must have a store: it is where the checkpoint's work lives.

    Example::

        writer = CheckpointWriter("run.ckpt.json", request.to_dict(), engine)
        engine.subscribe(writer.on_event)
    """

    def __init__(self, path: str | Path, request_document: dict, engine):
        self.path = Path(path).expanduser()
        if engine.cache_store is None:
            raise CheckpointError(
                f"checkpoint {self.path} needs a cache store to hold the "
                f"search's work: give the session a cache_dir "
                f"(repro.optimize and 'repro optimize' default it to "
                f"<checkpoint>.store/)")
        self.request_document = dict(request_document)
        self.engine = engine

    def on_event(self, event) -> None:
        """The :class:`~repro.core.events.Observer` hook."""
        if event.kind == "tune_batch":
            self.engine.save_cache()

    def write(self, *, completed: bool = False) -> Path:
        """Persist the checkpoint document; returns the checkpoint path."""
        store = str(self.engine.cache_store.directory.absolute())
        target = write_checkpoint(self.path, SearchCheckpoint(
            self.request_document, store, completed))
        self.engine.emit("checkpoint_saved", path=str(target), store=store,
                         completed=completed)
        return target
