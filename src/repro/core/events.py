"""Progress events: how long-running work streams its state to observers.

The façade API (``repro.optimize``, :class:`repro.api.OptimizationSession`)
accepts an *observer* — any callable taking one :class:`ProgressEvent` —
and threads it through the unified search and the engine's batch tuner, so
a long run can drive a progress bar, a log line per generation, or a
dashboard without the library growing UI code.  Emitters publish through
:class:`Observable`; when nobody subscribed, emitting is a no-op and the
hot paths pay nothing beyond one attribute check.

Event kinds emitted by the library (the ``data`` keys are part of the
public surface and covered by ``tests/test_api.py``):

``search_started``
    ``platform``, ``strategy``, ``configurations``, ``layers``
``baseline_tuned``
    ``baseline_latency_seconds``
``generation``
    ``assignments`` (configurations submitted as one batch)
``tune_batch``
    ``requested``, ``hits``, ``tuned`` (unique misses), ``seconds``
``predictor_fitted``
    ``observations``, ``mae`` — the ``model_guided`` strategy refit its
    surrogate on the tunings observed so far
``search_finished``
    ``baseline_latency_seconds``, ``optimized_latency_seconds``,
    ``speedup``, ``configurations_evaluated``, ``search_seconds``
``task_failed``
    ``error``, ``failures``, ``will_retry`` — one tuning task attempt
    failed (or timed out) under the engine's supervision policy; when
    ``will_retry`` is false the batch is about to abort
``pool_recovered``
    ``parallel``, ``recoveries``, ``requeued`` — a broken or stuck
    executor pool was torn down and rebuilt; the ``requeued`` unfinished
    tasks re-run on the fresh pool without an attempt charge
``degraded``
    ``component``, ``reason`` — a subsystem (cache store, compile trie)
    failed and execution downgraded to slower-but-correct; mirrors the
    :class:`~repro.errors.DegradedExecutionWarning` raised at the same
    moment
``checkpoint_saved``
    ``path``, ``store``, ``completed`` — the search's resume point (its
    request and the store its work is appended to) was atomically
    written, when the search started or completed (see
    :mod:`repro.core.checkpoint`)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

#: An observer is any callable accepting one event (return value ignored).
Observer = Callable[["ProgressEvent"], None]


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification from a long-running operation.

    ``data`` holds only JSON-serialisable values, so events can be logged
    or shipped over a wire as they are.

    Example::

        def observer(event: ProgressEvent) -> None:
            log.info("%s %s", event.kind, event.to_dict()["data"])
    """

    kind: str
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "data": dict(self.data)}


class Observable:
    """A minimal publish/subscribe mixin for progress events.

    Thread-safe: the optimisation service emits from many concurrently
    running jobs, so observer-list mutation is serialised under a lock
    and :meth:`emit` delivers to an immutable snapshot — an observer
    (un)subscribed mid-emit takes effect from the next event.  Observers
    themselves run on the emitting thread, unlocked, so a slow observer
    never blocks subscription changes from other threads.

    Example::

        engine.subscribe(lambda event: print(event.kind, event.data))
        engine.tune_many(items)   # observers see one tune_batch event
    """

    def __init__(self) -> None:
        # The tuple is replaced wholesale under the lock, never mutated,
        # so emit can read it without taking the lock.
        self._observers: tuple[Observer, ...] = ()
        self._observers_lock = threading.Lock()

    def subscribe(self, observer: Observer) -> None:
        """Register ``observer`` to receive every event this object emits."""
        with self._observers_lock:
            self._observers = self._observers + (observer,)

    def unsubscribe(self, observer: Observer) -> None:
        """Remove one registration of ``observer`` (no-op when absent)."""
        with self._observers_lock:
            observers = list(self._observers)
            try:
                observers.remove(observer)
            except ValueError:
                return
            self._observers = tuple(observers)

    def emit(self, kind: str, **data) -> None:
        """Deliver ``ProgressEvent(kind, data)`` to every observer."""
        observers = self._observers
        if not observers:
            return
        event = ProgressEvent(kind=kind, data=data)
        for observer in observers:
            observer(event)
