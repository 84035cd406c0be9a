"""Deterministic fault injection: every recovery path is a tested path.

The fault-tolerance layer (supervised ``tune_many`` execution, pool
healing, checkpoint/resume, torn-tail cache recovery, compile-trie
degradation) is only trustworthy if its failure branches run under test
rather than waiting for production to exercise them.  This module is the
one switchboard: a seeded registry of *fault sites* that library code
consults at its injection points, off by default and free when off (one
``is not None`` check per site).

Faults are configured two ways:

* **Environment** — ``REPRO_FAULTS=worker_crash:0.1,tune_timeout:0.05``
  (plus ``REPRO_FAULTS_SEED=<int>`` and ``REPRO_FAULTS_HANG=<seconds>``)
  turns faults on for a whole process tree; worker processes inherit the
  variables, so process-pool tasks fault too.  This is what the CI
  ``fault-injection`` job sets.
* **Programmatic** — :func:`install` / :func:`inject` take a
  :class:`FaultPlan` and override the environment; :func:`suppressed`
  disables everything for a golden (fault-free) reference run inside a
  faulty process.

Determinism: every draw is ``sha1(seed, site, counter)`` mapped to
``[0, 1)`` — no global RNG is consumed, so injecting faults never
perturbs a search's random streams, and a fixed seed replays the same
fault schedule for the same sequence of site visits.

Fault kinds (the registry ignores unknown names so configurations can
span builds):

``worker_crash``
    the tuning task raises :class:`InjectedFault` — exercises bounded
    retry with backoff;
``worker_exit``
    a process-pool worker dies with ``os._exit`` (``BrokenProcessPool``)
    — exercises pool healing; degrades to ``worker_crash`` outside a
    pool worker so it can never kill the main process;
``tune_timeout``
    the tuning task sleeps ``hang_seconds`` — exercises the per-task
    timeout and pool recycling;
``cache_torn_tail``
    a just-appended cache-store shard loses its last few bytes, as a
    crashed writer would leave it — exercises torn-tail healing;
``cache_poison``
    a shard's header magic is flipped — exercises the engine's
    quarantine-and-degrade path (``CacheStoreError`` → warning, not
    abort);
``cache_enospc``
    a cache-store append raises ``OSError(ENOSPC)`` — exercises the
    engine's quarantine path for a store it cannot write;
``compile_poison``
    the compile trie's lookup raises :class:`InjectedFault` —
    exercises the disable-the-trie degradation.

Example::

    from repro.core import faults

    with faults.inject(worker_crash=0.5, seed=7):
        engine.tune_many(items)          # retries heal every crash
    assert faults.statistics()["worker_crash"] > 0
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import ReproError

#: Environment variables the registry reads when no plan was installed.
FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"
FAULTS_HANG_ENV = "REPRO_FAULTS_HANG"

#: Fault kinds the library's injection sites understand.
FAULT_KINDS = (
    "worker_crash", "worker_exit", "tune_timeout",
    "cache_torn_tail", "cache_poison", "cache_enospc", "compile_poison",
)


class InjectedFault(RuntimeError):
    """The synthetic failure an injected ``worker_crash`` raises.

    Deliberately *not* a :class:`~repro.errors.ReproError`: it stands in
    for an arbitrary unexpected worker failure, which is exactly what the
    supervision layer must survive.  Picklable (message-only), so process
    pools can return it as a task exception.

    Example::

        raise InjectedFault("injected worker_crash at site 'tune'")
    """


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of fault rates per kind.

    ``rates`` maps fault kinds (:data:`FAULT_KINDS`) to firing
    probabilities in ``[0, 1]``; kinds absent from the map never fire.
    ``hang_seconds`` bounds how long an injected ``tune_timeout`` sleeps,
    so a faulty run is slower, never wedged.

    Example::

        plan = FaultPlan(rates={"worker_crash": 0.1}, seed=3)
    """

    rates: dict[str, float] = field(default_factory=dict)
    seed: int = 0
    hang_seconds: float = 0.05

    def __post_init__(self) -> None:
        for kind, rate in self.rates.items():
            if not 0.0 <= float(rate) <= 1.0:
                raise ReproError(
                    f"fault rate for '{kind}' must be in [0, 1], got {rate}")

    @classmethod
    def from_text(cls, text: str, *, seed: int = 0,
                  hang_seconds: float = 0.05) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` syntax ``kind:rate,kind:rate``.

        Example::

            plan = FaultPlan.from_text("worker_crash:0.1,tune_timeout:0.05")
        """
        rates: dict[str, float] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            kind, _, rate_text = part.partition(":")
            kind = kind.strip()
            try:
                rate = float(rate_text) if rate_text else 1.0
            except ValueError:
                raise ReproError(
                    f"cannot parse fault spec '{part}' in {FAULTS_ENV}; "
                    f"expected kind:rate like worker_crash:0.1") from None
            rates[kind] = rate
        return cls(rates=rates, seed=seed, hang_seconds=hang_seconds)

    @property
    def active(self) -> bool:
        return any(rate > 0 for rate in self.rates.values())


def _plan_from_env() -> FaultPlan | None:
    text = os.environ.get(FAULTS_ENV)
    if not text:
        return None
    try:
        seed = int(os.environ.get(FAULTS_SEED_ENV, "0"))
    except ValueError:
        raise ReproError(f"{FAULTS_SEED_ENV} must be an integer") from None
    try:
        hang = float(os.environ.get(FAULTS_HANG_ENV, "0.05"))
    except ValueError:
        raise ReproError(f"{FAULTS_HANG_ENV} must be a number") from None
    return FaultPlan.from_text(text, seed=seed, hang_seconds=hang)


class FaultRegistry:
    """Per-process fault state: the active plan, draw counters, statistics.

    A programmatically installed plan wins over the environment; an
    installed *empty* plan (or :func:`suppressed`) disables even
    environment faults.  Draw counters advance per ``(kind, site)``
    visit, so the schedule is a pure function of the plan seed and the
    visit sequence.

    Example::

        FAULTS.install(FaultPlan(rates={"cache_enospc": 1.0}))
        try:
            engine.save_cache()
        finally:
            FAULTS.install(None)
    """

    def __init__(self) -> None:
        self._installed: FaultPlan | None = None
        self._overridden = False
        self._counters: Counter = Counter()
        self.injected: Counter = Counter()

    # -- configuration --------------------------------------------------
    def install(self, plan: FaultPlan | None) -> None:
        """Install ``plan`` (overriding the environment); ``None`` reverts
        to the environment configuration and resets the counters."""
        self._installed = plan
        self._overridden = plan is not None
        self._counters.clear()

    def plan(self) -> FaultPlan | None:
        """The active plan: the installed one, else the environment's."""
        if self._overridden:
            return self._installed
        return _plan_from_env()

    @property
    def active(self) -> bool:
        plan = self.plan()
        return plan is not None and plan.active

    def statistics(self) -> dict[str, int]:
        """Faults actually injected so far in this process, by kind."""
        return dict(self.injected)

    # -- the deterministic draw -----------------------------------------
    def _should_fire(self, plan: FaultPlan, kind: str, site: str) -> bool:
        rate = plan.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        count = self._counters[(kind, site)]
        self._counters[(kind, site)] = count + 1
        digest = hashlib.sha1(
            f"{plan.seed}/{kind}/{site}/{count}".encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        if draw < rate:
            self.injected[kind] += 1
            return True
        return False

    # -- injection sites ------------------------------------------------
    def on_task(self, site: str) -> None:
        """The tuning-task hook: may hang, crash, or kill its worker."""
        plan = self.plan()
        if plan is None:
            return
        if self._should_fire(plan, "tune_timeout", site):
            time.sleep(plan.hang_seconds)
        if self._should_fire(plan, "worker_exit", site):
            if multiprocessing.current_process().name != "MainProcess":
                os._exit(13)  # a pool worker dying mid-task
            raise InjectedFault(
                f"injected worker_exit at site '{site}' (not in a pool "
                f"worker; degraded to a task crash)")
        if self._should_fire(plan, "worker_crash", site):
            raise InjectedFault(f"injected worker_crash at site '{site}'")

    def on_compile_lookup(self, site: str = "compile_cache") -> None:
        """The compile-trie hook: a poisoned entry is an internal error."""
        plan = self.plan()
        if plan is not None and self._should_fire(plan, "compile_poison", site):
            raise InjectedFault(f"injected compile_poison at site '{site}'")

    def on_cache_write(self, site: str) -> None:
        """The cache-write hook: a full disk raises before bytes land."""
        plan = self.plan()
        if plan is not None and self._should_fire(plan, "cache_enospc", site):
            import errno

            raise OSError(errno.ENOSPC,
                          f"injected cache_enospc at site '{site}'")

    def on_shard_appended(self, path) -> None:
        """The post-append hook: tear or poison the shard on disk.

        ``cache_torn_tail`` truncates the last few bytes (what a writer
        killed mid-``write`` leaves behind); ``cache_poison`` flips a
        header byte, making the shard positively unreadable (the
        quarantine path) rather than merely torn.
        """
        plan = self.plan()
        if plan is None:
            return
        if self._should_fire(plan, "cache_torn_tail", str(path)):
            try:
                size = os.path.getsize(path)
                if size > 16:
                    os.truncate(path, size - 7)
            except OSError:
                pass
        if self._should_fire(plan, "cache_poison", str(path)):
            try:
                with open(path, "r+b") as handle:
                    first = handle.read(1)
                    if first:
                        handle.seek(0)
                        handle.write(bytes([first[0] ^ 0xFF]))
            except OSError:
                pass


#: The process-wide registry every injection site consults.
FAULTS = FaultRegistry()


def install(plan: FaultPlan | None) -> None:
    """Install a fault plan process-wide (``None`` reverts to the env).

    Example::

        install(FaultPlan(rates={"worker_crash": 0.2}, seed=1))
    """
    FAULTS.install(plan)


def active_plan() -> FaultPlan | None:
    """The plan currently governing injection (installed, else env).

    Example::

        plan = active_plan()
        rates = plan.rates if plan else {}
    """
    return FAULTS.plan()


def statistics() -> dict[str, int]:
    """Faults injected so far in this process, by kind.

    Example::

        assert statistics().get("worker_crash", 0) > 0
    """
    return FAULTS.statistics()


@contextlib.contextmanager
def inject(*, seed: int = 0, hang_seconds: float = 0.05, **rates: float):
    """Install a plan for the duration of a ``with`` block.

    Example::

        with inject(worker_crash=0.5, seed=7):
            engine.tune_many(items)
    """
    previous, was_overridden = FAULTS._installed, FAULTS._overridden
    FAULTS.install(FaultPlan(rates=dict(rates), seed=seed,
                             hang_seconds=hang_seconds))
    try:
        yield FAULTS
    finally:
        FAULTS._installed, FAULTS._overridden = previous, was_overridden
        FAULTS._counters.clear()


@contextlib.contextmanager
def suppressed():
    """Disable every fault (even env-configured ones) inside the block.

    This is how golden reference runs stay fault-free inside a process
    whose environment injects faults.

    Example::

        with suppressed():
            golden = repro.optimize("resnet18", configurations=8)
    """
    previous, was_overridden = FAULTS._installed, FAULTS._overridden
    FAULTS.install(FaultPlan(rates={}))
    try:
        yield
    finally:
        FAULTS._installed, FAULTS._overridden = previous, was_overridden
