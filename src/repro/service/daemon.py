"""The optimization daemon: a job queue over :mod:`repro.api`.

``repro serve`` runs one :class:`OptimizationService` per state
directory.  The daemon owns:

* **One shared** :class:`~repro.core.cache_store.CacheStore` (under
  ``<state_dir>/cache/``) that every worker's engines read and write.
  Cache entries are pure functions of their keys, so sharing warmth
  across jobs changes how *fast* a job finishes, never *what* it
  returns — a daemon job's result is bit-identical to a serial
  ``repro.optimize()`` with the same request.
* **A bounded worker pool** (``workers`` threads) draining a FIFO of
  ``queued`` job ids.
* **Durable progress**: every running job streams its
  :class:`~repro.core.events.ProgressEvent`\\ s to an append-only NDJSON
  log (``<state_dir>/events/<job>.ndjson``) that ``repro watch`` tails,
  and checkpoints through :class:`~repro.core.checkpoint.CheckpointWriter`
  to ``<state_dir>/checkpoints/<job>.ckpt.json``, a document naming the
  shared store that the job appends its work to after every tuning
  batch.  Kill the daemon — SIGKILL included — and the restarted daemon
  re-queues every ``running`` job and re-runs it over that store to the
  bit-identical result.

The wire protocol (JSON lines over local TCP; see
:mod:`repro.service.protocol`) answers ``submit``, ``status``,
``result``, ``cancel``, ``watch``, ``jobs`` and ``info``.
"""

from __future__ import annotations

import contextlib
import json
import queue
import socketserver
import threading
import time
from pathlib import Path

from repro import __version__
from repro.api import OptimizationRequest, OptimizationSession
from repro.core.cache_store import CacheStore
from repro.core.events import ProgressEvent
from repro.errors import ReproError, ServiceError
from repro.service import protocol
from repro.service.jobs import Job, JobStore

#: How long watchers sleep between polls of a job's event log.
WATCH_POLL_SECONDS = 0.05


class _JobAborted(BaseException):
    """Raised inside a job's observer to stop its search mid-flight.

    Derives from ``BaseException`` so no library ``except Exception``
    can swallow it; the façade's abort path still flushes the job's work
    into the store on the way out.  ``requeue`` distinguishes a graceful
    daemon stop (the job goes back to ``queued`` and resumes later)
    from an operator ``cancel`` (terminal).
    """

    def __init__(self, *, requeue: bool):
        super().__init__("job aborted")
        self.requeue = requeue


class OptimizationService:
    """The daemon behind ``repro serve``: queue, workers, event streams.

    Example::

        service = OptimizationService(state_dir, workers=2)
        service.start()
        try:
            service.serve_until_stopped()
        finally:
            service.stop()
    """

    def __init__(self, state_dir: str | Path, *, workers: int = 2,
                 host: str = protocol.DEFAULT_HOST, port: int = 0):
        if workers < 1:
            raise ServiceError("the service needs at least one worker")
        self.state_dir = Path(state_dir).expanduser()
        self.workers = int(workers)
        self.host = host
        self.port = int(port)
        self.jobs = JobStore(self.state_dir / "jobs")
        self.cache_store = CacheStore(self.state_dir / "cache")
        (self.state_dir / "events").mkdir(parents=True, exist_ok=True)
        (self.state_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
        self._queue: queue.Queue[str | None] = queue.Queue()
        self._cancelled: set[str] = set()
        self._cancel_lock = threading.Lock()
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []
        self._server: socketserver.ThreadingTCPServer | None = None
        self._started = False

    # -- paths ----------------------------------------------------------
    def events_path(self, job_id: str) -> Path:
        return self.state_dir / "events" / f"{job_id}.ndjson"

    def checkpoint_path(self, job_id: str) -> Path:
        return self.state_dir / "checkpoints" / f"{job_id}.ckpt.json"

    # -- lifecycle ------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Recover the queue, bind the socket, start workers; returns endpoint."""
        if self._started:
            raise ServiceError("the service is already running")
        recovered = self.jobs.recover()
        for job_id in recovered + self.jobs.pending():
            self._queue.put(job_id)
        service = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:  # pragma: no branch - thin dispatch
                service._handle_connection(self)

        server = socketserver.ThreadingTCPServer(
            (self.host, self.port), _Handler, bind_and_activate=False)
        server.allow_reuse_address = True
        server.daemon_threads = True
        try:
            server.server_bind()
            server.server_activate()
        except OSError as exc:
            server.server_close()
            raise ServiceError(
                f"cannot bind the service socket on {self.host}:{self.port}: "
                f"{exc}") from None
        self._server = server
        self.port = server.server_address[1]
        protocol.write_endpoint(self.state_dir, host=self.host, port=self.port)
        accept = threading.Thread(target=server.serve_forever,
                                  name="repro-service-accept", daemon=True)
        accept.start()
        self._threads.append(accept)
        for index in range(self.workers):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"repro-service-worker-{index}",
                                      daemon=True)
            worker.start()
            self._threads.append(worker)
        self._started = True
        return self.host, self.port

    def serve_until_stopped(self, poll_seconds: float = 0.2) -> None:
        """Block until :meth:`request_stop`/:meth:`stop` is called."""
        while not self._stopping.wait(poll_seconds):
            pass

    def request_stop(self) -> None:
        """Ask the daemon to shut down; safe to call from a signal handler.

        Only sets a flag — the actual teardown happens in :meth:`stop`,
        which ``repro serve`` runs once :meth:`serve_until_stopped`
        returns.
        """
        self._stopping.set()

    def stop(self) -> None:
        """Graceful shutdown: abort running jobs back to ``queued``.

        Running searches abort at their next progress event; the façade's
        abort path flushes their work into the store first, so a restarted
        daemon resumes them without losing paid-for tunings.  Idempotent.
        """
        self._stopping.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        for _ in range(self.workers):
            self._queue.put(None)
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=30.0)
        self._threads = []
        with contextlib.suppress(FileNotFoundError):
            protocol.endpoint_path(self.state_dir).unlink()
        self._started = False

    # -- the worker side ------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            try:
                job = self.jobs.get(job_id)
            except ServiceError:
                continue
            if job.state != "queued":
                continue
            if self._is_cancelled(job_id):
                self._finish(job, "cancelled")
                continue
            if self._stopping.is_set():
                self._queue.put(job_id)  # drained by nobody; stays queued
                return
            self._run_job(job)

    def _is_cancelled(self, job_id: str) -> bool:
        with self._cancel_lock:
            return job_id in self._cancelled

    def _finish(self, job: Job, state: str, *, result: dict | None = None,
                error: str | None = None) -> None:
        job.state = state
        job.result = result
        job.error = error
        job.finished_at = time.time()
        # The event goes first: a watcher that sees a terminal job with no
        # unread log bytes ends its stream, so the log must already hold
        # job_finished when the terminal state becomes visible.
        self._log_event(job.job_id, "job_finished",
                        {"state": state, "error": error})
        self.jobs.save(job)

    def _log_event(self, job_id: str, kind: str, data: dict) -> None:
        line = json.dumps({"kind": kind, "data": data},
                          separators=(",", ":"), sort_keys=True) + "\n"
        with open(self.events_path(job_id), "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()

    def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.attempts += 1
        self.jobs.save(job)
        self._log_event(job.job_id, "job_started",
                        {"attempt": job.attempts, "request": job.request})
        log_handle = open(self.events_path(job.job_id), "a", encoding="utf-8")
        job_id = job.job_id

        def observer(event: ProgressEvent) -> None:
            log_handle.write(json.dumps(event.to_dict(),
                                        separators=(",", ":"),
                                        sort_keys=True, default=str) + "\n")
            log_handle.flush()
            if self._is_cancelled(job_id):
                raise _JobAborted(requeue=False)
            if self._stopping.is_set():
                raise _JobAborted(requeue=True)

        session = None
        try:
            request = OptimizationRequest.from_dict(job.request)
            session = OptimizationSession(
                request.platform, tuner_trials=request.tuner_trials,
                seed=request.seed, cache_store=self.cache_store)
            # A re-run of an interrupted job replays what its checkpoint's
            # store (this daemon's) already holds.
            result = session.optimize(
                request=request, observer=observer,
                checkpoint=self.checkpoint_path(job_id))
            self._finish(job, "done", result=result.to_dict())
        except _JobAborted as abort:
            if abort.requeue:
                job.state = "queued"
                self.jobs.save(job)
                self._log_event(job_id, "job_requeued",
                                {"attempt": job.attempts})
            else:
                self._finish(job, "cancelled")
        except ReproError as exc:
            self._finish(job, "failed", error=str(exc))
        except Exception as exc:  # noqa: BLE001 - a job must never kill a worker
            self._finish(job, "failed",
                         error=f"{type(exc).__name__}: {exc}")
        finally:
            if session is not None:
                with contextlib.suppress(Exception):
                    session.close()
            log_handle.close()

    # -- the socket side ------------------------------------------------
    def _handle_connection(self, handler: socketserver.StreamRequestHandler) -> None:
        try:
            message = protocol.read_message(handler.rfile)
        except ServiceError as exc:
            self._reply(handler, {"ok": False, "error": str(exc)})
            return
        if message is None:
            return
        verb = message.get("verb")
        try:
            if verb == "watch":
                self._serve_watch(handler, message)
                return
            response = self._dispatch(verb, message)
        except ServiceError as exc:
            response = {"ok": False, "error": str(exc)}
        except ReproError as exc:
            response = {"ok": False, "error": str(exc)}
        self._reply(handler, response)

    @staticmethod
    def _reply(handler: socketserver.StreamRequestHandler,
               document: dict) -> None:
        with contextlib.suppress(OSError):
            handler.wfile.write(protocol.encode_message(document))
            handler.wfile.flush()

    def _dispatch(self, verb: str | None, message: dict) -> dict:
        if verb == "submit":
            return self._serve_submit(message)
        if verb == "status":
            job = self.jobs.get(self._job_id(message))
            summary = job.to_dict()
            summary["result"] = job.result is not None
            return {"ok": True, "job": summary}
        if verb == "result":
            job = self.jobs.get(self._job_id(message))
            if job.state != "done":
                raise ServiceError(
                    f"job {job.job_id} is {job.state}, not done"
                    + (f": {job.error}" if job.error else ""))
            return {"ok": True, "result": job.result}
        if verb == "cancel":
            return self._serve_cancel(message)
        if verb == "jobs":
            rows = [{"job_id": job.job_id, "state": job.state,
                     "attempts": job.attempts,
                     "model": job.request.get("model"),
                     "platform": job.request.get("platform")}
                    for job in self.jobs.list()]
            return {"ok": True, "jobs": rows}
        if verb == "info":
            states: dict[str, int] = {}
            for job in self.jobs.list():
                states[job.state] = states.get(job.state, 0) + 1
            return {"ok": True, "version": __version__,
                    "protocol": protocol.PROTOCOL_VERSION,
                    "workers": self.workers, "jobs": states,
                    "cache_entries": len(self.cache_store)}
        raise ServiceError(f"unknown verb {verb!r}; expected submit, status, "
                           f"result, cancel, watch, jobs or info")

    @staticmethod
    def _job_id(message: dict) -> str:
        job_id = message.get("job_id")
        if not isinstance(job_id, str):
            raise ServiceError("the request needs a string 'job_id'")
        return job_id

    def _serve_submit(self, message: dict) -> dict:
        document = message.get("request")
        if not isinstance(document, dict):
            raise ServiceError("submit needs a 'request' object (an "
                               "OptimizationRequest document)")
        if self._stopping.is_set():
            raise ServiceError("the service is shutting down; resubmit "
                               "after the daemon restarts")
        # Validate eagerly so a bad request fails the submitter, not a
        # worker minutes later.
        request = OptimizationRequest.from_dict(document)
        job = self.jobs.create(request.to_dict())
        self._queue.put(job.job_id)
        return {"ok": True, "job_id": job.job_id, "state": job.state}

    def _serve_cancel(self, message: dict) -> dict:
        job = self.jobs.get(self._job_id(message))
        if job.terminal:
            return {"ok": True, "job_id": job.job_id, "state": job.state,
                    "note": "already terminal"}
        with self._cancel_lock:
            self._cancelled.add(job.job_id)
        if job.state == "queued":
            # Mark it now so a worker that dequeues it later skips it and
            # a status poll doesn't show a phantom queued job.
            self._finish(job, "cancelled")
            return {"ok": True, "job_id": job.job_id, "state": "cancelled"}
        return {"ok": True, "job_id": job.job_id, "state": job.state,
                "note": "cancelling at the next progress event"}

    def _serve_watch(self, handler: socketserver.StreamRequestHandler,
                     message: dict) -> None:
        job_id = self._job_id(message)
        job = self.jobs.get(job_id)  # raises for unknown ids
        self._reply(handler, {"ok": True, "job_id": job_id,
                              "state": job.state})
        path = self.events_path(job_id)
        offset = 0
        try:
            while True:
                if path.exists():
                    with open(path, "r", encoding="utf-8") as handle:
                        handle.seek(offset)
                        for line in handle:
                            if not line.endswith("\n"):
                                break  # torn tail: re-read next poll
                            offset += len(line.encode("utf-8"))
                            handler.wfile.write(line.encode("utf-8"))
                        handler.wfile.flush()
                job = self.jobs.get(job_id)
                if job.terminal:
                    size = path.stat().st_size if path.exists() else 0
                    if size <= offset:
                        break
                    continue  # drain what the worker wrote after our read
                if self._stopping.is_set():
                    break
                time.sleep(WATCH_POLL_SECONDS)
            self._reply(handler, {"kind": "stream_end",
                                  "data": {"state": job.state,
                                           "error": job.error}})
        except (OSError, ValueError):
            return  # the watcher hung up; nothing to clean
