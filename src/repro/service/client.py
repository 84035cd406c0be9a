"""Programmatic client for the optimization service.

:class:`Client` wraps the JSON-lines protocol behind typed methods, so
driving a daemon from Python reads like the façade API::

    from repro.service import Client

    client = Client(state_dir="~/.cache/repro-service")
    job_id = client.submit(model="resnet18", strategy="model_guided")
    for event in client.watch(job_id):
        print(event["kind"])
    result = client.result(job_id)          # an OptimizationResult

Every verb opens one short-lived connection (``watch`` holds its
connection open for the stream), so a client object is trivially safe
to share between threads and survives daemon restarts — it re-resolves
the endpoint file on every call.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterator

from repro.api import OptimizationRequest, OptimizationResult
from repro.errors import ServiceError
from repro.service import protocol


class Client:
    """Talks to one daemon, resolved from a state directory or host/port.

    Example::

        client = Client(state_dir="/tmp/svc")
        job_id = client.submit(model="resnet18", platform="cpu")
        result = client.wait(job_id, timeout=600)
    """

    def __init__(self, state_dir: str | Path | None = None, *,
                 host: str | None = None, port: int | None = None,
                 timeout: float | None = 60.0):
        if state_dir is None and (host is None or port is None):
            raise ServiceError("point the client at a daemon: pass "
                               "state_dir=, or host= and port=")
        self.state_dir = Path(state_dir).expanduser() if state_dir else None
        self._host = host
        self._port = port
        self.timeout = timeout

    # -- plumbing -------------------------------------------------------
    def endpoint(self) -> tuple[str, int]:
        """The daemon's ``(host, port)``, re-resolved on every call."""
        if self._host is not None and self._port is not None:
            return self._host, int(self._port)
        return protocol.read_endpoint(self.state_dir)

    def _call(self, message: dict) -> dict:
        host, port = self.endpoint()
        sock = protocol.connect(host, port, timeout=self.timeout)
        try:
            sock.sendall(protocol.encode_message(message))
            with sock.makefile("rb") as reader:
                response = protocol.read_message(reader)
        except OSError as exc:
            raise ServiceError(
                f"lost the service connection to {host}:{port}: {exc}") from None
        finally:
            sock.close()
        return self._checked(response, host, port)

    @staticmethod
    def _checked(response: dict | None, host: str, port: int) -> dict:
        if response is None:
            raise ServiceError(f"the service at {host}:{port} closed the "
                               f"connection without answering")
        if not response.get("ok"):
            raise ServiceError(response.get("error")
                               or "the service reported an unnamed error")
        return response

    # -- the verbs ------------------------------------------------------
    def submit(self, request: OptimizationRequest | dict | None = None,
               **fields) -> str:
        """Queue one optimisation; returns the job id immediately.

        Pass a prebuilt :class:`~repro.api.OptimizationRequest` (or its
        document), or the request fields as keywords by their own names
        (an unknown name raises a :class:`~repro.errors.ReproError`
        naming it).

        Example::

            job_id = client.submit(model="resnet18", strategy="greedy",
                                   configurations=12, seed=3)
        """
        if request is None:
            request = OptimizationRequest.from_dict(fields)
        elif fields:
            raise ServiceError("pass a request or keyword fields, not both")
        if isinstance(request, OptimizationRequest):
            document = request.to_dict()
        elif isinstance(request, dict):
            document = OptimizationRequest.from_dict(request).to_dict()
        else:
            raise ServiceError(f"cannot submit a {type(request).__name__}; "
                               f"expected an OptimizationRequest or a dict")
        response = self._call({"verb": "submit", "request": document})
        return response["job_id"]

    def status(self, job_id: str) -> dict:
        """One job's record: state, attempts, timestamps, error.

        Example::

            state = client.status(job_id)["state"]
        """
        return self._call({"verb": "status", "job_id": job_id})["job"]

    def result(self, job_id: str) -> OptimizationResult:
        """The finished job's result; raises unless the job is ``done``.

        Example::

            result = client.result(job_id)
            print(f"{result.speedup:.2f}x")
        """
        response = self._call({"verb": "result", "job_id": job_id})
        return OptimizationResult.from_dict(response["result"])

    def cancel(self, job_id: str) -> dict:
        """Ask the daemon to stop a job; running jobs stop at their next event.

        Example::

            client.cancel(job_id)
        """
        return self._call({"verb": "cancel", "job_id": job_id})

    def jobs(self) -> list[dict]:
        """Every job the daemon knows, oldest first.

        Example::

            queued = [row for row in client.jobs() if row["state"] == "queued"]
        """
        return self._call({"verb": "jobs"})["jobs"]

    def info(self) -> dict:
        """Daemon headline numbers: version, workers, job states, cache size.

        Example::

            print(client.info()["cache_entries"])
        """
        return self._call({"verb": "info"})

    def watch(self, job_id: str) -> Iterator[dict]:
        """Stream a job's progress events as dicts, live, until it finishes.

        Replays the job's whole event log first (so a late watcher sees
        the full history), then follows new events as the job emits
        them; the final item is the ``stream_end`` marker carrying the
        job's terminal state.

        Example::

            for event in client.watch(job_id):
                print(event["kind"], event["data"])
        """
        host, port = self.endpoint()
        sock = protocol.connect(host, port, timeout=self.timeout)
        try:
            sock.sendall(protocol.encode_message(
                {"verb": "watch", "job_id": job_id}))
            with sock.makefile("rb") as reader:
                self._checked(protocol.read_message(reader), host, port)
                while True:
                    event = protocol.read_message(reader)
                    if event is None:
                        return
                    yield event
                    if event.get("kind") == "stream_end":
                        return
        except OSError as exc:
            raise ServiceError(
                f"lost the watch stream for {job_id}: {exc}") from None
        finally:
            sock.close()

    def wait(self, job_id: str, *, timeout: float | None = None,
             poll_seconds: float = 0.2) -> OptimizationResult:
        """Block until a job finishes; returns its result.

        Raises :class:`~repro.errors.ServiceError` when the job fails,
        is cancelled, or ``timeout`` elapses first.

        Example::

            result = client.wait(job_id, timeout=600)
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            record = self.status(job_id)
            state = record["state"]
            if state == "done":
                return self.result(job_id)
            if state in ("failed", "cancelled"):
                raise ServiceError(
                    f"job {job_id} finished {state}"
                    + (f": {record.get('error')}" if record.get("error") else ""))
            pause = poll_seconds
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(f"job {job_id} still {state} after "
                                       f"{timeout:.0f}s")
                pause = min(pause, remaining)
            time.sleep(pause)
