"""Persistent job records for the optimization service.

A job is one :class:`~repro.api.OptimizationRequest` travelling through
the daemon's queue.  Its whole lifecycle lives in one JSON file under
``<state_dir>/jobs/`` — written atomically (scratch + ``os.replace``) on
every state change, so a daemon killed at any instant leaves every job
either in its old state or its new one, never torn.  The state machine::

    queued ──► running ──► done
                 │  ▲        └ result embedded in the record
                 │  └ (daemon restart re-queues and resumes)
                 ├────► failed     (error message recorded)
                 └────► cancelled  (operator asked; checkpoint kept)

Recovery is the whole point of the layout: on startup the daemon calls
:meth:`JobStore.recover`, which flips every ``running`` record back to
``queued`` — a job the previous daemon died under.  The worker that
picks it up re-runs the request over the daemon's store, where the
job's checkpoint (:mod:`repro.core.checkpoint`) flushed its work, so
the replayed run is bit-identical to what the uninterrupted run would
have produced.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServiceError

#: Every state a job record may be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves (the result/error is final).
TERMINAL_STATES = ("done", "failed", "cancelled")

_JOB_ID = re.compile(r"^job-(\d{6})$")


@dataclass
class Job:
    """One optimization request's journey through the service queue.

    ``request`` is the submitted
    :meth:`~repro.api.OptimizationRequest.to_dict` document; ``result``
    holds the finished
    :meth:`~repro.api.OptimizationResult.to_dict` document once the
    state is ``done``; ``error`` carries the failure message for
    ``failed`` jobs.  ``attempts`` counts how many times a worker picked
    the job up — a resumed job shows more than one.

    Example::

        job = store.create(request.to_dict())
        assert job.state == "queued" and job.job_id.startswith("job-")
    """

    job_id: str
    state: str = "queued"
    request: dict = field(default_factory=dict)
    result: dict | None = None
    error: str | None = None
    attempts: int = 0
    submitted_at: float = 0.0
    finished_at: float | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, document: dict) -> "Job":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(document) - fields
        job = cls(**{key: value for key, value in document.items()
                     if key in fields})
        if unknown:
            raise ServiceError(f"job record carries unknown keys "
                               f"{sorted(unknown)}; refusing to guess")
        if job.state not in JOB_STATES:
            raise ServiceError(f"job {job.job_id} records unknown state "
                               f"'{job.state}'; expected one of {JOB_STATES}")
        return job

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class JobStore:
    """Atomic per-job JSON persistence under ``<state_dir>/jobs/``.

    Job ids are a dense sequence (``job-000001`` ...), allocated from
    the records already on disk, so a restarted daemon never reuses an
    id.  All mutation goes through :meth:`save`, which writes scratch +
    ``os.replace`` — a reader (or a daemon killed mid-write) only ever
    sees complete records.

    Example::

        store = JobStore(state_dir / "jobs")
        job = store.create(request.to_dict())
        job.state = "running"
        store.save(job)
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, job_id: str) -> Path:
        if not _JOB_ID.match(job_id):
            raise ServiceError(f"malformed job id '{job_id}'; "
                               f"expected 'job-NNNNNN'")
        return self.directory / f"{job_id}.json"

    def job_ids(self) -> list[str]:
        """Every persisted job id, in submission (= id) order."""
        ids = []
        for path in self.directory.glob("job-*.json"):
            if _JOB_ID.match(path.stem):
                ids.append(path.stem)
        return sorted(ids)

    def next_id(self) -> str:
        existing = self.job_ids()
        if not existing:
            return "job-000001"
        last = int(_JOB_ID.match(existing[-1]).group(1))
        return f"job-{last + 1:06d}"

    def create(self, request_document: dict) -> Job:
        """Persist a fresh ``queued`` job for one request document."""
        job = Job(job_id=self.next_id(), state="queued",
                  request=dict(request_document), submitted_at=time.time())
        self.save(job)
        return job

    def save(self, job: Job) -> Path:
        """Atomically persist ``job``'s current state."""
        path = self._path(job.job_id)
        scratch = path.with_name(path.name + f".tmp.{os.getpid()}")
        scratch.write_text(
            json.dumps(job.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        os.replace(scratch, path)
        return path

    def get(self, job_id: str) -> Job:
        """Load one job record; raises for unknown or unreadable ids."""
        path = self._path(job_id)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ServiceError(f"unknown job '{job_id}'") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ServiceError(f"unreadable job record {path}: {exc}") from None
        return Job.from_dict(document)

    def list(self) -> list[Job]:
        """Every job record, oldest first."""
        return [self.get(job_id) for job_id in self.job_ids()]

    def recover(self) -> list[str]:
        """Re-queue jobs a dead daemon left ``running``; returns their ids.

        Called once at daemon startup, before workers start: any record
        still marked ``running`` belonged to the previous process, which
        is gone — flip it back to ``queued`` so a worker resumes it from
        its checkpoint.
        """
        recovered = []
        for job_id in self.job_ids():
            job = self.get(job_id)
            if job.state == "running":
                job.state = "queued"
                self.save(job)
                recovered.append(job_id)
        return recovered

    def pending(self) -> list[str]:
        """Ids of jobs waiting for a worker, oldest first."""
        return [job.job_id for job in self.list() if job.state == "queued"]
