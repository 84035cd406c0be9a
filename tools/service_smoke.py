#!/usr/bin/env python
"""SIGKILL the optimization daemon mid-job and prove the restart resumes.

The in-process tests (``tests/test_service.py``) stop the daemon
gracefully; this smoke kills a *real* ``repro serve`` process with an
unblockable signal while its workers are mid-search, restarts it on the
same state directory, and checks that every job still finishes with the
result a fault-free serial ``repro optimize`` produces — the strongest
statement the service's queue-recovery and checkpoint layers make, so CI
runs it as its own job step.

Usage::

    python tools/service_smoke.py [workdir]

Exits 0 when both resumed jobs match their goldens; 1 on divergence, a
daemon that never started, or a job that never finished.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.utils import wait_until

#: result-document keys that vary with wall clock or cache warmth, never
#: with the search's decisions (mirrors tools/kill_resume_smoke.py)
VOLATILE_STATISTICS = (
    "search_seconds", "compile_hits", "compile_misses", "prefix_depth_saved",
)

#: The two jobs: slow enough to be mid-flight when the SIGKILL lands.
JOBS = [
    ["--model", "resnet18", "--strategy", "evolutionary",
     "--configurations", "8", "--tuner-trials", "2", "--seed", "3",
     "--image-size", "8"],
    ["--model", "resnet18", "--strategy", "greedy", "--configurations", "8",
     "--tuner-trials", "2", "--seed", "4", "--image-size", "8"],
]

DEADLINE_SECONDS = 300.0


def _repro(*args: str, **popen_kw) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "repro", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **popen_kw)


def _run(*args: str) -> str:
    process = _repro(*args)
    out, err = process.communicate(timeout=DEADLINE_SECONDS)
    if process.returncode != 0:
        raise RuntimeError(f"repro {' '.join(args)} exited "
                           f"{process.returncode}\n{err}")
    return out


def _stripped(document: dict) -> dict:
    document = dict(document)
    document.pop("engine_statistics", None)
    statistics = dict(document.get("search_statistics", {}))
    for key in VOLATILE_STATISTICS:
        statistics.pop(key, None)
    document["search_statistics"] = statistics
    return document


def _serve(state: Path) -> subprocess.Popen:
    daemon = _repro("serve", "--state-dir", str(state), "--workers", "2")
    endpoint = state / "service.json"

    def advertised() -> bool:
        # A SIGKILLed daemon leaves its stale endpoint file behind, so
        # wait for the one advertising *this* daemon's pid.
        if endpoint.exists():
            try:
                record = json.loads(endpoint.read_text())
            except json.JSONDecodeError:
                record = {}
            if record.get("pid") == daemon.pid:
                return True
        if daemon.poll() is not None:
            _, err = daemon.communicate()
            raise RuntimeError(f"daemon exited {daemon.returncode} before "
                               f"advertising an endpoint\n{err}")
        return False

    try:
        wait_until(advertised, timeout=DEADLINE_SECONDS,
                   description="the daemon's endpoint file")
    except TimeoutError:
        daemon.kill()
        raise RuntimeError("daemon never advertised an endpoint") from None
    return daemon


def _job_mid_flight(state: Path) -> str | None:
    """A job id that is ``running`` right now and has paid for tunings."""
    for path in (state / "jobs").glob("job-*.json"):
        if json.loads(path.read_text())["state"] != "running":
            continue
        events = state / "events" / f"{path.stem}.ndjson"
        if events.exists() and "tune_batch" in events.read_text():
            return path.stem
    return None


def main(argv: list[str]) -> int:
    workdir = Path(argv[1]) if len(argv) > 1 else Path(tempfile.mkdtemp(
        prefix="service-smoke-"))
    state = workdir / "state"
    state.mkdir(parents=True, exist_ok=True)

    print("goldens: fault-free serial runs ...", flush=True)
    goldens = [_stripped(json.loads(_run("optimize", *job, "--json")))
               for job in JOBS]

    print("daemon: starting and submitting two jobs ...", flush=True)
    daemon = _serve(state)
    job_ids = [_run("submit", "--state-dir", str(state), *job).strip()
               for job in JOBS]
    print(f"submitted {job_ids}", flush=True)

    try:
        victim = wait_until(lambda: _job_mid_flight(state),
                            timeout=DEADLINE_SECONDS,
                            description="a job mid-tuning")
    except TimeoutError:
        daemon.kill()
        print("FAIL: no job started tuning before the deadline")
        return 1

    print(f"SIGKILL: killing the daemon with {victim} mid-job ...",
          flush=True)
    os.kill(daemon.pid, signal.SIGKILL)
    daemon.wait(timeout=30)

    jobs_dir = state / "jobs"
    states = {path.stem: json.loads(path.read_text())["state"]
              for path in jobs_dir.glob("job-*.json")}
    print(f"states after the kill: {states}", flush=True)

    print("restart: resuming the queue ...", flush=True)
    daemon = _serve(state)
    try:
        results = []
        for job_id in job_ids:
            def finished(job_id=job_id):
                record = json.loads(_run("status", "--state-dir", str(state),
                                         job_id, "--json"))
                if record["state"] in ("failed", "cancelled"):
                    raise RuntimeError(
                        f"{job_id} finished {record['state']}: "
                        f"{record.get('error')}")
                return record["state"] == "done"

            try:
                wait_until(finished, timeout=DEADLINE_SECONDS, interval=0.2,
                           description=f"{job_id} to finish")
            except TimeoutError:
                print(f"FAIL: {job_id} never finished after the restart")
                return 1
            except RuntimeError as error:
                print(f"FAIL: {error}")
                return 1
            document = json.loads(_run("result", "--state-dir", str(state),
                                       job_id, "--json"))
            results.append(_stripped(document))
        # A late watcher still gets the whole event history plus the
        # terminal marker — the stream survives the daemon's death.
        watched = _run("watch", "--state-dir", str(state), job_ids[0])
        last = json.loads(watched.strip().splitlines()[-1])
        if last.get("kind") != "stream_end" or \
                last.get("data", {}).get("state") != "done":
            print(f"FAIL: watch after restart ended with {last}")
            return 1
    finally:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=30)

    for job_id, resumed, golden in zip(job_ids, results, goldens):
        if resumed != golden:
            diverging = [key for key in golden
                         if resumed.get(key) != golden.get(key)]
            print(f"FAIL: {job_id} diverges from its golden in {diverging}")
            return 1
    print(f"OK: both resumed jobs are bit-identical to their fault-free "
          f"goldens (state={state})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
