#!/usr/bin/env python
"""SIGKILL a checkpointed search mid-run and prove the resume is exact.

The in-process golden tests (``tests/test_checkpoint.py``) abort a search
with an exception; this smoke kills a *real* ``repro optimize`` process
with an unblockable signal — nothing runs between one instruction and the
next — and checks that ``repro resume`` still reproduces the result of an
uninterrupted run, bit for bit.  This is the strongest statement the
checkpoint layer makes, so CI runs it as its own job step.

The victim is killed once its checkpoint is live: the document is not
``completed`` and the store it names holds latency entries and the
network's Fisher profile.  The resume must then re-score no operator the
store holds, and build the profile again only to score operators the
killed run never reached.

Usage::

    PYTHONPATH=src python tools/kill_resume_smoke.py [workdir]

Exits 0 when the resumed result equals the golden and the resume re-paid
no stored Fisher work; 1 otherwise, or on a run that never produced a
live checkpoint to kill.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.cache_store import CacheStore

#: result-document keys that vary with wall clock or compile-trie warmth,
#: never with the search's decisions (mirrors tests/test_faults.py)
VOLATILE_STATISTICS = (
    "search_seconds", "compile_hits", "compile_misses", "prefix_depth_saved",
)

SEARCH_ARGS = ["--model", "resnet18", "--strategy", "evolutionary",
               "--configurations", "8", "--tuner-trials", "2", "--seed", "3",
               "--image-size", "8", "--json"]

#: give slow CI machines time, but never hang the job
DEADLINE_SECONDS = 300.0


def _repro(*extra: str, **popen_kw) -> subprocess.Popen:
    command = [sys.executable, "-m", "repro", "optimize", *SEARCH_ARGS, *extra]
    return subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, **popen_kw)


def _stripped(document: dict) -> dict:
    document = dict(document)
    document.pop("engine_statistics", None)
    statistics = dict(document.get("search_statistics", {}))
    for key in VOLATILE_STATISTICS:
        statistics.pop(key, None)
    document["search_statistics"] = statistics
    return document


def _fisher_rows(store: CacheStore) -> dict:
    return store.fisher_info() or {"profiles": 0, "scores": 0}


def _checkpoint_is_live(path: Path) -> bool:
    """True once the run is past its first flush and not yet complete."""
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        return False  # not written yet, or we raced the atomic rename
    if document.get("completed"):
        return False
    store = CacheStore(document["store"])
    return store.entry_count("cpu") > 0 and _fisher_rows(store)["profiles"] > 0


def main(argv: list[str]) -> int:
    workdir = Path(argv[1]) if len(argv) > 1 else Path(tempfile.mkdtemp(
        prefix="kill-resume-"))
    workdir.mkdir(parents=True, exist_ok=True)
    checkpoint = workdir / "victim.ckpt.json"

    print("golden: uninterrupted run ...", flush=True)
    golden_process = _repro()
    golden_out, golden_err = golden_process.communicate(timeout=DEADLINE_SECONDS)
    if golden_process.returncode != 0:
        print(f"FAIL: golden run exited {golden_process.returncode}\n{golden_err}")
        return 1
    golden_document = json.loads(golden_out)
    golden = _stripped(golden_document)

    print("victim: checkpointed run, to be SIGKILLed mid-search ...", flush=True)
    victim = _repro("--checkpoint", str(checkpoint))
    deadline = time.monotonic() + DEADLINE_SECONDS
    killed = False
    while time.monotonic() < deadline:
        if victim.poll() is not None:
            break  # finished before we could kill it — handled below
        if _checkpoint_is_live(checkpoint):
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
            killed = True
            break
        time.sleep(0.02)
    if not killed:
        if victim.poll() is None:
            victim.kill()
            print("FAIL: no live checkpoint appeared before the deadline")
            return 1
        # The search outran the poller.  The checkpoint then records a
        # *completed* run, and resume must still replay it exactly — a
        # weaker statement, so say so loudly rather than pass in silence.
        print("warning: victim finished before SIGKILL; testing "
              "resume-of-completed instead of resume-after-kill")
    if not checkpoint.exists():
        print("FAIL: the killed run left no checkpoint behind")
        return 1
    stored_scores = _fisher_rows(CacheStore(
        json.loads(checkpoint.read_text())["store"]))["scores"]

    print("resume: continuing from the checkpoint ...", flush=True)
    resume = subprocess.run(
        [sys.executable, "-m", "repro", "resume", str(checkpoint), "--json"],
        capture_output=True, text=True, timeout=DEADLINE_SECONDS)
    if resume.returncode != 0:
        print(f"FAIL: repro resume exited {resume.returncode}\n{resume.stderr}")
        return 1
    resumed_document = json.loads(resume.stdout)
    resumed = _stripped(resumed_document)

    if resumed != golden:
        diverging = [key for key in golden
                     if resumed.get(key) != golden.get(key)]
        print(f"FAIL: resumed result diverges from golden in {diverging}")
        return 1
    work = resumed_document["engine_statistics"]
    expected_scored = (golden_document["engine_statistics"]["fisher_scored"]
                       - stored_scores)
    if (work["fisher_scored"] != expected_scored
            or work["fisher_profiles"] != (1 if expected_scored else 0)):
        print(f"FAIL: the resume re-paid stored Fisher work: "
              f"fisher_profiles={work['fisher_profiles']}, "
              f"fisher_scored={work['fisher_scored']} with {stored_scores} "
              f"operator scores already in the store "
              f"(expected {expected_scored})")
        return 1
    print(f"OK: resumed result is bit-identical to the uninterrupted run "
          f"(killed={killed}, checkpoint={checkpoint}, "
          f"fisher_profiles={work['fisher_profiles']}, "
          f"fisher_scored={work['fisher_scored']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
