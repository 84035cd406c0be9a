#!/usr/bin/env python
"""SIGKILL a checkpointed search mid-run and prove the resume is exact.

The in-process golden tests (``tests/test_checkpoint.py``) abort a search
with an exception; this smoke kills a *real* ``repro optimize`` process
with an unblockable signal — nothing runs between one instruction and the
next — and checks that ``repro resume`` still reproduces the result of an
uninterrupted run, bit for bit.  This is the strongest statement the
checkpoint layer makes, so CI runs it as its own job step.

Usage::

    python tools/kill_resume_smoke.py [workdir]

Exits 0 when the resumed result equals the golden; 1 on divergence or on
a run that never produced a live checkpoint to kill.
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


def _checkpoint_is_live(path: Path) -> bool:
    """True once the file holds a complete checkpoint with paid-for work."""
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        return False  # not written yet, or we raced the atomic rename
    return bool(document.get("entries")) and not document.get("completed")


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
    golden = _stripped(json.loads(golden_out))

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

    print("resume: continuing from the checkpoint ...", flush=True)
    resume = subprocess.run(
        [sys.executable, "-m", "repro", "resume", str(checkpoint), "--json"],
        capture_output=True, text=True, timeout=DEADLINE_SECONDS)
    if resume.returncode != 0:
        print(f"FAIL: repro resume exited {resume.returncode}\n{resume.stderr}")
        return 1
    resumed = _stripped(json.loads(resume.stdout))

    if resumed != golden:
        diverging = [key for key in golden
                     if resumed.get(key) != golden.get(key)]
        print(f"FAIL: resumed result diverges from golden in {diverging}")
        return 1
    print(f"OK: resumed result is bit-identical to the uninterrupted run "
          f"(killed={killed}, checkpoint={checkpoint})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
