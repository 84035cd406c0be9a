"""Multi-process stress tests for the sharded tuning-cache store.

N writer processes and M reader processes share one ``cache_dir``; the
store must lose no appends, corrupt nothing, and report exact entry
counts afterwards.  Every entry's value is a pure function of its key,
so the parent can recompute the expected table independently and compare
bit-for-bit.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.core.cache_store import (
    CacheStore,
    fisher_profile_digest,
    fisher_score_digest,
)
from repro.core.engine import EvaluationEngine
from repro.core.sequences import predefined_program
from repro.hardware import get_platform
from repro.nn.convs import ConvTransformConfig
from repro.poly.statement import ConvolutionShape

#: Writers x entries-per-writer for the stress test (kept CI-sized).
WRITERS, READERS, PER_WRITER, SHARED = 4, 2, 24, 16

WRITER_SCRIPT = textwrap.dedent("""
    import sys
    from repro.core.cache_store import (
        CacheStore, fisher_profile_digest, fisher_score_digest)
    from repro.core.sequences import predefined_program
    from repro.nn.convs import ConvTransformConfig
    from repro.poly.statement import ConvolutionShape

    directory, index = sys.argv[1], int(sys.argv[2])
    per_writer, shared = int(sys.argv[3]), int(sys.argv[4])
    store = CacheStore(directory)
    program = predefined_program("standard")
    shape = ConvolutionShape(8, 8, 6, 6, 3, 3)
    # Private entries in small batches (trials axis is writer-unique) ...
    for start in range(0, per_writer, 4):
        batch = {("cpu", shape, program, 1000 + index, seed):
                 (1000 + index) + seed * 0.001
                 for seed in range(start, min(start + 4, per_writer))}
        store.append(batch)
    # ... plus a contended set every writer also appends (same values:
    # each value is a pure function of its key, so last-wins is a no-op).
    store.append({("cpu", shape, program, 999, seed): 999 + seed * 0.001
                  for seed in range(shared)})
    # Fisher rows the same way: a private profile and private operator
    # scores in small batches, then a contended set every writer appends.
    config = ConvTransformConfig()
    private = ("local", "network", f"writer-{index}")
    for start in range(0, per_writer, 4):
        store.append_fisher(
            {fisher_profile_digest(private): [("conv", float(index))]},
            {fisher_score_digest(private, f"conv{seed}", config, 0):
             index + seed * 0.001
             for seed in range(start, min(start + 4, per_writer))})
    contended = ("local", "network", "shared")
    store.append_fisher(
        {fisher_profile_digest(contended): [("conv", -1.0)]},
        {fisher_score_digest(contended, f"conv{seed}", config, 0): -seed * 0.001
         for seed in range(shared)})
    print(len(store.load_platform("cpu")))
""")

READER_SCRIPT = textwrap.dedent("""
    import sys
    from repro.core.cache_store import CacheStore

    store = CacheStore(sys.argv[1])
    for _ in range(int(sys.argv[2])):
        entries = store.load_platform("cpu")
        # Lock-free readers may observe any prefix, never garbage.
        assert all(isinstance(value, float) for value in entries.values())
    print("ok")
""")


def _spawn(script: str, *argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(root / "src")
    return subprocess.Popen([sys.executable, "-c", script, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)


def _expected_entries() -> dict:
    program = predefined_program("standard")
    shape = ConvolutionShape(8, 8, 6, 6, 3, 3)
    expected = {}
    for index in range(WRITERS):
        for seed in range(PER_WRITER):
            expected[("cpu", shape, program, 1000 + index, seed)] = (
                (1000 + index) + seed * 0.001)
    for seed in range(SHARED):
        expected[("cpu", shape, program, 999, seed)] = 999 + seed * 0.001
    return expected


def _expected_fisher() -> tuple[dict, dict]:
    config = ConvTransformConfig()
    profiles, scores = {}, {}
    for index in range(WRITERS):
        private = ("local", "network", f"writer-{index}")
        profiles[fisher_profile_digest(private)] = (("conv", float(index)),)
        for seed in range(PER_WRITER):
            scores[fisher_score_digest(private, f"conv{seed}", config, 0)] = (
                index + seed * 0.001)
    contended = ("local", "network", "shared")
    profiles[fisher_profile_digest(contended)] = (("conv", -1.0),)
    for seed in range(SHARED):
        scores[fisher_score_digest(contended, f"conv{seed}", config, 0)] = (
            -seed * 0.001)
    return profiles, scores


class TestMultiProcessStress:
    def test_concurrent_writers_and_readers_lose_nothing(self, tmp_path):
        writers = [_spawn(WRITER_SCRIPT, str(tmp_path), str(index),
                          str(PER_WRITER), str(SHARED))
                   for index in range(WRITERS)]
        readers = [_spawn(READER_SCRIPT, str(tmp_path), "40")
                   for _ in range(READERS)]
        for process in writers + readers:
            out, err = process.communicate(timeout=120)
            assert process.returncode == 0, err
            assert out.strip(), err
        expected = _expected_entries()
        final = CacheStore(tmp_path).load_platform("cpu")
        assert len(final) == len(expected), "no appends may be lost"
        assert final == expected, "every value must survive bit-for-bit"
        # One shard, and the contended set was written once: a locked
        # append writes no digest the shard already holds, so no shard
        # ever carries a dead record.
        (shard,) = CacheStore(tmp_path).info()
        assert shard.entries == len(expected)
        assert shard.records == shard.entries
        # A warm engine reports the exact loaded_entries count.
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=3, seed=0,
                                  cache_store=str(tmp_path))
        assert engine.statistics.loaded_entries == len(expected)
        # The Fisher segment holds the exact union of every writer's rows,
        # each appended once.
        profiles, scores = _expected_fisher()
        assert CacheStore(tmp_path).load_fisher() == (profiles, scores)
        assert CacheStore(tmp_path).fisher_info()["rows"] == (
            len(profiles) + len(scores))

    def test_crash_mid_append_is_recovered(self, tmp_path):
        # A writer that dies after writing half a record must not poison
        # the shard: readers skip the torn tail, the next locked append
        # truncates it, and nothing already committed is lost.
        committed = _expected_entries()
        store = CacheStore(tmp_path)
        store.append(committed)
        crash = textwrap.dedent("""
            import os, sys, struct
            from zlib import crc32
            path = sys.argv[1]
            body = b"x" * 64
            frame = struct.pack("<BII", 3, 4096, crc32(body)) + body
            with open(path, "ab") as handle:
                handle.write(frame)      # claims 4096 bytes, wrote 64
                handle.flush()
                os._exit(9)              # simulated crash mid-append
        """)
        process = _spawn(crash, str(tmp_path / "shard-cpu.rcs"))
        process.communicate(timeout=60)
        assert process.returncode == 9
        survivors = CacheStore(tmp_path).load_platform("cpu")
        assert survivors == committed, "a torn tail must never be fatal"
        program = predefined_program("standard")
        extra = {("cpu", ConvolutionShape(16, 8, 6, 6, 3, 3), program, 3, 0): 0.5}
        CacheStore(tmp_path).append(extra)
        healed = CacheStore(tmp_path).load_platform("cpu")
        assert healed == {**committed, **extra}


class TestConcurrentSessions:
    """Many OptimizationSessions over one store path (the service layout)."""

    SESSION_ARGS = dict(model="resnet18", strategy="greedy",
                        configurations=5, image_size=8)

    def test_threaded_sessions_share_one_store_object(self, tmp_path):
        # The daemon's exact shape: one CacheStore *object* shared by
        # worker threads, each running its own session.  Results must be
        # identical to fresh serial runs, and the store must end with an
        # exact, deduplicated entry set.
        import threading

        import repro
        from repro.api import OptimizationSession

        store = CacheStore(tmp_path / "shared")
        outcomes: dict[int, object] = {}
        failures: list[BaseException] = []

        def run(seed: int) -> None:
            try:
                with OptimizationSession("cpu", tuner_trials=2, seed=seed,
                                         cache_store=store) as session:
                    outcomes[seed] = session.optimize(
                        "resnet18", strategy="greedy", configurations=5,
                        image_size=8, seed=seed)
            except BaseException as exc:  # pragma: no cover - the assertion
                failures.append(exc)

        threads = [threading.Thread(target=run, args=(seed,))
                   for seed in (1, 2, 3, 4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not failures
        assert sorted(outcomes) == [1, 2, 3, 4]
        for seed, result in outcomes.items():
            serial = repro.optimize("resnet18", strategy="greedy",
                                    configurations=5, image_size=8,
                                    tuner_trials=2, seed=seed)
            assert result.optimized_latency_seconds == \
                serial.optimized_latency_seconds, seed
            assert {d.layer: d.program for d in result.layers} == \
                {d.layer: d.program for d in serial.layers}, seed
        # Every session's write-back landed, deduplicated by digest.
        final = CacheStore(tmp_path / "shared")
        assert len(final.load_platform("cpu")) == len(final)
        assert len(final) > 0

    def test_process_sessions_share_one_store_path(self, tmp_path):
        # Separate processes (separate CacheStore objects, one directory):
        # the flock/torn-tail discipline must keep every session's
        # write-back intact and the shard exactly dedup-consistent.
        script = textwrap.dedent("""
            import sys
            from repro.api import OptimizationSession

            directory, seed = sys.argv[1], int(sys.argv[2])
            with OptimizationSession("cpu", tuner_trials=2, seed=seed,
                                     cache_dir=directory) as session:
                result = session.optimize("resnet18", strategy="greedy",
                                          configurations=5, image_size=8,
                                          seed=seed)
            print(f"{result.optimized_latency_seconds:.17g}")
        """)
        processes = [_spawn(script, str(tmp_path / "store"), str(seed))
                     for seed in (5, 6)]
        latencies = {}
        for seed, process in zip((5, 6), processes):
            out, err = process.communicate(timeout=300)
            assert process.returncode == 0, err
            latencies[seed] = float(out.strip())
        import repro

        for seed, latency in latencies.items():
            serial = repro.optimize("resnet18", strategy="greedy",
                                    configurations=5, image_size=8,
                                    tuner_trials=2, seed=seed)
            assert latency == serial.optimized_latency_seconds, seed
        store = CacheStore(tmp_path / "store")
        (shard,) = store.info()
        assert shard.entries == len(store.load_platform("cpu"))


LOCK_HOLDER_SCRIPT = textwrap.dedent("""
    import fcntl, os, sys
    fd = os.open(sys.argv[1], os.O_CREAT | os.O_RDWR, 0o644)
    fcntl.flock(fd, fcntl.LOCK_EX)
    print("locked", flush=True)
    sys.stdin.readline()
""")


class TestCacheClear:
    def test_clear_waits_for_a_held_segment_lock(self, tmp_path):
        """``repro cache clear`` unlinks a segment only under its writer
        lock and leaves every lock file, so the store stays usable."""
        import threading
        import warnings

        from repro.cli import main

        shape, program = ConvolutionShape(8, 8, 6, 6, 3, 3), predefined_program("standard")
        store = CacheStore(tmp_path)
        store.append({("cpu", shape, program, 2, seed): 1.0 + seed for seed in range(4)})
        shard = store.shard_path("cpu")
        lock = shard.with_name(shard.name + ".lock")
        holder = subprocess.Popen([sys.executable, "-c", LOCK_HOLDER_SCRIPT, str(lock)],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  text=True)
        try:
            assert holder.stdout.readline().strip() == "locked"
            codes = []
            clearing = threading.Thread(target=lambda: codes.append(
                main(["cache", "clear", "--cache-dir", str(tmp_path)])))
            clearing.start()
            clearing.join(timeout=1.0)
            assert clearing.is_alive(), "the clear must wait for the writer lock"
            assert shard.exists()
            holder.stdin.write("\n")
            holder.stdin.flush()
            clearing.join(timeout=30)
            assert not clearing.is_alive() and codes == [0]
        finally:
            if holder.poll() is None:
                holder.kill()
            holder.wait()
        assert not shard.exists() and lock.exists()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a quarantined store warns
            fresh = CacheStore(tmp_path)
            fresh.append({("cpu", shape, program, 3, 0): 7.0})
            assert fresh.load_platform("cpu") == {("cpu", shape, program, 3, 0): 7.0}
        assert lock.exists()
