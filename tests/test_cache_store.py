"""Tests for the sharded, content-addressed tuning-cache store."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct

import pytest

from repro.cli import main as cli_main
from repro.core.cache_store import (
    EXPORT_SCHEMA,
    FISHER_SEGMENT,
    SHARD_MAGIC,
    STORE_FORMAT_VERSION,
    CacheStore,
    canonical_key_document,
    entry_document,
    entry_from_document,
    fisher_profile_digest,
    fisher_score_digest,
    is_store_file,
    key_digest,
    key_from_document,
)
from repro.core.engine import EvaluationEngine
from repro.core.sequences import predefined_program
from repro.errors import CacheStoreError
from repro.hardware import get_platform
from repro.nn.convs import ConvTransformConfig
from repro.poly.statement import ConvolutionShape
from repro.tenir.autotune import AutoTuner


def _entries(n: int = 20, platform: str = "cpu", trials: int = 3,
             seed: int = 0) -> dict:
    programs = (predefined_program("standard"),
                predefined_program("group", group=2))
    entries = {}
    for i in range(n):
        shape = ConvolutionShape(8 * (1 + i % 2), 8, 4 + 2 * (i % 3),
                                 4 + 2 * (i % 3), 3, 3)
        key = (platform, shape, programs[i % 2], trials + i // 6, seed)
        entries[key] = 0.001 * (i + 1)
    return entries


@pytest.fixture
def tune_counter(monkeypatch):
    calls = {"count": 0}
    original = AutoTuner.tune

    def counted(self, computation, platform):
        calls["count"] += 1
        return original(self, computation, platform)

    monkeypatch.setattr(AutoTuner, "tune", counted)
    return calls


class TestContentAddressing:
    def test_key_document_round_trip(self):
        key = next(iter(_entries(1)))
        assert key_from_document(canonical_key_document(key)) == key
        assert key_from_document(
            json.loads(json.dumps(canonical_key_document(key)))) == key

    def test_entry_codec_round_trip_and_rejects_malformed(self):
        key = next(iter(_entries(1)))
        document = json.loads(json.dumps(entry_document(key, 0.0025)))
        assert entry_from_document(document) == (key, 0.0025)
        del document["latency_seconds"]
        with pytest.raises(CacheStoreError, match="latency_seconds"):
            entry_from_document(document)
        for bad in (None, "cpu", {**entry_document(key, 1.0), "shape": [8]}):
            with pytest.raises(CacheStoreError, match="malformed"):
                entry_from_document(bad)

    def test_digest_ignores_the_program_display_name(self):
        key = next(iter(_entries(1)))
        renamed = dataclasses.replace(key[2], name="something-else")
        assert key_digest(key) == key_digest(
            (key[0], key[1], renamed, key[3], key[4]))

    def test_digest_covers_every_key_axis(self):
        keys = list(_entries(20))
        digests = {key_digest(key) for key in keys}
        assert len(digests) == len(keys)


class TestRoundTrip:
    def test_append_and_load(self, tmp_path):
        entries = _entries(20)
        store = CacheStore(tmp_path)
        assert store.append(entries) == 20
        fresh = CacheStore(tmp_path)
        assert fresh.load_platform("cpu") == entries
        assert len(fresh) == 20

    def test_append_dedupes_by_digest(self, tmp_path):
        entries = _entries(12)
        store = CacheStore(tmp_path)
        assert store.append(entries) == 12
        assert store.append(entries) == 0
        # A second process sharing the directory dedupes too.
        assert CacheStore(tmp_path).append(entries) == 0
        assert CacheStore(tmp_path).load_platform("cpu") == entries

    def test_renamed_program_dedupes(self, tmp_path):
        entries = _entries(1)
        store = CacheStore(tmp_path)
        store.append(entries)
        key = next(iter(entries))
        renamed = (key[0], key[1], dataclasses.replace(key[2], name="alias"),
                   key[3], key[4])
        assert store.append({renamed: 9.9}) == 0
        assert CacheStore(tmp_path).load_platform("cpu") == entries

    def test_shard_per_platform(self, tmp_path):
        store = CacheStore(tmp_path)
        cpu, gpu = _entries(6, "cpu"), _entries(6, "gpu")
        store.append({**cpu, **gpu})
        assert (tmp_path / "shard-cpu.rcs").exists()
        assert (tmp_path / "shard-gpu.rcs").exists()
        fresh = CacheStore(tmp_path)
        assert fresh.load_platform("cpu") == cpu
        assert fresh.load_platform("gpu") == gpu
        assert sorted(fresh.platforms()) == ["cpu", "gpu"]
        assert fresh.load() == {**cpu, **gpu}

    def test_incremental_rescan_picks_up_other_writers(self, tmp_path):
        reader = CacheStore(tmp_path)
        first, second = _entries(6, seed=0), _entries(6, seed=1)
        CacheStore(tmp_path).append(first)
        assert reader.load_platform("cpu") == first
        CacheStore(tmp_path).append(second)
        assert reader.load_platform("cpu") == {**first, **second}

    def test_info(self, tmp_path):
        store = CacheStore(tmp_path)
        store.append(_entries(9))
        (shard,) = store.info()
        assert shard.platform == "cpu"
        assert shard.entries == 9
        assert shard.records == 9
        assert shard.dead_records == 0
        assert shard.format_version == STORE_FORMAT_VERSION
        assert shard.error is None
        assert shard.to_dict()["entries"] == 9


class TestEngineIntegration:
    def test_warm_start_and_exact_accounting(self, tmp_path, tune_counter):
        platform = get_platform("cpu")
        engine = EvaluationEngine(platform, tuner_trials=3, seed=0,
                                  cache_store=str(tmp_path))
        items = [(ConvolutionShape(8, 8, 6, 6, 3, 3),
                  predefined_program("standard")),
                 (ConvolutionShape(16, 8, 6, 6, 3, 3),
                  predefined_program("group", group=2))]
        reference = engine.tune_many(items + items)
        # in-batch duplicates of a missing key count as misses (documented)
        assert engine.statistics.latency_misses == 4
        assert engine.statistics.latency_hits == 0
        assert engine.save_cache() == tmp_path
        cold_calls = tune_counter["count"]

        warm = EvaluationEngine(platform, tuner_trials=3, seed=0,
                                cache_store=str(tmp_path))
        assert warm.statistics.loaded_entries == engine.cache_size
        assert warm.tune_many(items + items) == reference
        assert tune_counter["count"] == cold_calls, "warm start must not re-tune"
        # hit/miss accounting is identical to a warm in-process engine
        assert warm.statistics.latency_hits == 4
        assert warm.statistics.latency_misses == 0

    def test_save_appends_only_pending_entries(self, tmp_path):
        platform = get_platform("cpu")
        engine = EvaluationEngine(platform, tuner_trials=3, seed=0,
                                  cache_store=str(tmp_path))
        engine.tuned_latency(ConvolutionShape(8, 8, 6, 6, 3, 3),
                             predefined_program("standard"))
        engine.save_cache()
        size = (tmp_path / "shard-cpu.rcs").stat().st_size
        engine.save_cache()  # nothing pending: the shard must not grow
        assert (tmp_path / "shard-cpu.rcs").stat().st_size == size

    def test_load_cache_rescans_the_store(self, tmp_path):
        platform = get_platform("cpu")
        engine = EvaluationEngine(platform, tuner_trials=3, seed=0,
                                  cache_store=str(tmp_path))
        entries = {engine.latency_key(shape, program): value
                   for (name, shape, program, trials, seed), value
                   in _entries(6).items()}
        CacheStore(tmp_path).append(entries)
        assert engine.load_cache() == len(entries)
        assert engine.statistics.loaded_entries == len(entries)


class TestCorruptionTolerance:
    def test_version_gate(self, tmp_path):
        path = tmp_path / "shard-cpu.rcs"
        path.write_bytes(struct.pack("<8sIH", SHARD_MAGIC,
                                     STORE_FORMAT_VERSION + 1, 3) + b"cpu")
        with pytest.raises(CacheStoreError, match="format version"):
            CacheStore(tmp_path).load_platform("cpu")
        (info,) = CacheStore(tmp_path).info()
        assert info.error is not None and info.entries == -1

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "shard-cpu.rcs"
        path.write_bytes(b"NOTACACHESTOREFILE")
        with pytest.raises(CacheStoreError, match="magic"):
            CacheStore(tmp_path).load_platform("cpu")
        assert not is_store_file(path)

    def test_truncated_tail_is_skipped_then_healed(self, tmp_path):
        entries = _entries(10)
        CacheStore(tmp_path).append(entries)
        path = tmp_path / "shard-cpu.rcs"
        whole = path.read_bytes()
        path.write_bytes(whole[:-7])  # a crashed writer's torn tail
        survivors = CacheStore(tmp_path).load_platform("cpu")
        assert len(survivors) < len(entries)
        assert all(entries[key] == value for key, value in survivors.items())
        # The next locked append truncates the tail and restores the rest.
        CacheStore(tmp_path).append(entries)
        assert CacheStore(tmp_path).load_platform("cpu") == entries

    def test_mid_file_corruption_stops_the_scan_cleanly(self, tmp_path):
        first, second = _entries(5, seed=0), _entries(5, seed=1)
        CacheStore(tmp_path).append(first)
        boundary = (tmp_path / "shard-cpu.rcs").stat().st_size
        CacheStore(tmp_path).append(second)
        path = tmp_path / "shard-cpu.rcs"
        raw = bytearray(path.read_bytes())
        raw[boundary + 12] ^= 0xFF  # flip a byte inside the second batch
        path.write_bytes(bytes(raw))
        survivors = CacheStore(tmp_path).load_platform("cpu")
        assert survivors == first

    def test_wrong_platform_header_rejected(self, tmp_path):
        CacheStore(tmp_path).append(_entries(1, "gpu"))
        (tmp_path / "shard-gpu.rcs").rename(tmp_path / "shard-cpu.rcs")
        with pytest.raises(CacheStoreError, match="holds platform"):
            CacheStore(tmp_path).load_platform("cpu")

    def test_is_store_file_recognises_own_artefacts(self, tmp_path):
        CacheStore(tmp_path).append(_entries(1))
        assert is_store_file(tmp_path / "shard-cpu.rcs")
        assert is_store_file(tmp_path / "shard-cpu.rcs.lock")
        assert is_store_file(tmp_path / "shard-cpu.rcs.tmp.123")
        (tmp_path / "shard-fake.rcs").write_bytes(b"not a shard at all")
        assert not is_store_file(tmp_path / "shard-fake.rcs")
        assert not is_store_file(tmp_path / "engine-cpu-t3-s0.pkl")


class TestFormat:
    def test_latency_shard_bytes_are_pinned(self, tmp_path):
        # The bytes a store of format version 1 writes for these entries,
        # two appends of them, recorded before the Fisher segment existed:
        # stores written by older and newer builds stay interchangeable.
        assert STORE_FORMAT_VERSION == 1
        entries = {}
        programs = (predefined_program("standard"),
                    predefined_program("group", group=2))
        for i in range(6):
            shape = ConvolutionShape(8 * (1 + i % 2), 8, 4 + 2 * (i % 3),
                                     4 + 2 * (i % 3), 3, 3)
            entries[("cpu", shape, programs[i % 2], 3 + i // 4, 0)] = 0.001 * (i + 1)
        store = CacheStore(tmp_path)
        store.append(dict(list(entries.items())[:4]))
        store.append(entries)
        store.append_fisher({b"p" * 20: [("conv", 1.0)]}, {b"s" * 20: 2.0})
        raw = (tmp_path / "shard-cpu.rcs").read_bytes()
        assert len(raw) == 756
        assert hashlib.sha1(raw).hexdigest() == \
            "84a3ee2ea6ef6b25563ee138c328729ce312ce4d"
        assert store.platforms() == ["cpu"]


class TestFisherSegment:
    KEY = ("local", "network", "minibatch")

    def test_round_trip_including_minus_inf(self, tmp_path):
        profile = fisher_profile_digest(self.KEY)
        layers = [("conv1", 0.25), ("layer1.0.conv1", 1.0 / 3.0)]
        scores = {fisher_score_digest(self.KEY, "conv1", ConvTransformConfig(
                      group_factors=(factor,)), 0): 0.1 * factor
                  for factor in (1, 2, 4)}
        scores[fisher_score_digest(self.KEY, "conv1", ConvTransformConfig(
            bottleneck_out=3), 0)] = float("-inf")
        assert CacheStore(tmp_path).append_fisher({profile: layers}, scores) == 5
        reread = CacheStore(tmp_path).load_fisher()
        assert reread == ({profile: tuple(layers)}, scores)
        # appends dedupe by digest; the latency shards are untouched
        assert CacheStore(tmp_path).append_fisher({profile: layers}, scores) == 0
        assert CacheStore(tmp_path).shard_paths() == []
        assert is_store_file(tmp_path / FISHER_SEGMENT)
        assert is_store_file(tmp_path / (FISHER_SEGMENT + ".lock"))
        info = CacheStore(tmp_path).fisher_info()
        assert (info["profiles"], info["scores"], info["rows"]) == (1, 4, 5)
        assert info["bytes"] == (tmp_path / FISHER_SEGMENT).stat().st_size

    def test_digests_cover_every_key_axis(self):
        config = ConvTransformConfig(group_factors=(2,))
        base = fisher_score_digest(self.KEY, "conv1", config, 0)
        assert len({
            base,
            fisher_score_digest(("other",) + self.KEY[1:], "conv1", config, 0),
            fisher_score_digest(self.KEY[:1] + ("n2", "minibatch"), "conv1", config, 0),
            fisher_score_digest(self.KEY[:2] + ("m2",), "conv1", config, 0),
            fisher_score_digest(self.KEY, "conv2", config, 0),
            fisher_score_digest(self.KEY, "conv1", ConvTransformConfig(
                group_factors=(2, 2)), 0),
            fisher_score_digest(self.KEY, "conv1", config, 1),
            fisher_profile_digest(self.KEY),
        }) == 8

    def test_torn_tail_is_skipped_then_healed(self, tmp_path):
        rows = {fisher_score_digest(self.KEY, f"conv{i}", ConvTransformConfig(),
                                    0): float(i) for i in range(8)}
        first = dict(list(rows.items())[:4])
        CacheStore(tmp_path).append_fisher({}, first)
        path = tmp_path / FISHER_SEGMENT
        path.write_bytes(path.read_bytes()[:-7])  # a crashed writer's tail
        assert CacheStore(tmp_path).load_fisher() == ({}, {})
        CacheStore(tmp_path).append_fisher({}, rows)
        assert CacheStore(tmp_path).load_fisher() == ({}, rows)

    def test_bad_magic_raises_and_is_not_a_store_file(self, tmp_path):
        (tmp_path / FISHER_SEGMENT).write_bytes(b"NOTACACHESTOREFILE")
        with pytest.raises(CacheStoreError, match="magic"):
            CacheStore(tmp_path).load_fisher()
        assert not is_store_file(tmp_path / FISHER_SEGMENT)
        assert CacheStore(tmp_path).fisher_info()["error"] is not None


class TestAppendOnly:
    def test_stale_writers_write_no_dead_record(self, tmp_path):
        # Two writers with stale scans append overlapping batches in turn:
        # each absorbs the other's records under the shard lock first, so
        # every digest is written exactly once.
        entries = list(_entries(20).items())
        first, second = CacheStore(tmp_path), CacheStore(tmp_path)
        assert first.append(dict(entries[:10])) == 10
        assert second.append(dict(entries[5:15])) == 5
        assert first.append(dict(entries[10:])) == 5
        assert second.append(dict(entries)) == 0
        shard_path = tmp_path / "shard-cpu.rcs"
        size = shard_path.stat().st_size
        assert first.append(dict(entries)) == 0
        assert shard_path.stat().st_size == size  # a repeat writes no byte
        (shard,) = CacheStore(tmp_path).info()
        assert shard.records == shard.entries == len(entries)
        assert shard.dead_records == 0
        assert CacheStore(tmp_path).load_platform("cpu") == dict(entries)


class TestReplacedShard:
    def test_live_store_reads_a_swapped_in_shard_afresh(self, tmp_path):
        # A shard replaced under a live store (a ``cache clear`` and a new
        # writer, or an older build's compaction): new inode, shorter file.
        entries, other = _entries(20), _entries(5, seed=1)
        store = CacheStore(tmp_path / "live")
        store.append(entries)
        assert store.load_platform("cpu") == entries
        CacheStore(tmp_path / "other").append(other)
        os.replace(tmp_path / "other" / "shard-cpu.rcs",
                   tmp_path / "live" / "shard-cpu.rcs")
        assert store.load_platform("cpu") == other
        assert store.entry_count("cpu") == len(other)
        # The writer's digest set was rebuilt too: every old entry is new.
        assert store.append(entries) == len(entries)
        (shard,) = CacheStore(tmp_path / "live").info()
        assert shard.records == shard.entries == len(entries) + len(other)


class TestFleetExchange:
    def test_export_import_round_trip(self, tmp_path):
        entries = {**_entries(8, "cpu"), **_entries(8, "gpu")}
        store = CacheStore(tmp_path / "src")
        store.append(entries)
        envelope = store.export(tmp_path / "warm.jsonl")
        header = json.loads(envelope.read_text().splitlines()[0])
        assert header["schema"] == EXPORT_SCHEMA
        assert header["entries"] == len(entries)
        target = CacheStore(tmp_path / "dst")
        assert target.import_(envelope) == len(entries)
        assert target.import_(envelope) == 0
        assert CacheStore(tmp_path / "dst").load() == entries

    def test_import_combines_overlapping_stores(self, tmp_path):
        # Two stores are combined by exporting one into the other: only
        # the entries the target lacks are appended, each once.
        mine = CacheStore(tmp_path / "mine")
        theirs = CacheStore(tmp_path / "theirs")
        shared, private = _entries(6, seed=0), _entries(6, seed=1)
        mine.append(shared)
        theirs.append({**shared, **private})
        envelope = theirs.export(tmp_path / "theirs.jsonl")
        assert mine.import_(envelope) == len(private)
        assert CacheStore(tmp_path / "mine").load() == {**shared, **private}
        (shard,) = CacheStore(tmp_path / "mine").info()
        assert shard.records == shard.entries == len(shared) + len(private)

    def test_import_rejects_non_envelopes(self, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"schema": "something/9"}\n')
        with pytest.raises(CacheStoreError, match="not a cache export"):
            CacheStore(tmp_path).import_(bogus)

    def test_envelope_format_is_frozen(self, tmp_path):
        # An envelope as the 0.9 build wrote it: it must import unchanged,
        # and exporting the same entry must reproduce it byte for byte.
        frozen = (
            '{"schema": "repro.cache-export/1", "entries": 1}\n'
            '{"latency_seconds":0.00125,"platform":"cpu","program":{"name":'
            '"group","steps":[{"nest":null,"optional":false,"params":'
            '{"factor":2},"primitive":"group"}]},"seed":0,"shape":'
            '[8,8,6,6,3,3,1,1],"trials":3}\n')
        envelope = tmp_path / "frozen.jsonl"
        envelope.write_text(frozen)
        store = CacheStore(tmp_path / "store")
        assert store.import_(envelope) == 1
        key = ("cpu", ConvolutionShape(8, 8, 6, 6, 3, 3),
               predefined_program("group", group=2), 3, 0)
        assert store.load() == {key: 0.00125}
        assert store.export(tmp_path / "again.jsonl").read_text() == frozen

    def test_export_import_cli(self, tmp_path, capsys):
        source, target = tmp_path / "a", tmp_path / "b"
        CacheStore(source).append(_entries(5))
        envelope = tmp_path / "warm.jsonl"
        assert cli_main(["cache", "export", str(envelope),
                         "--cache-dir", str(source)]) == 0
        assert cli_main(["cache", "import", str(envelope),
                         "--cache-dir", str(target)]) == 0
        out = capsys.readouterr().out
        assert "exported 5 entries" in out
        assert "imported 5 new entries" in out
        assert CacheStore(target).load() == CacheStore(source).load()

    def _envelope_lines(self, tmp_path) -> tuple:
        store = CacheStore(tmp_path / "src")
        store.append(_entries(4))
        envelope = store.export(tmp_path / "warm.jsonl")
        return envelope, envelope.read_text().splitlines(keepends=True)

    def test_import_cli_names_a_torn_line(self, tmp_path, capsys):
        envelope, lines = self._envelope_lines(tmp_path)
        envelope.write_text("".join(lines)[:-25])  # a copy cut short
        assert cli_main(["cache", "import", str(envelope),
                         "--cache-dir", str(tmp_path / "dst")]) == 11
        err = capsys.readouterr().err
        assert str(envelope) in err and f"line {len(lines)}" in err
        assert "Traceback" not in err
        assert CacheStore(tmp_path / "dst").load() == {}  # all or nothing

    def test_import_cli_names_an_entry_without_latency(self, tmp_path, capsys):
        envelope, lines = self._envelope_lines(tmp_path)
        entry = json.loads(lines[2])
        del entry["latency_seconds"]
        lines[2] = json.dumps(entry) + "\n"
        envelope.write_text("".join(lines))
        assert cli_main(["cache", "import", str(envelope),
                         "--cache-dir", str(tmp_path / "dst")]) == 11
        err = capsys.readouterr().err
        assert str(envelope) in err and "line 3" in err
        assert "latency_seconds" in err
        assert CacheStore(tmp_path / "dst").load() == {}
