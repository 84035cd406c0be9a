"""Content-addressed persistence for the engine's latencies and Fisher scores.

This module is the only code that decides how a latency entry reaches
disk: the binary shard records below, and one JSON form of an entry
(:func:`entry_document` / :func:`entry_from_document`) that export
envelopes use and that ``/1`` search checkpoints carried.  Many tuning
processes may share one warm ``cache_dir``, so the store is append-only
and shard-per-platform:

* **Content addressing** — every latency entry is keyed by the sha1 of its
  canonical ``(platform, shape, program, trials, seed)`` document (the
  program's display name is excluded: two programs with equal steps are
  the same program), so appends and imports dedupe exactly.
* **Lock-free hot path** — readers scan a shard's segment file into a
  plain dict once and thereafter hit pure in-memory lookups; no reader
  ever takes a lock.  Programs and shapes are interned as their own
  record types, so the 10k-entry warm start is a vectorised
  ``numpy.frombuffer`` parse.
* **Concurrent multi-process writers** — appends happen under a per-shard
  ``flock``; a writer re-scans the bytes other writers appended since its
  last look, truncates any torn tail a crashed writer left behind, and
  appends only records whose digest is still unknown.
* **Crash tolerance** — every record is CRC-framed; a truncated or torn
  tail is skipped by readers and healed by the next locked append, never
  fatal.
* **No rewrite path** — a locked append writes no digest the segment
  already holds, so no segment ever carries a dead record and none is
  ever rewritten; a segment only grows until ``repro cache clear``.
* **Fleet exchange** — :meth:`CacheStore.export` and
  :meth:`CacheStore.import_` move entries between stores and hosts as a
  portable JSON-lines envelope, deduped by digest on arrival.
* **Fisher scores** — the store also persists the search's Fisher
  scores in one platform-independent segment beside the shards, keyed by
  the sha1 of everything a score depends on (:func:`fisher_profile_digest`,
  :func:`fisher_score_digest`).  It shares the shards' framing, CRC
  checks, lock-free scan, sidecar lock and torn-tail healing; exports
  and imports stay latency-only.

Segment layout (format version 1)::

    shard-<platform>.rcs
      header:  magic "REPROCS1" | u32 version | u16 len | platform utf-8
      records: u8 type | u32 body_len | u32 crc32(body) | body
        type 1  program: u32 id | canonical program JSON
        type 2  shape:   u32 id | 8 x i32 (c_out..stride)
        type 3  batch:   u32 n  | n x (sha1[20] | u32 program | u32 shape
                                       | i32 trials | i64 seed | f64 latency)

    fisher.rcs
      header:  magic "REPROCS1" | u32 version | u16 len | "fisher"
      records: framed as above
        type 4  profile: sha1[20] | u32 n | n x f64 score | layer names JSON
        type 5  scores:  u32 n | n x (sha1[20] | f64 score)

See DESIGN.md §12 for the full locking discipline.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import struct
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence
from zlib import crc32

import numpy as np

from repro.core.faults import FAULTS
from repro.core.program import TransformProgram, program_from_dict, program_to_dict
from repro.errors import CacheStoreError, ReproError
from repro.poly.statement import ConvolutionShape

if TYPE_CHECKING:
    from repro.nn.convs import ConvTransformConfig

try:  # the per-shard write lock; readers never need it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms degrade
    fcntl = None

#: A latency cache key: everything the tuned latency depends on.
LatencyKey = tuple[str, ConvolutionShape, TransformProgram, int, int]

#: First bytes of every shard segment file.
SHARD_MAGIC = b"REPROCS1"

#: On-disk store format version, gated per shard header (bump when the
#: record layout changes).
STORE_FORMAT_VERSION = 1

#: Shard segment files are ``shard-<platform>.rcs`` under the store root.
SHARD_PREFIX = "shard-"
SHARD_SUFFIX = ".rcs"

#: The Fisher-score segment file under the store root, and the name its
#: header carries where a shard's header carries its platform.
FISHER_SEGMENT = "fisher" + SHARD_SUFFIX
_FISHER_HEADER_NAME = "fisher"

#: A Fisher profile key: ``(criterion, network digest, minibatch digest)``.
FisherProfileKey = tuple[str, str, str]

#: Schema tag of the portable JSON-lines export envelope.
EXPORT_SCHEMA = "repro.cache-export/1"

_HEADER = struct.Struct("<8sIH")  # magic, format version, platform-name length
_FRAME = struct.Struct("<BII")    # record type, body length, crc32(body)
_PROGRAM_RECORD, _SHAPE_RECORD, _BATCH_RECORD = 1, 2, 3
_PROGRAM_ID = struct.Struct("<I")
_SHAPE_BODY = struct.Struct("<I8i")
_BATCH_COUNT = struct.Struct("<I")
_ENTRY = struct.Struct("<20sIIiqd")  # digest, program, shape, trials, seed, value
_ENTRY_DTYPE = np.dtype([("digest", "V20"), ("program", "<u4"), ("shape", "<u4"),
                         ("trials", "<i4"), ("seed", "<i8"), ("latency", "<f8")])
assert _ENTRY.size == _ENTRY_DTYPE.itemsize == 48
_FISHER_PROFILE_RECORD, _FISHER_SCORE_RECORD = 4, 5
_PROFILE_HEAD = struct.Struct("<20sI")  # digest, layer count
_SCORE_ROW = struct.Struct("<20sd")     # digest, score
_SCORE_DTYPE = np.dtype([("digest", "V20"), ("score", "<f8")])
assert _SCORE_ROW.size == _SCORE_DTYPE.itemsize == 28

#: Sanity bound while scanning possibly-corrupt files: a framed length
#: beyond this is treated as a torn tail, not an allocation request.
_MAX_BODY_BYTES = 64 << 20


# ---------------------------------------------------------------------------
# Canonical key documents and content digests
# ---------------------------------------------------------------------------
def _shape_fields(shape: ConvolutionShape) -> list[int]:
    return [shape.c_out, shape.c_in, shape.h_out, shape.w_out,
            shape.k_h, shape.k_w, shape.groups, shape.stride]


def _canonical_json(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def canonical_key_document(key: LatencyKey) -> dict:
    """One latency key as a plain-JSON document (the key of an entry document).

    Example::

        line = json.dumps(canonical_key_document(key))
    """
    platform, shape, program, trials, seed = key
    return {
        "platform": str(platform),
        "shape": _shape_fields(shape),
        "program": program_to_dict(program),
        "trials": int(trials),
        "seed": int(seed),
    }


def key_from_document(document: Mapping) -> LatencyKey:
    """Rebuild a latency key from :func:`canonical_key_document` output.

    Example::

        key = key_from_document(json.loads(line))
    """
    shape = ConvolutionShape(*[int(value) for value in document["shape"]])
    return (str(document["platform"]), shape,
            program_from_dict(document["program"]),
            int(document["trials"]), int(document["seed"]))


def entry_document(key: LatencyKey, latency: float) -> dict:
    """One latency entry as a plain-JSON document: key plus ``latency_seconds``.

    The line format of :meth:`CacheStore.export`, and the entry format of
    ``/1`` search checkpoints.

    Example::

        line = json.dumps(entry_document(key, 0.0012))
    """
    document = canonical_key_document(key)
    document["latency_seconds"] = float(latency)
    return document


def entry_from_document(document: Mapping) -> tuple[LatencyKey, float]:
    """Rebuild ``(key, latency)`` from :func:`entry_document` output.

    Raises :class:`~repro.errors.CacheStoreError` for anything that is not
    a well-formed entry; callers add where the entry came from.

    Example::

        key, latency = entry_from_document(json.loads(line))
    """
    try:
        return key_from_document(document), float(document["latency_seconds"])
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise CacheStoreError(f"malformed latency entry: {exc!r}") from exc


def key_digest(key: LatencyKey) -> bytes:
    """The 20-byte content address of one latency key.

    The digest covers everything the tuned latency depends on — platform,
    shape, program *steps*, trials, seed — and nothing else.  The
    program's display name is deliberately excluded (it is ``compare=False``
    on :class:`TransformProgram`): a sampled composition that happens to
    reproduce a named sequence must dedupe against it.

    Example::

        digest = key_digest(("cpu", shape, program, 4, 0))
    """
    platform, shape, program, trials, seed = key
    document = {
        "platform": str(platform),
        "shape": _shape_fields(shape),
        "steps": program_to_dict(program)["steps"],
        "trials": int(trials),
        "seed": int(seed),
    }
    return hashlib.sha1(_canonical_json(document).encode("utf-8")).digest()


def _profile_document(key: FisherProfileKey) -> dict:
    criterion, network, minibatch = key
    return {"criterion": str(criterion), "network": str(network),
            "minibatch": str(minibatch)}


def fisher_profile_digest(key: FisherProfileKey) -> bytes:
    """The 20-byte content address of one network's per-layer Fisher scores.

    The key names the scoring criterion, the network (weights, buffers
    and structure) and the minibatch; the platform and tuner settings are
    not part of it, since no score depends on them.

    Example::

        digest = fisher_profile_digest(("local", network, minibatch))
    """
    return hashlib.sha1(
        _canonical_json(_profile_document(key)).encode("utf-8")).digest()


def fisher_score_digest(key: FisherProfileKey, layer: str,
                        config: ConvTransformConfig, seed: int) -> bytes:
    """The 20-byte content address of one derived operator's Fisher score.

    The operator is the ``ConvTransformConfig`` substituted for ``layer``
    of the network ``key`` profiles, built from a fresh RNG seeded with
    the engine ``seed``.

    Example::

        digest = fisher_score_digest(key, "layer1.0.conv1", config, 0)
    """
    document = _profile_document(key)
    document.update(layer=str(layer), seed=int(seed), config=[
        int(config.bottleneck_out), int(config.bottleneck_in),
        int(config.spatial_bottleneck),
        [int(factor) for factor in config.group_factors]])
    return hashlib.sha1(_canonical_json(document).encode("utf-8")).digest()


# ---------------------------------------------------------------------------
# Segment scan state
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class _SegmentState:
    """Everything one process knows about one segment file's valid prefix."""

    name: str                           # the header's name: platform or "fisher"
    valid_offset: int = 0
    stamp: tuple | None = None          # (st_ino, st_dev, st_size) last scanned

    def absorb(self, record_type: int, body: bytes) -> bool:
        """Take one CRC-checked record; ``False`` stops the scan there."""
        raise NotImplementedError


@dataclasses.dataclass
class _ShardState(_SegmentState):
    """A platform shard: interned programs and shapes, latency batches."""

    programs: list[TransformProgram] = dataclasses.field(default_factory=list)
    program_ids: dict[str, int] = dataclasses.field(default_factory=dict)
    shapes: list[ConvolutionShape] = dataclasses.field(default_factory=list)
    shape_ids: dict[tuple, int] = dataclasses.field(default_factory=dict)
    batches: list[np.ndarray] = dataclasses.field(default_factory=list)
    entry_records: int = 0
    digest_set: set[bytes] | None = None  # built lazily by writers

    def add_batch(self, array: np.ndarray) -> None:
        self.batches.append(array)
        self.entry_records += len(array)
        if self.digest_set is not None:
            self.digest_set.update(_batch_digests(array))

    def absorb(self, record_type: int, body: bytes) -> bool:
        if record_type == _BATCH_RECORD:
            if len(body) < _BATCH_COUNT.size:
                return False
            (count,) = _BATCH_COUNT.unpack_from(body)
            if len(body) != _BATCH_COUNT.size + count * _ENTRY.size:
                return False
            self.add_batch(np.frombuffer(body, dtype=_ENTRY_DTYPE,
                                         count=count, offset=_BATCH_COUNT.size))
            return True
        if record_type == _PROGRAM_RECORD:
            if len(body) < _PROGRAM_ID.size:
                return False
            (program_id,) = _PROGRAM_ID.unpack_from(body)
            if program_id != len(self.programs):
                return False  # ids are dense append-order; anything else is rot
            try:
                document = json.loads(body[_PROGRAM_ID.size:])
                program = program_from_dict(document)
            except Exception:
                return False
            self.programs.append(program)
            self.program_ids[_canonical_json(document)] = program_id
            return True
        if record_type == _SHAPE_RECORD:
            if len(body) != _SHAPE_BODY.size:
                return False
            shape_id, *fields = _SHAPE_BODY.unpack(body)
            if shape_id != len(self.shapes):
                return False
            self.shapes.append(ConvolutionShape(*fields))
            self.shape_ids[tuple(fields)] = shape_id
            return True
        return False  # unknown record type: treat as torn tail


@dataclasses.dataclass
class _FisherState(_SegmentState):
    """The Fisher segment: per-layer profiles and operator scores by digest."""

    profiles: dict[bytes, tuple[tuple[str, float], ...]] = dataclasses.field(
        default_factory=dict)
    scores: dict[bytes, float] = dataclasses.field(default_factory=dict)

    def absorb(self, record_type: int, body: bytes) -> bool:
        if record_type == _FISHER_SCORE_RECORD:
            if len(body) < _BATCH_COUNT.size:
                return False
            (count,) = _BATCH_COUNT.unpack_from(body)
            if len(body) != _BATCH_COUNT.size + count * _SCORE_ROW.size:
                return False
            rows = np.frombuffer(body, dtype=_SCORE_DTYPE, count=count,
                                 offset=_BATCH_COUNT.size)
            self.scores.update(zip(_batch_digests(rows),
                                   rows["score"].tolist()))
            return True
        if record_type == _FISHER_PROFILE_RECORD:
            if len(body) < _PROFILE_HEAD.size:
                return False
            digest, count = _PROFILE_HEAD.unpack_from(body)
            names_at = _PROFILE_HEAD.size + 8 * count
            try:
                names = json.loads(body[names_at:])
            except ValueError:
                return False
            if (not isinstance(names, list) or len(names) != count
                    or not all(isinstance(name, str) for name in names)):
                return False
            scores = np.frombuffer(body, dtype="<f8", count=count,
                                   offset=_PROFILE_HEAD.size).tolist()
            self.profiles[digest] = tuple(zip(names, scores))
            return True
        return False  # unknown record type: treat as torn tail


def _batch_digests(array: np.ndarray) -> Iterator[bytes]:
    raw = array["digest"].tobytes()
    return (raw[i:i + 20] for i in range(0, len(raw), 20))


def _profile_body(digest: bytes, layers: Sequence[tuple[str, float]]) -> bytes:
    names = [name for name, _ in layers]
    scores = np.array([score for _, score in layers], dtype="<f8")
    return (_PROFILE_HEAD.pack(digest, len(names)) + scores.tobytes()
            + json.dumps(names).encode("utf-8"))


def _frame(buffer: bytearray, record_type: int, body: bytes) -> None:
    buffer += _FRAME.pack(record_type, len(body), crc32(body))
    buffer += body


@dataclasses.dataclass(frozen=True)
class ShardInfo:
    """One shard's headline numbers for ``repro cache info``.

    Example::

        for shard in store.info():
            print(shard.platform, shard.entries, shard.bytes)
    """

    platform: str
    path: Path
    bytes: int
    entries: int          # live (unique-digest) entries
    records: int          # entry records on disk, including dead duplicates
    format_version: int
    error: str | None = None

    @property
    def dead_records(self) -> int:
        return self.records - self.entries

    def to_dict(self) -> dict:
        return {"platform": self.platform, "path": str(self.path),
                "bytes": self.bytes, "entries": self.entries,
                "records": self.records, "dead_records": self.dead_records,
                "format_version": self.format_version, "error": self.error}


def is_store_file(path: Path) -> bool:
    """Whether ``path`` is one of this store's own on-disk artefacts.

    Recognises shard segment files and the Fisher segment (by name *and*
    magic), their lock files, and writer scratch files — the only things
    ``repro cache clear`` may delete from a cache directory.

    Example::

        deletable = [p for p in directory.iterdir() if is_store_file(p)]
    """
    name = path.name
    if name.startswith(SHARD_PREFIX):
        segment = name.endswith(SHARD_SUFFIX)
    elif name.startswith(FISHER_SEGMENT):
        segment = name == FISHER_SEGMENT
    else:
        return False
    if name.endswith(SHARD_SUFFIX + ".lock"):
        return True
    if SHARD_SUFFIX + ".tmp." in name:
        return True
    if not segment:
        return False
    try:
        with open(path, "rb") as handle:
            return handle.read(len(SHARD_MAGIC)) == SHARD_MAGIC
    except OSError:
        return False


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
class CacheStore:
    """A sharded, content-addressed store for tuned-latency entries.

    One directory holds one append-only segment file per platform; any
    number of processes may share it.  Readers are lock-free (one scan
    into a plain dict, then pure memory); writers append under a
    per-shard ``flock`` and dedupe by content digest, so concurrent
    engines never corrupt or duplicate each other's work.

    Example::

        store = CacheStore("~/.cache/repro")
        store.append({key: 0.0012})
        warm = store.load_platform("cpu")

    The Fisher segment (:meth:`load_fisher`, :meth:`append_fisher`) is
    appended the same way.  Neither kind of segment is ever rewritten: a
    locked append writes no digest twice, so there is nothing to compact.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory).expanduser()
        self._states: dict[str, _ShardState] = {}
        self._fisher = _FisherState(name=_FISHER_HEADER_NAME)
        # Serialises intra-process access to the segment states so one
        # store object can be shared by many threads (the service's worker
        # pool); cross-process safety still comes from the per-segment flock.
        self._thread_lock = threading.RLock()

    # -- shard naming ---------------------------------------------------
    def _shard_filename(self, platform: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", platform)
        return f"{SHARD_PREFIX}{safe}{SHARD_SUFFIX}"

    def shard_path(self, platform: str) -> Path:
        """The segment file a platform's entries land in.

        Example::

            path = store.shard_path("cpu")
        """
        return self.directory / self._shard_filename(platform)

    def shard_paths(self) -> list[Path]:
        """Every shard segment file currently in the store directory.

        Example::

            total = sum(p.stat().st_size for p in store.shard_paths())
        """
        if not self.directory.exists():
            return []
        return sorted(self.directory.glob(f"{SHARD_PREFIX}*{SHARD_SUFFIX}"))

    def platforms(self) -> list[str]:
        """Platforms with a readable shard, from the shard headers.

        Example::

            for platform in store.platforms():
                entries = store.load_platform(platform)
        """
        names = []
        for path in self.shard_paths():
            try:
                with open(path, "rb") as handle:
                    prefix = handle.read(_HEADER.size)
                    name, _ = self._parse_header(
                        prefix + handle.read(256), path)
            except CacheStoreError:
                continue
            names.append(name)
        return names

    # -- header ---------------------------------------------------------
    def _parse_header(self, data: bytes, path: Path) -> tuple[str, int]:
        if len(data) < _HEADER.size:
            raise CacheStoreError(f"cache shard {path} is too short to carry "
                                  f"a header; the file is not a shard")
        magic, version, name_length = _HEADER.unpack_from(data)
        if magic != SHARD_MAGIC:
            raise CacheStoreError(f"{path} is not a cache shard "
                                  f"(bad magic {magic!r})")
        if version != STORE_FORMAT_VERSION:
            raise CacheStoreError(
                f"cache shard {path} has store format version {version}; "
                f"this build reads version {STORE_FORMAT_VERSION}")
        end = _HEADER.size + name_length
        if len(data) < end:
            raise CacheStoreError(f"cache shard {path} truncates its header")
        return data[_HEADER.size:end].decode("utf-8"), end

    def _header_bytes(self, platform: str) -> bytes:
        name = platform.encode("utf-8")
        return _HEADER.pack(SHARD_MAGIC, STORE_FORMAT_VERSION, len(name)) + name

    # -- scanning (the read path; lock-free) ----------------------------
    def _scan(self, path: Path, state: _SegmentState) -> _SegmentState:
        """Extend ``state`` over the segment's valid prefix (incremental).

        Stops cleanly at the first truncated or CRC-failing record — a
        torn tail from a crashed writer is skipped, not fatal — and
        re-scans from scratch when the file changed under us: a new inode
        (``repro cache clear`` and a fresh writer, or an older build's
        compaction) or a file shorter than what was scanned (a torn tail
        cut after this process's own append).
        """
        try:
            stat = path.stat()
        except FileNotFoundError:
            return type(state)(name=state.name)
        stamp = (stat.st_ino, stat.st_dev, stat.st_size)
        if state.stamp is not None and state.stamp[:2] != stamp[:2]:
            state = type(state)(name=state.name)   # replaced: new inode
        elif stat.st_size < state.valid_offset:
            state = type(state)(name=state.name)   # shrank: torn or replaced
        if stat.st_size == state.valid_offset and state.stamp is not None:
            state.stamp = stamp
            return state
        with open(path, "rb") as handle:
            handle.seek(state.valid_offset)
            data = handle.read()
        offset = 0
        if state.valid_offset == 0:
            if len(data) == 0:
                state.stamp = stamp
                return state
            name, offset = self._parse_header(data, path)
            if name != state.name:
                raise CacheStoreError(
                    f"cache shard {path} holds platform '{name}', "
                    f"not '{state.name}'")
        while True:
            frame = data[offset:offset + _FRAME.size]
            if len(frame) < _FRAME.size:
                break
            record_type, length, checksum = _FRAME.unpack(frame)
            if length > _MAX_BODY_BYTES:
                break
            body = data[offset + _FRAME.size:offset + _FRAME.size + length]
            if len(body) < length or crc32(body) != checksum:
                break
            if not state.absorb(record_type, body):
                break
            offset += _FRAME.size + length
        state.valid_offset += offset
        state.stamp = stamp
        return state

    def _scan_shard(self, platform: str) -> _ShardState:
        """Bring one platform's shard state up to date (hold ``_thread_lock``)."""
        state = self._scan(self.shard_path(platform),
                           self._states.get(platform) or _ShardState(name=platform))
        self._states[platform] = state
        return state

    def _entries_array(self, state: _ShardState) -> np.ndarray:
        if not state.batches:
            return np.empty(0, dtype=_ENTRY_DTYPE)
        if len(state.batches) == 1:
            return state.batches[0]
        merged = np.concatenate(state.batches)
        state.batches = [merged]
        return merged

    def _materialise(self, state: _ShardState) -> dict[LatencyKey, float]:
        array = self._entries_array(state)
        if not len(array):
            return {}
        programs, shapes, platform = state.programs, state.shapes, state.name
        try:
            keys = [(platform, shapes[shape], programs[program], trials, seed)
                    for program, shape, trials, seed in zip(
                        array["program"].tolist(), array["shape"].tolist(),
                        array["trials"].tolist(), array["seed"].tolist())]
        except IndexError:
            raise CacheStoreError(
                f"cache shard {self.shard_path(platform)} references an "
                f"undefined program/shape record; the shard is corrupt") from None
        return dict(zip(keys, array["latency"].tolist()))

    def _digests(self, state: _ShardState) -> set[bytes]:
        if state.digest_set is None:
            state.digest_set = set()
            for batch in state.batches:
                state.digest_set.update(_batch_digests(batch))
        return state.digest_set

    # -- the public read path -------------------------------------------
    def load_platform(self, platform: str) -> dict[LatencyKey, float]:
        """All live entries of one platform's shard, as a plain dict.

        This is the warm-start hot path: one incremental scan of the
        segment file (no lock taken), then a vectorised rebuild of the
        key tuples.  Repeated calls only parse bytes appended since the
        last call.

        Example::

            entries = store.load_platform("cpu")
        """
        with self._thread_lock:
            return self._materialise(self._scan_shard(platform))

    def load(self) -> dict[LatencyKey, float]:
        """Every live entry across all shards (export convenience).

        Example::

            everything = store.load()
        """
        merged: dict[LatencyKey, float] = {}
        for platform in self.platforms():
            merged.update(self.load_platform(platform))
        return merged

    def load_fisher(self) -> tuple[dict[bytes, tuple[tuple[str, float], ...]],
                                   dict[bytes, float]]:
        """Every Fisher row: per-layer profiles and operator scores, by digest.

        The same lock-free incremental scan as :meth:`load_platform`; a
        store without a Fisher segment returns two empty dicts.

        Example::

            profiles, scores = store.load_fisher()
            layers = profiles.get(fisher_profile_digest(key))
        """
        with self._thread_lock:
            state = self._fisher = self._scan(self.directory / FISHER_SEGMENT,
                                              self._fisher)
            return dict(state.profiles), dict(state.scores)

    def entry_count(self, platform: str | None = None) -> int:
        """Live (unique-digest) entries in one shard, or the whole store.

        Example::

            assert store.entry_count("cpu") <= 10_000
        """
        platforms = [platform] if platform is not None else self.platforms()
        total = 0
        with self._thread_lock:
            for name in platforms:
                total += len(self._digests(self._scan_shard(name)))
        return total

    def __len__(self) -> int:
        return self.entry_count()

    def info(self) -> list[ShardInfo]:
        """Per-shard headline numbers, tolerant of unreadable shards.

        Example::

            rows = [shard.to_dict() for shard in store.info()]
        """
        rows = []
        for path in self.shard_paths():
            size = path.stat().st_size
            try:
                with open(path, "rb") as handle:
                    name, _ = self._parse_header(handle.read(
                        _HEADER.size + 256), path)
                with self._thread_lock:
                    state = self._scan_shard(name)
                    shard_entries = len(self._digests(state))
                rows.append(ShardInfo(
                    platform=name, path=path, bytes=size,
                    entries=shard_entries,
                    records=state.entry_records,
                    format_version=STORE_FORMAT_VERSION))
            except CacheStoreError as exc:
                rows.append(ShardInfo(platform="?", path=path, bytes=size,
                                      entries=-1, records=-1, format_version=-1,
                                      error=str(exc)))
        return rows

    def fisher_info(self) -> dict | None:
        """The Fisher segment's rows and bytes; ``None`` when it is absent.

        ``profiles`` counts the networks whose per-layer scores are stored,
        ``scores`` the derived operators, and ``rows`` both (-1 with an
        ``error`` when the segment is unreadable).

        Example::

            fisher = store.fisher_info()
        """
        path = self.directory / FISHER_SEGMENT
        if not path.exists():
            return None
        info = {"path": str(path), "bytes": path.stat().st_size, "rows": -1,
                "profiles": -1, "scores": -1, "error": None}
        try:
            profiles, scores = self.load_fisher()
        except CacheStoreError as exc:
            info["error"] = str(exc)
        else:
            info.update(rows=len(profiles) + len(scores),
                        profiles=len(profiles), scores=len(scores))
        return info

    # -- locking --------------------------------------------------------
    @contextlib.contextmanager
    def _exclusive_lock(self, filename: str):
        """The per-segment writer lock (``flock`` on a sidecar lock file).

        The lock file — never the segment file — carries the lock: builds
        up to 0.13 replace a segment (compaction) while holding this same
        file's lock, so a shared ``cache_dir`` stays safe only if every
        build locks it.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        lock_path = self.directory / (filename + ".lock")
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    # -- the write path -------------------------------------------------
    def append(self, entries: Mapping[LatencyKey, float]) -> int:
        """Append ``entries`` to their platform shards; returns new records.

        Entries whose content digest a shard already holds are skipped,
        so re-appending a warm cache is a no-op.  The append itself is a
        single positional write under the shard's exclusive lock; before
        writing, the writer absorbs whatever other processes appended
        since its last scan and truncates any torn tail a crashed writer
        left, so concurrent appends from any number of processes neither
        collide nor lose records.

        Example::

            appended = store.append({key: 0.0012})
        """
        groups: dict[str, list[tuple[LatencyKey, float]]] = {}
        for key, value in entries.items():
            groups.setdefault(key[0], []).append((key, float(value)))
        appended = 0
        for platform, items in sorted(groups.items()):
            appended += self._append_platform(platform, items)
        return appended

    def _append_platform(self, platform: str,
                         items: list[tuple[LatencyKey, float]]) -> int:
        with self._thread_lock, self._exclusive_lock(self._shard_filename(platform)):
            state = self._scan_shard(platform)
            known = self._digests(state)
            buffer = bytearray()
            if state.valid_offset == 0:
                buffer += self._header_bytes(platform)
            rows: list[bytes] = []
            for key, value in items:
                digest = key_digest(key)
                if digest in known:
                    continue
                known.add(digest)
                program_id = self._intern_program(state, key[2], buffer)
                shape_id = self._intern_shape(state, key[1], buffer)
                rows.append(_ENTRY.pack(digest, program_id, shape_id,
                                        int(key[3]), int(key[4]), value))
            if rows:
                body = _BATCH_COUNT.pack(len(rows)) + b"".join(rows)
                _frame(buffer, _BATCH_RECORD, body)
            if buffer:
                self._write_locked(self.shard_path(platform), state, buffer,
                                   "cache_store")
                if rows:
                    state.add_batch(np.frombuffer(
                        b"".join(rows), dtype=_ENTRY_DTYPE))
        return len(rows)

    def append_fisher(self, profiles: Mapping[bytes, Sequence[tuple[str, float]]],
                      scores: Mapping[bytes, float]) -> int:
        """Append Fisher rows to the Fisher segment; returns the rows added.

        ``profiles`` maps a :func:`fisher_profile_digest` to the network's
        ordered ``(layer, score)`` pairs, ``scores`` maps a
        :func:`fisher_score_digest` to one operator's score (``-inf`` for
        an operator that cannot be built).  Rows the segment already holds
        are skipped, and the write is the same locked, torn-tail-healing
        append as :meth:`append`.

        Example::

            store.append_fisher({profile: [("conv1", 0.4)]}, {operator: 0.3})
        """
        path = self.directory / FISHER_SEGMENT
        with self._thread_lock, self._exclusive_lock(FISHER_SEGMENT):
            state = self._fisher = self._scan(path, self._fisher)
            new_profiles = {digest: tuple((str(name), float(score))
                                          for name, score in layers)
                            for digest, layers in profiles.items()
                            if digest not in state.profiles}
            new_scores = {digest: float(score) for digest, score in scores.items()
                          if digest not in state.scores}
            if new_profiles or new_scores:
                buffer = bytearray()
                if state.valid_offset == 0:
                    buffer += self._header_bytes(_FISHER_HEADER_NAME)
                for digest, layers in new_profiles.items():
                    _frame(buffer, _FISHER_PROFILE_RECORD,
                           _profile_body(digest, layers))
                if new_scores:
                    _frame(buffer, _FISHER_SCORE_RECORD,
                           _BATCH_COUNT.pack(len(new_scores)) + b"".join(
                               _SCORE_ROW.pack(digest, score)
                               for digest, score in new_scores.items()))
                self._write_locked(path, state, buffer, "fisher_store")
                state.profiles.update(new_profiles)
                state.scores.update(new_scores)
        return len(new_profiles) + len(new_scores)

    def _write_locked(self, path: Path, state: _SegmentState,
                      buffer: bytearray, site: str) -> None:
        """Write ``buffer`` right after ``state``'s valid prefix (segment lock held)."""
        start = state.valid_offset
        FAULTS.on_cache_write(site)
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            os.ftruncate(fd, start)  # drop a crashed writer's torn tail
            os.lseek(fd, start, os.SEEK_SET)
            os.write(fd, bytes(buffer))
            stat = os.fstat(fd)
        finally:
            os.close(fd)
        # Fault injection may tear or poison what was just written,
        # simulating a writer killed mid-append / latent bit rot.
        FAULTS.on_shard_appended(path)
        state.valid_offset = start + len(buffer)
        state.stamp = (stat.st_ino, stat.st_dev, stat.st_size)

    def _intern_program(self, state: _ShardState, program: TransformProgram,
                        buffer: bytearray) -> int:
        text = _canonical_json(program_to_dict(program))
        program_id = state.program_ids.get(text)
        if program_id is None:
            program_id = len(state.programs)
            state.programs.append(program)
            state.program_ids[text] = program_id
            _frame(buffer, _PROGRAM_RECORD,
                   _PROGRAM_ID.pack(program_id) + text.encode("utf-8"))
        return program_id

    def _intern_shape(self, state: _ShardState, shape: ConvolutionShape,
                      buffer: bytearray) -> int:
        fields = tuple(_shape_fields(shape))
        shape_id = state.shape_ids.get(fields)
        if shape_id is None:
            shape_id = len(state.shapes)
            state.shapes.append(shape)
            state.shape_ids[fields] = shape_id
            _frame(buffer, _SHAPE_RECORD, _SHAPE_BODY.pack(shape_id, *fields))
        return shape_id

    # -- fleet exchange -------------------------------------------------
    def export(self, path: str | Path) -> Path:
        """Write every live entry to a portable JSON-lines envelope.

        Example::

            store.export("warm-cache.jsonl")
        """
        target = Path(path).expanduser()
        entries = self.load()
        target.parent.mkdir(parents=True, exist_ok=True)
        scratch = target.with_name(target.name + f".tmp.{os.getpid()}")
        try:
            with open(scratch, "w", encoding="utf-8") as handle:
                handle.write(json.dumps({"schema": EXPORT_SCHEMA,
                                         "entries": len(entries)}) + "\n")
                for key, value in entries.items():
                    handle.write(_canonical_json(entry_document(key, value)) + "\n")
            os.replace(scratch, target)
        finally:
            with contextlib.suppress(FileNotFoundError):
                scratch.unlink()
        return target

    def import_(self, path: str | Path) -> int:
        """Absorb a :meth:`export` envelope; returns entries actually new.

        A torn or malformed line raises
        :class:`~repro.errors.CacheStoreError` naming the file and the
        line, and nothing is appended.

        Example::

            new = store.import_("warm-cache.jsonl")
        """
        source = Path(path).expanduser()
        with open(source, "r", encoding="utf-8") as handle:
            try:
                header = json.loads(handle.readline() or "null")
            except ValueError:
                header = None
            if not isinstance(header, dict) or header.get("schema") != EXPORT_SCHEMA:
                raise CacheStoreError(
                    f"{source} is not a cache export (expected schema "
                    f"'{EXPORT_SCHEMA}', got {header!r})")
            entries: dict[LatencyKey, float] = {}
            for number, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                try:
                    key, value = entry_from_document(json.loads(line))
                except (ValueError, CacheStoreError) as exc:
                    raise CacheStoreError(
                        f"cache export {source} line {number} is unreadable "
                        f"({exc}); the file is corrupt or truncated, and "
                        f"nothing was imported") from exc
                entries[key] = value
        return self.append(entries)
