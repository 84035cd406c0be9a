"""Checkpoint/resume: a killed search continues bit-identically.

The contract under test (DESIGN.md §13): a checkpoint is the request
document plus the store the search appends its work to after every
tuning batch; resuming replays the request over that store, so the
result equals the uninterrupted run's — for a checkpoint taken at *any*
point, including completion.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.core import faults
from repro.core.cache_store import CacheStore, entry_document
from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA,
    LEGACY_CHECKPOINT_SCHEMA,
    CheckpointWriter,
    SearchCheckpoint,
    checkpoint_store,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.engine import EvaluationEngine
from repro.core.search import SEARCH_STRATEGY_REGISTRY
from repro.core.sequences import predefined_program
from repro.errors import CheckpointError, DegradedExecutionWarning, ReproError
from repro.hardware import get_platform
from repro.poly.statement import ConvolutionShape

from test_faults import stripped


def _request_document(**overrides) -> dict:
    document = repro.OptimizationRequest(
        model="resnet18", platform="cpu", strategy="greedy",
        configurations=4, tuner_trials=2, seed=0, image_size=8,
        fisher_batch=2).to_dict()
    document.update(overrides)
    return document


def _checkpoint(tmp_path) -> SearchCheckpoint:
    return SearchCheckpoint(_request_document(), str(tmp_path / "store"))


def _legacy_document() -> dict:
    """A ``/1`` document as 0.14 wrote it, holding two latency entries."""
    engine = EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=0)
    shape = ConvolutionShape(8, 8, 6, 6, 3, 3)
    entries = []
    for program in ("standard", "depthwise"):
        program = predefined_program(program)
        seconds = engine.tuned_latency(shape, program)
        entries.append(entry_document(engine.latency_key(shape, program),
                                      seconds))
    return {"schema": LEGACY_CHECKPOINT_SCHEMA, "request": _request_document(),
            "completed": False, "progress": {"cache_entries": 2},
            "entries": entries}


def _written(tmp_path, document: dict) -> Path:
    victim = tmp_path / "victim.ckpt.json"
    victim.write_text(json.dumps(document))
    return victim


# ---------------------------------------------------------------------------
# The file format
# ---------------------------------------------------------------------------
class TestCheckpointFormat:
    def test_round_trip_preserves_request_and_store(self, tmp_path):
        checkpoint = _checkpoint(tmp_path)
        path = write_checkpoint(tmp_path / "run.ckpt.json", checkpoint)
        assert read_checkpoint(path) == checkpoint
        assert json.loads(path.read_text()) == {
            "schema": CHECKPOINT_SCHEMA, "request": _request_document(),
            "store": str(tmp_path / "store"), "completed": False}

    def test_writes_are_atomic_and_leave_no_scratch(self, tmp_path):
        target = tmp_path / "run.ckpt.json"
        write_checkpoint(target, _checkpoint(tmp_path))
        write_checkpoint(target, _checkpoint(tmp_path))  # overwrite in place
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert json.loads(target.read_text())["schema"] == CHECKPOINT_SCHEMA

    def test_unwritable_target_is_an_actionable_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        with pytest.raises(CheckpointError, match="writable"):
            write_checkpoint(blocker / "run.ckpt.json", _checkpoint(tmp_path))

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            read_checkpoint(tmp_path / "absent.ckpt.json")

    def test_torn_json_is_reported_as_corrupt(self, tmp_path):
        victim = tmp_path / "torn.ckpt.json"
        write_checkpoint(victim, _checkpoint(tmp_path))
        victim.write_text(victim.read_text()[:-20])
        with pytest.raises(CheckpointError, match="not valid JSON"):
            read_checkpoint(victim)

    def test_wrong_schema_is_rejected(self, tmp_path):
        victim = tmp_path / "alien.ckpt.json"
        for schema in ("other/9", [CHECKPOINT_SCHEMA]):
            victim.write_text(json.dumps({"schema": schema, "request": {}}))
            with pytest.raises(CheckpointError, match="incompatible build"):
                read_checkpoint(victim)

    def test_missing_request_is_rejected(self, tmp_path):
        victim = tmp_path / "empty.ckpt.json"
        victim.write_text(json.dumps({"schema": CHECKPOINT_SCHEMA}))
        with pytest.raises(CheckpointError, match="request document"):
            read_checkpoint(victim)

    def test_corrupt_entry_names_its_index(self, tmp_path):
        document = _legacy_document()
        del document["entries"][1]["latency_seconds"]
        with pytest.raises(CheckpointError, match="entry #1"):
            read_checkpoint(_written(tmp_path, document))

    def test_a_legacy_checkpoint_reads_without_a_store(self, tmp_path):
        parsed = read_checkpoint(_written(tmp_path, _legacy_document()))
        assert parsed == SearchCheckpoint(_request_document(), None, False)


def _current_document(tmp_path) -> dict:
    return _checkpoint(tmp_path).to_dict()


#: Both readers, each with a well-formed document to vandalise.
READERS = {"v2": _current_document, "v1": lambda tmp_path: _legacy_document()}


class TestStrictReader:
    """Each malformed field is refused with a CheckpointError naming it."""

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_a_string_completed_flag_is_refused(self, reader, tmp_path):
        document = READERS[reader](tmp_path)
        document["completed"] = "false"
        with pytest.raises(CheckpointError, match="'completed'"):
            read_checkpoint(_written(tmp_path, document))

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_an_unknown_field_is_refused(self, reader, tmp_path):
        document = READERS[reader](tmp_path)
        document["resume_from"] = 3
        with pytest.raises(CheckpointError,
                           match=r"unknown field\(s\) \['resume_from'\]"):
            read_checkpoint(_written(tmp_path, document))

    def test_a_non_object_progress_is_refused(self, tmp_path):
        document = _legacy_document()
        document["progress"] = 5
        with pytest.raises(CheckpointError, match="'progress'"):
            read_checkpoint(_written(tmp_path, document))

    def test_a_non_list_entries_is_refused(self, tmp_path):
        document = _legacy_document()
        document["entries"] = 5
        with pytest.raises(CheckpointError, match="'entries'"):
            read_checkpoint(_written(tmp_path, document))

    @pytest.mark.parametrize("store", [None, 7, ["store"]])
    def test_a_non_string_store_is_refused(self, store, tmp_path):
        document = _current_document(tmp_path)
        document["store"] = store
        with pytest.raises(CheckpointError, match="'store'"):
            read_checkpoint(_written(tmp_path, document))

    def test_a_v2_checkpoint_carries_no_entries(self, tmp_path):
        document = _current_document(tmp_path)
        document["entries"] = _legacy_document()["entries"]
        with pytest.raises(CheckpointError,
                           match=r"unknown field\(s\) \['entries'\]"):
            read_checkpoint(_written(tmp_path, document))


# ---------------------------------------------------------------------------
# The writer
# ---------------------------------------------------------------------------
class TestCheckpointWriter:
    def test_flushes_the_store_per_batch_and_writes_only_on_request(
            self, tmp_path):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=0,
                                  cache_store=tmp_path / "store")
        saved = []
        engine.subscribe(lambda e: saved.append(e)
                         if e.kind == "checkpoint_saved" else None)
        writer = CheckpointWriter(tmp_path / "run.ckpt.json",
                                  _request_document(), engine)
        engine.subscribe(writer.on_event)
        stored = []
        with faults.suppressed():  # an injected torn tail loses a record
            for c_out in (8, 16):
                engine.tune_many([(ConvolutionShape(c_out, 8, 6, 6, 3, 3),
                                   predefined_program("standard"))])
                stored.append(
                    CacheStore(tmp_path / "store").entry_count("cpu"))
        assert stored == [1, 2]  # each batch is in the store at once
        assert saved == [] and not writer.path.exists()
        writer.write(completed=True)
        assert [event.data for event in saved] == [
            {"path": str(writer.path), "store": str(tmp_path / "store"),
             "completed": True}]
        assert read_checkpoint(writer.path) == SearchCheckpoint(
            _request_document(), str(tmp_path / "store"), True)

    def test_a_checkpoint_needs_a_store(self, tmp_path):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=0)
        with pytest.raises(CheckpointError, match="cache_dir"):
            CheckpointWriter(tmp_path / "run.ckpt.json", _request_document(),
                             engine)
        with repro.OptimizationSession("cpu", tuner_trials=2) as session:
            with pytest.raises(ReproError, match="cache_dir"):
                session.optimize("resnet18", configurations=4, image_size=8,
                                 fisher_batch=2,
                                 checkpoint=tmp_path / "run.ckpt.json")
        assert not (tmp_path / "run.ckpt.json").exists()

    def test_optimize_defaults_the_store_beside_the_checkpoint(self, tmp_path):
        path = tmp_path / "run.ckpt.json"
        with faults.suppressed():  # an injected full disk empties the store
            repro.optimize(**_request_document(), checkpoint=path)
        document = json.loads(path.read_text())
        assert document == {"schema": CHECKPOINT_SCHEMA,
                            "request": _request_document(),
                            "store": str(checkpoint_store(path)),
                            "completed": True}
        assert str(checkpoint_store(path)) == str(path) + ".store"
        assert CacheStore(checkpoint_store(path)).entry_count("cpu") > 0


# ---------------------------------------------------------------------------
# The golden contract: resume == uninterrupted, for every strategy
# ---------------------------------------------------------------------------
class _AbortAfter:
    """An observer that kills the search after ``batches`` tuning batches,
    simulating a crash at a strategy-chosen moment (the checkpoint written
    for the last completed batch survives)."""

    def __init__(self, batches: int):
        self.remaining = batches

    def __call__(self, event) -> None:
        if event.kind == "tune_batch":
            self.remaining -= 1
            if self.remaining <= 0:
                raise KeyboardInterrupt("simulated kill")


@pytest.mark.parametrize("strategy", sorted(SEARCH_STRATEGY_REGISTRY))
def test_resume_is_bit_identical(strategy, tmp_path):
    kwargs = dict(model="resnet18", platform="cpu", strategy=strategy,
                  configurations=4, tuner_trials=2, seed=3, image_size=8,
                  fisher_batch=2)
    golden = repro.optimize(**kwargs)
    path = tmp_path / f"{strategy}.ckpt.json"

    # a run killed after its second tuning batch ...
    with pytest.raises(KeyboardInterrupt):
        repro.optimize(**kwargs, checkpoint=path,
                       observer=_AbortAfter(2))
    partial = read_checkpoint(path)
    assert not partial.completed

    # ... resumes to the uninterrupted run's exact result
    resumed = repro.resume_checkpoint(path)
    assert stripped(resumed) == stripped(golden)

    # the checkpoint is now marked complete, and resuming again is
    # idempotent (pure replay, no tuner work beyond cache hits)
    assert read_checkpoint(path).completed
    again = repro.resume_checkpoint(path)
    assert stripped(again) == stripped(golden)


@pytest.mark.parametrize("strategy", sorted(SEARCH_STRATEGY_REGISTRY))
def test_a_resume_pays_only_for_what_the_killed_run_never_reached(
        strategy, tmp_path):
    """The store holds everything a run killed after its second tuning
    batch paid for: its Fisher profile, computed before the baseline batch
    and flushed with it, both batches' tunings and every operator score.
    So the resume re-scores no stored operator, and builds the profile
    again only to score operators the killed run never reached.  `random`
    scores all its operators before its second batch, its last, so its
    resume builds no profile at all.  Fault-free: an injected torn tail or
    full disk legitimately loses a flush."""
    kwargs = dict(model="resnet18", platform="cpu", strategy=strategy,
                  configurations=4, tuner_trials=2, seed=3, image_size=8,
                  fisher_batch=2)
    path = tmp_path / f"{strategy}.ckpt.json"
    with faults.suppressed():
        golden = repro.optimize(**kwargs)
        with pytest.raises(KeyboardInterrupt):
            repro.optimize(**kwargs, checkpoint=path,
                           observer=_AbortAfter(2))
        assert set(json.loads(path.read_text())) == {
            "schema", "request", "store", "completed"}
        fisher = CacheStore(read_checkpoint(path).store).fisher_info()
        resumed = repro.resume_checkpoint(path)
    assert fisher["profiles"] == 1
    work, paid = resumed.engine_statistics, golden.engine_statistics
    assert work["fisher_scored"] == paid["fisher_scored"] - fisher["scores"]
    assert work["fisher_profiles"] == (1 if work["fisher_scored"] else 0)
    assert work["tuner_calls"] < paid["tuner_calls"]
    if strategy == "random":
        assert work["fisher_profiles"] == 0
    assert stripped(resumed) == stripped(golden)


#: resnet18/cpu model_guided at budget 16, seed 3: the uninterrupted run's
#: latency under each liar, recorded at the 0.9.0 release (the liar changes
#: the picks, and cl_min happens to agree with the static ranking here).
LIAR_LATENCY_HEX = {"cl_mean": "0x1.128baf688ef0ap-13",
                    "cl_min": "0x1.12252ce2032dfp-13",
                    "none": "0x1.12252ce2032dfp-13"}


@pytest.mark.parametrize("liar", sorted(LIAR_LATENCY_HEX))
def test_model_guided_resume_is_bit_identical_for_every_liar(liar, tmp_path):
    """The liar rides in the checkpoint's request, and a resumed run makes
    the uninterrupted run's surrogate-guided picks under it."""
    def run(**kwargs):
        with repro.OptimizationSession(
                "cpu", tuner_trials=2, seed=3,
                cache_dir=kwargs.pop("cache_dir", None),
                observer=kwargs.pop("observer", None)) as session:
            return session.optimize("resnet18", strategy="model_guided",
                                    configurations=16, image_size=8,
                                    fisher_batch=2, liar=liar, **kwargs)

    golden = run()
    assert golden.optimized_latency_seconds.hex() == LIAR_LATENCY_HEX[liar]
    path = tmp_path / f"{liar}.ckpt.json"
    with pytest.raises(KeyboardInterrupt):
        run(checkpoint=path, cache_dir=tmp_path / "store",
            observer=_AbortAfter(2))
    partial = read_checkpoint(path)
    assert not partial.completed
    assert partial.request_document["liar"] == liar
    resumed = repro.resume_checkpoint(path)
    assert stripped(resumed) == stripped(golden)


def test_resume_checkpoint_can_relocate_the_checkpoint(tmp_path):
    source = tmp_path / "a.ckpt.json"
    moved = tmp_path / "b.ckpt.json"
    repro.optimize(model="resnet18", platform="cpu", strategy="random",
                   configurations=4, tuner_trials=2, seed=0, image_size=8,
                   fisher_batch=2, checkpoint=source)
    golden = repro.resume_checkpoint(source)
    relocated = repro.resume_checkpoint(source, checkpoint=moved)
    assert stripped(relocated) == stripped(golden)
    assert read_checkpoint(moved).completed


#: A model_guided checkpoint killed after its second tuning batch, written
#: by the 0.9.0 release (the request carries learner/acquisition/encoding
#: at their defaults), and the uninterrupted run's latency at that release.
PARENT_CHECKPOINT = Path(__file__).parent / "data" / "model_guided_parent.ckpt.json"
PARENT_LATENCY_HEX = "0x1.2d7a62266ddbbp-13"


def test_checkpoint_from_0_9_resumes_bit_identically(tmp_path):
    path = tmp_path / "resume.ckpt.json"
    shutil.copyfile(PARENT_CHECKPOINT, path)
    request = read_checkpoint(path).request_document
    assert (request["learner"], request["acquisition"],
            request["encoding"]) == ("ridge", "rank", "flat")
    golden = repro.optimize(model="resnet18", platform="cpu",
                            strategy="model_guided", configurations=10,
                            tuner_trials=2, seed=3, image_size=8,
                            fisher_batch=2)
    resumed = repro.resume_checkpoint(path)
    assert stripped(resumed) == stripped(golden)
    assert resumed.optimized_latency_seconds.hex() == PARENT_LATENCY_HEX


def test_a_legacy_checkpoint_resumes_over_a_store_it_cannot_fill(tmp_path):
    path = tmp_path / "resume.ckpt.json"
    shutil.copyfile(PARENT_CHECKPOINT, path)
    (tmp_path / "resume.ckpt.json.store").write_text("in the way")
    with faults.suppressed(), pytest.warns(DegradedExecutionWarning):
        resumed = repro.resume_checkpoint(path)
    assert resumed.optimized_latency_seconds.hex() == PARENT_LATENCY_HEX
    assert resumed.engine_statistics["tuner_calls"] > 0  # it re-tuned


def test_a_store_fault_degrades_the_resume_to_re_tuning(tmp_path):
    """A flush that fails quarantines the store instead of aborting the
    search, and the resume re-tunes what the store lost."""
    kwargs = dict(model="resnet18", platform="cpu", strategy="random",
                  configurations=4, tuner_trials=2, seed=3, image_size=8,
                  fisher_batch=2)
    path = tmp_path / "run.ckpt.json"
    with faults.suppressed():
        golden = repro.optimize(**kwargs)
    with faults.inject(cache_enospc=1.0), \
            pytest.warns(DegradedExecutionWarning):
        degraded = repro.optimize(**kwargs, checkpoint=path)
    assert read_checkpoint(path).completed
    with faults.suppressed():
        resumed = repro.resume_checkpoint(path)
    assert (resumed.engine_statistics["tuner_calls"]
            == golden.engine_statistics["tuner_calls"])
    assert stripped(degraded) == stripped(resumed) == stripped(golden)
