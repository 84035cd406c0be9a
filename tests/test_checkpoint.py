"""Checkpoint/resume: a killed search continues bit-identically.

The contract under test (DESIGN.md §13): a checkpoint is the request
document plus the engine's paid-for latency entries; resuming replays
the request over a warmed engine, so the result equals the uninterrupted
run's — for a checkpoint taken at *any* point, including completion.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointWriter,
    SearchCheckpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.engine import EvaluationEngine
from repro.core.search import SEARCH_STRATEGIES
from repro.core.sequences import predefined_program
from repro.errors import CheckpointError
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


def _warm_engine() -> EvaluationEngine:
    engine = EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=0)
    for program in ("standard", "depthwise"):
        engine.tuned_latency(ConvolutionShape(8, 8, 6, 6, 3, 3),
                             predefined_program(program))
    return engine


# ---------------------------------------------------------------------------
# The file format
# ---------------------------------------------------------------------------
class TestCheckpointFormat:
    def test_round_trip_preserves_entries_exactly(self, tmp_path):
        engine = _warm_engine()
        checkpoint = SearchCheckpoint(
            request_document=_request_document(),
            entries=engine.cache_entries(), completed=False,
            progress={"cache_entries": engine.cache_size})
        path = write_checkpoint(tmp_path / "run.ckpt.json", checkpoint)
        parsed = read_checkpoint(path)
        assert parsed.entries == checkpoint.entries  # float-exact
        assert parsed.request_document == checkpoint.request_document
        assert not parsed.completed
        assert parsed.progress["cache_entries"] == engine.cache_size

    def test_writes_are_atomic_and_leave_no_scratch(self, tmp_path):
        target = tmp_path / "run.ckpt.json"
        checkpoint = SearchCheckpoint(request_document=_request_document())
        write_checkpoint(target, checkpoint)
        write_checkpoint(target, checkpoint)  # overwrite in place
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert json.loads(target.read_text())["schema"] == CHECKPOINT_SCHEMA

    def test_unwritable_target_is_an_actionable_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        with pytest.raises(CheckpointError, match="writable"):
            write_checkpoint(blocker / "run.ckpt.json",
                             SearchCheckpoint(request_document={}))

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            read_checkpoint(tmp_path / "absent.ckpt.json")

    def test_torn_json_is_reported_as_corrupt(self, tmp_path):
        victim = tmp_path / "torn.ckpt.json"
        checkpoint = SearchCheckpoint(request_document=_request_document())
        write_checkpoint(victim, checkpoint)
        victim.write_text(victim.read_text()[:-20])
        with pytest.raises(CheckpointError, match="not valid JSON"):
            read_checkpoint(victim)

    def test_wrong_schema_is_rejected(self, tmp_path):
        victim = tmp_path / "alien.ckpt.json"
        victim.write_text(json.dumps({"schema": "other/9", "request": {}}))
        with pytest.raises(CheckpointError, match="incompatible build"):
            read_checkpoint(victim)

    def test_missing_request_is_rejected(self, tmp_path):
        victim = tmp_path / "empty.ckpt.json"
        victim.write_text(json.dumps({"schema": CHECKPOINT_SCHEMA}))
        with pytest.raises(CheckpointError, match="request document"):
            read_checkpoint(victim)

    def test_corrupt_entry_names_its_index(self, tmp_path):
        document = SearchCheckpoint(
            request_document=_request_document(),
            entries=_warm_engine().cache_entries()).to_dict()
        del document["entries"][1]["latency_seconds"]
        victim = tmp_path / "bad-entry.ckpt.json"
        victim.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="entry #1"):
            read_checkpoint(victim)


# ---------------------------------------------------------------------------
# The writer
# ---------------------------------------------------------------------------
class TestCheckpointWriter:
    def test_writes_on_tune_batches_and_emits_events(self, tmp_path):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=0)
        saved = []
        engine.subscribe(lambda e: saved.append(e)
                         if e.kind == "checkpoint_saved" else None)
        writer = CheckpointWriter(tmp_path / "run.ckpt.json",
                                  _request_document(), engine)
        engine.subscribe(writer.on_event)
        engine.tune_many([(ConvolutionShape(8, 8, 6, 6, 3, 3),
                           predefined_program("standard"))])
        engine.tune_many([(ConvolutionShape(16, 8, 6, 6, 3, 3),
                           predefined_program("standard"))])
        assert writer.writes == 2
        assert [event.data["entries"] for event in saved] == [1, 2]
        assert read_checkpoint(writer.path).entries == engine.cache_entries()

    def test_interval_rate_limits_writes(self, tmp_path):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=0)
        writer = CheckpointWriter(tmp_path / "run.ckpt.json",
                                  _request_document(), engine,
                                  interval_seconds=3600.0)
        engine.subscribe(writer.on_event)
        for c_out in (8, 16, 24):
            engine.tune_many([(ConvolutionShape(c_out, 8, 6, 6, 3, 3),
                               predefined_program("standard"))])
        assert writer.writes == 1  # the first batch; the rest rate-limited
        final = writer.write(completed=True)  # forced, ignores the interval
        assert writer.writes == 2
        assert read_checkpoint(final).completed


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


@pytest.mark.parametrize("strategy", sorted(SEARCH_STRATEGIES))
def test_resume_is_bit_identical(strategy, tmp_path):
    kwargs = dict(model="resnet18", platform="cpu", strategy=strategy,
                  budget=4, trials=2, seed=3, image_size=8, fisher_batch=2)
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


#: resnet18/cpu model_guided at budget 16, seed 3: the uninterrupted run's
#: latency under each liar, recorded at the 0.9.0 release (the liar changes
#: the picks, and cl_min happens to agree with the static ranking here).
LIAR_LATENCY_HEX = {"cl_mean": "0x1.128baf688ef0ap-13",
                    "cl_min": "0x1.12252ce2032dfp-13",
                    "cl_max": "0x1.2558e65562300p-13",
                    "none": "0x1.12252ce2032dfp-13"}


@pytest.mark.parametrize("liar", sorted(LIAR_LATENCY_HEX))
def test_model_guided_resume_is_bit_identical_for_every_liar(liar, tmp_path):
    """The liar rides in the checkpoint's request, and a resumed run makes
    the uninterrupted run's surrogate-guided picks under it."""
    def run(**kwargs):
        with repro.OptimizationSession(
                "cpu", tuner_trials=2, seed=3,
                observer=kwargs.pop("observer", None)) as session:
            return session.optimize("resnet18", strategy="model_guided",
                                    budget=16, image_size=8, fisher_batch=2,
                                    liar=liar, **kwargs)

    golden = run()
    assert golden.optimized_latency_seconds.hex() == LIAR_LATENCY_HEX[liar]
    path = tmp_path / f"{liar}.ckpt.json"
    with pytest.raises(KeyboardInterrupt):
        run(checkpoint=path, observer=_AbortAfter(2))
    partial = read_checkpoint(path)
    assert not partial.completed
    assert partial.request_document["liar"] == liar
    resumed = repro.resume_checkpoint(path)
    assert stripped(resumed) == stripped(golden)


def test_resume_checkpoint_can_relocate_the_checkpoint(tmp_path):
    source = tmp_path / "a.ckpt.json"
    moved = tmp_path / "b.ckpt.json"
    repro.optimize(model="resnet18", platform="cpu", strategy="random",
                   budget=4, trials=2, seed=0, image_size=8, fisher_batch=2,
                   checkpoint=source)
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
                            strategy="model_guided", budget=10, trials=2,
                            seed=3, image_size=8, fisher_batch=2)
    resumed = repro.resume_checkpoint(path)
    assert stripped(resumed) == stripped(golden)
    assert resumed.optimized_latency_seconds.hex() == PARENT_LATENCY_HEX
