"""Tests for the public façade: sessions, typed documents, observers."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.api import (
    LayerDecision,
    OptimizationRequest,
    OptimizationResult,
    OptimizationSession,
    TuningResult,
    build_model,
    program_from_dict,
    program_to_dict,
)
from repro.core.engine import EvaluationEngine
from repro.core.sequences import SEQUENCE_KINDS, predefined_program
from repro.errors import ReproError
from repro.hardware.platform import get_platform
from repro.nn.convs import DerivedConv2d
from repro.tensor import Tensor, ops

#: Small settings shared by every search-running test in this module.
TINY = dict(budget=6, trials=3, width=0.125, image_size=8)


@pytest.fixture(scope="module")
def tiny_result() -> OptimizationResult:
    """One shared façade run (module-scoped: searches are the slow part)."""
    return repro.optimize("resnet34", platform="cpu", **TINY)


class TestCuratedSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version_is_single_sourced(self):
        import re
        from pathlib import Path

        import repro as package

        setup_text = (Path(package.__file__).parents[2] / "setup.py").read_text()
        assert "read_version" in setup_text
        assert re.match(r"\d+\.\d+\.\d+", package.__version__)


class TestPrograms:
    def test_named_programs_round_trip(self):
        for kind in SEQUENCE_KINDS:
            program = predefined_program(kind)
            document = json.loads(json.dumps(program_to_dict(program)))
            assert program_from_dict(document) == program

    def test_sampled_compositions_round_trip(self, small_conv_shape):
        from repro.core.program import random_composition
        from repro.utils import make_rng

        rng = make_rng(7)
        sampled = [random_composition(small_conv_shape, rng) for _ in range(10)]
        programs = [program for program in sampled if program is not None]
        assert programs, "the sampler produced no legal composition"
        for program in programs:
            document = json.loads(json.dumps(program_to_dict(program)))
            assert program_from_dict(document) == program


class TestRequest:
    def test_round_trip(self):
        request = OptimizationRequest(model="resnet18", platform="mgpu",
                                      strategy="random", configurations=12, seed=3)
        assert OptimizationRequest.from_dict(request.to_dict()) == request

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ReproError) as error:
            OptimizationRequest.from_dict({"learnr": "gp", "stratgy": "random"})
        assert "learnr" in str(error.value) and "stratgy" in str(error.value)
        document = OptimizationRequest().to_dict()
        document["unknown_future_field"] = 1
        with pytest.raises(ReproError, match="unknown_future_field"):
            OptimizationRequest.from_dict(document)

    def test_from_dict_rejects_foreign_schema(self):
        document = OptimizationRequest().to_dict()
        document["schema"] = "repro.optimization-request/2"
        with pytest.raises(ReproError, match="schema"):
            OptimizationRequest.from_dict(document)
        del document["schema"]
        assert OptimizationRequest.from_dict(document) == OptimizationRequest()

    @pytest.mark.parametrize("field,value", [
        ("learner", "gp"), ("acquisition", "ei"), ("encoding", "path"),
    ])
    def test_surrogate_fields_accept_only_the_one_surrogate(self, field, value):
        with pytest.raises(ReproError, match=field):
            OptimizationRequest.from_dict({field: value})
        with pytest.raises(ReproError, match=field):
            OptimizationRequest(**{field: value})

    @pytest.mark.parametrize("bad", [
        dict(platform="tpu"), dict(strategy="quantum"),
        dict(configurations=0), dict(tuner_trials=0), dict(fisher_batch=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ReproError):
            OptimizationRequest(**bad)


class TestResultDocuments:
    def test_json_round_trip(self, tiny_result):
        document = json.loads(json.dumps(tiny_result.to_dict()))
        restored = OptimizationResult.from_dict(document)
        assert restored == tiny_result
        assert restored.request == tiny_result.request
        assert restored.speedup == pytest.approx(tiny_result.speedup)

    def test_from_dict_tolerates_envelope_keys(self, tiny_result):
        document = tiny_result.to_dict()
        document["experiment"] = "fig4"
        document["data"] = {"panels": []}
        assert OptimizationResult.from_dict(document) == tiny_result

    def test_from_dict_rejects_missing_keys_and_foreign_schema(self):
        with pytest.raises(ReproError, match="missing keys"):
            OptimizationResult.from_dict({"platform": "cpu"})
        document = {"platform": "cpu", "baseline_latency_seconds": 1.0,
                    "optimized_latency_seconds": 0.5, "schema": "other/9"}
        with pytest.raises(ReproError, match="schema"):
            OptimizationResult.from_dict(document)

    def test_result_contents(self, tiny_result):
        assert tiny_result.platform == "cpu"
        assert tiny_result.speedup >= 1.0
        assert len(tiny_result.layers) > 0
        assert tiny_result.programs().keys() == {d.layer for d in tiny_result.layers}
        assert set(tiny_result.neural_layers()) <= set(tiny_result.programs())
        assert tiny_result.search_statistics["configurations_evaluated"] >= 1
        assert tiny_result.engine_statistics["tuner_calls"] >= 1
        assert "speedup" in tiny_result.summary() or "x speedup" in tiny_result.summary()

    def test_apply_to_materialises_derived_operators(self, tiny_result):
        model = build_model("resnet34", width_multiplier=TINY["width"])
        document = json.loads(json.dumps(tiny_result.to_dict()))
        restored = OptimizationResult.from_dict(document)
        restored.apply_to(model, seed=0)
        derived = [m for m in model.modules() if isinstance(m, DerivedConv2d)]
        assert len(derived) > 0
        assert len(derived) <= len(restored.neural_layers())


class TestTune:
    def test_tune_round_trip(self):
        result = repro.tune((16, 16, 8, 8, 3, 3), "group", platform="mgpu", trials=3)
        assert result.latency_seconds > 0
        document = json.loads(json.dumps(result.to_dict()))
        assert TuningResult.from_dict(document) == result

    def test_tune_accepts_program_objects(self):
        program = predefined_program("bottleneck", bottleneck=2)
        result = repro.tune((16, 16, 8, 8, 3, 3), program, platform="cpu", trials=3)
        assert result.program == program

    def test_bad_shape_rejected(self):
        with pytest.raises(ReproError, match="convolution shape"):
            repro.tune((16, 16), "standard", trials=3)


class TestSessionLifecycle:
    def test_engines_are_shared_per_key(self):
        with OptimizationSession("cpu", tuner_trials=3) as session:
            assert session.engine() is session.engine()
            assert session.engine("mgpu") is not session.engine()
            assert len(session.engines) == 2
        assert session.closed
        assert session.engines == ()

    def test_close_on_exception_saves_cache_and_stops_pools(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with OptimizationSession("cpu", tuner_trials=3,
                                     cache_dir=tmp_path) as session:
                session.tune((8, 8, 6, 6, 3, 3), "standard")
                engine = session.engine()
                engine.tune_many([], parallel="thread")  # spin a pool up
                raise RuntimeError("boom")
        assert session.closed
        shards = list(tmp_path.glob("shard-*.rcs"))
        assert len(shards) == 1
        assert not engine._pools  # worker pools shut down

    def test_cache_warm_start_across_sessions(self, tmp_path):
        with OptimizationSession("cpu", tuner_trials=3, cache_dir=tmp_path) as first:
            first.tune((8, 8, 6, 6, 3, 3), "standard")
        with OptimizationSession("cpu", tuner_trials=3, cache_dir=tmp_path) as second:
            second.tune((8, 8, 6, 6, 3, 3), "standard")
            assert second.engine().statistics.loaded_entries >= 1
            assert second.engine().statistics.tuner_calls == 0

    def test_exit_does_not_mask_the_body_exception(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("disk full")

        with pytest.raises(RuntimeError, match="body failed"):
            with OptimizationSession("cpu", tuner_trials=3,
                                     cache_dir=tmp_path) as session:
                engine = session.engine()
                session.tune((8, 8, 6, 6, 3, 3), "standard")
                monkeypatch.setattr(engine, "save_cache", fail)
                raise RuntimeError("body failed")
        assert not engine._pools  # still torn down

    def test_clean_exit_propagates_cache_failure(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            with OptimizationSession("cpu", tuner_trials=3,
                                     cache_dir=tmp_path) as session:
                session.tune((8, 8, 6, 6, 3, 3), "standard")
                monkeypatch.setattr(session.engine(), "save_cache", fail)

    def test_save_cache_without_path_raises_repro_error(self):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=3)
        with pytest.raises(ReproError, match="save_cache"):
            engine.save_cache()


class TestObserver:
    def test_search_streams_events(self):
        events = []
        repro.optimize("resnet18", platform="cpu", observer=events.append,
                       strategy="random", **TINY)
        kinds = [event.kind for event in events]
        for expected in ("search_started", "baseline_tuned", "generation",
                         "tune_batch", "search_finished"):
            assert expected in kinds, expected
        assert kinds[0] == "search_started"
        assert kinds[-1] == "search_finished"

    def test_events_are_json_serialisable_and_unsubscribed(self):
        events = []
        with OptimizationSession("cpu", tuner_trials=3,
                                 observer=events.append) as session:
            session.optimize("resnet18", budget=TINY["budget"],
                             width_multiplier=TINY["width"],
                             image_size=TINY["image_size"])
            engine = session.engine()
            assert not engine._observers  # detached after the search
            json.dumps([event.to_dict() for event in events])
        started = next(e for e in events if e.kind == "search_started")
        assert started.data["layers"] > 0
        finished = next(e for e in events if e.kind == "search_finished")
        assert finished.data["speedup"] >= 1.0


class TestDeterminism:
    def test_same_seed_same_outcome(self, tiny_result):
        again = repro.optimize("resnet34", platform="cpu", **TINY)
        assert again.layers == tiny_result.layers
        assert again.baseline_latency_seconds == tiny_result.baseline_latency_seconds
        assert again.optimized_latency_seconds == tiny_result.optimized_latency_seconds

    def test_seed_recorded_in_request(self, tiny_result):
        assert tiny_result.request is not None
        assert tiny_result.request.seed == 0
        assert tiny_result.seed == 0


class TestModelZoo:
    def test_build_model_by_name(self):
        model = build_model("resnet18", width_multiplier=0.125)
        assert model.num_parameters() > 0

    def test_unknown_model_rejected(self):
        with pytest.raises(ReproError, match="unknown model"):
            build_model("alexnet")

    def test_live_module_accepted(self):
        model = build_model("resnet18", width_multiplier=TINY["width"])
        with OptimizationSession("cpu", tuner_trials=3) as session:
            result = session.optimize(model, budget=4,
                                      image_size=TINY["image_size"])
        assert result.request.model == "instance:ResNet"
        assert result.speedup >= 1.0
        # The instance marker is provenance, not a replayable zoo name.
        with pytest.raises(ReproError, match="live module instance"):
            build_model(result.request.model)

    def test_optimize_leaves_the_caller_model_unchanged(self):
        """A search reads the model: BN running statistics and the
        parameters' gradients come back as they went in."""
        model = build_model("resnet18", width_multiplier=TINY["width"])
        rng = np.random.default_rng(0)
        images, labels = rng.normal(size=(2, 3, 8, 8)), rng.integers(0, 10, size=2)
        ops.cross_entropy(model(Tensor(images)), labels).backward()
        state = model.state_dict()
        grads = [param.grad.copy() for param in model.parameters()]
        repro.optimize(model, platform="cpu", **TINY)
        after = model.state_dict()
        assert state.keys() == after.keys()
        assert [key for key in state if not np.array_equal(state[key], after[key])] == []
        assert all(np.array_equal(grad, param.grad)
                   for grad, param in zip(grads, model.parameters()))
