"""The optimization service: daemon, client, queue, streams, resume.

The acceptance bar for the service is determinism under concurrency and
failure: N concurrent daemon jobs must produce results identical (up to
wall-clock statistics) to serial ``repro.optimize()`` calls with the
same requests, and a daemon stopped mid-job must resume the job from
its checkpoint to the identical result.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import pytest

import repro
from repro.api import OptimizationRequest
from repro.core.engine import EvaluationEngine
from repro.core.events import Observable
from repro.errors import ReproError, ServiceError
from repro.service import Client, JobStore, OptimizationService
from repro.service import protocol
from repro.utils import wait_until

#: Small enough for CI, big enough that a search spans several batches.
TINY = dict(model="resnet18", strategy="greedy", configurations=6,
            tuner_trials=2, image_size=8)

#: result-document keys that vary with wall clock or cache warmth, never
#: with the search's decisions (mirrors tools/kill_resume_smoke.py)
VOLATILE_STATISTICS = (
    "search_seconds", "compile_hits", "compile_misses", "prefix_depth_saved",
)


def stripped(document: dict) -> dict:
    document = dict(document)
    document.pop("engine_statistics", None)
    statistics = dict(document.get("search_statistics", {}))
    for key in VOLATILE_STATISTICS:
        statistics.pop(key, None)
    document["search_statistics"] = statistics
    return document


def serial_golden(request: OptimizationRequest) -> dict:
    """What ``repro.optimize`` returns for ``request``, fresh and serial."""
    return stripped(repro.optimize(**dataclasses.asdict(request)).to_dict())


@pytest.fixture
def running_service(tmp_path):
    service = OptimizationService(tmp_path / "svc", workers=4)
    service.start()
    try:
        yield service, Client(state_dir=tmp_path / "svc")
    finally:
        service.stop()


class TestJobStore:
    def test_create_assigns_dense_ids_and_persists(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.create({"model": "resnet18"})
        second = store.create({"model": "resnet34"})
        assert [first.job_id, second.job_id] == ["job-000001", "job-000002"]
        reread = store.get(first.job_id)
        assert reread.state == "queued"
        assert reread.request == {"model": "resnet18"}
        assert store.pending() == [first.job_id, second.job_id]

    def test_ids_survive_restart_without_reuse(self, tmp_path):
        store = JobStore(tmp_path)
        store.create({})
        assert JobStore(tmp_path).next_id() == "job-000002"

    def test_unknown_and_malformed_ids_raise(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(ServiceError, match="unknown job"):
            store.get("job-000042")
        with pytest.raises(ServiceError, match="malformed job id"):
            store.get("../../etc/passwd")

    def test_recover_requeues_only_running_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        running = store.create({})
        done = store.create({})
        running.state = "running"
        store.save(running)
        done.state = "done"
        store.save(done)
        assert store.recover() == [running.job_id]
        assert store.get(running.job_id).state == "queued"
        assert store.get(done.job_id).state == "done"

    def test_unknown_state_is_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create({})
        path = store._path(job.job_id)
        document = json.loads(path.read_text())
        document["state"] = "limbo"
        path.write_text(json.dumps(document))
        with pytest.raises(ServiceError, match="unknown state"):
            store.get(job.job_id)


class TestServiceEndToEnd:
    def test_submit_watch_result(self, running_service):
        _service, client = running_service
        job_id = client.submit(**TINY, seed=5)
        kinds = [event.get("kind") for event in client.watch(job_id)]
        assert kinds[0] == "job_started"
        assert "search_started" in kinds and "tune_batch" in kinds
        assert kinds[-2:] == ["job_finished", "stream_end"]
        record = client.status(job_id)
        assert record["state"] == "done" and record["attempts"] == 1
        result = client.result(job_id)
        assert result.speedup >= 1.0
        assert result.request is not None and result.request.seed == 5

    def test_concurrent_jobs_match_serial_optimize(self, running_service):
        # THE acceptance criterion: four jobs running concurrently in the
        # daemon — sharing one CacheStore and one worker pool — return
        # exactly what four serial repro.optimize() calls return for the
        # same requests.  Warmth moves cost around; never results.
        _service, client = running_service
        requests = [OptimizationRequest(**TINY, seed=seed)
                    for seed in (1, 2, 3, 4)]
        job_ids = [client.submit(request) for request in requests]
        daemon_results = [stripped(client.wait(job_id, timeout=300).to_dict())
                          for job_id in job_ids]
        for request, from_daemon in zip(requests, daemon_results):
            assert from_daemon == serial_golden(request)

    def test_repeated_request_reads_its_fisher_scores_from_the_store(
            self, running_service):
        # Jobs share the daemon's store, so the second run of a request
        # takes every Fisher score from it and runs no profile pass.
        _service, client = running_service
        request = OptimizationRequest(**TINY, seed=8)
        first = client.wait(client.submit(request), timeout=300)
        second = client.wait(client.submit(request), timeout=300)
        assert first.engine_statistics["fisher_profiles"] == 1
        assert second.engine_statistics["fisher_profiles"] == 0
        assert second.engine_statistics["fisher_scored"] == 0
        assert stripped(second.to_dict()) == serial_golden(request)

    def test_jobs_and_info_verbs(self, running_service):
        _service, client = running_service
        job_id = client.submit(**TINY, seed=6)
        client.wait(job_id, timeout=300)
        rows = client.jobs()
        assert [row["job_id"] for row in rows] == [job_id]
        assert rows[0]["state"] == "done"
        info = client.info()
        assert info["version"] == repro.__version__
        assert info["workers"] == 4
        assert info["jobs"] == {"done": 1}
        assert info["cache_entries"] > 0

    def test_cancel_queued_job(self, tmp_path):
        # One worker, two jobs: the second is still queued when cancelled.
        service = OptimizationService(tmp_path / "svc", workers=1)
        service.start()
        try:
            client = Client(state_dir=tmp_path / "svc")
            first = client.submit(**TINY, seed=7)
            second = client.submit(**TINY, seed=8)
            response = client.cancel(second)
            assert response["state"] == "cancelled"
            client.wait(first, timeout=300)
            with pytest.raises(ServiceError, match="cancelled"):
                client.wait(second, timeout=30)
        finally:
            service.stop()

    def test_result_of_unfinished_job_raises(self, tmp_path):
        service = OptimizationService(tmp_path / "svc", workers=1)
        service.start()
        try:
            client = Client(state_dir=tmp_path / "svc")
            client.submit(**TINY, seed=9)
            queued = client.submit(**TINY, seed=10)  # worker busy: queued
            with pytest.raises(ServiceError, match="not done"):
                client.result(queued)
        finally:
            service.stop()

    def test_invalid_request_fails_the_submitter(self, running_service):
        _service, client = running_service
        # Client-side: the request constructor rejects it before the wire.
        with pytest.raises(ReproError, match="unknown strategy"):
            client.submit(model="resnet18", strategy="psychic")
        # Daemon-side: a raw document smuggled past the client comes back
        # as an error response, not a queued job that fails later.
        with pytest.raises(ServiceError, match="unknown strategy"):
            client._call({"verb": "submit",
                          "request": {"model": "resnet18",
                                      "strategy": "psychic"}})
        assert client.jobs() == []

    def test_raw_submit_of_a_mistyped_field_gets_an_error_reply(
            self, running_service):
        # Straight onto the socket, past the client's own validation: the
        # daemon must answer, not drop the connection.
        _service, client = running_service
        host, port = client.endpoint()
        sock = protocol.connect(host, port)
        try:
            sock.sendall(protocol.encode_message(
                {"verb": "submit", "request": {"configurations": "60"}}))
            with sock.makefile("rb") as reader:
                reply = protocol.read_message(reader)
        finally:
            sock.close()
        assert reply["ok"] is False
        assert "configurations" in reply["error"]
        assert client.jobs() == []

    def test_submit_refuses_unknown_fields_and_retired_surrogates(
            self, running_service):
        _service, client = running_service
        with pytest.raises(ServiceError, match="learner"):
            client._call({"verb": "submit",
                          "request": {"model": "resnet18", "learner": "gp"}})
        with pytest.raises(ServiceError, match="learnr"):
            client._call({"verb": "submit",
                          "request": {"model": "resnet18", "learnr": "gp"}})
        assert client.jobs() == []

    def test_submit_refuses_a_zero_fisher_threshold(self, running_service):
        _service, client = running_service
        with pytest.raises(ReproError, match="fisher_threshold"):
            client.submit(model="resnet18", fisher_threshold=0)
        with pytest.raises(ServiceError, match="fisher_threshold"):
            client._call({"verb": "submit",
                          "request": {"model": "resnet18",
                                      "fisher_threshold": 0}})
        assert client.jobs() == []

    def test_watch_sees_job_finished_before_the_terminal_state(
            self, running_service, monkeypatch):
        # Delay the job_finished append: a watcher must still read it,
        # because the terminal state only becomes visible after the event.
        log_event = OptimizationService._log_event

        def delayed(self, job_id, kind, data):
            if kind == "job_finished":
                time.sleep(0.5)
            return log_event(self, job_id, kind, data)

        monkeypatch.setattr(OptimizationService, "_log_event", delayed)
        _service, client = running_service
        job_id = client.submit(**TINY, seed=11)
        kinds = [event.get("kind") for event in client.watch(job_id)]
        assert kinds[-2:] == ["job_finished", "stream_end"]

    def test_client_without_daemon_raises(self, tmp_path):
        with pytest.raises(ServiceError, match="no service endpoint"):
            Client(state_dir=tmp_path / "empty").status("job-000001")
        protocol.write_endpoint(tmp_path / "dead", host="127.0.0.1", port=1)
        with pytest.raises(ServiceError, match="cannot reach"):
            Client(state_dir=tmp_path / "dead").status("job-000001")


class TestStopResume:
    def test_graceful_stop_requeues_and_restart_resumes_identically(
            self, tmp_path, monkeypatch):
        state = tmp_path / "svc"
        request = OptimizationRequest(model="resnet18", strategy="evolutionary",
                                      configurations=8, tuner_trials=2,
                                      image_size=8, seed=3)
        golden = serial_golden(request)

        # The job's first tuning batch waits until the stop is requested,
        # so the stop lands while the job runs however fast its search is.
        released, held = threading.Event(), []
        tune_many = EvaluationEngine.tune_many

        def first_batch_held(engine, items):
            latencies = tune_many(engine, items)
            if not held:
                held.append(True)
                released.wait(timeout=120)
            return latencies

        monkeypatch.setattr(EvaluationEngine, "tune_many", first_batch_held)
        service = OptimizationService(state, workers=1)
        service.start()
        client = Client(state_dir=state)
        job_id = client.submit(request)
        # Let the job pay for some tunings, then stop the daemon under it.
        events_path = service.events_path(job_id)
        try:
            wait_until(lambda: events_path.exists()
                       and "tune_batch" in events_path.read_text(),
                       timeout=120, description="the job's first tune_batch")
        except TimeoutError:
            pytest.fail("the job never started tuning")
        service.request_stop()
        released.set()
        service.stop()

        interrupted = JobStore(state / "jobs").get(job_id)
        assert interrupted.state == "queued"  # requeued, not failed
        assert service.checkpoint_path(job_id).exists()

        resumed_service = OptimizationService(state, workers=1)
        resumed_service.start()
        try:
            result = Client(state_dir=state).wait(job_id, timeout=300)
        finally:
            resumed_service.stop()
        job = JobStore(state / "jobs").get(job_id)
        assert job.attempts >= 2  # the first attempt was interrupted
        assert stripped(result.to_dict()) == golden

    def test_stop_is_idempotent_and_removes_endpoint(self, tmp_path):
        service = OptimizationService(tmp_path / "svc", workers=1)
        service.start()
        assert protocol.endpoint_path(tmp_path / "svc").exists()
        service.stop()
        service.stop()
        assert not protocol.endpoint_path(tmp_path / "svc").exists()


class TestObservableThreadSafety:
    def test_concurrent_subscribe_unsubscribe_during_emit(self):
        observable = Observable()
        seen = []
        observable.subscribe(lambda event: seen.append(event.kind))
        failures = []
        stop = threading.Event()

        def churn() -> None:
            try:
                while not stop.is_set():
                    observer = lambda event: None  # noqa: E731
                    observable.subscribe(observer)
                    observable.unsubscribe(observer)
            except Exception as exc:  # pragma: no cover - the assertion
                failures.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for index in range(2000):
                observable.emit("tick", index=index)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures
        assert len(seen) == 2000  # the stable observer missed nothing

    def test_unsubscribe_during_emit_takes_effect_next_event(self):
        observable = Observable()
        calls = []

        def self_removing(event) -> None:
            calls.append(event.kind)
            observable.unsubscribe(self_removing)

        observable.subscribe(self_removing)
        observable.emit("first")
        observable.emit("second")
        assert calls == ["first"]
