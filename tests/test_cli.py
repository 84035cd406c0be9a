"""Smoke tests for every ``python -m repro`` subcommand (CI scale)."""

from __future__ import annotations

import json

import pytest

from repro.api import OptimizationResult, TuningResult
from repro.cli import main
from repro.errors import DegradedExecutionWarning

#: Small search settings shared by the CLI runs in this module.
TINY_OPTIMIZE = ["--budget", "6", "--trials", "3", "--width", "0.125",
                 "--image-size", "8"]


def run_cli(capsys, *argv: str) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def assert_schema(row: dict, schema: dict, *, context: str) -> None:
    """Exact keys and value types: the machine-readable CLI contract.

    Scripts parse these payloads, so a key renamed, dropped, or retyped
    is a breaking change — the schema pins all three failure modes.
    """
    assert set(row) == set(schema), (
        f"{context}: keys {sorted(row)} != contract {sorted(schema)}")
    for key, types in schema.items():
        assert isinstance(row[key], types), (
            f"{context}: {key}={row[key]!r} is {type(row[key]).__name__}, "
            f"contract says {types}")


#: ``repro cache info --json``: one row per shard (ShardInfo.to_dict).
CACHE_STORE_ROW_SCHEMA = {
    "platform": str, "path": str, "bytes": int, "entries": int,
    "records": int, "dead_records": int, "format_version": int,
    "error": (str, type(None)),
}

#: ``repro cache info --json``: the process-local compile trie block.
COMPILE_CACHE_SCHEMA = {
    "entries": int, "max_entries": int, "enabled": bool,
    "compile_hits": int, "compile_misses": int, "prefix_hits": int,
    "prefix_depth_saved": int, "steps_replayed": int, "evictions": int,
    "invalidations": int,
}

#: ``repro jobs --json``: one row per submitted job.
JOBS_ROW_SCHEMA = {
    "job_id": str, "state": str, "attempts": int,
    "model": (str, type(None)), "platform": (str, type(None)),
}


class TestExperiments:
    def test_lists_all_eleven(self, capsys):
        out = run_cli(capsys, "experiments")
        names = ("table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                 "fig9", "analysis", "analysis_predictor", "deploy")
        for name in names:
            assert name in out
        assert "11 registered experiments" in out

    def test_json_listing(self, capsys):
        listing = json.loads(run_cli(capsys, "experiments", "--json"))
        assert len(listing) == 11
        assert {entry["name"] for entry in listing} >= {"fig4", "table1"}
        assert all("title" in entry and "scales" in entry for entry in listing)


class TestPlatforms:
    def test_table(self, capsys):
        out = run_cli(capsys, "platforms")
        for name in ("cpu", "gpu", "mcpu", "mgpu"):
            assert name in out

    def test_json(self, capsys):
        specs = json.loads(run_cli(capsys, "platforms", "--json"))
        assert set(specs) == {"cpu", "gpu", "mcpu", "mgpu"}
        assert specs["cpu"]["peak_gflops"] > 0


class TestRun:
    def test_report(self, capsys):
        out = run_cli(capsys, "run", "table1")
        assert "Table 1" in out and "threadIdx" in out

    def test_json_document(self, capsys):
        document = json.loads(run_cli(capsys, "run", "table1", "--json"))
        assert document["schema"] == "repro.experiment/1"
        assert document["experiment"] == "table1"
        assert document["data"]["all_applicable"] is True

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_platform_flag_rejected_when_unsupported(self, capsys):
        assert main(["run", "table1", "--platform", "gpu"]) == 1
        assert "--platform" in capsys.readouterr().err

    def test_declared_options_reach_the_run_fn(self, capsys, monkeypatch):
        from repro.experiments import registry

        captured = {}

        def fake_run(scale, seed=0, **options):
            captured.update(options)
            return {"scale": str(scale)}

        spec = registry.ExperimentSpec(
            name="fake", title="a fake experiment", description="test-only",
            run=fake_run, report=lambda result: "fake report",
            payload=lambda result: result,
            options=("platforms", "network", "max_layers"))
        registry.load_all()
        monkeypatch.setitem(registry.EXPERIMENT_REGISTRY, "fake", spec)
        out = run_cli(capsys, "run", "fake", "--platform", "gpu",
                      "--network", "ResNet-34", "--max-layers", "3")
        # --platform restricts the sweep; typed flags arrive as keywords.
        assert captured == {"platforms": ("gpu",), "network": "ResNet-34",
                            "max_layers": 3}
        assert "fake report" in out
        assert main(["run", "fake", "--strategy", "random"]) == 1
        assert "--strategy" in capsys.readouterr().err
        assert main(["run", "fake", "--platform", "cpu",
                     "--platforms", "cpu,gpu"]) == 1
        assert "not both" in capsys.readouterr().err


class TestOptimize:
    def test_json_round_trips_as_result(self, capsys):
        out = run_cli(capsys, "optimize", "--model", "resnet18",
                      "--json", *TINY_OPTIMIZE)
        result = OptimizationResult.from_dict(json.loads(out))
        assert result.speedup >= 1.0
        assert result.request is not None
        assert result.request.model == "resnet18"

    def test_summary_output(self, capsys):
        out = run_cli(capsys, "optimize", "--model", "resnet18", *TINY_OPTIMIZE)
        assert "speedup" in out

    def test_unknown_model_fails(self, capsys):
        assert main(["optimize", "--model", "vgg"]) == 1
        assert "unknown model" in capsys.readouterr().err

    def test_retired_surrogate_flags_are_refused(self, capsys):
        # model_guided has one surrogate; its former selectors are gone
        # from every command that carried them.
        for command in ("optimize", "submit", "run"):
            for flag, value in (("--learner", "gp"), ("--acquisition", "ei"),
                                ("--encoding", "path")):
                with pytest.raises(SystemExit) as exited:
                    main([command, flag, value])
                assert exited.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err


class TestTune:
    def test_json_round_trips_as_result(self, capsys):
        out = run_cli(capsys, "tune", "--shape", "16x16x8x8x3x3",
                      "--program", "seq2", "--platform", "mgpu",
                      "--trials", "3", "--json")
        result = TuningResult.from_dict(json.loads(out))
        assert result.platform == "mgpu"
        assert result.latency_seconds > 0
        assert result.program.kind == "seq2"

    def test_text_output(self, capsys):
        out = run_cli(capsys, "tune", "--shape", "16,16,8,8,3,3", "--trials", "3")
        assert "ms" in out

    def test_bad_shape_fails(self, capsys):
        assert main(["tune", "--shape", "banana"]) == 1
        assert "cannot parse shape" in capsys.readouterr().err


class TestCache:
    def test_info_and_clear(self, capsys, tmp_path):
        run_cli(capsys, "optimize", "--model", "resnet18",
                "--cache-dir", str(tmp_path), *TINY_OPTIMIZE)
        info = run_cli(capsys, "cache", "info", "--cache-dir", str(tmp_path))
        assert "entries" in info and "shard-cpu" in info
        payload = json.loads(run_cli(capsys, "cache", "info",
                                     "--cache-dir", str(tmp_path), "--json"))
        rows = payload["stores"]
        assert len(rows) == 1 and rows[0]["entries"] > 0
        assert rows[0]["platform"] == "cpu"
        # The process-local compile trie is reported alongside the stores.
        compile_info = payload["compile_cache"]
        assert compile_info["max_entries"] > 0
        assert compile_info["compile_misses"] >= 0
        # clear deletes only recognised store files and reports the rest.
        (tmp_path / "notes.txt").write_text("precious")
        out = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert "removed 2 cache store file(s)" in out  # segment + lock file
        assert "skipped notes.txt" in out
        assert (tmp_path / "notes.txt").exists()
        assert "no engine cache stores" in run_cli(
            capsys, "cache", "info", "--cache-dir", str(tmp_path))

    def test_info_json_schema(self, capsys, tmp_path):
        run_cli(capsys, "tune", "--shape", "8x8x6x6x3x3", "--trials", "2",
                "--cache-dir", str(tmp_path))
        payload = json.loads(run_cli(capsys, "cache", "info",
                                     "--cache-dir", str(tmp_path), "--json"))
        assert set(payload) == {"stores", "compile_cache"}
        assert isinstance(payload["stores"], list) and payload["stores"]
        for row in payload["stores"]:
            assert_schema(row, CACHE_STORE_ROW_SCHEMA, context="stores row")
        assert_schema(payload["compile_cache"], COMPILE_CACHE_SCHEMA,
                      context="compile_cache")

    def test_unusable_cache_dir_degrades(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        with pytest.warns(DegradedExecutionWarning, match="quarantined"):
            out = run_cli(capsys, "tune", "--shape", "8x8x6x6x3x3",
                          "--trials", "2", "--cache-dir", str(blocker / "store"))
        assert "ms" in out

    def test_clear_rejects_a_file_as_cache_dir(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        assert main(["cache", "clear", "--cache-dir", str(blocker)]) == 11
        assert str(blocker) in capsys.readouterr().err
        assert blocker.read_text() == "in the way"

    def test_import_rejects_a_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.jsonl"
        assert main(["cache", "import", str(missing),
                     "--cache-dir", str(tmp_path / "store")]) == 11
        assert str(missing) in capsys.readouterr().err

    def test_import_rejects_a_file_as_cache_dir(self, capsys, tmp_path):
        source, envelope = tmp_path / "source", tmp_path / "warm.jsonl"
        run_cli(capsys, "tune", "--shape", "8x8x6x6x3x3", "--trials", "2",
                "--cache-dir", str(source))
        run_cli(capsys, "cache", "export", str(envelope), "--cache-dir", str(source))
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        assert main(["cache", "import", str(envelope),
                     "--cache-dir", str(blocker)]) == 11
        assert str(blocker) in capsys.readouterr().err

    def test_empty_dir(self, capsys, tmp_path):
        assert "no engine cache stores" in run_cli(
            capsys, "cache", "info", "--cache-dir", str(tmp_path))

    def test_env_var_is_the_default_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_cli(capsys, "tune", "--shape", "8x8x6x6x3x3", "--trials", "3")
        assert list(tmp_path.glob("shard-*.rcs"))
        # `cache info` inspects the same default location.
        assert "shard-cpu" in run_cli(capsys, "cache", "info")


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestExitCodes:
    def test_error_families_map_to_stable_codes(self):
        from repro.cli import EXIT_CODES, exit_code_for
        from repro.errors import (CacheStoreError, CheckpointError,
                                  EngineError, LegalityError, ReproError,
                                  SearchError, ServiceError, ShapeError)

        assert exit_code_for(ReproError("x")) == 1
        assert exit_code_for(SearchError("x")) == 9
        assert exit_code_for(EngineError("x")) == 10
        assert exit_code_for(CheckpointError("x")) == 12
        assert exit_code_for(ServiceError("x")) == 13
        # Subclasses inherit their family's code via the MRO walk ...
        assert exit_code_for(LegalityError("x")) == EXIT_CODES[
            type(LegalityError("x")).__mro__[1]]
        assert exit_code_for(CacheStoreError("x")) == 11  # not EngineError's
        # ... and families without their own row fall back to the base.
        assert exit_code_for(ShapeError("x")) == 1

    def test_service_error_reaches_the_shell(self, capsys, tmp_path):
        assert main(["status", "job-000001",
                     "--state-dir", str(tmp_path)]) == 13
        assert "no service endpoint" in capsys.readouterr().err

    def test_checkpoint_error_reaches_the_shell(self, capsys, tmp_path):
        torn = tmp_path / "torn.ckpt.json"
        torn.write_text("{ not json")
        assert main(["resume", str(torn)]) == 12
        assert "checkpoint" in capsys.readouterr().err.lower()


class TestSignalledOptimize:
    def test_sigterm_flushes_checkpoint_and_resume_matches_golden(
            self, capsys, tmp_path, monkeypatch):
        # Satellite of the service PR: `repro optimize --checkpoint` must
        # translate SIGTERM into a final checkpoint flush and exit 130,
        # and `repro resume` must then reproduce the uninterrupted run.
        import os
        import signal

        from repro import cli

        args = ["--model", "resnet18", "--strategy", "evolutionary",
                "--budget", "8", "--trials", "2", "--seed", "3",
                "--image-size", "8", "--json"]
        golden = json.loads(run_cli(capsys, "optimize", *args))

        fired = []

        def kill_on_second_batch(event) -> None:
            if event.kind == "tune_batch":
                fired.append(event)
                if len(fired) == 2:
                    os.kill(os.getpid(), signal.SIGTERM)

        monkeypatch.setattr(cli, "_print_progress", kill_on_second_batch)
        checkpoint = tmp_path / "run.ckpt.json"
        # Rate-limit periodic writes away: only the abort-path flush can
        # make the checkpoint carry the second batch's tunings.
        code = main(["optimize", *args, "--progress",
                     "--checkpoint", str(checkpoint),
                     "--checkpoint-interval", "3600"])
        err = capsys.readouterr().err
        assert code == 130, err
        assert "resume with" in err
        document = json.loads(checkpoint.read_text())
        assert document["entries"], "the final flush must persist tunings"
        assert not document["completed"]

        resumed = json.loads(run_cli(capsys, "resume", str(checkpoint),
                                     "--json"))
        for key in ("engine_statistics",):
            golden.pop(key, None)
            resumed.pop(key, None)
        for volatile in ("search_seconds", "compile_hits", "compile_misses",
                         "prefix_hits", "prefix_depth_saved"):
            golden["search_statistics"].pop(volatile, None)
            resumed["search_statistics"].pop(volatile, None)
        assert resumed == golden


class TestServiceSubcommands:
    @pytest.fixture
    def daemon(self, tmp_path):
        from repro.service import OptimizationService

        service = OptimizationService(tmp_path / "svc", workers=1)
        service.start()
        try:
            yield str(tmp_path / "svc")
        finally:
            service.stop()

    def test_submit_wait_status_result_jobs_watch(self, capsys, daemon):
        out = run_cli(capsys, "submit", "--state-dir", daemon,
                      "--model", "resnet18", *TINY_OPTIMIZE)
        job_id = out.strip()
        assert job_id.startswith("job-")
        summary = run_cli(capsys, "submit", "--state-dir", daemon,
                          "--model", "resnet18", "--wait", *TINY_OPTIMIZE)
        assert "speedup" in summary
        assert job_id in run_cli(capsys, "status", "--state-dir", daemon,
                                 job_id)
        document = json.loads(run_cli(capsys, "result", "--state-dir", daemon,
                                      job_id, "--json"))
        result = OptimizationResult.from_dict(document)
        assert result.speedup >= 1.0
        listing = run_cli(capsys, "jobs", "--state-dir", daemon)
        assert listing.count("done") == 2
        events = [json.loads(line) for line in
                  run_cli(capsys, "watch", "--state-dir", daemon,
                          job_id).splitlines()]
        assert events[0]["kind"] == "job_started"
        assert events[-1]["kind"] == "stream_end"
        assert events[-1]["data"]["state"] == "done"

    def test_jobs_json_schema(self, capsys, daemon):
        assert json.loads(run_cli(capsys, "jobs", "--state-dir", daemon,
                                  "--json")) == []
        out = run_cli(capsys, "submit", "--state-dir", daemon,
                      "--model", "resnet18", "--wait", *TINY_OPTIMIZE)
        assert "speedup" in out
        rows = json.loads(run_cli(capsys, "jobs", "--state-dir", daemon,
                                  "--json"))
        assert len(rows) == 1
        for row in rows:
            assert_schema(row, JOBS_ROW_SCHEMA, context="jobs row")
        assert rows[0]["state"] == "done"
        assert rows[0]["model"] == "resnet18"

    def test_cancel_and_unknown_job(self, capsys, daemon):
        assert main(["cancel", "--state-dir", daemon, "job-000042"]) == 13
        assert "unknown job" in capsys.readouterr().err
