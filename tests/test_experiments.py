"""Integration tests for the experiment drivers (small custom scales).

``data/driver_goldens.json`` pins what the drivers report on the tiny
scale below: chosen programs, speedups, latencies, TVM/NAS parameter
counts, rejection counts, tunings and ``AutoTuner.tune`` calls, per pinned
input.  Wall-clock fields, compile-cache traffic (it depends on what ran
earlier in the process) and Ours' parameter count are not pinned.  Floats
are compared at a relative tolerance of 1e-9: their last digits depend on
how BLAS splits a reduction.

Re-record the table only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_experiments.py > tests/data/driver_goldens.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentScale,
    analysis_predictor,
    analysis_search,
    deploy_study,
    experiment_names,
    fig3_fisher_filter,
    fig4_end_to_end,
    fig5_sequence_frequency,
    fig6_layerwise,
    fig9_interpolation,
    get_experiment,
    run_experiment,
    table1_primitives,
    get_scale,
)
from repro.experiments.common import (
    PipelineScale,
    cifar_dataset,
    cifar_model_builders,
    format_table,
)
from repro.tenir.autotune import AutoTuner

GOLDENS = Path(__file__).parent / "data" / "driver_goldens.json"
TOLERANCE = dict(rel=1e-9, abs=1e-15)
#: search statistics that measure wall-clock time or the process-wide
#: compile cache, not the search
UNPINNED_STATISTICS = ("search_seconds", "compile_hits", "compile_misses",
                       "prefix_depth_saved")


def tiny() -> ExperimentScale:
    """A test-only scale, even smaller than the CI scale."""
    pipeline = PipelineScale(width_multiplier=0.125, image_size=8, fisher_batch=4,
                             configurations=8, tuner_trials=3, train_size=32, test_size=16)
    return ExperimentScale(name="ci", pipeline=pipeline, cell_samples=3, cell_epochs=1,
                           proxy_epochs=1, proxy_batch=16, fbnet_epochs=1,
                           imagenet_image_size=8, imagenet_width=0.125,
                           imagenet_depth=0.2, interpolation_steps=1)


@pytest.fixture(scope="module")
def tiny_scale() -> ExperimentScale:
    return tiny()


#: The pinned driver inputs, by golden key.
PINNED_RUNS = {
    "fig4": lambda scale: fig4_end_to_end.run(
        scale, seed=0, networks=("ResNet-34",), platforms=("cpu",)),
    "deploy": lambda scale: deploy_study.run(
        scale, seed=0, network="ResNet-34", platforms=("cpu",)),
    "fig5": lambda scale: fig5_sequence_frequency.run(
        scale, seed=0, networks=("ResNet-34",)),
    "fig6": lambda scale: fig6_layerwise.run(scale, seed=0, max_layers=6),
    "analysis": lambda scale: analysis_search.run(
        scale, seed=0, network="ResNet-34"),
    "analysis_predictor": lambda scale: analysis_predictor.run(
        scale, seed=0, network="ResNet-34",
        strategies=("evolutionary", "model_guided")),
    "analysis_predictor_transfer": lambda scale: analysis_predictor.run(
        scale, seed=0, network="ResNet-34", strategies=("model_guided",),
        transfer_from="mgpu"),
}


def run_counted(name: str, scale: ExperimentScale):
    """Run one pinned input; return its result and its ``AutoTuner.tune`` calls."""
    calls = {"count": 0}
    original = AutoTuner.tune

    def counted(self, computation, platform):
        calls["count"] += 1
        return original(self, computation, platform)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AutoTuner, "tune", counted)
        result = PINNED_RUNS[name](scale)
    return result, calls["count"]


def _primary(optimization) -> dict:
    """The chosen program and scores of every layer, and the search's counts."""
    return {"layers": [decision.to_dict() for decision in optimization.layers],
            "search_statistics": {
                key: value for key, value in optimization.search_statistics.items()
                if key not in UNPINNED_STATISTICS}}


def _observe_fig4(result) -> dict:
    payload = fig4_end_to_end.to_payload(result)
    for panel in payload["panels"]:
        del panel["parameters"]["Ours"]
    return {"payload": payload,
            **_primary(fig4_end_to_end.primary_optimization(result))}


def _observe_deploy(result) -> dict:
    return {"payload": deploy_study.to_payload(result),
            "approaches": {
                platform: {"TVM": [panel.tvm.latency_ms, panel.tvm.parameters],
                           "NAS": [panel.nas.latency_ms, panel.nas.parameters],
                           "Ours": [panel.ours.latency_ms]}
                for platform, panel in result.panels.items()},
            **_primary(deploy_study.primary_optimization(result))}


def _observe_analysis(result) -> dict:
    payload = analysis_search.to_payload(result)
    del payload["search_seconds"]
    return {"payload": payload}


def _observe_analysis_predictor(result) -> dict:
    payload = analysis_predictor.to_payload(result)
    for row in payload["strategies"]:
        del row["search_seconds"]
    return {"payload": payload,
            **_primary(analysis_predictor.primary_optimization(result))}


OBSERVERS = {
    "fig4": _observe_fig4,
    "deploy": _observe_deploy,
    "fig5": lambda result: {"payload": fig5_sequence_frequency.to_payload(result)},
    "fig6": lambda result: {"payload": fig6_layerwise.to_payload(result)},
    "analysis": _observe_analysis,
    "analysis_predictor": _observe_analysis_predictor,
    "analysis_predictor_transfer": _observe_analysis_predictor,
}


def observe(name: str, result, tuner_calls: int) -> dict:
    """What the golden pins of one pinned run, as plain JSON."""
    return json.loads(json.dumps({**OBSERVERS[name](result),
                                  "tuner_calls": tuner_calls}))


def assert_matches(observed, golden, where: str) -> None:
    """Equal structure and values; floats at the golden tolerance."""
    if isinstance(golden, dict):
        assert isinstance(observed, dict) and sorted(observed) == sorted(golden), where
        for key, value in golden.items():
            assert_matches(observed[key], value, f"{where}.{key}")
    elif isinstance(golden, list):
        assert isinstance(observed, list) and len(observed) == len(golden), where
        for index, (item, value) in enumerate(zip(observed, golden)):
            assert_matches(item, value, f"{where}[{index}]")
    elif isinstance(golden, float):
        assert observed == pytest.approx(golden, **TOLERANCE), where
    else:
        assert observed == golden, where


def assert_golden(name: str, result, tuner_calls: int) -> None:
    golden = json.loads(GOLDENS.read_text())[name]
    assert_matches(observe(name, result, tuner_calls), golden, name)


class TestCommonHelpers:
    def test_get_scale_presets(self):
        assert get_scale("ci").name == "ci"
        assert get_scale("full").pipeline.configurations == 1000
        with pytest.raises(Exception):
            get_scale("huge")

    def test_model_builders_cover_paper_networks(self, tiny_scale):
        builders = cifar_model_builders(tiny_scale)
        assert set(builders) == {"ResNet-34", "ResNeXt-29-2x64d", "DenseNet-161"}
        for builder in builders.values():
            assert builder().num_parameters() > 0

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4 and "---" in lines[1]

    def test_dataset_matches_scale(self, tiny_scale):
        dataset = cifar_dataset(tiny_scale)
        assert dataset.spec.height == tiny_scale.pipeline.image_size


class TestTable1:
    def test_all_primitives_applicable(self):
        result = table1_primitives.run()
        assert len(result.rows) == 11
        assert result.all_applicable
        report = table1_primitives.format_report(result)
        assert "bottleneck" in report and "threadIdx" in report


class TestFigure3:
    def test_scatter_and_summary(self, tiny_scale):
        result = fig3_fisher_filter.run(tiny_scale, seed=0)
        assert len(result.evaluations) == tiny_scale.cell_samples
        assert result.space_size == 15625
        assert all(e.fisher_potential >= 0 for e in result.evaluations)
        assert all(0.0 <= e.final_error <= 100.0 for e in result.evaluations)
        assert "rank correlation" in fig3_fisher_filter.format_report(result)


class TestFigure4:
    def test_single_panel(self, tiny_scale):
        result, tuner_calls = run_counted("fig4", tiny_scale)
        assert result.speedup("ResNet-34", "cpu", "TVM") == pytest.approx(1.0)
        assert result.speedup("ResNet-34", "cpu", "Ours") >= 1.0
        assert "Ours" in fig4_end_to_end.format_report(result)
        assert_golden("fig4", result, tuner_calls)
        # Ours is counted on the network the search's choices build, so on
        # this ResNet-34 it keeps the original's count exactly when no layer
        # went neural.
        panel = result.panels[("ResNet-34", "cpu")]
        build = cifar_model_builders(tiny_scale)["ResNet-34"]
        assert panel.ours.parameters == (
            panel.optimization.apply_to(build()).num_parameters())
        assert ((panel.ours.parameters == panel.tvm.parameters)
                == (not panel.optimization.neural_layers()))


class TestFigure5:
    def test_frequency_counts(self, tiny_scale):
        result, tuner_calls = run_counted("fig5", tiny_scale)
        assert_golden("fig5", result, tuner_calls)
        assert result.layer_counts["ResNet-34"] > 0
        # Counts are primitive applications from the chosen programs' IR:
        # every neural layer contributes at least one application, and only
        # Table-1 primitives appear.
        assert result.neural_layer_counts["ResNet-34"] <= result.layer_counts["ResNet-34"]
        assert result.total("ResNet-34") >= result.neural_layer_counts["ResNet-34"]
        from repro.core import PRIMITIVE_REGISTRY
        assert set(result.frequencies["ResNet-34"]) <= set(PRIMITIVE_REGISTRY)


class TestFigure6:
    def test_layerwise_rows(self, tiny_scale):
        result, tuner_calls = run_counted("fig6", tiny_scale)
        assert_golden("fig6", result, tuner_calls)
        assert 1 <= len(result.rows) <= 6
        for row in result.rows:
            for label in result.sequences:
                assert row.speedups[label] > 0
        # Sensitive layers receive no transformation (speedup pinned to 1).
        for index in result.sensitive_layers():
            assert result.best_speedup(index) == pytest.approx(1.0)


class TestFigure9:
    def test_interpolation_points(self, tiny_scale):
        result = fig9_interpolation.run(tiny_scale, seed=0)
        labels = [p.label for p in result.points]
        assert "NAS-A (G=2)" in labels and "NAS-B (G=4)" in labels
        assert any(not p.is_endpoint for p in result.points)
        assert len(result.pareto_labels()) >= 1


class TestAnalysis:
    def test_search_analysis(self, tiny_scale):
        result, tuner_calls = run_counted("analysis", tiny_scale)
        assert_golden("analysis", result, tuner_calls)
        assert result.compression_ratio >= 1.0
        assert result.speedup >= 1.0
        assert 0.0 <= result.rejection_rate <= 1.0
        assert "compression" in analysis_search.format_report(result)


class TestDeployStudy:
    def test_single_platform(self, tiny_scale):
        result, tuner_calls = run_counted("deploy", tiny_scale)
        assert_golden("deploy", result, tuner_calls)
        assert set(result.panels) == {"cpu"}
        assert result.panels["cpu"].speedups()["Ours"] >= 1.0
        assert result.best_platform_for_ours() == "cpu"
        assert "Deployment study" in deploy_study.format_report(result)

    def test_payload_serializes_rejection_accounting(self, tiny_scale):
        """--json output must capture rejections_by_primitive per target."""
        import json

        result = deploy_study.run(tiny_scale, seed=0, network="ResNet-34",
                                  platforms=("cpu",))
        payload = json.loads(json.dumps(deploy_study.to_payload(result)))
        row = payload["platforms"][0]
        assert "rejections_by_primitive" in row
        expected = result.panels["cpu"].optimization.search_statistics
        assert row["rejections_by_primitive"] == {
            key: int(value)
            for key, value in expected["rejections_by_primitive"].items()}


class TestAnalysisPredictor:
    def test_strategy_rows_and_reduction(self, tiny_scale):
        result, tuner_calls = run_counted("analysis_predictor", tiny_scale)
        assert_golden("analysis_predictor", result, tuner_calls)
        assert [row.strategy for row in result.rows] == [
            "evolutionary", "model_guided"]
        guided = result.row("model_guided")
        assert guided.tuned_evaluations >= 0
        assert guided.evaluations_saved > 0
        assert result.evaluation_reduction() >= 1.0
        report = analysis_predictor.format_report(result)
        assert "model_guided" in report and "fewer full-trial" in report

    def test_transfer_from_another_platform(self, tiny_scale):
        """A surrogate trained on mgpu warm-starts model_guided on cpu."""
        result, tuner_calls = run_counted("analysis_predictor_transfer", tiny_scale)
        assert_golden("analysis_predictor_transfer", result, tuner_calls)
        assert [row.strategy for row in result.rows] == ["model_guided"]
        assert result.row("model_guided").evaluations_saved > 0

    def test_payload_and_document(self, tiny_scale):
        import json

        run = run_experiment("analysis_predictor", scale=tiny_scale, seed=0,
                             strategies=("random", "model_guided"))
        document = json.loads(json.dumps(run.document()))
        assert document["experiment"] == "analysis_predictor"
        rows = {entry["strategy"]: entry
                for entry in document["data"]["strategies"]}
        assert set(rows) == {"random", "model_guided"}
        assert "rejections_by_primitive" in rows["model_guided"]
        # The model_guided outcome is the envelope's primary result, so
        # the document also reads back as an OptimizationResult carrying
        # the predictor statistics.
        from repro.api import OptimizationResult

        result = OptimizationResult.from_dict(document)
        assert result.strategy == "model_guided"
        assert "predictor_mae" in result.search_statistics
        assert "evaluations_saved" in result.search_statistics


class TestRegistry:
    def test_all_eleven_experiments_registered(self):
        assert set(experiment_names()) == {
            "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "analysis", "analysis_predictor", "deploy"}

    def test_every_spec_is_complete(self):
        for name in experiment_names():
            spec = get_experiment(name)
            assert spec.title and spec.description
            assert callable(spec.run) and callable(spec.report)
            assert callable(spec.payload)
            assert "ci" in spec.scales and "full" in spec.scales

    def test_run_experiment_produces_document(self, tiny_scale):
        run = run_experiment("fig5", scale=tiny_scale, seed=0,
                             networks=("ResNet-34",))
        document = run.document()
        assert document["schema"] == "repro.experiment/1"
        assert document["experiment"] == "fig5"
        assert document["scale"] == "ci"
        assert document["data"]["layer_counts"]["ResNet-34"] > 0
        assert "Figure 5" in run.report()

    def test_fig4_document_reads_back_as_optimization_result(self, tiny_scale):
        import json

        from repro.api import OptimizationResult

        run = run_experiment("fig4", scale=tiny_scale, seed=0,
                             networks=("ResNet-34",), platforms=("cpu",))
        document = json.loads(json.dumps(run.document()))
        result = OptimizationResult.from_dict(document)
        assert result.platform == "cpu"
        assert result.speedup >= 1.0
        assert len(result.layers) > 0
        # ... while the full figure payload rides along in the envelope,
        # including the per-panel rejection accounting.
        panel = document["data"]["panels"][0]
        assert panel["network"] == "ResNet-34"
        assert "rejections_by_primitive" in panel
        assert "rejection_rate" in panel

    def test_unknown_names_and_options_fail_fast(self, tiny_scale):
        with pytest.raises(Exception, match="unknown experiment"):
            run_experiment("fig99")
        with pytest.raises(Exception, match="does not accept"):
            run_experiment("table1", scale=tiny_scale, platform="gpu")

    def test_drivers_are_session_clients(self):
        """No driver imports a search or an engine; core never imports the façade."""
        import ast
        import pathlib

        import repro

        package_dir = pathlib.Path(repro.__file__).parent

        def imports(path):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    yield node.module or "", {alias.name for alias in node.names}
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        yield alias.name, set()

        drivers = sorted((package_dir / "experiments").glob("*.py"))
        core = sorted((package_dir / "core").glob("*.py"))
        assert len(drivers) == 14 and core
        for path in drivers:
            for module, names in imports(path):
                assert not names & {"UnifiedSearch", "EvaluationEngine"}, (
                    path.name, module)
        for path in core:
            for module, names in imports(path):
                assert module != "repro.api" and not (
                    module == "repro" and "api" in names), (path.name, module)

    def test_no_driver_keeps_a_bespoke_main(self):
        """Every driver's __main__ block must delegate to the registry."""
        import pathlib

        import repro.experiments as experiments

        package_dir = pathlib.Path(experiments.__file__).parent
        drivers = [path for path in package_dir.glob("*.py")
                   if path.name not in ("__init__.py", "common.py", "registry.py")]
        assert len(drivers) == 11
        for path in drivers:
            text = path.read_text()
            assert 'if __name__ == "__main__"' in text, path.name
            main_block = text.split('if __name__ == "__main__"')[1]
            assert "registry_main(" in main_block, path.name
            # Delegation only: one raise line, nothing else.
            statements = [line for line in main_block.splitlines()
                          if line.strip() and not line.strip().startswith("#")
                          and "pragma" not in line and "__main__" not in line]
            assert len(statements) == 1, (path.name, statements)


if __name__ == "__main__":
    table = {name: observe(name, *run_counted(name, tiny())) for name in PINNED_RUNS}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
