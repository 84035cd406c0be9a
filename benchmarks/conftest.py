"""Shared configuration for the benchmark harness.

Every paper table/figure has one benchmark module that regenerates it via
the corresponding experiment driver and reports the headline quantities.
Expensive drivers run a single round (`benchmark.pedantic(rounds=1)`) — the
point is regenerating the result, not micro-timing it — while the
micro-benchmarks (conv, tuner, Fisher) use normal repetition.

The benchmark scale is intentionally smaller than the paper's settings so
the whole harness completes in minutes on the NumPy substrate; the shapes
of the conclusions are what is being checked (README.md lists the
experiments, DESIGN.md §4 the scale knobs).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentScale, PipelineScale


def bench_scale() -> ExperimentScale:
    """The scale used by the benchmark harness (between test and CI scales).

    Setting ``REPRO_BENCH_QUICK=1`` shrinks every knob to the minimum that
    still exercises the full code paths — the CI smoke job uses it to
    regenerate all figures in a couple of minutes.
    """
    if os.environ.get("REPRO_BENCH_QUICK"):
        # Minimal trials/configurations; widths and dataset sizes stay just
        # large enough for every driver's headline assertions to hold
        # (fig8's ImageNet-like dataset needs >= 20 test samples).
        pipeline = PipelineScale(width_multiplier=0.25, image_size=16, fisher_batch=4,
                                 configurations=8, tuner_trials=2,
                                 train_size=48, test_size=24)
        return ExperimentScale(name="ci", pipeline=pipeline, cell_samples=3,
                               cell_epochs=1, proxy_epochs=1, proxy_batch=16,
                               fbnet_epochs=1, imagenet_image_size=16,
                               imagenet_width=0.25, imagenet_depth=0.25,
                               interpolation_steps=1)
    pipeline = PipelineScale(width_multiplier=0.25, image_size=16, fisher_batch=4,
                             configurations=60, tuner_trials=4, train_size=64, test_size=32)
    return ExperimentScale(name="ci", pipeline=pipeline, cell_samples=6, cell_epochs=1,
                           proxy_epochs=1, proxy_batch=16, fbnet_epochs=1,
                           imagenet_image_size=16, imagenet_width=0.25,
                           imagenet_depth=0.25, interpolation_steps=2)


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return bench_scale()


@pytest.fixture
def perf_record(request):
    """Write a machine-readable ``BENCH_<name>.json`` perf record.

    Benchmarks call the returned function with their headline quantities;
    the record lands in ``REPRO_BENCH_RECORDS`` (default: the working
    directory) where CI uploads it as an artifact, so the perf trajectory
    is tracked across PRs instead of scrolling by in a log.

    Example::

        perf_record(wall_seconds=1.2, configurations=96, trials=384,
                    speedup=3.4)
    """

    def write(*, wall_seconds: float, configurations: int | None = None,
              trials: int | None = None, **extra) -> Path:
        name = request.node.name
        record: dict = {
            "benchmark": name,
            "wall_seconds": wall_seconds,
            "quick_mode": bool(os.environ.get("REPRO_BENCH_QUICK")),
        }
        if configurations is not None:
            record["configurations"] = configurations
            record["configurations_per_second"] = configurations / wall_seconds
        if trials is not None:
            record["trials"] = trials
            record["trials_per_second"] = trials / wall_seconds
        record.update(extra)
        directory = Path(os.environ.get("REPRO_BENCH_RECORDS", "."))
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path

    return write
