"""Cold Fisher scoring: the oracle's per-layer batch against the per-operator path.

Scores every distinct candidate operator of ResNet-34 x0.5 at 32 px (the
network of perfbench's ``warm_fisher`` and ``guided_ckpt`` workloads)
twice from the same Fisher profile:

* through :class:`~repro.core.engine.FisherOracle` on an empty table, one
  ``candidate_fisher_many`` call over every (layer, program) pair of the
  candidate space: each layer's operators are built from one replayed
  weight stream and share the recorded input's im2col columns;
* through the baseline frozen in ``tests/fisher_reference.py``: each
  operator built from a fresh ``make_rng(seed)`` and scored on the tape.

Every score must be equal, and the record's ``speedup`` is the baseline's
best time over the oracle's (pinned in ``perf_baseline.json``).  The
profile pass is shared and not timed.
"""

from __future__ import annotations

import importlib.util
import os
import time
from pathlib import Path

import numpy as np

from repro.api import build_model
from repro.core.engine import EvaluationEngine
from repro.core.unified_space import UnifiedSpace
from repro.core.workloads import extract_workloads
from repro.data import SyntheticImageDataset
from repro.errors import TransformError
from repro.fisher import fisher_key, fisher_profile
from repro.hardware import get_platform


def _load_reference():
    """The frozen per-operator path, by path: ``tests/`` may be off sys.path."""
    spec = importlib.util.spec_from_file_location(
        "fisher_reference",
        Path(__file__).resolve().parents[1] / "tests" / "fisher_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def test_bench_fisher_scoring(perf_record):
    """The per-layer batch scores every operator bit-identically, faster."""
    rounds = 1 if os.environ.get("REPRO_BENCH_QUICK") else 2
    model = build_model("resnet34", width_multiplier=0.5)
    dataset = SyntheticImageDataset.cifar10_like(train_size=32, test_size=16,
                                                  image_size=32, seed=0)
    images, labels = dataset.random_minibatch(4, seed=0)
    profile = fisher_profile(model, images, labels)
    key = fisher_key(model, images, labels)
    space = UnifiedSpace(0)
    rng = space.fresh_rng()
    items = [(workload, program)
             for workload in extract_workloads(model, dataset.spec.image_shape)
             if workload.name in profile.layers
             for program in space.candidate_sequences(workload.shape, rng=rng)]
    operators: dict[tuple, int] = {}
    for index, (workload, program) in enumerate(items):
        if program.is_neural:
            try:
                config = program.conv_config(workload.shape)
            except TransformError:
                continue
            operators.setdefault((workload.name, config), index)

    oracle_seconds = baseline_seconds = float("inf")
    for _ in range(rounds):
        engine = EvaluationEngine(get_platform("cpu"), seed=0)
        oracle = engine.fisher_oracle(key, lambda: profile)
        start = time.perf_counter()
        scores = oracle.candidate_fisher_many(items)
        oracle_seconds = min(oracle_seconds, time.perf_counter() - start)
        assert engine.statistics.fisher_scored == len(operators)

        start = time.perf_counter()
        baseline = {(layer, config): reference.operator_fisher(
            profile.layers[layer], config, engine.seed)
            for layer, config in operators}
        baseline_seconds = min(baseline_seconds, time.perf_counter() - start)

    expected = np.array([baseline[operator] for operator in operators])
    got = np.array([scores[index] for index in operators.values()])
    assert got.tobytes() == expected.tobytes(), "a batched score differs"
    speedup = baseline_seconds / oracle_seconds
    print(f"\n{len(operators)} operators over {len(items)} requests: "
          f"per-operator {baseline_seconds:.3f}s, per-layer batch "
          f"{oracle_seconds:.3f}s ({speedup:.2f}x)")
    perf_record(wall_seconds=oracle_seconds, operators=len(operators),
                requests=len(items), baseline_seconds=baseline_seconds,
                speedup=speedup)
    assert speedup > 1.0
