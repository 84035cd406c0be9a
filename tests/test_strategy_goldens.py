"""Every search strategy's decisions and accounting, pinned on a small request.

Per strategy and seed, ``data/strategy_goldens.json`` holds the layer
fingerprint perfbench uses (each layer's program and tuned latency), the
speedup, the search statistics without their timing and compile-trie
counters, and the engine's tuner calls, Fisher misses and operators
scored.  Fisher scores and Fisher hits are left out: a score's last digits
depend on how BLAS splits its sums, and reading a memoised score once
instead of twice changes the hits and nothing a search decides.

Re-record the table only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_strategy_goldens.py \\
        > tests/data/strategy_goldens.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro

GOLDENS = Path(__file__).parent / "data" / "strategy_goldens.json"
STRATEGIES = ("greedy", "random", "evolutionary", "model_guided")
SEEDS = (0, 1, 2)
REQUEST = dict(configurations=24, tuner_trials=2, width_multiplier=0.25,
               image_size=16)
#: search statistics that measure the run rather than decide it
VOLATILE = ("search_seconds", "compile_hits", "compile_misses",
            "prefix_depth_saved")


def fingerprint(result) -> str:
    """Digest of every layer's chosen program and tuned latency."""
    document = json.dumps([{key: decision.to_dict()[key]
                            for key in ("layer", "program", "latency_seconds")}
                           for decision in result.layers], sort_keys=True)
    return hashlib.sha1(document.encode()).hexdigest()


def observe(strategy: str, seed: int) -> dict:
    result = repro.optimize("resnet18", strategy=strategy, seed=seed, **REQUEST)
    engine = result.engine_statistics
    return {
        "digest": fingerprint(result),
        "speedup": result.speedup,
        "search_statistics": {key: value for key, value
                              in result.search_statistics.items()
                              if key not in VOLATILE},
        "engine_statistics": {key: engine[key] for key in
                              ("tuner_calls", "fisher_misses", "fisher_scored")},
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_matches_golden(strategy, seed):
    expected = json.loads(GOLDENS.read_text())[strategy][str(seed)]
    observed = observe(strategy, seed)
    # The surrogate's error is the one pinned value a BLAS reduction feeds.
    mae = observed["search_statistics"].pop("predictor_mae")
    assert mae == pytest.approx(
        expected["search_statistics"].pop("predictor_mae"), rel=1e-9, abs=1e-15)
    assert observed == expected


if __name__ == "__main__":
    table = {strategy: {str(seed): observe(strategy, seed) for seed in SEEDS}
             for strategy in STRATEGIES}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
