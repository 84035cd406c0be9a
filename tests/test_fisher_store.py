"""Persisted Fisher scores: a warm search runs no Fisher pass and derives no operator.

The store keeps every Fisher score beside the latency shards, keyed by
what the score depends on (criterion, network, minibatch, layer, operator,
engine seed).  The invariant: a search over a warm store returns exactly
the cold search's result document; only wall clock, the process-wide
compile trie and the store-warmth counters may differ.
"""

from __future__ import annotations

import pytest

import repro
from repro.core import engine as engine_module
from repro.core import search as search_module
from repro.core.search import SEARCH_STRATEGY_REGISTRY

from test_faults import VOLATILE_STATISTICS

#: engine counters that measure how warm the store was, not what the
#: search decided
WARMTH_COUNTERS = (
    "tuner_calls", "latency_hits", "latency_misses", "loaded_entries",
    "prescreen_checks", "prescreen_rejections", "fisher_profiles",
    "fisher_scored", "latency_hit_rate",
)

TINY = dict(model="resnet18", platform="cpu", configurations=6, tuner_trials=2,
            width_multiplier=0.125, image_size=8, fisher_batch=2)


def decisions(result: repro.OptimizationResult) -> dict:
    """The result document without the fields warmth may change."""
    document = result.to_dict()
    for key in WARMTH_COUNTERS:
        document["engine_statistics"].pop(key)
    for key in VOLATILE_STATISTICS:
        document["search_statistics"].pop(key)
    return document


@pytest.fixture
def fisher_work(monkeypatch):
    """Count Fisher profile passes and derived-operator constructions."""
    calls = {"profiles": 0, "derived": 0, "log": []}
    profile, derive = search_module.fisher_profile, engine_module.DerivedConv2d

    def profiled(*args, **kwargs):
        calls["profiles"] += 1
        calls["log"].append("fisher_profile")
        return profile(*args, **kwargs)

    def derived(*args, **kwargs):
        calls["derived"] += 1
        return derive(*args, **kwargs)

    monkeypatch.setattr(search_module, "fisher_profile", profiled)
    monkeypatch.setattr(engine_module, "DerivedConv2d", derived)
    return calls


@pytest.mark.parametrize("strategy", sorted(SEARCH_STRATEGY_REGISTRY))
def test_warm_search_equals_cold_and_does_no_fisher_work(
        strategy, tmp_path, fisher_work):
    cold = repro.optimize(cache_dir=tmp_path, strategy=strategy, **TINY)
    assert fisher_work["profiles"] == 1 and fisher_work["derived"] > 0
    assert cold.engine_statistics["fisher_profiles"] == 1
    fisher_work.update(profiles=0, derived=0)
    warm = repro.optimize(cache_dir=tmp_path, strategy=strategy, **TINY)
    assert (fisher_work["profiles"], fisher_work["derived"]) == (0, 0)
    statistics = warm.engine_statistics
    assert (statistics["fisher_profiles"], statistics["fisher_scored"]) == (0, 0)
    assert statistics["tuner_calls"] == 0
    assert decisions(warm) == decisions(cold)


def test_partially_warm_search_builds_the_profile_once_lazily(
        tmp_path, fisher_work):
    request = dict(TINY, strategy="random", configurations=4)
    repro.optimize(cache_dir=tmp_path, **request)
    fisher_work.update(profiles=0, log=[])
    larger = dict(request, configurations=24)
    partial = repro.optimize(
        cache_dir=tmp_path, **larger,
        observer=lambda event: fisher_work["log"].append(event.kind))
    assert partial.engine_statistics["fisher_scored"] > 0
    assert fisher_work["profiles"] == 1
    # The per-layer scores came from the store, so the pass ran only when
    # the strategy met its first missing operator, after the baselines.
    log = fisher_work["log"]
    assert log.index("baseline_tuned") < log.index("fisher_profile")
    cold = repro.optimize(cache_dir=tmp_path / "cold", **larger)
    assert decisions(partial) == decisions(cold)
    assert partial.fisher_original == cold.fisher_original
    assert partial.fisher_optimized == cold.fisher_optimized


def _fisher_counts(result) -> tuple[int, int]:
    statistics = result.engine_statistics
    return statistics["fisher_profiles"], statistics["fisher_scored"]


@pytest.mark.parametrize("change", [
    dict(fisher_batch=4), dict(image_size=16), dict(seed=1)],
    ids=["fisher_batch", "image_size", "seed"])
def test_another_minibatch_misses_the_profile_and_every_operator(
        tmp_path, change):
    repro.optimize(cache_dir=tmp_path / "warm", **TINY)
    changed = dict(TINY, **change)
    after_warm = repro.optimize(cache_dir=tmp_path / "warm", **changed)
    alone = repro.optimize(cache_dir=tmp_path / "cold", **changed)
    assert _fisher_counts(after_warm) == _fisher_counts(alone)
    assert _fisher_counts(alone)[0] == 1 and _fisher_counts(alone)[1] > 0
    assert decisions(after_warm) == decisions(alone)


def test_one_changed_weight_misses_the_profile_and_every_operator(tmp_path):
    model = repro.build_model("resnet18", width_multiplier=0.125)
    request = {key: value for key, value in TINY.items()
               if key not in ("model", "width_multiplier")}
    first = repro.optimize(model, cache_dir=tmp_path / "warm", **request)
    assert _fisher_counts(repro.optimize(model, cache_dir=tmp_path / "warm",
                                         **request)) == (0, 0)
    next(iter(model.parameters())).data.flat[0] += 1e-3
    changed = repro.optimize(model, cache_dir=tmp_path / "warm", **request)
    alone = repro.optimize(model, cache_dir=tmp_path / "cold", **request)
    assert _fisher_counts(changed) == _fisher_counts(alone)
    assert _fisher_counts(alone)[0] == 1 and _fisher_counts(alone)[1] > 0
    assert changed.fisher_original != first.fisher_original
    assert decisions(changed) == decisions(alone)


def test_second_search_in_one_store_less_session_is_warm(fisher_work):
    with repro.OptimizationSession("cpu", tuner_trials=2) as session:
        first = session.optimize(**TINY)
        fisher_work.update(profiles=0, derived=0)
        second = session.optimize(**TINY)
    assert (fisher_work["profiles"], fisher_work["derived"]) == (0, 0)
    # one engine serves both searches, so its counters accumulate
    documents = [decisions(result) for result in (first, second)]
    for document in documents:
        document.pop("engine_statistics")
    assert documents[0] == documents[1]

