"""Layer spans for the traced benchmark run, recorded from outside the library.

``LAYERS`` names one public function per stack layer and the span a call of
it records.  :meth:`Tracer.install` replaces those attributes with timing
wrappers and :meth:`Tracer.uninstall` restores the originals, so no library
file changes and untraced samples run the unmodified code.

A span is a row ``[name, start, end, parent]`` kept in memory; ``parent``
is the index of the enclosing span (``-1`` for a root).  Rows are written
out once, when the run ends.  A call nested directly inside a span of the
same name (``predict_batch`` delegating to ``predict_batch_with_std``) adds
no second span, so a layer's time and call count are never counted twice.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _structural_rejections(counts, args, kwargs, result) -> None:
    # The search passes one ``rejections`` dict to every layer's call, so
    # after the last call it holds the search's structural total.  The
    # result's ``rejections_by_primitive`` is that same dict after the
    # Fisher rejections were added to it, so it cannot give this number.
    counts["space.structural_rejections"] = sum(kwargs.get("rejections", {}).values())


def _appended_entries(counts, args, kwargs, result) -> None:
    counts["store.append.entries"] = counts.get("store.append.entries", 0) + int(result)


@dataclass(frozen=True)
class Layer:
    """One wrapped function: ``module`` + dotted ``attribute`` -> span ``span``."""

    module: str
    attribute: str
    span: str
    #: ``(counts, args, kwargs, result)``: records a counter the result lacks
    record: Callable | None = None


#: The per-layer table of the benchmark.  Names are looked up where the
#: caller resolves them (``repro.core.search.fisher_profile`` is the name
#: ``UnifiedSearch`` calls), so patching them intercepts every search call.
LAYERS: tuple[Layer, ...] = (
    Layer("repro.core.search", "fisher_profile", "fisher.profile"),
    Layer("repro.core.engine", "FisherOracle.candidate_fisher", "fisher.oracle"),
    Layer("repro.core.engine", "candidate_layer_fisher", "fisher.candidate"),
    Layer("repro.core.engine", "DerivedConv2d", "nn.derive"),
    Layer("repro.core.search", "extract_workloads", "workloads.extract"),
    Layer("repro.core.unified_space", "UnifiedSpace.candidate_sequences",
          "space.generate", record=_structural_rejections),
    Layer("repro.core.unified_space", "UnifiedSpace.sample_assignment",
          "space.sample"),
    Layer("repro.core.engine", "EvaluationEngine.tune_many", "engine.tune_many"),
    Layer("repro.tenir.autotune", "AutoTuner.tune", "autotune"),
    Layer("repro.tenir.autotune", "estimate_latency_batch", "cost_model"),
    Layer("repro.core.program", "TransformProgram.compile", "compile"),
    Layer("repro.fisher.legality", "FisherLegalityChecker.check_layer_scores",
          "legality"),
    Layer("repro.core.predictor", "LatencyPredictor.fit", "predictor.fit"),
    Layer("repro.core.predictor", "LatencyPredictor.predict_batch",
          "predictor.predict"),
    Layer("repro.core.predictor", "LatencyPredictor.predict_batch_with_std",
          "predictor.predict"),
    Layer("repro.core.cache_store", "CacheStore.load_platform", "store.load"),
    Layer("repro.core.cache_store", "CacheStore.append", "store.append",
          record=_appended_entries),
    Layer("repro.core.checkpoint", "write_checkpoint", "checkpoint.write"),
)


def _resolve(layer: Layer):
    owner = importlib.import_module(layer.module)
    *path, name = layer.attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, layer: Layer):
        tracer, name = self, layer.span

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if layer.record is not None:
                layer.record(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            return
        for layer in LAYERS:
            owner, name = _resolve(layer)
            # A class attribute is taken from the class dict, so restoring
            # it puts back exactly what was there.
            original = (owner.__dict__[name] if isinstance(owner, type)
                        else getattr(owner, name))
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer))

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    # -- reporting ------------------------------------------------------
    def totals(self, root: int) -> dict[str, float]:
        """Per-span-name ``.s``/``.self_s``/``.calls`` for the tree under ``root``.

        Spans recorded after ``root`` belong to its tree: samples run one
        at a time and each opens its root span first.  Self time is a
        span's duration minus the durations of its direct children.
        """
        rows = self.spans[root:]
        child_time = [0.0] * len(rows)
        for row in rows[1:]:
            child_time[row[3] - root] += row[2] - row[1]
        totals: dict[str, float] = {}
        for offset, (name, start, end, _parent) in enumerate(rows):
            duration = end - start
            totals[f"{name}.s"] = totals.get(f"{name}.s", 0.0) + duration
            totals[f"{name}.self_s"] = (totals.get(f"{name}.self_s", 0.0)
                                        + duration - child_time[offset])
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one JSON row per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.spans:
                handle.write(json.dumps(row) + "\n")
