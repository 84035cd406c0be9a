"""One benchmark worker: set a workload up, time its samples, check each output.

``run.py`` starts one worker process per set-up it measures and reads the
JSON document this script prints as the last line of its standard output.
The worker imports ``repro`` from the checkout's ``src`` and nothing else.

Set-up, counted in ``setup_s`` from the moment the process was spawned:
import ``repro``, build the model, then run one untimed search per request
the worker serves of a warm workload (each fills that request's master
store) or one untimed warm-up search for a cold workload.  The first
Fisher profile of a process costs several times the later ones, so it
lands here.

Each timed sample clears the process-level compile trie, tuning contexts
and other memos, gets a fresh store directory (a private copy of the
master store for warm workloads, an empty one for cold ones) and a fresh
``OptimizationSession``, and is timed from session open to session close,
store write-back included.  Outputs are checked outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def import_repro():
    """Import ``repro`` from this checkout's ``src``; exit 2 when it is absent.

    BLAS is held to one thread (before NumPy loads), so a search loads one
    core and its time does not depend on whether a second one is free.
    """
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {source}; run from a "
              f"checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{source}", file=sys.stderr)
        sys.exit(2)
    return repro


def fingerprint(result) -> str:
    """Digest of every layer's chosen program steps and tuned latency.

    Fisher scores are left out: their last digits depend on how BLAS
    splits its sums, while the choices they feed are pinned here.
    """
    document = json.dumps([{key: decision.to_dict()[key]
                            for key in ("layer", "program", "latency_seconds")}
                           for decision in result.layers], sort_keys=True)
    return hashlib.sha1(document.encode()).hexdigest()


def directory_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Workload:
    """A workload spec bound to the imported library and a scratch directory."""

    def __init__(self, repro, spec: dict, scratch: Path):
        from repro.core import compile_cache
        from repro.tenir import autotune

        self.repro = repro
        self.spec = spec
        self.scratch = scratch
        self._clear = (compile_cache.invalidate, autotune.clear_tuning_contexts)
        request = spec["request"]
        self.model = repro.build_model(request["model"],
                                       width_multiplier=request["width_multiplier"])
        self.masters: dict[int, Path] = {}

    def request(self, request_seed: int):
        return self.repro.OptimizationRequest(**self.spec["request"], seed=request_seed)

    def clear_process_caches(self) -> None:
        """Drop every process-level memo of the library before a search.

        Besides the compile trie and the tuning contexts, the library's
        ``functools`` memos (structural legality, conv configs, ...) are
        cleared, so each sample pays the same cost whichever request the
        process searched before it.
        """
        for clear in self._clear:
            clear()
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for value in vars(module).values():
                    if (getattr(value, "__module__", None) == name
                            and callable(getattr(value, "cache_clear", None))):
                        value.cache_clear()

    def populate(self, request_seed: int):
        """Fill the master store of ``request_seed`` with one cold search."""
        master = self.scratch / f"master-{request_seed}"
        result = self.search(request_seed, master)[0]
        self.masters[request_seed] = master
        return result

    def search(self, request_seed: int, store: Path, tracer=None):
        """One isolated search, timed from session open to session close.

        Returns the result, the seconds, the bytes of the store and of the
        checkpoint file, and the index of the root span when traced.
        """
        self.clear_process_caches()
        gc.collect()
        checkpoint = (store.parent / f"{store.name}.ckpt.json"
                      if self.spec["checkpoint"] else None)
        request = self.request(request_seed)
        root = None
        if tracer is not None:
            tracer.install()
            tracer.counts = {}
            root = tracer.begin("sample")
        start = time.perf_counter()
        try:
            with self.repro.OptimizationSession(
                    request.platform, tuner_trials=request.tuner_trials,
                    seed=request_seed, cache_dir=store,
                    parallel="serial") as session:
                result = session.optimize(self.model, request=request,
                                          checkpoint=checkpoint)
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end(root)
                tracer.uninstall()
        checkpoint_bytes = checkpoint.stat().st_size if checkpoint else 0
        return result, seconds, directory_bytes(store), checkpoint_bytes, root

    def sample(self, request_seed: int, tracer=None):
        """A timed sample on a private store; the directory is removed after."""
        directory = Path(tempfile.mkdtemp(prefix="sample-", dir=self.scratch))
        try:
            store = directory / "store"
            if self.spec["store"] == "populated":
                shutil.copytree(self.masters[request_seed], store)
            return self.search(request_seed, store, tracer)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    # -- output checks ----------------------------------------------------
    def check(self, result, request_seed: int, golden: dict | None) -> list[str]:
        """Invariants that do not trust the search, plus the golden when pinned."""
        errors = []
        layer_sum = math.fsum(d.latency_seconds for d in result.layers)
        if not math.isclose(result.optimized_latency_seconds, layer_sum, rel_tol=1e-12):
            errors.append(f"optimized latency {result.optimized_latency_seconds!r} "
                          f"!= sum of layer latencies {layer_sum!r}")
        if result.optimized_latency_seconds > result.baseline_latency_seconds:
            errors.append("optimized latency exceeds the baseline")
        floor = self.spec["request"]["fisher_threshold"] * result.fisher_original
        if result.fisher_optimized < floor - 1e-12 * abs(floor):
            errors.append(f"fisher_optimized {result.fisher_optimized!r} below "
                          f"threshold x fisher_original {floor!r}")
        if golden is not None:
            observed = {"speedup": result.speedup, "digest": fingerprint(result),
                        "tuner_calls": result.engine_statistics["tuner_calls"]}
            for key, expected in golden.items():
                if observed[key] != expected:
                    errors.append(f"golden {key} for request seed {request_seed}: "
                                  f"expected {expected!r}, got {observed[key]!r}")
        return errors

    def retune_errors(self, result, request_seed: int) -> list[str]:
        """Re-tune each chosen (shape, program) in a fresh session and compare."""
        self.clear_process_caches()
        errors = []
        request = self.request(request_seed)
        with self.repro.OptimizationSession(
                request.platform, tuner_trials=request.tuner_trials,
                seed=request_seed, parallel="serial") as session:
            tuned: dict = {}
            for decision in result.layers:
                key = (decision.shape, decision.program)
                if key not in tuned:
                    tuned[key] = session.tune(*key).latency_seconds
                if tuned[key] != decision.latency_seconds:
                    errors.append(f"layer {decision.layer}: re-tuned latency "
                                  f"{tuned[key]!r} != reported "
                                  f"{decision.latency_seconds!r}")
        return errors


def layer_metrics(tracer, root: int, result, store_bytes: int,
                  checkpoint_bytes: int) -> dict[str, float]:
    """Per-layer numbers of one traced sample: spans plus the result's counters."""
    metrics = tracer.totals(root)
    metrics.update(tracer.counts)
    wall, unexplained = metrics.pop("sample.s"), metrics.pop("sample.self_s")
    metrics.pop("sample.calls")
    engine, search = result.engine_statistics, result.search_statistics
    metrics.update({
        "search.self_s": unexplained,
        "space.candidates": search["candidate_sequences"],
        "store.load.entries": engine["loaded_entries"],
        "trace.untraced_share": unexplained / wall,
        "fisher.hit_ratio": ratio(engine["fisher_hits"],
                                  engine["fisher_hits"] + engine["fisher_misses"]),
        "engine.latency_hit_ratio": engine["latency_hit_rate"],
        "engine.prescreen_rejections": engine["prescreen_rejections"],
        "engine.task_retries": engine["task_retries"],
        "compile.hit_ratio": ratio(search["compile_hits"],
                                   search["compile_hits"] + search["compile_misses"]),
        "compile.prefix_depth_saved": search["prefix_depth_saved"],
        "search.rejected_ratio": ratio(search["configurations_rejected"],
                                       search["configurations_evaluated"]),
        "store.bytes": store_bytes,
        "checkpoint.bytes": checkpoint_bytes,
    })
    return metrics


def run_sample(workload: Workload, request_seed: int, goldens: dict,
               tracer, firsts: dict) -> dict:
    """One timed sample and its checks, as the record ``run.py`` reads."""
    record = {"request_seed": request_seed, "traced": tracer is not None, "errors": []}
    try:
        result, seconds, store_bytes, checkpoint_bytes, root = workload.sample(
            request_seed, tracer)
        record.update(search_s=seconds, speedup=result.speedup,
                      digest=fingerprint(result),
                      tuner_calls=result.engine_statistics["tuner_calls"])
        record["errors"] = workload.check(result, request_seed,
                                          goldens.get(str(request_seed)))
        firsts.setdefault(request_seed, result)
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, root, result,
                                             store_bytes, checkpoint_bytes)
    except Exception:  # noqa: BLE001 - a failed sample is counted, not fatal
        record["errors"].append(traceback.format_exc(limit=4))
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--requests", required=True,
                        help="comma-separated request seeds this worker serves")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long this worker measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the process was spawned")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True,
                        help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    repro = import_repro()
    spec = load_json(HERE / "workloads.json")[args.workload]
    goldens = load_json(HERE / "goldens.json").get(args.workload, {})
    requests = [int(seed) for seed in args.requests.split(",")]
    args.scratch.mkdir(parents=True, exist_ok=True)
    workload = Workload(repro, spec, args.scratch)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    # Set-up: a warm workload fills one master store per request it serves
    # (these searches double as the warm-up); a cold one warms up on the
    # panel's first request, whichever requests the worker serves.
    if spec["store"] == "populated":
        warmups = [(seed, workload.populate(seed)) for seed in requests]
    else:
        warmups = [(spec["panel"][0], workload.sample(spec["panel"][0])[0])]
    references = [{"request_seed": seed, "digest": fingerprint(result),
                   "speedup": result.speedup} for seed, result in warmups]

    start = time.monotonic()
    setup_s = start - args.spawned
    deadline = start + args.seconds
    samples: list[dict] = []
    firsts: dict[int, object] = {}
    rounds: list[float] = []
    # Whole rounds over the worker's requests, so every run times the same
    # mix of requests.  A traced run times each request untraced, then
    # traced, so both sets of samples cover the same requests.
    while True:
        began = time.monotonic()
        for request_seed in requests:
            for traced in ((False, True) if tracer is not None else (False,)):
                samples.append(run_sample(workload, request_seed, goldens,
                                          tracer if traced else None, firsts))
        rounds.append(time.monotonic() - began)
        if time.monotonic() + statistics.median(rounds) / 2 > deadline:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for request_seed, result in firsts.items():
        try:
            errors = workload.retune_errors(result, request_seed)
        except Exception:  # noqa: BLE001 - counted against the seed's samples
            errors = [traceback.format_exc(limit=4)]
        for record in samples:
            if record["request_seed"] == request_seed:
                record["errors"].extend(errors)
    if tracer is not None:
        tracer.write(args.spans)
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                      "references": references, "samples": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
