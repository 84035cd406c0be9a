"""End-to-end benchmark of ``repro.OptimizationSession.optimize``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_tune --seed 0 --seconds 25 --trace 0

The workloads (``cold_tune``, ``warm_fisher``, ``guided_ckpt``) are defined
in ``perfbench/workloads.json`` with the request each one sends, why it was
chosen and the layer shares measured when it was added; the metrics, their
units and bounds are in ``BENCHMARK.json``.

Each workload sends a fixed panel of requests that differ only in their
seed.  The panel is fixed because the search's work depends on the request
seed far more than on anything a change to the library does: on
cold_tune, request seed 1 makes 209 tuner calls and seed 3 makes 793.  A
run splits the panel between its workers and times whole rounds over it,
so every run times the same mix.  ``--seed`` rotates the panel before the
split, which decides the order of the requests and the worker that serves
each one; the same seed always gives the same inputs.

A run starts ``WORKERS`` worker processes one after the other (see
``worker.py``); each sets the workload up, which is what ``setup_s``
measures, then measures for its share of ``--seconds`` with the engine in
``parallel="serial"`` and BLAS on one thread, so a run loads one core.
With ``--trace 0`` the run reports the end-to-end metrics, with tracing
off.  With ``--trace 1`` it times each request untraced and then traced,
with the layer wrappers of ``tracing.py`` installed, and reports the
per-layer metrics; the spans are written to
``.perfbench_out/<workload>.w<k>.spans.jsonl``.  Every run writes its
workers' sample records to ``.perfbench_out/<workload>.samples.json``.

Every sample's output is checked: the golden fingerprint of its request
in ``goldens.json``, invariants that do not trust the search, a re-tune
of every chosen layer in a fresh session, and equality across samples and
workers of the same request.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name each
metric with its unit, the sample count and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from worker import HERE, ROOT, load_json

#: Worker processes per run: each is one set-up measurement for setup_s.
WORKERS = 2
#: Seconds a worker may take beyond its measuring time, for its set-up, a
#: last round that overshoots the deadline, and the output checks.
WORKER_MARGIN = 60.0
SCRATCH = ROOT / ".perfbench_tmp"
OUTPUT = ROOT / ".perfbench_out"


def run_worker(args, index: int, requests: list[int]) -> dict:
    """Run one worker to completion and return its JSON document."""
    scratch = SCRATCH / f"{os.getpid()}-w{index}"
    scratch.mkdir(parents=True, exist_ok=True)
    environment = {key: value for key, value in os.environ.items()
                   if not key.startswith("REPRO_")}
    environment["TMPDIR"] = str(scratch)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload,
               "--requests", ",".join(str(seed) for seed in requests),
               "--seconds", str(args.seconds / WORKERS),
               "--trace", str(args.trace),
               "--scratch", str(scratch),
               "--spans", str(OUTPUT / f"{args.workload}.w{index}.spans.jsonl")]
    timeout = args.seconds / WORKERS + WORKER_MARGIN
    try:
        completed = subprocess.run(command + ["--spawned", repr(time.monotonic())],
                                   stdout=subprocess.PIPE, text=True,
                                   env=environment, cwd=ROOT,
                                   timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker {index} took longer than "
                         f"{timeout:.0f} s") from None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker {index} exited with code "
                         f"{completed.returncode}")
    return json.loads(lines[-1])


def mark_disagreements(documents: list[dict]) -> None:
    """Fail every sample whose request gave different outputs anywhere.

    Samples of one request seed must agree on the layer fingerprint, the
    speedup and the tuner call count, and with the untimed set-up searches
    of every worker on the first two.
    """
    outputs: dict[int, set] = {}
    for document in documents:
        for reference in document["references"]:
            outputs.setdefault(reference["request_seed"], set()).add(
                (reference["digest"], reference["speedup"]))
    calls: dict[int, set] = {}
    for document in documents:
        for sample in document["samples"]:
            if "digest" in sample:
                seed = sample["request_seed"]
                outputs.setdefault(seed, set()).add((sample["digest"], sample["speedup"]))
                calls.setdefault(seed, set()).add(sample["tuner_calls"])
    for document in documents:
        for sample in document["samples"]:
            seed = sample["request_seed"]
            if len(outputs.get(seed, ())) > 1 or len(calls.get(seed, ())) > 1:
                sample["errors"].append(
                    f"request seed {seed} gave different outputs across samples")


def tail_percentile(values: list[float]) -> str:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    ordered = sorted(values)
    for percentile in (99, 90, 50):
        if len(ordered) * (100 - percentile) / 100 >= 10:
            position = math.ceil(percentile / 100 * len(ordered)) - 1
            return f"p{percentile} {ordered[position]:.4f} s"
    return f"none (n={len(ordered)} < 20)"


def panel_mean(samples: list[dict], value) -> float:
    """Mean over the panel's requests of each request's median ``value``.

    The requests of a panel differ in how much work they make, so a median
    over the pooled samples would report whichever request sits in the
    middle; this is the expected value for one call drawn from the panel.
    """
    by_request: dict[int, list[float]] = {}
    for sample in samples:
        by_request.setdefault(sample["request_seed"], []).append(value(sample))
    return statistics.fmean(statistics.median(values) for values in by_request.values())


def search_seconds(sample: dict) -> float:
    return sample["search_s"]


def summarise(args, benchmark: dict, documents: list[dict]) -> dict:
    mark_disagreements(documents)
    samples = [sample for document in documents for sample in document["samples"]]
    attempted, failed = len(samples), sum(1 for s in samples if s["errors"])
    for sample in samples:
        for error in sample["errors"]:
            print(f"FAILED request seed {sample['request_seed']}: {error}".rstrip())
    timed = [s for s in samples if "search_s" in s]
    untraced = [s for s in timed if not s["traced"]]
    traced = [s for s in timed if s["traced"] and "layers" in s]
    if not untraced or (args.trace and not traced):
        raise SystemExit("perfbench: no sample completed")
    print(f"perfbench {args.workload} seed {args.seed}: {len(untraced)} untraced "
          f"samples over {len({s['request_seed'] for s in untraced})} requests, "
          f"search_s tail {tail_percentile([search_seconds(s) for s in untraced])}; "
          f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    if args.trace:
        declared = benchmark["per_layer"]
        values = {"trace.overhead": panel_mean(traced, search_seconds)
                  / panel_mean(untraced, search_seconds)}
        for metric in declared:
            name = metric["name"]
            if name not in values:
                values[name] = panel_mean(traced, lambda s: s["layers"].get(name, 0))
    else:
        declared = benchmark["end_to_end"]
        values = {
            "search_s": panel_mean(untraced, search_seconds),
            "setup_s": statistics.median(d["setup_s"] for d in documents),
            "peak_rss_mb": max(d["peak_rss_mb"] for d in documents),
            "result_speedup": panel_mean(timed, lambda s: s["speedup"]),
        }
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:32s} {value:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    workloads = load_json(HERE / "workloads.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # Stopped from outside, a run stops its worker too: subprocess.run kills
    # the child when an exception interrupts the wait.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    benchmark = load_json(ROOT / "BENCHMARK.json")
    panel = workloads[args.workload]["panel"]
    shift = args.seed % len(panel)
    rotated = panel[shift:] + panel[:shift]
    documents = [run_worker(args, index, rotated[index::WORKERS])
                 for index in range(WORKERS)]
    summary = summarise(args, benchmark, documents)
    OUTPUT.mkdir(parents=True, exist_ok=True)
    (OUTPUT / f"{args.workload}.samples.json").write_text(
        json.dumps(documents, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
