"""Steadiness self-check: do repeated sets of runs agree within the bounds?

Run from the root of a checkout::

    python3 perfbench/steady.py [--workload cold_tune ...]

Runs ``run.py`` ``RUNS`` times per workload in each of ``SETS`` sets,
every run with another seed (set ``k`` uses seeds
``FIRST_SEED + k*RUNS ..``), for ``run_seconds`` from ``BENCHMARK.json``
with tracing off.  For each workload and end-to-end metric it prints, per
set, the median and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  It names a metric *unresolved* when its spread exceeds its bound
in a set or when a later set's median differs from the first set's by
more than the bound, and flags a spread above a third of the bound.  Raw values are written to
``.perfbench_out/steady.json``.  Exits 1 when a metric is unresolved or a
run failed its output check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from worker import HERE, ROOT, load_json

RUNS = 10
SETS = 2
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: int) -> dict:
    began = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=180, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - began
    return result


def spread(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    benchmark = load_json(ROOT / "BENCHMARK.json")
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    raw: dict[str, list[list[dict]]] = {}
    unresolved: list[str] = []
    for workload in args.workload or names:
        raw[workload] = []
        for index in range(SETS):
            first = FIRST_SEED + index * RUNS
            runs = []
            for seed in range(first, first + RUNS):
                runs.append(one_run(workload, seed, benchmark["run_seconds"]))
                print(f"{workload} set {index} seed {seed} "
                      f"({runs[-1]['wall_s']:.1f} s wall): "
                      + json.dumps({k: v["value"] for k, v in runs[-1]["metrics"].items()}),
                      flush=True)
            raw[workload].append(runs)
            if not all(run["correct"] for run in runs):
                unresolved.append(f"{workload}: a run failed its output check")
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[run["metrics"][name]["value"] for run in runs]
                    for runs in raw[workload]]
            medians = [statistics.median(values) for values in sets]
            spreads = [spread(values) for values in sets]
            moves = [(median - medians[0]) / medians[0] for median in medians[1:]]
            verdict = "ok"
            if max(spreads) > bound / 3:
                verdict = "spread above a third of the bound"
            if max(spreads) > bound or any(abs(m) > bound for m in moves):
                verdict = "UNRESOLVED"
                unresolved.append(f"{workload} {name}")
            print(f"{workload:12s} {name:15s} bound {bound:.2f}  medians "
                  + " ".join(f"{m:.4g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:.3f}" for s in spreads)
                  + "  moved " + " ".join(f"{m:+.3f}" for m in moves)
                  + f"  {verdict}", flush=True)

    output = ROOT / ".perfbench_out" / "steady.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    for item in unresolved:
        print(f"unresolved: {item}")
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
