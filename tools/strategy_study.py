#!/usr/bin/env python
"""Multi-seed study of the registered search strategies.

Every registered strategy runs the same request over models × scales ×
platforms × seeds.  Each run is one ``OptimizationSession.optimize`` call
with a fresh session, so no run rides another's cache.  Per run the study
records:

* the final latency as a ratio to the all-``standard`` baseline;
* the **bill**: tuner trials spent, the sum over ``AutoTuner.tune`` calls
  of each call's trial count.  It is read off the fresh engine's cache
  keys as ``Σ trials × len(program.build_computations(shape))``, so the
  script needs nothing from the library beyond the public session;
* the tuner calls and the search's wall-clock seconds.

A *cell* is one model and scale.  Within a cell every strategy is paired
with the reference strategy on the same platform and seed, and the report
gives wins/ties/losses with a two-sided sign test (ties dropped) on
latency and on bill, then the medians.  This is the many-seeds protocol of
the BANANAS harness: one search per seed, compared pairwise, never one
seed alone.

A strategy is *dominated* when some other strategy, in every cell, is not
significantly worse on latency or on bill and is significantly better
(p < 0.05) on at least one of them.  DESIGN.md §6 states the rule and the
study's table.

Usage::

    PYTHONPATH=src python tools/strategy_study.py              # the full study
    PYTHONPATH=src python tools/strategy_study.py --models resnet18 \\
        --scales ci=8 --platforms cpu --seeds 0 --width-multiplier 0.125 \\
        --image-size 8 --tuner-trials 2 --json study.json

Point ``PYTHONPATH`` at another checkout's ``src`` to run the same study
against that version.  Runs are deterministic: the same arguments give the
same latencies, bills and tuner calls every time.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

from repro.api import OptimizationSession
from repro.core.search import SEARCH_STRATEGY_REGISTRY

#: sign-test level for "significantly better" in the dominance rule
ALPHA = 0.05
#: the strategy every other one is paired with in the W/T/L tables
REFERENCE = "model_guided"


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p value of ``wins`` against ``losses`` (ties dropped)."""
    trials = wins + losses
    if not trials:
        return 1.0
    tail = sum(math.comb(trials, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** trials)


def format_p(p: float) -> str:
    if p < 1e-3:
        return f"p<1e-{int(math.floor(-math.log10(p)))}"
    return f"p={p:.3f}" if p < 0.01 else f"p={p:.2f}"


def bill(engine) -> int:
    """Tuner trials a fresh engine spent: one ``tune`` call per computation."""
    return sum(trials * len(program.build_computations(shape))
               for _platform, shape, program, trials, _seed in engine.cache_keys())


def run_one(model: str, configurations: int, platform: str, seed: int,
            strategy: str, *, width_multiplier: float, image_size: int,
            tuner_trials: int) -> dict:
    started = time.perf_counter()
    with OptimizationSession(platform, tuner_trials=tuner_trials,
                             seed=seed) as session:
        result = session.optimize(model, strategy=strategy,
                                  configurations=configurations,
                                  width_multiplier=width_multiplier,
                                  image_size=image_size)
        spent = bill(session.engine(platform, tuner_trials=tuner_trials,
                                    seed=seed))
    return {
        "baseline_latency_seconds": result.baseline_latency_seconds,
        "optimized_latency_seconds": result.optimized_latency_seconds,
        "ratio": result.optimized_latency_seconds / result.baseline_latency_seconds,
        "bill": spent,
        "tuner_calls": result.engine_statistics["tuner_calls"],
        "full_tunings": result.search_statistics["full_tunings"],
        "search_seconds": result.search_statistics["search_seconds"],
        "wall_seconds": time.perf_counter() - started,
    }


def compare(runs: list[dict], strategy: str, reference: str, key: str
            ) -> tuple[int, int, int, float]:
    """W/T/L of ``strategy`` against ``reference`` on ``key`` (lower wins)."""
    mine = {(r["platform"], r["seed"]): r[key] for r in runs
            if r["strategy"] == strategy}
    theirs = {(r["platform"], r["seed"]): r[key] for r in runs
              if r["strategy"] == reference}
    pairs = [(mine[k], theirs[k]) for k in mine if k in theirs]
    wins = sum(a < b for a, b in pairs)
    losses = sum(a > b for a, b in pairs)
    return wins, len(pairs) - wins - losses, losses, sign_test(wins, losses)


def dominates(runs_by_cell: dict, winner: str, loser: str) -> bool:
    """True when ``winner`` dominates ``loser`` in every cell (module docstring)."""
    for runs in runs_by_cell.values():
        significant_gain = False
        for key in ("optimized_latency_seconds", "bill"):
            wins, _ties, losses, p = compare(runs, winner, loser, key)
            if p < ALPHA and losses > wins:
                return False
            significant_gain |= p < ALPHA and wins > losses
        if not significant_gain:
            return False
    return True


def report(runs: list[dict], strategies: list[str], reference: str) -> str:
    by_cell: dict[str, list[dict]] = {}
    for run in runs:
        by_cell.setdefault(f"{run['model']} {run['scale']}", []).append(run)
    lines = [f"W/T/L against {reference} (a win is a lower latency or a "
             f"smaller bill), two-sided sign test"]
    header = f"{'cell':24s} {'strategy':14s} {'latency':22s} {'bill':22s}"
    lines += [header, "-" * len(header)]
    for cell, cell_runs in by_cell.items():
        for strategy in strategies:
            if strategy == reference:
                continue
            columns = []
            for key in ("optimized_latency_seconds", "bill"):
                wins, ties, losses, p = compare(cell_runs, strategy, reference, key)
                columns.append(f"{wins}/{ties}/{losses} ({format_p(p)})")
            lines.append(f"{cell:24s} {strategy:14s} {columns[0]:22s} {columns[1]:22s}")
    lines += ["", "Medians: latency ratio to the baseline, trials spent, "
              "search seconds"]
    header = f"{'cell':24s} {'strategy':14s} {'ratio':>7s} {'bill':>9s} {'seconds':>8s}"
    lines += [header, "-" * len(header)]
    for cell, cell_runs in by_cell.items():
        for strategy in strategies:
            mine = [r for r in cell_runs if r["strategy"] == strategy]
            lines.append(
                f"{cell:24s} {strategy:14s} "
                f"{statistics.median(r['ratio'] for r in mine):7.2f} "
                f"{statistics.median(r['bill'] for r in mine):9,.1f} "
                f"{statistics.median(r['search_seconds'] for r in mine):8.2f}")
    lines += ["", "Dominance (DESIGN.md §6)"]
    for loser in strategies:
        winners = [winner for winner in strategies
                   if winner != loser and dominates(by_cell, winner, loser)]
        lines.append(f"  {loser:14s} dominated by: {', '.join(winners) or '-'}")
    return "\n".join(lines)


def _csv(text: str) -> list[str]:
    return [item for item in text.split(",") if item]


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(item) for item in _csv(text)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--models", default="resnet34,densenet161")
    parser.add_argument("--scales", default="bench=60,b120=120",
                        help="comma-separated name=configurations pairs")
    parser.add_argument("--platforms", default="cpu,gpu,mcpu,mgpu")
    parser.add_argument("--seeds", default="0-7", help="a range 'a-b' or a list")
    parser.add_argument("--width-multiplier", type=float, default=0.25)
    parser.add_argument("--image-size", type=int, default=16)
    parser.add_argument("--tuner-trials", type=int, default=4)
    parser.add_argument("--json", default=None,
                        help="also write every run's record to this file")
    args = parser.parse_args(argv)
    strategies = list(SEARCH_STRATEGY_REGISTRY)
    scales = [(name, int(configurations)) for name, configurations in
              (item.split("=") for item in _csv(args.scales))]
    runs = []
    for model in _csv(args.models):
        for scale, configurations in scales:
            for platform in _csv(args.platforms):
                for seed in _seeds(args.seeds):
                    for strategy in strategies:
                        record = run_one(model, configurations, platform, seed,
                                         strategy,
                                         width_multiplier=args.width_multiplier,
                                         image_size=args.image_size,
                                         tuner_trials=args.tuner_trials)
                        record.update(model=model, scale=scale, platform=platform,
                                      seed=seed, strategy=strategy)
                        runs.append(record)
                        print(f"{model} {scale} {platform} seed {seed} "
                              f"{strategy}: ratio {record['ratio']:.4f}, "
                              f"bill {record['bill']}", file=sys.stderr, flush=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(runs, handle, indent=1)
    print(report(runs, strategies, REFERENCE))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
