"""Record the golden output of every workload for the default seed.

Run from the root of a checkout when a change is meant to alter search
results (the benchmark then fails every sample until the goldens follow)::

    python3 perfbench/goldens.py

For each workload and each request seed of its panel, it runs one isolated
sample exactly as a timed one runs (warm workloads on a copy of
a freshly populated store) and writes the speedup, the layer fingerprint
and the tuner call count to ``perfbench/goldens.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from worker import HERE, ROOT, Workload, fingerprint, import_repro, load_json


def main() -> int:
    workloads = load_json(HERE / "workloads.json")
    repro = import_repro()
    goldens: dict[str, dict] = {}
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="goldens-", dir=ROOT / ".perfbench_tmp"))
    try:
        for name in sorted(workloads):
            spec = workloads[name]
            workload = Workload(repro, spec, scratch)
            goldens[name] = {}
            for seed in spec["panel"]:
                if spec["store"] == "populated":
                    workload.populate(seed)
                result = workload.sample(seed)[0]
                goldens[name][str(seed)] = {
                    "speedup": result.speedup, "digest": fingerprint(result),
                    "tuner_calls": result.engine_statistics["tuner_calls"]}
                print(name, seed, goldens[name][str(seed)], flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(HERE / "goldens.json", "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
