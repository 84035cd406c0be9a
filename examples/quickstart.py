"""Quickstart: optimise ResNet-34 for a deployment target in one call.

The whole paper pipeline — Fisher profiling, the unified neural/program
search, per-candidate auto-tuning — sits behind ``repro.optimize``.

Run with:  python examples/quickstart.py [cpu|gpu|mcpu|mgpu]
"""
import sys

import repro

result = repro.optimize("resnet34", platform=sys.argv[1] if len(sys.argv) > 1 else "cpu",
                        configurations=60, tuner_trials=4, seed=0)
print(result.summary())
