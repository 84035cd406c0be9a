"""repro — NAS as program transformation exploration, behind one front door.

A reproduction of the ASPLOS'21 paper growing into a production system.
The curated surface below is the supported way in; everything else in the
package is implementation detail that may move between releases (the
stability policy is DESIGN.md §9).

Quick start::

    import repro

    result = repro.optimize("resnet34", platform="cpu", configurations=60)
    print(f"{result.speedup:.2f}x over the tuned TVM-style baseline")

The same surface is reachable from a shell: ``python -m repro --help``
(or the ``repro`` console script once the package is installed).
"""

from repro.api import (
    MODEL_BUILDERS,
    LayerDecision,
    OptimizationRequest,
    OptimizationResult,
    OptimizationSession,
    TuningResult,
    build_model,
    list_platforms,
    list_sequences,
    optimize,
    program_from_dict,
    program_to_dict,
    resume_checkpoint,
    tune,
)
from repro.core.cache_store import CacheStore
from repro.core.checkpoint import SearchCheckpoint, read_checkpoint
from repro.core.encoding import FEATURE_NAMES, encode_candidate
from repro.core.engine import EvaluationEngine, SupervisionPolicy
from repro.core.events import Observable, Observer, ProgressEvent
from repro.core.faults import FaultPlan
from repro.core.predictor import LatencyPredictor
from repro.core.program import TransformProgram, step
from repro.core.search import UnifiedSearch, UnifiedSearchResult
from repro.core.sequences import predefined_program
from repro.errors import (
    CheckpointError,
    DegradedExecutionWarning,
    ReproError,
    ServiceError,
)
from repro.hardware.platform import PlatformSpec, get_platform
from repro.poly.statement import ConvolutionShape

#: Single-source package version (setup.py reads it from this file).
__version__ = "0.15.0"

#: The supported public surface.  Additions are backwards-compatible;
#: removals or renames require a major version bump (DESIGN.md §9).
__all__ = [
    # one-call façade + session
    "optimize", "tune", "OptimizationSession",
    # typed request / result documents
    "OptimizationRequest", "OptimizationResult", "LayerDecision", "TuningResult",
    # progress observation
    "Observable", "Observer", "ProgressEvent",
    # programs and shapes
    "TransformProgram", "step", "predefined_program",
    "program_to_dict", "program_from_dict", "ConvolutionShape",
    # models and platforms
    "MODEL_BUILDERS", "build_model", "PlatformSpec", "get_platform",
    "list_platforms", "list_sequences",
    # the engine/search layer for advanced callers
    "EvaluationEngine", "CacheStore", "UnifiedSearch", "UnifiedSearchResult",
    # the predictor-guided search subsystem
    "LatencyPredictor", "encode_candidate", "FEATURE_NAMES",
    # fault tolerance: checkpoint/resume, supervised execution, injection
    "resume_checkpoint", "SearchCheckpoint", "read_checkpoint",
    "SupervisionPolicy", "FaultPlan",
    # errors
    "ReproError", "CheckpointError", "ServiceError",
    "DegradedExecutionWarning",
    "__version__",
]
