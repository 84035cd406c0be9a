"""The paper's contribution: NAS as program transformation exploration."""

from repro.core.program import (
    PRIMITIVE_REGISTRY,
    LegalityReport,
    Primitive,
    PrimitiveApplication,
    TransformProgram,
    program_from_dict,
    program_to_dict,
    random_composition,
    register_primitive,
    step,
)
from repro.core.encoding import (
    FEATURE_NAMES,
    encode_batch,
    encode_candidate,
)
from repro.core.predictor import (
    LatencyPredictor,
    PredictorStatistics,
)
from repro.core.sequences import (
    SEQUENCE_KINDS,
    nas_candidate_sequences,
    paper_sequences,
    predefined_program,
    random_sequence,
)
from repro.core.unified_space import (
    TABLE1_PRIMITIVES,
    UnifiedSpace,
    primitive_catalogue,
)
from repro.core.workloads import (
    LayerWorkload,
    extract_workloads,
    total_macs,
    unique_shapes,
)
from repro.core.events import (
    Observable,
    Observer,
    ProgressEvent,
)
from repro.core.cache_store import (
    CacheStore,
    ShardInfo,
    canonical_key_document,
    key_digest,
    key_from_document,
)
from repro.core.engine import (
    EngineStatistics,
    EvaluationEngine,
    FisherOracle,
)
from repro.core.search import (
    SEARCH_STRATEGY_REGISTRY,
    LayerChoice,
    SearchStatistics,
    SearchStrategy,
    UnifiedSearch,
    UnifiedSearchResult,
    get_strategy,
    register_strategy,
)
from repro.core.interpolation import (
    InterpolationPoint,
    InterpolationResult,
    interpolate_between_groupings,
)

__all__ = [
    "PRIMITIVE_REGISTRY", "LegalityReport", "Primitive", "PrimitiveApplication",
    "TransformProgram", "program_from_dict", "program_to_dict",
    "random_composition", "register_primitive", "step",
    "FEATURE_NAMES", "encode_batch", "encode_candidate",
    "LatencyPredictor", "PredictorStatistics",
    "SEQUENCE_KINDS", "nas_candidate_sequences", "paper_sequences",
    "predefined_program", "random_sequence",
    "TABLE1_PRIMITIVES", "UnifiedSpace", "primitive_catalogue",
    "LayerWorkload", "extract_workloads", "total_macs", "unique_shapes",
    "Observable", "Observer", "ProgressEvent",
    "CacheStore", "ShardInfo", "canonical_key_document", "key_digest",
    "key_from_document",
    "EngineStatistics", "EvaluationEngine", "FisherOracle",
    "SEARCH_STRATEGY_REGISTRY", "SearchStrategy",
    "get_strategy", "register_strategy",
    "LayerChoice", "SearchStatistics", "UnifiedSearch", "UnifiedSearchResult",
    "InterpolationPoint", "InterpolationResult", "interpolate_between_groupings",
]
