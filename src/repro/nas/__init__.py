"""NAS baselines: the NAS-Bench-201-style space, BlockSwap, FBNet."""

from repro.nas.space import (
    CellEvaluation,
    build_cell_model,
    evaluate_cell,
    sample_cells,
    space_size,
)
from repro.nas.blockswap import BlockSubstitution, BlockSwap, BlockSwapResult
from repro.nas.fbnet import FBNetResult, FBNetSearch, MixedOp

__all__ = [
    "CellEvaluation", "build_cell_model", "evaluate_cell",
    "sample_cells", "space_size",
    "BlockSubstitution", "BlockSwap", "BlockSwapResult",
    "FBNetResult", "FBNetSearch", "MixedOp",
]
