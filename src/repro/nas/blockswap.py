"""BlockSwap (Turner et al., ICLR 2020): the paper's "NAS" baseline.

BlockSwap compresses a network by substituting its convolution blocks with
cheaper alternatives from a fixed candidate list, choosing the substitution
pattern whose Fisher Potential at initialisation is highest under a
parameter budget.  The paper compiles the BlockSwap-compressed network with
TVM default schedules and labels the result "NAS" in Figures 4, 6 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError, SearchError
from repro.fisher import FisherProfile, candidate_layer_fisher, fisher_profile
from repro.nn.blocks import iter_replaceable_convs
from repro.nn.convs import CANDIDATE_KINDS, build_candidate
from repro.nn.layers import Conv2d
from repro.nn.module import Module
from repro.utils import make_rng


@dataclass(frozen=True)
class BlockSubstitution:
    """One chosen substitution: which conv becomes which candidate."""

    layer: str
    kind: str
    original_parameters: int
    candidate_parameters: int
    fisher_score: float


@dataclass
class BlockSwapResult:
    """The compressed model plus the substitution plan that produced it."""

    model: Module
    substitutions: list[BlockSubstitution] = field(default_factory=list)
    original_parameters: int = 0
    compressed_parameters: int = 0
    fisher_potential: float = 0.0

    @property
    def compression_ratio(self) -> float:
        if self.compressed_parameters == 0:
            return 1.0
        return self.original_parameters / self.compressed_parameters

    def plan(self) -> dict[str, str]:
        return {sub.layer: sub.kind for sub in self.substitutions}


def _candidate_kinds_for(conv: Conv2d, kinds: tuple[str, ...]) -> list[str]:
    """Filter candidate kinds to those whose channel constraints are met."""
    if conv.groups > 1:
        # Already-grouped convolutions (ResNeXt) are outside the candidate list.
        return []
    usable = []
    for kind in kinds:
        if kind == "standard":
            continue
        if kind.startswith("group"):
            factor = int(kind[len("group"):])
            if conv.in_channels % factor or conv.out_channels % factor:
                continue
        if kind.startswith("bottleneck"):
            factor = int(kind[len("bottleneck"):])
            if conv.out_channels % factor:
                continue
        if kind == "depthwise" and conv.in_channels < 2:
            continue
        if kind == "spatial2" and conv.kernel_size < 2:
            continue
        usable.append(kind)
    return usable


class BlockSwap:
    """Fisher-guided block substitution under a parameter budget."""

    def __init__(self, *, budget_ratio: float = 0.5,
                 candidate_kinds: tuple[str, ...] = CANDIDATE_KINDS,
                 seed: int | None = None):
        if not 0.0 < budget_ratio <= 1.0:
            raise SearchError("budget_ratio must be in (0, 1]")
        self.budget_ratio = budget_ratio
        self.candidate_kinds = candidate_kinds
        self.seed = seed

    def compress(self, model: Module, images: np.ndarray, labels: np.ndarray) -> BlockSwapResult:
        """Substitute blocks in place until the parameter budget is met.

        The substitution order follows Fisher sensitivity: the least
        sensitive convolutions (lowest layer Fisher score) are replaced
        first, each with the cheapest candidate whose local Fisher score is
        the highest among the shape-compatible options.
        """
        rng = make_rng(self.seed)
        profile = fisher_profile(model, images, labels)
        original_parameters = model.num_parameters()
        budget = int(original_parameters * self.budget_ratio)

        replaceable = iter_replaceable_convs(model)
        name_to_entry = {name: (owner, conv) for name, owner, conv in replaceable
                         if isinstance(conv, Conv2d)}
        # Least sensitive first.
        ordered = sorted(
            (name for name in name_to_entry if name in profile.layers),
            key=lambda name: profile.score_of(name),
        )

        result = BlockSwapResult(model=model, original_parameters=original_parameters)
        current_parameters = original_parameters
        for name in ordered:
            if current_parameters <= budget:
                break
            owner, conv = name_to_entry[name]
            record = profile.layers[name]
            kinds = _candidate_kinds_for(conv, self.candidate_kinds)
            if not kinds:
                continue
            best_kind, best_candidate, best_score = None, None, -np.inf
            for kind in kinds:
                candidate = build_candidate(
                    kind, conv.in_channels, conv.out_channels, conv.kernel_size,
                    stride=conv.stride, padding=conv.padding,
                    rng=make_rng(int(rng.integers(0, 2 ** 31))),
                )
                if candidate.num_parameters() >= conv.num_parameters():
                    continue
                try:
                    score = candidate_layer_fisher(record, candidate)
                except ModelError:
                    continue  # shape-incompatible candidate (e.g. odd spatial size)
                if score > best_score:
                    best_kind, best_candidate, best_score = kind, candidate, score
            if best_candidate is None:
                continue
            attribute = name.split(".")[-1]
            setattr(owner, attribute, best_candidate)
            saving = conv.num_parameters() - best_candidate.num_parameters()
            current_parameters -= saving
            result.substitutions.append(BlockSubstitution(
                layer=name, kind=best_kind,
                original_parameters=conv.num_parameters(),
                candidate_parameters=best_candidate.num_parameters(),
                fisher_score=best_score,
            ))

        result.compressed_parameters = model.num_parameters()
        final_profile = fisher_profile(model, images, labels)
        result.fisher_potential = final_profile.total
        return result
