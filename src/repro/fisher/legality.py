"""Fisher-Potential legality check for neural transformations (§5.2).

The paper's rule: a proposed architecture is legal if its Fisher Potential
at initialisation is not below the original network's.  The checker keeps
the original network's per-layer profile, scores candidate layer
replacements locally (see :func:`candidate_layer_fisher`) and accepts or
rejects them; a relative threshold generalises the rule for the ablation
study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fisher.potential import (
    FisherProfile,
    FisherScores,
    LayerFisherRecord,
    candidate_layer_fisher,
    fisher_profile,
)
from repro.nn.module import Module


@dataclass
class LegalityDecision:
    """Outcome of checking one candidate."""

    legal: bool
    candidate_potential: float
    original_potential: float
    layer: str | None = None
    reason: str = ""

    @property
    def margin(self) -> float:
        return self.candidate_potential - self.original_potential


class FisherLegalityChecker:
    """Accept/reject candidate layer substitutions by Fisher Potential.

    ``threshold`` is the fraction of the original potential a candidate
    must reach; the paper uses 1.0 (reject anything below the original).
    ``profile`` may be a full :class:`FisherProfile` or its
    :class:`FisherScores`; :meth:`check_layer_candidate` needs the former.
    """

    def __init__(self, profile: FisherProfile | FisherScores, threshold: float = 1.0):
        if threshold <= 0:
            raise ValueError("the legality threshold must be positive")
        self.profile = profile
        self.threshold = threshold
        self.checked = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model: Module, images: np.ndarray, labels: np.ndarray,
                   threshold: float = 1.0) -> "FisherLegalityChecker":
        return cls(fisher_profile(model, images, labels), threshold)

    @property
    def original_potential(self) -> float:
        return self.profile.total

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.checked if self.checked else 0.0

    # ------------------------------------------------------------------
    def check_layer_candidate(self, layer_name: str, candidate: Module) -> LegalityDecision:
        """Check a single-layer substitution against the original network."""
        record = self.profile.layers[layer_name]
        candidate_score = candidate_layer_fisher(record, candidate)
        candidate_total = self.profile.without_layer(layer_name) + candidate_score
        return self._decide(candidate_total, layer=layer_name)

    def check_layer_scores(self, replacements: dict[str, float]) -> LegalityDecision:
        """Check a multi-layer substitution given candidate layer scores."""
        candidate_total = self.profile.total
        for layer_name, candidate_score in replacements.items():
            candidate_total += candidate_score - self.profile.score_of(layer_name)
        return self._decide(candidate_total)

    def check_network_potential(self, candidate_potential: float) -> LegalityDecision:
        """Check a fully re-evaluated candidate network potential."""
        return self._decide(candidate_potential)

    # ------------------------------------------------------------------
    def _decide(self, candidate_potential: float, layer: str | None = None) -> LegalityDecision:
        self.checked += 1
        required = self.original_potential * self.threshold
        legal = candidate_potential >= required
        if not legal:
            self.rejected += 1
        reason = ("accepted" if legal else
                  f"candidate potential {candidate_potential:.4g} below required {required:.4g}")
        return LegalityDecision(
            legal=legal,
            candidate_potential=candidate_potential,
            original_potential=self.original_potential,
            layer=layer,
            reason=reason,
        )


def sensitive_layers(profile: FisherProfile, fraction: float = 0.25) -> list[str]:
    """Layers with the highest Fisher scores (most sensitive to compression).

    §7.4 notes that Fisher Potential marks some layers as too sensitive to
    compress; the search uses this helper to report them.
    """
    ranked = sorted(profile.layers.values(), key=lambda rec: rec.score, reverse=True)
    count = max(1, int(round(len(ranked) * fraction)))
    return [record.name for record in ranked[:count]]
