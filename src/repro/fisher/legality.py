"""Fisher-Potential legality check for neural transformations (§5.2).

The paper's rule: a proposed architecture is legal if its Fisher Potential
at initialisation is not below the original network's.  The checker keeps
the original network's per-layer scores and accepts or rejects a
substitution given its candidate layer scores (each computed locally by
:func:`~repro.fisher.potential.candidate_layer_fisher`); a relative
threshold generalises the rule for the ablation study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fisher.potential import FisherProfile, FisherScores


@dataclass
class LegalityDecision:
    """Outcome of checking one candidate."""

    legal: bool
    candidate_potential: float
    original_potential: float
    reason: str = ""

    @property
    def margin(self) -> float:
        return self.candidate_potential - self.original_potential


class FisherLegalityChecker:
    """Accept/reject candidate layer substitutions by Fisher Potential.

    ``threshold`` is the fraction of the original potential a candidate
    must reach; the paper uses 1.0 (reject anything below the original).
    ``profile`` may be a full :class:`FisherProfile` or its
    :class:`FisherScores`.
    """

    def __init__(self, profile: FisherProfile | FisherScores, threshold: float = 1.0):
        if not threshold > 0:  # NaN fails this test too
            raise ValueError("the legality threshold must be positive")
        self.profile = profile
        self.threshold = threshold
        self.checked = 0
        self.rejected = 0

    @property
    def original_potential(self) -> float:
        return self.profile.total

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.checked if self.checked else 0.0

    # ------------------------------------------------------------------
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
    def _decide(self, candidate_potential: float) -> LegalityDecision:
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
