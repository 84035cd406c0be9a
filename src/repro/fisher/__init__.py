"""Fisher Potential: compile-time legality for neural transformations."""

from repro.fisher.potential import (
    FISHER_CRITERION,
    FisherProfile,
    FisherScores,
    LayerFisherRecord,
    candidate_layer_fisher,
    channel_fisher,
    fisher_key,
    fisher_profile,
    layer_fisher,
    minibatch_digest,
    network_digest,
    network_fisher_potential,
)
from repro.fisher.legality import (
    FisherLegalityChecker,
    LegalityDecision,
    sensitive_layers,
)

__all__ = [
    "FISHER_CRITERION", "FisherProfile", "FisherScores", "LayerFisherRecord",
    "candidate_layer_fisher", "channel_fisher", "fisher_key", "fisher_profile",
    "layer_fisher", "minibatch_digest", "network_digest", "network_fisher_potential",
    "FisherLegalityChecker", "LegalityDecision", "sensitive_layers",
]
