"""The unified transformation space (§5): program + neural + GPU mapping.

This module is the catalogue of Table 1 plus the candidate-generation
policy of the unified search.  For each convolution layer it proposes
transform programs — the named predefined sequences *and* true random
compositions of Table-1 primitives sampled from the open IR — each of
which passes the staged legality pipeline (structural/dependence checks at
generation, Fisher Potential for neural survivors) before it is auto-tuned
on the target platform.  Structural rejections are attributed to the
failing primitive so the search statistics differentiate *why* candidates
die, not just how many.
"""

from __future__ import annotations

import numpy as np

from repro.core.program import TransformProgram, random_composition
from repro.core.sequences import (
    nas_candidate_sequences,
    paper_sequences,
    predefined_program,
    random_sequence,
)
from repro.poly.statement import ConvolutionShape
from repro.utils import make_rng

#: Table 1 of the paper: every autotuning primitive by category.
TABLE1_PRIMITIVES: dict[str, dict[str, str]] = {
    "program": {
        "reorder": "Interchange nested loops",
        "tile": "Cache and register blocking",
        "unroll": "Loop unrolling",
        "prefetch": "Memory coalescing between threads",
        "split": "Divide iteration into multiple axes",
        "fuse": "Combine two axes into one",
    },
    "neural": {
        "bottleneck": "Reduce domain by factor B",
        "group": "Slice and offset two loops by factor G",
    },
    "gpu": {
        "blockIdx": "Block-wise parallelism",
        "threadIdx": "Threads within blocks",
        "vthread": "Striding thread access",
    },
}


def primitive_catalogue() -> list[tuple[str, str, str]]:
    """Flat (category, primitive, description) rows of Table 1."""
    rows = []
    for category, primitives in TABLE1_PRIMITIVES.items():
        for name, description in primitives.items():
            rows.append((category, name, description))
    return rows


# The candidate-generation policy of the unified search (DESIGN.md §7).
# Every layer is offered the ``standard`` program, the three named §7.3
# sequences and the classic NAS candidate operators, plus random draws.

#: probability of proposing a neural sequence (vs program-only) per layer
NEURAL_PROBABILITY = 0.75
#: number of additional random named sequences proposed per layer
RANDOM_SEQUENCES_PER_LAYER = 4
#: number of random primitive compositions sampled per layer from the open
#: IR (programs outside the predefined catalogue)
RANDOM_COMPOSITIONS_PER_LAYER = 2
#: maximum primitive applications per sampled composition
MAX_COMPOSITION_STEPS = 4

#: each layer's candidates as (neural, program-only) lists, see
#: :meth:`UnifiedSpace.sample_assignment`
Partitions = dict[str, tuple[list[TransformProgram], list[TransformProgram]]]


class UnifiedSpace:
    """Generates candidate transform programs for convolution layers.

    Example::

        space = UnifiedSpace(seed=7)
        programs = space.candidate_sequences(shape, rng=space.fresh_rng())
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = make_rng(seed)

    def fresh_rng(self) -> np.random.Generator:
        """An RNG restarted from the space's seed.

        One per search run makes candidate generation a pure function of
        the seed, so repeated searches propose identical programs and hit
        the evaluation engine's cache instead of tuning.
        """
        return make_rng(self.seed)

    def random_composition(self, shape: ConvolutionShape,
                           rng: np.random.Generator | None = None,
                           ) -> TransformProgram | None:
        """Sample one random primitive composition legal for ``shape``."""
        return random_composition(shape, self._rng if rng is None else rng,
                                  max_steps=MAX_COMPOSITION_STEPS)

    def candidate_sequences(self, shape: ConvolutionShape,
                            rng: np.random.Generator | None = None,
                            rejections: dict[str, int] | None = None,
                            ) -> list[TransformProgram]:
        """All structurally legal candidate programs for one shape.

        The ``standard`` program (program transformations only) is always
        present, so every layer keeps a legal fall-back.  Candidates that
        fail the structural legality check are dropped here — before any
        Fisher scoring or tuning — and counted per failing primitive into
        ``rejections`` when given.
        """
        rng = self._rng if rng is None else rng
        candidates: dict[str, TransformProgram] = {
            "standard": predefined_program("standard")}
        candidates.update(paper_sequences())
        candidates.update(nas_candidate_sequences())
        for index in range(RANDOM_SEQUENCES_PER_LAYER):
            program = random_sequence(rng)
            candidates.setdefault(f"random_{index}_{program.name}", program)
        for index in range(RANDOM_COMPOSITIONS_PER_LAYER):
            program = self.random_composition(shape, rng)
            if program is not None:
                candidates.setdefault(f"composition_{index}", program)
        kept: list[TransformProgram] = []
        for program in candidates.values():
            report = program.legality(shape)
            if report.legal:
                kept.append(program)
            elif rejections is not None:
                key = report.primitive or "unknown"
                rejections[key] = rejections.get(key, 0) + 1
        return kept

    def sample_assignment(self, shapes: dict[str, ConvolutionShape],
                          per_layer_candidates: dict[str, list[TransformProgram]],
                          rng: np.random.Generator | None = None, *,
                          partitions: Partitions | None = None,
                          ) -> dict[str, TransformProgram]:
        """Sample one configuration: a program choice per layer.

        ``partitions`` keeps each layer's candidates split into neural and
        program-only lists, filled here on first use.  A search passes one
        dict to all its calls, so ``is_neural`` — which walks a program's
        steps and stays unmemoised, because ``register_primitive`` can
        change it — runs once per candidate and search, not per sample.
        """
        rng = rng or self._rng
        partitions = {} if partitions is None else partitions
        assignment: dict[str, TransformProgram] = {}
        for layer, candidates in per_layer_candidates.items():
            if layer not in partitions:
                partitions[layer] = ([c for c in candidates if c.is_neural],
                                     [c for c in candidates if not c.is_neural])
            neural, standard = partitions[layer]
            if neural and rng.random() < NEURAL_PROBABILITY:
                assignment[layer] = neural[int(rng.integers(0, len(neural)))]
            elif standard:
                assignment[layer] = standard[int(rng.integers(0, len(standard)))]
            else:
                assignment[layer] = candidates[int(rng.integers(0, len(candidates)))]
        return assignment

    def space_cardinality(self, per_layer_candidates: dict[str, list[TransformProgram]]
                          ) -> float:
        """Number of distinct configurations the sampled candidates span."""
        cardinality = 1.0
        for candidates in per_layer_candidates.values():
            cardinality *= max(len(candidates), 1)
        return cardinality
