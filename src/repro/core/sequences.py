"""Named transformation sequences, expressed as predefined programs.

The nine sequence kinds the reproduction started from — the three §7.3
case studies, the classic NAS operators (grouping, output/input
bottlenecking, depthwise), the §5.3 spatial-bottleneck composition and the
program-only ``standard`` — are no longer a closed enum with per-kind
stage-building code.  Each is a predefined
:class:`~repro.core.program.TransformProgram`: an explicit composition of
Table-1 primitive applications compiled through the IR's single lowering
path.  Golden-equivalence tests pin that the predefined programs produce
exactly the stages and latencies of the legacy per-kind builders.
:func:`predefined_program` is the parameterised constructor for these
named programs.
"""

from __future__ import annotations

import numpy as np

from repro.core.program import TransformProgram, step
from repro.errors import TransformError
from repro.utils import make_rng

#: Named sequence kinds available as predefined programs.
SEQUENCE_KINDS = (
    "standard",            # program transformations only
    "group",               # plain grouping (also the NAS candidate)
    "bottleneck",          # output-channel bottlenecking
    "input_bottleneck",    # the §2.3 derived operator
    "depthwise",           # grouping with G = C_o = C_i
    "spatial_bottleneck",  # the §5.3 composition
    "seq1",                # split -> reorder -> group -> reorder -> fuse
    "seq2",                # unroll -> group -> reorder
    "seq3",                # split -> group -> group -> reorder
)


def predefined_program(kind: str = "standard", *, group: int = 2,
                       group_second: int = 4, bottleneck: int = 2,
                       spatial: int = 2, unroll: int = 16) -> TransformProgram:
    """The named sequence ``kind`` as an explicit transform program.

    Example::

        standard = predefined_program("standard")
        grouped = predefined_program("group", group=4)
    """
    if kind not in SEQUENCE_KINDS:
        raise TransformError(f"unknown sequence kind '{kind}'")
    steps: tuple = ()
    if kind == "group":
        steps = (step("group", factor=group),)
    elif kind == "bottleneck":
        steps = (step("bottleneck", iterator="co", factor=bottleneck),)
    elif kind == "input_bottleneck":
        steps = (step("reorder", front=("ci", "co")),
                 step("bottleneck", iterator="ci", factor=bottleneck))
    elif kind == "depthwise":
        steps = (step("depthwise"),)
    elif kind == "spatial_bottleneck":
        steps = (step("reorder", front=("oh", "ow", "co", "ci", "kh", "kw")),
                 step("bottleneck", iterator="oh", factor=spatial),
                 step("reorder", front=("ow", "oh", "co", "ci", "kh", "kw")),
                 step("bottleneck", iterator="ow", factor=spatial),
                 step("reorder", front=("co", "ci", "oh", "ow", "kh", "kw")))
    elif kind == "seq1":
        # The published sequence leaves the strip size to the autotuner
        # (factor="auto": the largest divisor filling a SIMD/warp lane
        # group, at least ``spatial``); the trailing fuse only fires when
        # the split pair stays adjacent after the group hoist.
        steps = (step("split", iterator="ow", factor="auto", limit=8, floor=spatial),
                 step("reorder", front=("ow_o",)),
                 step("group", factor=group),
                 step("reorder", front=("g", "ow_o")),
                 step("fuse", first="ow_o", second="ow_i", optional=True))
    elif kind == "seq2":
        steps = (step("unroll", iterator="co", factor=unroll),
                 step("group", factor=group),
                 step("reorder", front=("g",)))
    elif kind == "seq3":
        steps = (step("split", parts=2),
                 step("group", factor=group, nest=0),
                 step("group", factor=group_second, nest=1),
                 step("reorder", front=("g",)))
    return TransformProgram(name=kind, steps=steps)


# ---------------------------------------------------------------------------
# Named sequences from the paper
# ---------------------------------------------------------------------------
def paper_sequences() -> dict[str, TransformProgram]:
    """The three §7.3 case-study sequences with their published parameters."""
    return {
        "seq1": predefined_program("seq1", spatial=2, group=2),
        "seq2": predefined_program("seq2", unroll=16, group=2),
        "seq3": predefined_program("seq3", group=2, group_second=4),
    }


def nas_candidate_sequences() -> dict[str, TransformProgram]:
    """Programs equivalent to the conventional NAS candidate operators."""
    return {
        "group2": predefined_program("group", group=2),
        "group4": predefined_program("group", group=4),
        "bottleneck2": predefined_program("bottleneck", bottleneck=2),
        "bottleneck4": predefined_program("bottleneck", bottleneck=4),
        "depthwise": predefined_program("depthwise"),
    }


def random_sequence(rng: np.random.Generator | None = None) -> TransformProgram:
    """Sample a random named sequence with random parameters."""
    rng = rng or make_rng()
    kind = str(rng.choice(SEQUENCE_KINDS))
    return predefined_program(
        kind,
        group=int(rng.choice([2, 4, 8])),
        group_second=int(rng.choice([2, 4, 8])),
        bottleneck=int(rng.choice([2, 4])),
        spatial=int(rng.choice([2, 4])),
        unroll=int(rng.choice([4, 8, 16])),
    )
