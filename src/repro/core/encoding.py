"""The fixed-width candidate encoding of the predictor-guided search.

The online latency surrogate (:mod:`repro.core.predictor`) needs every
``(convolution shape, TransformProgram)`` candidate as a fixed-width
numeric vector.  This module is the one place that featurization lives:

* **primitive features** — a count per Table-1 primitive (a one-hot for
  single-step programs), the step total, the optional-step count and a
  flag for neural programs;
* **parameter features** — log2 of the products of the tile/split/unroll
  factors, the ``split(parts=...)`` nest partition count, and the neural
  factors (group, bottleneck, depthwise) that shrink the operator;
* **shape features** — log2 extents of the convolution, its
  multiply-accumulate count and a roofline-style arithmetic-intensity
  estimate (MACs per byte touched), which is what separates memory-bound
  from compute-bound layers for the cost model the latencies come from.

The encoding is *syntactic*: it reads the program's steps and the shape's
extents only — no compilation, no legality check, no tuner trial — so a
search can featurize thousands of candidates for the price of one tuning.
The NAS-encodings literature (BANANAS and friends) shows that even such
flat encodings carry enough signal for a surrogate to rank candidates;
DESIGN.md §10 documents the exact schema and its stability rules.

Example::

    from repro.core.encoding import encode_candidate, FEATURE_NAMES
    from repro.core.sequences import predefined_program
    from repro.poly.statement import ConvolutionShape

    vector = encode_candidate(ConvolutionShape(64, 64, 16, 16, 3, 3),
                              predefined_program("seq1"))
    assert vector.shape == (len(FEATURE_NAMES),)
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.core.program import TransformProgram
from repro.errors import ReproError
from repro.poly.statement import ConvolutionShape

#: Table-1 primitives in a frozen order; the encoding reserves one count
#: column per name plus an ``other`` bucket so newly registered primitives
#: never change the vector width (DESIGN.md §10).
ENCODED_PRIMITIVES: tuple[str, ...] = (
    "reorder", "tile", "split", "fuse", "unroll", "prefetch",
    "group", "bottleneck", "depthwise", "bind",
)

#: Names of the encoding's columns, in vector order.  The width of the
#: encoding is ``len(FEATURE_NAMES)``; adding a column appends here.
FEATURE_NAMES: tuple[str, ...] = tuple(
    [f"count_{name}" for name in ENCODED_PRIMITIVES]
    + [
        "count_other",
        "steps_total",
        "steps_optional",
        "is_neural",
        "log2_tile_product",
        "log2_split_product",
        "log2_unroll_product",
        "split_parts",
        "log2_group_factor",
        "log2_bottleneck_product",
        "is_depthwise",
        "log2_c_out",
        "log2_c_in",
        "log2_spatial",
        "kernel_area",
        "stride",
        "is_grouped_shape",
        "log2_macs",
        "log2_arithmetic_intensity",
        "log2_mac_reduction",
    ]
)


def _log2(value: float) -> float:
    return math.log2(max(float(value), 1.0))


def _int_factor(value: object, default: int = 1) -> int:
    """Integer factor of a step parameter (``"auto"`` and friends → 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return default
    return int(value) if int(value) > 0 else default


@lru_cache(maxsize=16384)
def _mac_reduction(shape: ConvolutionShape, program: TransformProgram) -> float:
    """Factor by which the program shrinks the MAC count (1.0 on failure).

    The one semi-semantic feature: it compiles the program (memoised, and
    candidates reaching the encoder already passed the structural
    legality check, which compiles too), because the MAC reduction of the
    neural primitives is the single strongest latency signal a linear
    surrogate can get.
    """
    try:
        return max(float(program.compute_reduction(shape)), 1e-6)
    except ReproError:
        return 1.0


def arithmetic_intensity(shape: ConvolutionShape) -> float:
    """MACs per byte touched by the standard nest (a roofline estimate).

    Traffic counts one float64 load/store per element of the weight,
    input and output tensors — the minimum any schedule must move — so
    the ratio separates layers the cost model treats as memory-bound
    from compute-bound ones without lowering anything.
    """
    weights = shape.c_out * (shape.c_in // shape.groups) * shape.k_h * shape.k_w
    inputs = shape.c_in * shape.h_out * shape.stride * shape.w_out * shape.stride
    outputs = shape.c_out * shape.h_out * shape.w_out
    bytes_touched = 8.0 * (weights + inputs + outputs)
    return shape.macs() / max(bytes_touched, 1.0)


def encode_candidate(shape: ConvolutionShape,
                     program: TransformProgram) -> np.ndarray:
    """Featurize one ``(shape, program)`` candidate as a fixed-width vector.

    Purely syntactic — reads the program steps and shape extents only —
    and deterministic: the same candidate always encodes to the same
    vector, which keeps the predictor (and every search built on it)
    reproducible.  Columns are named by :data:`FEATURE_NAMES`.

    Example::

        vector = encode_candidate(shape, program)
        features = dict(zip(FEATURE_NAMES, vector))
    """
    counts = {name: 0.0 for name in ENCODED_PRIMITIVES}
    other = 0.0
    optional = 0.0
    tile_product = 1.0
    split_product = 1.0
    unroll_product = 1.0
    split_parts = 1.0
    group_factor = 1.0
    bottleneck_product = 1.0
    depthwise = 0.0
    for app in program.steps:
        if app.primitive in counts:
            counts[app.primitive] += 1.0
        else:
            other += 1.0
        if app.optional:
            optional += 1.0
        if app.primitive == "tile":
            tile_product *= _int_factor(app.param("factor"))
        elif app.primitive == "split":
            parts = app.param("parts")
            if parts is not None:
                split_parts *= _int_factor(parts)
            else:
                split_product *= _int_factor(app.param("factor"))
        elif app.primitive == "unroll":
            unroll_product *= _int_factor(app.param("factor"))
        elif app.primitive == "group":
            group_factor *= _int_factor(app.param("factor"))
        elif app.primitive == "bottleneck":
            bottleneck_product *= _int_factor(app.param("factor"))
        elif app.primitive == "depthwise":
            depthwise = 1.0
    vector = np.array(
        [counts[name] for name in ENCODED_PRIMITIVES]
        + [
            other,
            float(len(program.steps)),
            optional,
            1.0 if program.is_neural else 0.0,
            _log2(tile_product),
            _log2(split_product),
            _log2(unroll_product),
            split_parts,
            _log2(group_factor),
            _log2(bottleneck_product),
            depthwise,
            _log2(shape.c_out),
            _log2(shape.c_in),
            _log2(shape.h_out * shape.w_out),
            float(shape.k_h * shape.k_w),
            float(shape.stride),
            1.0 if shape.groups > 1 else 0.0,
            _log2(shape.macs()),
            math.log2(max(arithmetic_intensity(shape), 1e-6)),
            math.log2(_mac_reduction(shape, program)),
        ],
        dtype=np.float64,
    )
    assert vector.shape == (len(FEATURE_NAMES),)
    return vector


def encode_batch(items: Iterable[tuple[ConvolutionShape, TransformProgram]]
                 ) -> np.ndarray:
    """Encode many candidates as one ``(n, len(FEATURE_NAMES))`` matrix.

    Example::

        matrix = encode_batch([(shape, p) for p in candidates])
    """
    rows = [encode_candidate(shape, program) for shape, program in items]
    if not rows:
        return np.empty((0, len(FEATURE_NAMES)), dtype=np.float64)
    return np.stack(rows)


def feature_dict(vector: Sequence[float]) -> dict[str, float]:
    """Render one encoded vector as ``{feature name: value}`` (debugging)."""
    return {name: float(value) for name, value in zip(FEATURE_NAMES, vector)}
