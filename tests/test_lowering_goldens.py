"""Compiled stages, access analysis and tuner templates, pinned to a golden.

``data/lowering_goldens.json`` holds, per case (a shape and a program, or
the dense matrix product):

* every compiled stage's ``signature()``, and every access row of its
  statement's layout analysis (dim extents, iterator strides and dim
  coefficients; ``analyse_accesses`` when the table was recorded,
  ``access_rows`` now);
* per CPU and GPU template, one row per distinct ``schedule_key`` of the
  stage's tuning context: the loop order, extents and annotations of the
  lowered nest, its MAC count and its ``traffic_arrays()``.  The rows of
  one (stage, platform) pair are stored as their count, a sha1 digest of
  their canonical JSON and, in full, the default-parameter row.

The programs are every predefined and paper program plus seeded random
compositions, over the shapes of ``test_tuning_fastpath.py`` and one
strided, one grouped and one dense case.  The table was recorded from the
symbolic (name-keyed) affine representation, so it pins the integer
representation that replaced it to the same numbers.

Re-record the table only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_lowering_goldens.py \\
        > tests/data/lowering_goldens.json
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.core.program import program_from_dict, program_to_dict, random_composition
from repro.core.sequences import (
    SEQUENCE_KINDS,
    nas_candidate_sequences,
    paper_sequences,
    predefined_program,
)
from repro.hardware import get_platform
from repro.poly.statement import ConvolutionShape
from repro.tenir import ScheduleParameters, TuningContext, dense_compute, lower
from repro.tenir.expr import Computation
from repro.tenir.lower import access_rows
from repro.tenir.schedule import create_schedule
from repro.utils import make_rng

GOLDENS = Path(__file__).parent / "data" / "lowering_goldens.json"

#: ``test_tuning_fastpath.SHAPES``, then a strided and a grouped shape.
SHAPES = (
    ConvolutionShape(8, 8, 6, 6, 3, 3),
    ConvolutionShape(64, 64, 16, 16, 3, 3),
    ConvolutionShape(16, 32, 8, 8, 1, 1),
    ConvolutionShape(32, 32, 14, 14, 5, 5),
    ConvolutionShape(12, 24, 10, 10, 3, 3),
    ConvolutionShape(16, 16, 8, 8, 3, 3, stride=2),
    ConvolutionShape(16, 32, 6, 6, 3, 3, groups=2),
)
RANDOM_SEEDS = (0, 1, 2)
PLATFORMS = ("cpu", "gpu")


def _programs():
    programs = {kind: predefined_program(kind) for kind in SEQUENCE_KINDS}
    programs.update({f"paper_{name}": program for name, program
                     in paper_sequences().items()})
    programs.update({f"nas_{name}": program for name, program
                     in nas_candidate_sequences().items()})
    return programs


def case_programs() -> dict[str, tuple[ConvolutionShape, dict]]:
    """Case name -> (shape, serialised program), in a fixed order."""
    cases = {}
    for index, shape in enumerate(SHAPES):
        named = dict(_programs())
        for seed in RANDOM_SEEDS:
            program = random_composition(shape, make_rng(seed))
            if program is not None:
                named[f"random{seed}"] = program
        for name, program in named.items():
            if program.applicable(shape):
                cases[f"shape{index}/{name}"] = (shape, program_to_dict(program))
    return cases


def _canonical(value):
    """Tuples and other containers as JSON-native lists and dicts."""
    return json.loads(json.dumps(value))


def access_table(statement) -> list[dict]:
    return [{"tensor": access.tensor,
             "is_write": access.is_write,
             "dim_extents": list(access.dim_extents),
             "iterator_strides": dict(access.iterator_strides),
             "dim_coefficients": [{name: list(pair) for name, pair in dim.items()}
                                  for dim in access.dim_coefficients]}
            for access in access_rows(statement).accesses]


def _parameter_grid(context: TuningContext):
    """Parameters covering every schedule key the sampler can reach."""
    defaults = ScheduleParameters()
    yield defaults
    for spatial, channel, unroll, threads, vthread in itertools.product(
            sorted(set(context.spatial_options) | {defaults.spatial_tile}),
            sorted(set(context.channel_options) | {defaults.channel_tile}),
            sorted(set(context.unroll_options) | {defaults.unroll}),
            sorted(set(context.thread_options) | {defaults.threads}),
            (False, True)):
        yield ScheduleParameters(spatial, channel, unroll, threads, vthread)


def template_rows(computation: Computation, platform_name: str) -> dict:
    context = TuningContext.build(computation, get_platform(platform_name))
    batch = {}
    for params in _parameter_grid(context):
        batch.setdefault(context.schedule_key(params), params)
    default_key = next(iter(batch))
    rows = {}
    for key, built in zip(batch, context.trials(list(batch.values()))):
        if built is None:
            rows[key] = "invalid"
            continue
        make_stage, nest = built
        assert nest == lower(make_stage()), "the tuner's nest must be its stage's"
        arrays = nest.traffic_arrays()
        rows[key] = {
            "loops": [[loop.name, loop.extent, repr(loop.annotation)]
                      for loop in nest.loops],
            "macs": nest.macs,
            "traffic": {name: getattr(arrays, name).tolist() for name in (
                "footprints", "tensor_footprints", "working_set_bytes",
                "refetch", "compulsory_bytes", "write_factor")},
        }
    ordered = [[list(key), rows[key]] for key in sorted(rows, key=repr)]
    document = json.dumps(ordered, sort_keys=True)
    return {"keys": len(rows),
            "digest": hashlib.sha1(document.encode()).hexdigest(),
            "default": _canonical([list(default_key), rows[default_key]])}


def observe_stage(stage) -> dict:
    computation = Computation(stage.computation.name, stage.statement,
                              stage.computation.element_bytes)
    return {"signature": _canonical(stage.signature()),
            "accesses": access_table(stage.statement),
            "templates": {name: template_rows(computation, name)
                          for name in PLATFORMS}}


def observe_case(shape: ConvolutionShape, document: dict) -> dict:
    program = program_from_dict(document)
    return {"program": document,
            "stages": [observe_stage(stage) for stage in program.compile(shape)]}


def observe_dense() -> dict:
    stage = create_schedule(dense_compute(32, 10, 64))
    return {"stages": [observe_stage(stage)]}


def observe_all() -> dict:
    table = {name: observe_case(shape, document)
             for name, (shape, document) in case_programs().items()}
    table["dense"] = observe_dense()
    return table


def _golden() -> dict:
    return json.loads(GOLDENS.read_text())


def test_case_list_matches_golden():
    """The same programs (random compositions included) are sampled."""
    expected = _golden()
    cases = case_programs()
    assert sorted(cases) == sorted(name for name in expected if name != "dense")
    for name, (_, document) in cases.items():
        assert document == expected[name]["program"], name


@pytest.mark.parametrize("index", range(len(SHAPES)))
def test_lowering_matches_golden(index):
    expected = _golden()
    for name, (shape, document) in case_programs().items():
        if name.startswith(f"shape{index}/"):
            assert observe_case(shape, document) == expected[name], name


def test_dense_lowering_matches_golden():
    assert observe_dense() == _golden()["dense"]


if __name__ == "__main__":
    # One case per line, so a re-record diffs case by case.
    table = observe_all()
    sys.stdout.write("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(table[name], sort_keys=True)}"
        for name in sorted(table)) + "\n}\n")
