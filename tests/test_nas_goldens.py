"""The NAS baselines' decisions and fig9's operators, pinned on small models.

``data/nas_goldens.json`` holds, per case:

* BlockSwap on resnet18 and densenet161 (×0.25, 16 px, two seeds): the
  substitution plan, the compressed parameter count, the final Fisher
  Potential and a digest of the compressed model's weights;
* FBNet on the tiny model of ``test_nas.py``: the per-layer selections, the
  supernet's parameter count, its expected latency and a digest of the
  supernet's weights before training;
* Figure 9: the digest of every model ``interpolate_between_groupings``
  builds, captured by a ``proxy_fit`` stub that skips training.

The weight digest hashes each array of ``model.parameters()`` in order and
nothing else, so renaming a module or changing its class leaves it alone
while any changed weight, shape or parameter order moves it.  Fisher sums
and latencies are compared at a relative tolerance of 1e-9: their last
digits depend on how BLAS splits a reduction.

Re-record the table only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_nas_goldens.py > tests/data/nas_goldens.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import nn
from repro.core import interpolation
from repro.data import SyntheticImageDataset, train_loader
from repro.hardware import get_platform
from repro.models import densenet161, resnet18
from repro.nas import BlockSwap, FBNetSearch

GOLDENS = Path(__file__).parent / "data" / "nas_goldens.json"
BLOCKSWAP_MODELS = {"resnet18": resnet18, "densenet161": densenet161}
SEEDS = (0, 1)
WIDTH, IMAGE_SIZE, FISHER_BATCH, BUDGET = 0.25, 16, 4, 0.45
TOLERANCE = dict(rel=1e-9, abs=1e-15)


def weight_digest(model) -> str:
    """sha1 over the shape and bytes of every parameter array, in order."""
    digest = hashlib.sha1()
    for parameter in model.parameters():
        array = np.ascontiguousarray(parameter.data)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def observe_blockswap(model_name: str, seed: int) -> dict:
    model = BLOCKSWAP_MODELS[model_name](width_multiplier=WIDTH)
    dataset = SyntheticImageDataset.cifar10_like(train_size=16, test_size=10,
                                                 image_size=IMAGE_SIZE, seed=seed)
    images, labels = dataset.random_minibatch(FISHER_BATCH, seed=seed)
    result = BlockSwap(budget_ratio=BUDGET, seed=seed).compress(model, images, labels)
    return {"plan": result.plan(),
            "compressed_parameters": result.compressed_parameters,
            "fisher_potential": result.fisher_potential,
            "digest": weight_digest(model)}


def tiny_model():
    return nn.Sequential(nn.ConvBNReLU(3, 8, 3), nn.BasicResidualBlock(8, 8),
                         nn.GlobalAvgPool2d(), nn.Linear(8, 10))


def observe_fbnet() -> dict:
    dataset = SyntheticImageDataset.cifar10_like(train_size=32, test_size=16,
                                                 image_size=8, seed=0)
    search = FBNetSearch(get_platform("cpu"), epochs=1, seed=0)
    supernet = tiny_model()
    search.build_supernet(supernet, (8, 8))
    result = search.search(tiny_model(), train_loader(dataset, batch_size=16, seed=0),
                           (8, 8))
    return {"selections": result.selections,
            "supernet_parameters": result.supernet_parameters,
            "expected_latency_seconds": result.expected_latency_seconds,
            "supernet_digest": weight_digest(supernet)}


def observe_fig9(seed: int) -> list[dict]:
    """Every model fig9 materialises, in the order it builds them."""
    built = []

    def record(model, *_args, **_kwargs):
        built.append(model)
        return SimpleNamespace(final_error=0.0)

    dataset = SyntheticImageDataset.cifar10_like(train_size=16, test_size=10,
                                                 image_size=8, seed=seed)
    patch = pytest.MonkeyPatch()
    patch.setattr(interpolation, "proxy_fit", record)
    try:
        result = interpolation.interpolate_between_groupings(
            lambda: resnet18(width_multiplier=0.125), dataset, steps=3, seed=seed)
    finally:
        patch.undo()
    return [{"label": point.label, "parameters": point.parameters,
             "digest": weight_digest(model)}
            for point, model in zip(result.points, built, strict=True)]


def expected(*path: str):
    table = json.loads(GOLDENS.read_text())
    for key in path:
        table = table[key]
    return table


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model_name", sorted(BLOCKSWAP_MODELS))
def test_blockswap_matches_golden(model_name, seed):
    golden = expected("blockswap", model_name, str(seed))
    observed = observe_blockswap(model_name, seed)
    assert observed.pop("fisher_potential") == pytest.approx(
        golden.pop("fisher_potential"), **TOLERANCE)
    assert observed == golden


def test_fbnet_matches_golden():
    golden = expected("fbnet")
    observed = observe_fbnet()
    assert observed.pop("expected_latency_seconds") == pytest.approx(
        golden.pop("expected_latency_seconds"), **TOLERANCE)
    assert observed == golden


@pytest.mark.parametrize("seed", SEEDS)
def test_fig9_materialisation_matches_golden(seed):
    assert observe_fig9(seed) == expected("fig9", str(seed))


if __name__ == "__main__":
    table = {
        "blockswap": {name: {str(seed): observe_blockswap(name, seed) for seed in SEEDS}
                      for name in sorted(BLOCKSWAP_MODELS)},
        "fbnet": observe_fbnet(),
        "fig9": {str(seed): observe_fig9(seed) for seed in SEEDS},
    }
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
