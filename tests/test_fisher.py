"""Tests for Fisher Potential (eq. 4-5) and the legality checker."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.errors import ModelError
from repro.fisher import (
    FisherLegalityChecker,
    candidate_layer_fisher,
    channel_fisher,
    fisher_profile,
    layer_fisher,
    minibatch_digest,
    network_digest,
    network_fisher_potential,
    sensitive_layers,
)
from repro.models import densenet161, resnet18
from repro.tensor import Tensor, ops


def _tiny_model(rng=None):
    rng = rng or np.random.default_rng(0)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=rng), nn.BatchNorm2d(8), nn.ReLU(),
        nn.Conv2d(8, 8, 3, padding=1, rng=rng), nn.BatchNorm2d(8), nn.ReLU(),
        nn.GlobalAvgPool2d(), nn.Linear(8, 10, rng=rng))


@pytest.fixture
def minibatch(rng):
    return rng.normal(size=(4, 3, 8, 8)), rng.integers(0, 10, size=4)


class TestChannelFisher:
    def test_matches_manual_computation(self, rng):
        activation = rng.normal(size=(3, 2, 4, 4))
        gradient = rng.normal(size=(3, 2, 4, 4))
        scores = channel_fisher(activation, gradient)
        manual = np.zeros(2)
        for c in range(2):
            inner = -(activation[:, c] * gradient[:, c]).sum(axis=(1, 2))
            manual[c] = (inner ** 2).sum() / (2 * 3)
        np.testing.assert_allclose(scores, manual)

    def test_zero_gradient_gives_zero_score(self, rng):
        activation = rng.normal(size=(2, 3, 4, 4))
        assert layer_fisher(activation, np.zeros_like(activation)) == 0.0

    def test_scores_are_non_negative(self, rng):
        activation = rng.normal(size=(5, 4, 3, 3))
        gradient = rng.normal(size=(5, 4, 3, 3))
        assert np.all(channel_fisher(activation, gradient) >= 0)

    def test_scale_quadratic(self, rng):
        activation = rng.normal(size=(2, 2, 3, 3))
        gradient = rng.normal(size=(2, 2, 3, 3))
        base = layer_fisher(activation, gradient)
        assert layer_fisher(2 * activation, gradient) == pytest.approx(4 * base)

    def test_shape_validation(self, rng):
        with pytest.raises(ModelError):
            channel_fisher(rng.normal(size=(2, 3, 4, 4)), rng.normal(size=(2, 3, 4, 5)))
        with pytest.raises(ModelError):
            channel_fisher(rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)))


class TestFisherProfile:
    def test_profile_covers_every_convolution(self, minibatch):
        model = _tiny_model()
        profile = fisher_profile(model, *minibatch)
        conv_count = sum(1 for _, m in model.named_modules() if isinstance(m, nn.Conv2d))
        assert len(profile.layers) == conv_count
        assert profile.total == pytest.approx(sum(r.score for r in profile.layers.values()))

    def test_network_potential_positive(self, minibatch):
        assert network_fisher_potential(_tiny_model(), *minibatch) > 0

    def test_profile_restores_recording_flags(self, minibatch):
        model = _tiny_model()
        fisher_profile(model, *minibatch)
        for _, module in model.named_modules():
            if isinstance(module, nn.Conv2d):
                assert not module.record_activations
                assert module.last_output is None

    @pytest.mark.parametrize("build", [
        lambda: resnet18(width_multiplier=0.125),
        lambda: densenet161(width_multiplier=0.125)], ids=["resnet18", "densenet161"])
    def test_off_tape_profile_is_bit_identical_to_an_on_tape_pass(self, rng, build):
        """Taking the parameters off the tape changes no activation gradient."""
        model = build()
        images, labels = rng.normal(size=(4, 3, 8, 8)), rng.integers(0, 10, size=4)
        profile = fisher_profile(model, images, labels)
        assert all(param.grad is None for param in model.parameters())

        # The same pass with every parameter on the tape, as a training
        # step would run it.
        convs = {name: m for name, m in model.named_modules() if isinstance(m, nn.Conv2d)}
        for conv in convs.values():
            conv.record_activations = True
        model.train(True)
        ops.cross_entropy(model(Tensor(images)), labels).backward()
        assert all(param.grad is not None for param in model.parameters())
        assert profile.layer_names() == list(convs)
        for name, conv in convs.items():
            record = profile.layers[name]
            assert np.array_equal(record.output_gradient, conv.last_output.grad)
            assert record.score == layer_fisher(conv.last_output.data, conv.last_output.grad)

    def test_profile_leaves_the_model_state_and_gradients_unchanged(self, minibatch):
        model = _tiny_model()
        ops.cross_entropy(model(Tensor(minibatch[0])), minibatch[1]).backward()
        state = model.state_dict()
        grads = [param.grad.copy() for param in model.parameters()]
        fisher_profile(model, *minibatch)
        after = model.state_dict()
        assert state.keys() == after.keys()
        assert all(np.array_equal(state[key], after[key]) for key in state)
        assert all(np.array_equal(grad, param.grad)
                   for grad, param in zip(grads, model.parameters()))
        assert all(param.requires_grad for param in model.parameters())

    def test_zeroized_network_has_lower_potential(self, minibatch):
        """An architecture that destroys information scores lower (Figure 3)."""
        rng = np.random.default_rng(0)
        healthy = _tiny_model(rng)
        damaged = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, rng=rng), nn.Zeroize(),
            nn.Conv2d(8, 8, 3, padding=1, rng=rng), nn.BatchNorm2d(8), nn.ReLU(),
            nn.GlobalAvgPool2d(), nn.Linear(8, 10, rng=rng))
        images, labels = minibatch
        assert (network_fisher_potential(damaged, images, labels)
                < network_fisher_potential(healthy, images, labels))

    def test_sensitive_layers_ranked_by_score(self, minibatch):
        profile = fisher_profile(_tiny_model(), *minibatch)
        top = sensitive_layers(profile, fraction=0.5)
        assert len(top) >= 1
        worst = min(profile.layers.values(), key=lambda record: record.score)
        assert worst.name not in top or len(top) == len(profile.layers)


class TestCandidateEvaluation:
    def test_candidate_score_is_finite(self, minibatch):
        profile = fisher_profile(_tiny_model(), *minibatch)
        record = profile.layers["layer3"]  # the 8->8 convolution
        candidate = nn.build_candidate("group2", 8, 8, 3, padding=1)
        assert np.isfinite(candidate_layer_fisher(record, candidate))

    def test_identical_candidate_scores_like_original(self, minibatch):
        model = _tiny_model()
        profile = fisher_profile(model, *minibatch)
        record = profile.layers["layer3"]
        clone = nn.Conv2d(8, 8, 3, padding=1)
        clone.weight.data = model.layer3.weight.data.copy()
        assert candidate_layer_fisher(record, clone) == pytest.approx(record.score, rel=1e-6)

    def test_shape_mismatch_rejected(self, minibatch):
        profile = fisher_profile(_tiny_model(), *minibatch)
        record = profile.layers["layer3"]
        wrong = nn.Conv2d(8, 4, 3, padding=1)
        with pytest.raises(ModelError):
            candidate_layer_fisher(record, wrong)


class TestLegalityChecker:
    def test_accepts_better_and_rejects_worse(self, minibatch):
        checker = FisherLegalityChecker(fisher_profile(_tiny_model(), *minibatch))
        better = checker.check_network_potential(checker.original_potential * 1.1)
        worse = checker.check_network_potential(checker.original_potential * 0.5)
        assert better.legal and not worse.legal
        assert checker.checked == 2 and checker.rejected == 1
        assert checker.rejection_rate == pytest.approx(0.5)

    def test_threshold_relaxes_the_rule(self, minibatch):
        profile = fisher_profile(_tiny_model(), *minibatch)
        strict = FisherLegalityChecker(profile, threshold=1.0)
        relaxed = FisherLegalityChecker(profile, threshold=0.5)
        candidate = profile.total * 0.8
        assert not strict.check_network_potential(candidate).legal
        assert relaxed.check_network_potential(candidate).legal

    def test_layer_scores_check(self, minibatch):
        profile = fisher_profile(_tiny_model(), *minibatch)
        checker = FisherLegalityChecker(profile)
        name = profile.layer_names()[0]
        boosted = checker.check_layer_scores({name: profile.score_of(name) * 2})
        halved = checker.check_layer_scores({name: 0.0})
        assert boosted.legal and not halved.legal

    @pytest.mark.parametrize("threshold", (0.0, -1.0, float("nan")))
    def test_invalid_threshold_rejected(self, minibatch, threshold):
        with pytest.raises(ValueError):
            FisherLegalityChecker(fisher_profile(_tiny_model(), *minibatch),
                                  threshold=threshold)

    def test_decision_margin_sign(self, minibatch):
        checker = FisherLegalityChecker(fisher_profile(_tiny_model(), *minibatch))
        assert checker.check_network_potential(checker.original_potential + 1.0).margin > 0
        assert checker.check_network_potential(checker.original_potential - 1.0).margin < 0


class TestFisherKey:
    """The key of a persisted score covers everything the score reads."""

    def test_network_digest_is_stable_across_a_profile_pass(self, minibatch):
        model = _tiny_model()
        before = network_digest(model)
        profile = fisher_profile(model, *minibatch)
        assert network_digest(model) == before
        assert network_digest(_tiny_model()) == before
        # the scores alone sum in layer order, like the profile's total
        assert profile.scores().total == profile.total
        assert list(profile.scores().layers) == profile.layer_names()

    @pytest.mark.parametrize("mutate", [
        lambda model: model[0].weight.data.__setitem__((0, 0, 0, 0), 0.5),
        lambda model: model[1].running_var.__setitem__(0, 2.0),
        lambda model: setattr(model[3], "stride", 2),
        lambda model: setattr(model[3], "padding", 0),
        lambda model: model.__setattr__("tail", nn.ReLU()),
    ], ids=["weight", "buffer", "stride", "padding", "module"])
    def test_network_digest_covers_weights_buffers_and_structure(self, mutate):
        model = _tiny_model()
        before = network_digest(model)
        mutate(model)
        assert network_digest(model) != before

    def test_minibatch_digest_covers_bytes_dtype_and_shape(self, minibatch):
        images, labels = minibatch
        before = minibatch_digest(images, labels)
        assert minibatch_digest(images.copy(), labels.copy()) == before
        changed = images.copy()
        changed.flat[0] += 1.0
        assert minibatch_digest(changed, labels) != before
        assert minibatch_digest(images.astype(np.float32), labels) != before
        assert minibatch_digest(images, labels[::-1].copy()) != before
        assert minibatch_digest(images.reshape(2, 2, 3, 8, 8), labels) != before
