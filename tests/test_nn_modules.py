"""Tests for the module system, layers, optimizers and training loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.data import DataLoader, SyntheticImageDataset, train_loader
from repro.data import test_loader as heldout_loader
from repro.errors import ModelError
from repro.tensor import Tensor, ops


class TestModuleSystem:
    def test_parameter_registration(self):
        layer = nn.Linear(4, 3)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert layer.num_parameters() == 4 * 3 + 3

    def test_nested_module_parameters(self):
        block = nn.ConvBNReLU(3, 8, 3)
        names = {name for name, _ in block.named_parameters()}
        assert "conv.weight" in names and "bn.gamma" in names

    def test_train_eval_propagates(self):
        block = nn.BasicResidualBlock(4, 4)
        block.eval()
        assert all(not m.training for m in block.modules())
        block.train()
        assert all(m.training for m in block.modules())

    def test_zero_grad(self, rng):
        layer = nn.Linear(4, 2)
        out = layer(Tensor(rng.normal(size=(3, 4))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self, rng):
        a = nn.ConvBNReLU(3, 4, 3, rng=rng)
        b = nn.ConvBNReLU(3, 4, 3, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.conv.weight.data, b.conv.weight.data)
        np.testing.assert_allclose(a.bn.running_mean, b.bn.running_mean)

    def test_sequential_order_and_indexing(self):
        seq = nn.Sequential(nn.ReLU(), nn.Flatten())
        assert len(seq) == 2
        assert isinstance(seq[1], nn.Flatten)

    def test_module_list(self):
        items = nn.ModuleList([nn.ReLU(), nn.ReLU()])
        items.append(nn.Identity())
        assert len(items) == 3
        with pytest.raises(NotImplementedError):
            items(Tensor(np.zeros(2)))


class TestLayers:
    def test_conv2d_output_shape(self, rng):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = conv(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_conv2d_group_validation(self):
        with pytest.raises(ModelError):
            nn.Conv2d(6, 8, 3, groups=4)

    def test_conv2d_workload_and_flops(self):
        conv = nn.Conv2d(16, 32, 3, padding=1)
        workload = conv.workload((8, 8))
        assert workload["h_out"] == 8 and workload["c_out"] == 32
        assert conv.flops((8, 8)) == 2 * 32 * 16 * 3 * 3 * 8 * 8

    def test_conv2d_records_activations(self, rng):
        conv = nn.Conv2d(2, 4, 3, padding=1, rng=rng)
        conv.record_activations = True
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        out = conv(x)
        assert conv.last_output is out and conv.last_input is x

    def test_batchnorm_running_stats_move(self, rng):
        bn = nn.BatchNorm2d(3)
        x = Tensor(rng.normal(5.0, 1.0, size=(8, 3, 4, 4)))
        bn(x)
        assert np.all(bn.running_mean != 0.0)

    def test_identity_and_zeroize(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        np.testing.assert_allclose(nn.Identity()(x).data, x.data)
        np.testing.assert_allclose(nn.Zeroize()(x).data, np.zeros_like(x.data))

    def test_linear_shapes(self, rng):
        layer = nn.Linear(10, 5, rng=rng)
        assert layer(Tensor(rng.normal(size=(7, 10)))).shape == (7, 5)

    def test_pooling_layers(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 8, 8)))
        assert nn.MaxPool2d(2)(x).shape == (1, 2, 4, 4)
        assert nn.AvgPool2d(2)(x).shape == (1, 2, 4, 4)
        assert nn.GlobalAvgPool2d()(x).shape == (1, 2)


class TestBlocks:
    def test_basic_residual_block_shapes(self, rng):
        block = nn.BasicResidualBlock(8, 16, stride=2, rng=rng)
        out = block(Tensor(rng.normal(size=(1, 8, 8, 8))))
        assert out.shape == (1, 16, 4, 4)

    def test_resnext_block_shapes(self, rng):
        block = nn.ResNeXtBlock(16, 32, cardinality=2, base_width=8, stride=2, rng=rng)
        out = block(Tensor(rng.normal(size=(1, 16, 8, 8))))
        assert out.shape == (1, 32, 4, 4)

    def test_dense_block_concatenates(self, rng):
        block = nn.DenseBlock(3, 8, growth_rate=4, rng=rng)
        out = block(Tensor(rng.normal(size=(1, 8, 6, 6))))
        assert out.shape == (1, 8 + 3 * 4, 6, 6)
        assert block.out_channels == 20

    def test_transition_layer_halves_spatial(self, rng):
        layer = nn.TransitionLayer(8, 4, rng=rng)
        out = layer(Tensor(rng.normal(size=(1, 8, 8, 8))))
        assert out.shape == (1, 4, 4, 4)

    def test_iter_replaceable_convs(self, rng):
        block = nn.BasicResidualBlock(8, 8, rng=rng)
        found = nn.iter_replaceable_convs(block)
        assert {name for name, _, _ in found} == {"conv1", "conv2"}


class TestOptimAndTraining:
    def test_sgd_reduces_quadratic(self):
        param = nn.Parameter(np.array([4.0]))
        optimizer = nn.SGD([param], lr=0.1, momentum=0.0)
        for _ in range(50):
            optimizer.zero_grad()
            loss = (param * param).sum()
            loss.backward()
            optimizer.step()
        assert abs(float(param.data[0])) < 0.1

    def test_sgd_weight_decay_shrinks(self):
        param = nn.Parameter(np.array([1.0]))
        optimizer = nn.SGD([param], lr=0.1, momentum=0.0, weight_decay=1.0)
        optimizer.zero_grad()
        (param * 0.0).sum().backward()
        optimizer.step()
        assert float(param.data[0]) < 1.0

    def test_multistep_lr_decays_at_milestones(self):
        param = nn.Parameter(np.zeros(1))
        optimizer = nn.SGD([param], lr=1.0)
        scheduler = nn.MultiStepLR(optimizer, milestones=[2, 4], gamma=0.1)
        lrs = []
        for _ in range(5):
            scheduler.step()
            lrs.append(optimizer.lr)
        assert lrs == pytest.approx([1.0, 0.1, 0.1, 0.01, 0.01])

    def test_cosine_lr_monotone_decay(self):
        param = nn.Parameter(np.zeros(1))
        optimizer = nn.SGD([param], lr=1.0)
        scheduler = nn.CosineLR(optimizer, total_epochs=10)
        previous = optimizer.lr
        for _ in range(10):
            scheduler.step()
            assert optimizer.lr <= previous + 1e-12
            previous = optimizer.lr
        assert optimizer.lr == pytest.approx(0.0, abs=1e-9)

    def test_metrics_topk(self):
        logits = np.array([[0.1, 0.9, 0.0], [0.8, 0.1, 0.1]])
        labels = np.array([1, 2])
        assert nn.top_k_accuracy(logits, labels, k=1) == pytest.approx(0.5)
        assert nn.top_k_accuracy(logits, labels, k=3) == pytest.approx(1.0)
        assert nn.top1_error(logits, labels) == pytest.approx(50.0)

    def test_trainer_learns_separable_data(self, tiny_dataset):
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1), nn.BatchNorm2d(8), nn.ReLU(),
            nn.GlobalAvgPool2d(), nn.Linear(8, 10))
        result = nn.proxy_fit(model, train_loader(tiny_dataset, batch_size=16, seed=0),
                              heldout_loader(tiny_dataset), epochs=4)
        # Training makes progress on the separable synthetic data: the loss
        # falls and held-out top-5 accuracy clears the 50% chance level.
        assert result.history[-1].train_loss < result.history[0].train_loss
        assert result.final_top5 > 0.5
        assert len(result.history) == 4

    def test_training_config_presets(self):
        paper = nn.TrainingConfig.paper_cifar10()
        assert paper.epochs == 200 and paper.milestones == (60, 120, 160)
        assert nn.TrainingConfig.proxy(epochs=2).epochs == 2


class TestData:
    def test_dataset_shapes_and_determinism(self):
        a = SyntheticImageDataset.cifar10_like(train_size=32, test_size=16, image_size=8, seed=3)
        b = SyntheticImageDataset.cifar10_like(train_size=32, test_size=16, image_size=8, seed=3)
        assert a.train_images.shape == (32, 3, 8, 8)
        np.testing.assert_allclose(a.train_images, b.train_images)

    def test_dataset_classes_cover_labels(self, tiny_dataset):
        assert set(np.unique(tiny_dataset.train_labels)) <= set(range(10))

    def test_random_minibatch_shape(self, tiny_dataset):
        images, labels = tiny_dataset.random_minibatch(8, seed=1)
        assert images.shape[0] == 8 and labels.shape == (8,)

    def test_imagenet_like_configuration(self):
        data = SyntheticImageDataset.imagenet_like(train_size=20, test_size=20,
                                                   image_size=16, num_classes=20)
        assert data.spec.num_classes == 20 and data.train_images.shape[-1] == 16

    def test_loader_batches_cover_dataset(self, tiny_dataset):
        loader = DataLoader(tiny_dataset.train_images, tiny_dataset.train_labels,
                            batch_size=13, shuffle=False)
        seen = sum(len(labels) for _, labels in loader)
        assert seen == len(tiny_dataset.train_labels)
        assert len(loader) == -(-len(tiny_dataset.train_labels) // 13)

    def test_loader_drop_last(self, tiny_dataset):
        loader = DataLoader(tiny_dataset.train_images, tiny_dataset.train_labels,
                            batch_size=13, drop_last=True)
        assert all(len(labels) == 13 for _, labels in loader)

    def test_loader_validation(self, tiny_dataset):
        from repro.errors import DataError

        with pytest.raises(DataError):
            DataLoader(tiny_dataset.train_images, tiny_dataset.train_labels[:-1])
