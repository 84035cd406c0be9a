"""Training and evaluation loops.

The :class:`Trainer` reproduces the recipe from the paper's experimental
setup (SGD with momentum, multi-step decay) at whatever scale the
experiment driver requests.  It also exposes :meth:`proxy_fit`, the short
training run used to obtain "final" accuracies for the NAS-Bench-201-style
study (Figure 3) within the compute budget of this reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import DataLoader
from repro.nn.metrics import AverageMeter, top_k_accuracy
from repro.nn.module import Module
from repro.nn.optim import SGD, MultiStepLR
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad


@dataclass
class TrainingConfig:
    """Hyper-parameters for a training run."""

    epochs: int = 10
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    milestones: tuple[int, ...] = (60, 120, 160)
    lr_gamma: float = 0.1

    @classmethod
    def paper_cifar10(cls) -> "TrainingConfig":
        """The exact CIFAR-10 recipe from §6.1 of the paper."""
        return cls(epochs=200, lr=0.1, milestones=(60, 120, 160), lr_gamma=0.1)

    @classmethod
    def proxy(cls, epochs: int = 3) -> "TrainingConfig":
        """A short proxy run used when only a ranking of models is needed."""
        return cls(epochs=epochs, lr=0.05, milestones=(max(epochs - 1, 1),), lr_gamma=0.1)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    lr: float


@dataclass
class TrainingResult:
    """Summary of a completed training run."""

    history: list[EpochStats] = field(default_factory=list)
    final_accuracy: float = 0.0
    final_top5: float = 0.0
    final_error: float = 100.0


class Trainer:
    """Runs SGD training of a model on a :class:`DataLoader`."""

    def __init__(self, model: Module, config: TrainingConfig | None = None):
        self.model = model
        self.config = config or TrainingConfig()
        self.optimizer = SGD(model.parameters(), lr=self.config.lr,
                             momentum=self.config.momentum,
                             weight_decay=self.config.weight_decay)
        self.scheduler = MultiStepLR(self.optimizer, list(self.config.milestones),
                                     gamma=self.config.lr_gamma)

    def train_epoch(self, loader: DataLoader) -> tuple[float, float]:
        self.model.train()
        loss_meter = AverageMeter()
        acc_meter = AverageMeter()
        for images, labels in loader:
            x = Tensor(images)
            logits = self.model(x)
            loss = ops.cross_entropy(logits, labels)
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            loss_meter.update(float(loss.data), len(labels))
            acc_meter.update(top_k_accuracy(logits.data, labels), len(labels))
        return loss_meter.average, acc_meter.average

    def evaluate(self, loader: DataLoader) -> tuple[float, float]:
        """Return (top-1 accuracy, top-5 accuracy) on a loader (no tape is recorded)."""
        self.model.eval()
        top1 = AverageMeter()
        top5 = AverageMeter()
        with no_grad():
            for images, labels in loader:
                logits = self.model(Tensor(images))
                k5 = min(5, logits.shape[1])
                top1.update(top_k_accuracy(logits.data, labels, k=1), len(labels))
                top5.update(top_k_accuracy(logits.data, labels, k=k5), len(labels))
        return top1.average, top5.average

    def fit(self, train_loader: DataLoader, test_loader: DataLoader | None = None) -> TrainingResult:
        result = TrainingResult()
        for epoch in range(self.config.epochs):
            loss, accuracy = self.train_epoch(train_loader)
            result.history.append(EpochStats(epoch=epoch, train_loss=loss,
                                             train_accuracy=accuracy,
                                             lr=self.scheduler.current_lr))
            self.scheduler.step()
        eval_loader = test_loader if test_loader is not None else train_loader
        result.final_accuracy, result.final_top5 = self.evaluate(eval_loader)
        result.final_error = 100.0 * (1.0 - result.final_accuracy)
        return result


def proxy_fit(model: Module, train_loader: DataLoader, test_loader: DataLoader | None = None,
              epochs: int = 3) -> TrainingResult:
    """Short proxy training used to rank candidate architectures."""
    trainer = Trainer(model, TrainingConfig.proxy(epochs=epochs))
    return trainer.fit(train_loader, test_loader)
