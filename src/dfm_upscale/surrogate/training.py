"""Training loop: Adam, plateau learning-rate schedule, best-checkpoint
retention, per-epoch history."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from ..config import TrainSection
from ..seeding import substream
from .metrics import Metrics, compute_metrics
from .model import SurrogateModel

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    def __init__(self, model: SurrogateModel, lr: float):
        self.model = model
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(layer.params[key], dtype=np.float64)
                  for name, layer, key in model.named_params()}
        self.v = {name: np.zeros_like(layer.params[key], dtype=np.float64)
                  for name, layer, key in model.named_params()}

    def step(self):
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for name, layer, key in self.model.named_params():
            g = layer.grads[key].astype(np.float64)
            self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * g * g
            update = self.lr * (self.m[name] / b1c) / (
                np.sqrt(self.v[name] / b2c) + ADAM_EPS)
            layer.params[key] = (layer.params[key]
                                 - update.astype(layer.params[key].dtype))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class TrainResult:
    history: list = field(default_factory=list)
    best_val_loss: float = float("inf")
    best_epoch: int = -1


def train(model: SurrogateModel, train_images, train_targets,
          val_images, val_targets,
          schedule: TrainSection, seed: int) -> TrainResult:
    """Train in place; the model ends up with the lowest-validation-loss
    parameters seen during training.

    Reads the optimizer fields of schedule; the learning rate decays by
    lr_decay after patience epochs without a validation improvement. The
    epoch order is drawn from seed.
    """
    if len(train_images) == 0:
        raise ValueError("empty training split")
    if len(val_images) == 0:
        raise ValueError("empty validation split")
    optimizer = Adam(model, schedule.learning_rate)
    model.training_state.learning_rate = optimizer.lr
    result = TrainResult()
    best = None
    since_improvement = 0

    for epoch in range(1, schedule.epochs + 1):
        order = substream(seed, "epoch-order",
                          epoch).permutation(len(train_images))
        losses = []
        for start in range(0, len(order), schedule.batch_size):
            idx = order[start:start + schedule.batch_size]
            losses.append(model.loss_and_backward(train_images[idx],
                                                  train_targets[idx]))
            optimizer.step()
        train_loss = float(np.mean(losses))
        val_loss = float(np.mean(np.sum(
            (model.forward(val_images) - val_targets) ** 2, axis=1)))
        result.history.append(EpochRecord(epoch, train_loss, val_loss,
                                          optimizer.lr))
        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            best = model.checkpoint()
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= schedule.patience:
                optimizer.lr *= schedule.lr_decay
                since_improvement = 0
        model.training_state.epoch = epoch
        model.training_state.learning_rate = optimizer.lr
        model.training_state.best_val_loss = result.best_val_loss

    if best is not None:
        model.restore(best)
    return result


def write_history_csv(result: TrainResult, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "train_loss", "val_loss", "lr"])
        for rec in result.history:
            w.writerow([rec.epoch, repr(rec.train_loss),
                        repr(rec.val_loss), repr(rec.lr)])


def evaluate(model: SurrogateModel, images, targets) -> Metrics:
    if len(images) == 0:
        raise ValueError("empty evaluation split")
    return compute_metrics(model.forward(images), targets)
