"""Fixed-topology convolutional regressor.

Each conv stage is Conv3x3 -> BatchNorm -> ReLU -> MaxPool2x2 (inference
folds the BatchNorm into the convolution and pools before ReLU), so a side of
length s maps to floor((s - 2) / 2). The default stack of
config.TrainSection on 256x256x4 input yields sides 127/62/30/14/6 and a
9216-wide flatten, followed by its dense layers and a 3-wide linear output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from ..seeding import substream
from .layers import (BatchNorm, Conv3x3, Dense, Flatten, MaxPool2, ReLU)


@dataclass(frozen=True, kw_only=True)
class Architecture:
    resolution: int = 256
    in_channels: int = 4
    conv_channels: tuple
    dense_widths: tuple
    out_features: int = 3

    def stage_sides(self) -> list[int]:
        """Side length after each conv stage; raises if any stage collapses."""
        sides = []
        side = self.resolution
        for i, _ in enumerate(self.conv_channels):
            if side < 3:
                raise ValueError(
                    f"stage {i}: side {side} cannot host a 3x3 convolution "
                    f"(resolution {self.resolution} supports at most "
                    f"{self.max_stages()} stages)")
            side = (side - 2) // 2
            if side < 1:
                raise ValueError(f"stage {i}: output side collapsed to {side}")
            sides.append(side)
        return sides

    def max_stages(self) -> int:
        side = self.resolution
        n = 0
        while side >= 3 and (side - 2) // 2 >= 1:
            side = (side - 2) // 2
            n += 1
        return n

    @property
    def flatten_width(self) -> int:
        return self.stage_sides()[-1] ** 2 * self.conv_channels[-1]

    def to_dict(self):
        d = asdict(self)
        d["conv_channels"] = list(self.conv_channels)
        d["dense_widths"] = list(self.dense_widths)
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(resolution=d["resolution"], in_channels=d["in_channels"],
                   conv_channels=tuple(d["conv_channels"]),
                   dense_widths=tuple(d["dense_widths"]),
                   out_features=d["out_features"])


@dataclass
class TrainingState:
    epoch: int = 0
    learning_rate: float = 0.0025
    best_val_loss: float = float("inf")


class SurrogateModel:
    def __init__(self, architecture: Architecture, seed: int = 0,
                 dtype=np.float32, stats_hash: str = ""):
        self.architecture = architecture
        self.dtype = dtype
        self.stats_hash = stats_hash
        self.training_state = TrainingState()
        rng = substream(seed, "init")
        arch = architecture
        arch.stage_sides()  # feasibility guard

        self.layers: list = []
        self.layer_names: list[str] = []
        c_in = arch.in_channels
        for i, c_out in enumerate(arch.conv_channels):
            self._add(f"conv{i}", Conv3x3(c_in, c_out, rng, dtype=dtype))
            self._add(f"bn{i}", BatchNorm(c_out, dtype=dtype))
            self._add(f"relu_c{i}", ReLU())
            self._add(f"pool{i}", MaxPool2())
            c_in = c_out
        self._add("flatten", Flatten())
        width = arch.flatten_width
        for i, w in enumerate(arch.dense_widths):
            self._add(f"dense{i}", Dense(width, w, rng, dtype=dtype))
            self._add(f"relu_d{i}", ReLU())
            width = w
        self._add("output", Dense(width, arch.out_features, rng, dtype=dtype))

    def _add(self, name, layer):
        self.layers.append(layer)
        self.layer_names.append(name)

    # ------------------------------------------------------------------
    def forward(self, batch: np.ndarray, train: bool = False) -> np.ndarray:
        arch = self.architecture
        expected = (arch.resolution, arch.resolution, arch.in_channels)
        if batch.ndim != 4 or batch.shape[1:] != expected:
            raise ValueError(
                f"input: expected (B, {expected[0]}, {expected[1]}, "
                f"{expected[2]}), got {batch.shape}")
        x = batch.astype(self.dtype, copy=False)
        steps = ([(name, partial(layer.forward, train=True))
                  for name, layer in zip(self.layer_names, self.layers)]
                 if train else self._eval_steps())
        for name, step in steps:
            try:
                x = step(x)
            except ValueError as exc:
                raise ValueError(f"layer {name}: {exc}") from exc
        return x

    def _eval_steps(self):
        """(name, function) of every step of the inference pass.

        Each conv stage runs its Conv3x3 with the BatchNorm folded in, then
        pools, then applies ReLU. Pooling before ReLU gives the same values
        because ReLU is monotone, and ReLU then sees a quarter of them.
        Pooling cannot move before the folded affine map, whose scale can
        be negative. The fold is recomputed on every call, so it always
        reflects the current parameters and running moments.
        """
        layers = dict(zip(self.layer_names, self.layers))
        steps = []
        for i in range(len(self.architecture.conv_channels)):
            steps += [
                (f"conv{i}", partial(layers[f"conv{i}"].forward_folded,
                                     bn=layers[f"bn{i}"])),
                (f"pool{i}", partial(layers[f"pool{i}"].forward,
                                     train=False)),
                (f"relu_c{i}", partial(layers[f"relu_c{i}"].forward,
                                       train=False))]
        head = self.layer_names.index("flatten")
        return steps + [(name, partial(layer.forward, train=False))
                        for name, layer in zip(self.layer_names[head:],
                                               self.layers[head:])]

    def loss_and_backward(self, batch: np.ndarray,
                          targets: np.ndarray) -> float:
        """MSE loss (summed over components, averaged over samples) and
        parameter gradients via reverse-mode differentiation."""
        preds = self.forward(batch, train=True)
        targets = np.asarray(targets, dtype=preds.dtype)
        diff = preds - targets
        loss = float(np.mean(np.sum(diff.astype(np.float64) ** 2, axis=1)))
        if not np.isfinite(loss):
            raise FloatingPointError("NaN/inf in loss")
        dout = (2.0 / len(batch)) * diff
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return loss

    # ------------------------------------------------------------------
    def named_params(self):
        for name, layer in zip(self.layer_names, self.layers):
            for key in layer.params:
                yield f"{name}.{key}", layer, key

    def copy_params(self):
        params = {name: layer.params[key].copy()
                  for name, layer, key in self.named_params()}
        state = {name: layer.state()
                 for name, layer in zip(self.layer_names, self.layers)
                 if layer.state()}
        return params, state

    def load_params(self, params, state):
        for name, layer, key in self.named_params():
            layer.params[key] = params[name].copy()
        for name, layer in zip(self.layer_names, self.layers):
            if name in state:
                layer.load_state(state[name])

    # ------------------------------------------------------------------
    def save(self, path):
        """JSON header plus named float32 weight blobs (npz)."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        header = {
            "architecture": self.architecture.to_dict(),
            "stats_hash": self.stats_hash,
            "training_state": asdict(self.training_state),
        }
        with open(path / "model.json", "w") as f:
            json.dump(header, f, indent=2)
        params, state = self.copy_params()
        blobs = {f"param/{k}": v.astype("<f4") for k, v in params.items()}
        for lname, st in state.items():
            for key, v in st.items():
                blobs[f"state/{lname}/{key}"] = np.asarray(v, "<f8")
        np.savez(path / "weights.npz", **blobs)

    @classmethod
    def load(cls, path) -> "SurrogateModel":
        path = Path(path)
        with open(path / "model.json") as f:
            header = json.load(f)
        model = cls(Architecture.from_dict(header["architecture"]),
                    stats_hash=header["stats_hash"])
        model.training_state = TrainingState(**header["training_state"])
        with np.load(path / "weights.npz") as blobs:
            params = {}
            state = {}
            for key in blobs.files:
                if key.startswith("param/"):
                    params[key[6:]] = blobs[key].astype(model.dtype)
                else:
                    _, lname, skey = key.split("/", 2)
                    state.setdefault(lname, {})[skey] = blobs[key]
            model.load_params(params, state)
        return model
