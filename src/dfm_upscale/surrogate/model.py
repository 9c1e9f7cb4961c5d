"""Fixed-topology convolutional regressor.

forward takes (B, R, R, 4) rasters and runs the conv stages on channel
planes (4, B, R, R), in training and at inference alike. Each conv stage is
Conv3x3 -> BatchNorm -> ReLU -> MaxPool2x2 (inference folds the BatchNorm
into the convolution and pools before the bias and ReLU), so a side of
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

from ..config import fingerprint
from ..seeding import substream
from .layers import (BatchNorm, Conv3x3, Dense, Flatten, MaxPool2, ReLU,
                     add_plane_bias)


@dataclass(frozen=True, kw_only=True)
class Architecture:
    resolution: int = 256
    in_channels: int = 4
    conv_channels: tuple
    dense_widths: tuple
    out_features: int = 3

    def stage_sides(self) -> list[int]:
        """Side length after each conv stage; raises if a stage collapses
        the side below 1."""
        if len(self.conv_channels) > self.max_stages():
            raise ValueError(
                f"{len(self.conv_channels)} conv stages: resolution "
                f"{self.resolution} supports at most {self.max_stages()}")
        sides = [self.resolution]
        for _ in self.conv_channels:
            sides.append((sides[-1] - 2) // 2)
        return sides[1:]

    def max_stages(self) -> int:
        side, n = self.resolution, 0
        while side >= 4:  # a 3x3 convolution and a 2x2 pool leave >= 1
            side, n = (side - 2) // 2, n + 1
        return n

    @property
    def flatten_width(self) -> int:
        return self.stage_sides()[-1] ** 2 * self.conv_channels[-1]

    @classmethod
    def from_dict(cls, d):
        return cls(resolution=d["resolution"], in_channels=d["in_channels"],
                   conv_channels=tuple(d["conv_channels"]),
                   dense_widths=tuple(d["dense_widths"]),
                   out_features=d["out_features"])


@dataclass
class TrainingState:
    epoch: int = 0
    learning_rate: float | None = None  # set by training.train
    best_val_loss: float = float("inf")


class SurrogateModel:
    """The CNN plus ``stats``, the preprocessing statistics of its training
    split (``dataset_pipeline.compute_stats``) that prediction needs."""

    def __init__(self, architecture: Architecture, seed: int = 0,
                 dtype=np.float32, stats: dict | None = None):
        self.architecture = architecture
        self.dtype = dtype
        self.stats = stats
        self.training_state = TrainingState()
        rng = substream(seed, "init")
        arch = architecture

        self.layers: dict = {}  # name -> layer, in forward order
        c_in = arch.in_channels
        for i, c_out in enumerate(arch.conv_channels):
            self.layers[f"conv{i}"] = Conv3x3(c_in, c_out, rng, dtype=dtype)
            self.layers[f"bn{i}"] = BatchNorm(c_out, dtype=dtype)
            self.layers[f"relu_c{i}"] = ReLU()
            self.layers[f"pool{i}"] = MaxPool2()
            c_in = c_out
        self.layers["flatten"] = Flatten()
        width = arch.flatten_width
        for i, w in enumerate(arch.dense_widths):
            self.layers[f"dense{i}"] = Dense(width, w, rng, dtype=dtype)
            self.layers[f"relu_d{i}"] = ReLU()
            width = w
        self.layers["output"] = Dense(width, arch.out_features, rng,
                                      dtype=dtype)

    # ------------------------------------------------------------------
    def forward(self, batch: np.ndarray, train: bool = False) -> np.ndarray:
        arch = self.architecture
        expected = (arch.resolution, arch.resolution, arch.in_channels)
        if batch.ndim != 4 or batch.shape[1:] != expected:
            raise ValueError(
                f"input: expected (B, {expected[0]}, {expected[1]}, "
                f"{expected[2]}), got {batch.shape}")
        x = np.ascontiguousarray(
            batch.astype(self.dtype, copy=False).transpose(3, 0, 1, 2))
        steps = ([(name, partial(layer.forward, train=True))
                  for name, layer in self.layers.items()]
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
        pools, then adds the folded bias and applies ReLU. Pooling before
        the bias and ReLU gives the same values because both are monotone,
        and they then see a quarter of them. Pooling cannot move before the
        folded kernel, whose scale can be negative. The fold is recomputed
        on every call, so it always reflects the current parameters and
        running moments.
        """
        layers = self.layers
        steps = []
        for i in range(len(self.architecture.conv_channels)):
            kernel, bias = layers[f"conv{i}"].fold(layers[f"bn{i}"])
            steps += [
                (f"conv{i}", partial(Conv3x3.convolve_planes, kernel=kernel)),
                (f"pool{i}", layers[f"pool{i}"].forward_planes),
                (f"bias{i}", partial(add_plane_bias, bias=bias)),
                (f"relu_c{i}", partial(layers[f"relu_c{i}"].forward,
                                       train=False))]
        head = list(layers).index("flatten")
        return steps + [(name, partial(layer.forward, train=False))
                        for name, layer in list(layers.items())[head:]]

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
        conv0, *rest = self.layers.values()
        for layer in reversed(rest):
            dout = layer.backward(dout)
        # nothing precedes conv0: its input gradient is not computed
        conv0.param_backward(dout)
        return loss

    # ------------------------------------------------------------------
    def named_params(self):
        for name, layer in self.layers.items():
            for key in layer.params:
                yield f"{name}.{key}", layer, key

    def copy_params(self):
        params = {name: layer.params[key].copy()
                  for name, layer, key in self.named_params()}
        state = {name: layer.state() for name, layer in self.layers.items()
                 if layer.state()}
        return params, state

    def load_params(self, params, state):
        for name, layer, key in self.named_params():
            layer.params[key] = params[name].copy()
        for name, layer in self.layers.items():
            if name in state:
                layer.load_state(state[name])

    # ------------------------------------------------------------------
    def _blobs(self) -> dict:
        """The named arrays of weights.npz: float32 parameters, float64
        running state."""
        params, state = self.copy_params()
        blobs = {f"param/{k}": v.astype("<f4") for k, v in params.items()}
        for lname, st in state.items():
            for key, v in st.items():
                blobs[f"state/{lname}/{key}"] = np.asarray(v, "<f8")
        return blobs

    def save(self, path):
        """model.json (architecture, training state, stats_hash), named
        weight blobs in weights.npz, and stats.json."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        header = {
            "architecture": asdict(self.architecture),
            "stats_hash": fingerprint(self.stats),
            "training_state": asdict(self.training_state),
        }
        with open(path / "model.json", "w") as f:
            json.dump(header, f, indent=2)
        with open(path / "stats.json", "w") as f:
            json.dump(self.stats, f, indent=2)
        np.savez(path / "weights.npz", **self._blobs())

    @classmethod
    def load(cls, path) -> "SurrogateModel":
        """Read what save wrote; ValueError if stats.json does not match
        model.json's stats_hash, or if weights.npz does not hold exactly
        the architecture's arrays with their shapes."""
        path = Path(path)
        with open(path / "model.json") as f:
            header = json.load(f)
        with open(path / "stats.json") as f:
            stats = json.load(f)
        if fingerprint(stats) != header["stats_hash"]:
            raise ValueError(f"{path / 'stats.json'}: preprocessing "
                             "statistics do not match the model")
        model = cls(Architecture.from_dict(header["architecture"]),
                    stats=stats)
        model.training_state = TrainingState(**header["training_state"])
        with np.load(path / "weights.npz") as npz:
            blobs = {key: npz[key] for key in npz.files}
        expected = model._blobs()
        for key in sorted(blobs.keys() | expected.keys()):
            found, needed = (d[key].shape if key in d else "no array"
                             for d in (blobs, expected))
            if found != needed:
                raise ValueError(f"{path / 'weights.npz'}: {key}: found "
                                 f"{found}, the architecture needs {needed}")
        params, state = model.copy_params()
        model.load_params(
            {name: blobs[f"param/{name}"].astype(model.dtype)
             for name in params},
            {lname: {key: blobs[f"state/{lname}/{key}"] for key in st}
             for lname, st in state.items()})
        return model
