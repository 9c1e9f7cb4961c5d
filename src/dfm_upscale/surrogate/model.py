"""Fixed-topology convolutional regressor.

forward (the inference pass) and loss_and_backward (the training pass)
take (B, 4, R, R) rasters and run the conv stages on channel planes
(4, B, R, R). Each conv stage is
Conv3x3 -> BatchNorm -> ReLU -> MaxPool2x2 (inference folds the BatchNorm
into the convolution and pools before the bias and ReLU), so a side of
length s maps to floor((s - 2) / 2). The default stack of
config.TrainSection on 4x256x256 input yields sides 127/62/30/14/6 and a
9216-wide flatten, followed by its dense layers and a 3-wide linear output.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..config import fingerprint, json_object, json_value
from ..seeding import substream
from .layers import (BatchNorm, Conv3x3, Dense, Flatten, MaxPool2, ReLU,
                     add_plane_bias, flatten, relu)

# images per step of the inference pass
PREDICT_BATCH = 64
# the JSON type of each Architecture field in model.json
_ARCHITECTURE_JSON = {"resolution": int, "in_channels": int,
                     "conv_channels": list[int], "dense_widths": list[int],
                     "out_features": int}


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
    def check_input(self, batch: np.ndarray):
        """ValueError unless batch is a (B, 4, R, R) stack for this model."""
        arch = self.architecture
        expected = (arch.in_channels, arch.resolution, arch.resolution)
        if batch.ndim != 4 or batch.shape[1:] != expected:
            raise ValueError(
                f"input: expected (B, {expected[0]}, {expected[1]}, "
                f"{expected[2]}), got {batch.shape}")

    def _planes(self, batch: np.ndarray) -> np.ndarray:
        """The (B, 4, R, R) rasters of batch as a (4, B, R, R) view of
        channel planes; each pass copies it into the model dtype."""
        self.check_input(batch)
        return batch.transpose(1, 0, 2, 3)

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """The inference pass: (B, 3) predictions of (B, 4, R, R) rasters,
        PREDICT_BATCH images at a time, keeping no backward buffer.

        Each conv stage runs its Conv3x3 with the BatchNorm folded in (from
        the current parameters and running moments), pools, then adds the
        folded bias and applies ReLU: both are monotone, so pooling first
        gives the same values on a quarter of them. Pooling cannot move
        before the folded kernel, whose scale can be negative.
        """
        planes = self._planes(batch)
        layers = self.layers
        for layer in layers.values():
            layer._cache = None
        folds = [layers[f"conv{i}"].fold(layers[f"bn{i}"])
                 for i in range(len(self.architecture.conv_channels))]
        dense = [layers[f"dense{i}"]
                 for i in range(len(self.architecture.dense_widths))]
        out = []
        for start in range(0, planes.shape[1], PREDICT_BATCH):
            x = np.ascontiguousarray(planes[:, start:start + PREDICT_BATCH],
                                     dtype=self.dtype)
            for kernel, bias in folds:
                x = relu(add_plane_bias(MaxPool2.forward_planes(
                    Conv3x3.convolve_planes(x, kernel)), bias))
            x = flatten(x)
            for layer in dense:
                x = relu(x @ layer.params["weight"] + layer.params["bias"])
            head = layers["output"].params
            out.append(x @ head["weight"] + head["bias"])
        return np.concatenate(out) if out else \
            np.zeros((0, self.architecture.out_features), self.dtype)

    def loss_and_backward(self, batch: np.ndarray,
                          targets: np.ndarray) -> float:
        """MSE loss (summed over components, averaged over samples) and
        parameter gradients via reverse-mode differentiation: the training
        pass runs every layer's forward, BatchNorm on batch statistics."""
        preds = np.ascontiguousarray(self._planes(batch), dtype=self.dtype)
        for layer in self.layers.values():
            preds = layer.forward(preds)
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

    def checkpoint(self) -> dict:
        """Copies of the named arrays of the model, in weights.npz order:
        "param/<layer>.<key>" in the model dtype, then the running state
        "state/<layer>/<key>" in float64."""
        arrays = {f"param/{name}": layer.params[key].copy()
                  for name, layer, key in self.named_params()}
        for lname, layer in self.layers.items():
            for key, v in layer.state().items():
                arrays[f"state/{lname}/{key}"] = np.asarray(v, np.float64)
        return arrays

    def restore(self, arrays: dict):
        """Set every parameter and running state from a checkpoint's
        arrays, as copies in the model dtype and in float64."""
        for name, layer, key in self.named_params():
            layer.params[key] = arrays[f"param/{name}"].astype(self.dtype)
        for lname, layer in self.layers.items():
            layer.load_state({key: arrays[f"state/{lname}/{key}"]
                              for key in layer.state()})

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
        np.savez(path / "weights.npz", **{
            key: v.astype("<f4" if key.startswith("param/") else "<f8")
            for key, v in self.checkpoint().items()})

    @classmethod
    def load(cls, path) -> "SurrogateModel":
        """Read what save wrote; ValueError if model.json misses a key,
        holds an unknown training_state key or an architecture or
        training_state value of the wrong type, if stats.json does not
        match its stats_hash, or if weights.npz does not hold exactly the
        architecture's arrays with their shapes."""
        path = Path(path)
        where = path / "model.json"
        with open(where) as f:
            header = json_object(json.load(f), where, (
                "architecture", "stats_hash", "training_state"))
        with open(path / "stats.json") as f:
            stats = json.load(f)
        if fingerprint(stats) != header["stats_hash"]:
            raise ValueError(f"{path / 'stats.json'}: preprocessing "
                             "statistics do not match the model")
        arch = json_object(header["architecture"], f"{where}: architecture",
                           list(_ARCHITECTURE_JSON))
        for key, hint in _ARCHITECTURE_JSON.items():
            json_value(hint, arch[key], f"{where}: architecture.{key}")
        state = json_object(header["training_state"],
                            f"{where}: training_state",
                            allowed=[f.name for f in fields(TrainingState)])
        hints = typing.get_type_hints(TrainingState)
        for key, value in state.items():
            json_value(hints[key], value, f"{where}: training_state.{key}")
        model = cls(Architecture.from_dict(arch), stats=stats)
        model.training_state = TrainingState(**state)
        with np.load(path / "weights.npz") as npz:
            blobs = {key: npz[key] for key in npz.files}
        expected = model.checkpoint()
        for key in sorted(blobs.keys() | expected.keys()):
            found, needed = (d[key].shape if key in d else "no array"
                             for d in (blobs, expected))
            if found != needed:
                raise ValueError(f"{path / 'weights.npz'}: {key}: found "
                                 f"{found}, the architecture needs {needed}")
        model.restore(blobs)
        return model
