from types import SimpleNamespace

import numpy as np
import pytest

from dfm_upscale.config import DfnSection, TrainSection
from dfm_upscale.frac_geom import FractureNetwork
from dfm_upscale.geometry import Rect
from dfm_upscale.random_field import Grid, TensorField
from dfm_upscale.surrogate.model import Architecture


# the physical constants of the default configuration
CONSTANTS = DfnSection().constants


def reference_architecture() -> Architecture:
    """The default training configuration's stack on 256-pixel rasters."""
    train = TrainSection()
    return Architecture(resolution=256,
                        conv_channels=tuple(train.conv_channels),
                        dense_widths=tuple(train.dense_widths))


def uniform_field(rect: Rect, kxx, kxy=0.0, kyy=None, n=8) -> TensorField:
    if kyy is None:
        kyy = kxx
    grid = Grid(n, n, rect.width / n, (rect.x0, rect.y0))
    row = np.array([kxx, kxy, kyy], dtype=float)
    return TensorField(grid, np.tile(row, (n, n, 1)))


def layered_field(rect: Rect, k_values, n=64) -> TensorField:
    """Horizontal layers: conductivity varies with y, constant in x."""
    grid = Grid(n, n, rect.height / n, (rect.x0, rect.y0))
    layers = np.asarray(k_values, float)
    per_layer = n // len(layers)
    assert per_layer * len(layers) == n, "layer count must divide n"
    column = np.repeat(layers, per_layer)
    kxx = np.tile(column, (n, 1))  # [ix, iy]
    return TensorField(grid, np.stack([kxx, np.zeros((n, n)), kxx], axis=-1))


def make_fracture(p0, p1, aperture=1e-3, conductivity=None, frac_id=0):
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    d = p1 - p0
    length = float(np.hypot(*d))
    angle = float(np.arctan2(d[1], d[0])) % np.pi
    if conductivity is None:
        conductivity = 9.81 * 1000.0 * aperture ** 2 / (12.0 * 1e-3)
    return SimpleNamespace(id=frac_id, center=tuple(0.5 * (p0 + p1)),
                           length=length, angle=angle, aperture=aperture,
                           conductivity=conductivity)


def train_mode_loss(model, images, targets):
    """The exact loss minimized by loss_and_backward (the training pass)."""
    return model.loss_and_backward(images, targets)


def finite_difference_grad_errors(model, images, targets, eps=1e-3):
    """Central-difference check of every parameter tensor.

    Returns {param_name: max relative error between analytic and numeric
    gradients}; the model must use float64 parameters.
    """
    model.loss_and_backward(images, targets)
    analytic = {name: layer.grads[key].copy()
                for name, layer, key in model.named_params()}
    errors = {}
    for name, layer, key in model.named_params():
        flat = layer.params[key].reshape(-1)
        g = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = train_mode_loss(model, images, targets)
            flat[i] = orig - eps
            lm = train_mode_loss(model, images, targets)
            flat[i] = orig
            fd = (lp - lm) / (2.0 * eps)
            denom = max(1e-6, abs(fd) + abs(g[i]))
            worst = max(worst, abs(fd - g[i]) / denom)
        errors[name] = worst
    return errors


NETWORK_ARRAYS = ("id", "center", "length", "angle", "aperture",
                  "conductivity", "p0", "p1")


def network_of(*fractures):
    """A network holding the make_fracture rows, in the given order; with
    no rows, an empty network."""
    columns = {name: [getattr(fr, name) for fr in fractures]
               for name in NETWORK_ARRAYS[:6]}
    return FractureNetwork(**columns)


def same_fractures(a, b) -> bool:
    """Every per-fracture array of the two networks is bit-identical."""
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in NETWORK_ARRAYS)


@pytest.fixture
def unit_rect():
    return Rect(0.0, 0.0, 1.0, 1.0)
