"""Neural network layers with explicit forward/backward passes.

The conv stages work on channel planes (channels, batch, height, width);
flatten turns them into (height, width, channel) rows for the dense layers.
Convolutions are 3x3, stride 1, no padding ("valid"); pooling is 2x2 max
with stride 2, truncating an odd trailing row/column. Parameters are stored
in the layer's dtype; reductions accumulate in float64 when dtype is float64
(used by the finite-difference gradient check).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Layer:
    """Base class; layers expose params/grads dicts keyed by name, and
    forward(x), which saves in ``_cache`` what backward(dout) needs."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def state(self) -> dict:
        """Non-trainable state persisted in checkpoints."""
        return {}

    def load_state(self, state: dict):
        pass


def _per_plane(v):
    """A per-channel vector shaped to broadcast against (C, B, H, W)."""
    return v.reshape(-1, 1, 1, 1)


def add_plane_bias(planes, bias):
    """In place: bias[c] added to plane c of planes (C, B, H, W)."""
    planes += _per_plane(bias)
    return planes


# Most values in one band of convolution columns (256 KB in float32). At
# the desk architecture on 64 x 64 rasters, a whole chunk's conv0 columns
# (4.4 MB) made its forward pass about 1.7x slower.
BAND_VALUES = 2 ** 16
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def _column_bands(x):
    """The im2col columns of the valid 3x3 convolution of planes x
    (C, B, H, W), band by band: (image, output rows, columns (9C, n)).

    Each column holds the (kh, kw, C) values of one output pixel; a band
    covers consecutive output rows of one image, at most BAND_VALUES values,
    so that it is still in cache for its product.
    """
    c, b, h, w = x.shape
    ho, wo = h - 2, w - 2
    win = sliding_window_view(x, (3, 3), axis=(2, 3)) \
        .transpose(4, 5, 0, 1, 2, 3)
    bands = -(-9 * c * ho * wo // BAND_VALUES)
    rows = -(-ho // bands)
    for i in range(b):
        for r in range(0, ho, rows):
            yield i, slice(r, r + rows), \
                win[:, :, :, i, r:r + rows].reshape(9 * c, -1)


def he_uniform(rng, fan_in, shape, dtype):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Conv3x3(Layer):
    def __init__(self, in_channels, out_channels, rng, dtype=np.float32):
        super().__init__()
        self.params["kernel"] = he_uniform(
            rng, 9 * in_channels, (3, 3, in_channels, out_channels), dtype)
        self.params["bias"] = np.zeros(out_channels, dtype=dtype)

    def forward(self, x):
        self._cache = x
        return add_plane_bias(self.convolve_planes(x, self.params["kernel"]),
                              self.params["bias"])

    def fold(self, bn: "BatchNorm"):
        """(kernel, bias) of this convolution followed by bn on its running
        moments, as one convolution: computed in float64 from the current
        parameters and running moments, then cast to the layer dtype."""
        s = bn.params["scale"] / np.sqrt(bn.running_var + BN_EPS)
        kernel = self.params["kernel"] * s
        bias = (self.params["bias"] - bn.running_mean) * s \
            + bn.params["shift"]
        dtype = self.params["kernel"].dtype
        return kernel.astype(dtype), bias.astype(dtype)

    @staticmethod
    def convolve_planes(x, kernel):
        """Convolution of channel planes x (C, B, H, W) with a (3, 3, C, O)
        kernel, without bias: planes (O, B, H-2, W-2)."""
        c, b, h, w = x.shape
        k = kernel.reshape(9 * c, -1).T
        out = np.empty((len(k), b, h - 2, w - 2), dtype=k.dtype)
        # each band's product is written into its rows of out: (O, B, pixels)
        # is a view, and its rows of one image are one strided matrix
        pixels = out.reshape(len(k), b, -1)
        for i, rows, cols in _column_bands(x):
            np.matmul(k, cols, out=pixels[:, i, rows.start * (w - 2):
                                          rows.stop * (w - 2)])
        return out

    def param_backward(self, dout):
        """The kernel and bias gradients of dout, without the input
        gradient: all that the first layer of a model needs."""
        grad = sum(dout[:, i, rows].reshape(len(dout), -1) @ cols.T
                   for i, rows, cols in _column_bands(self._cache))
        self.grads["kernel"] = grad.T.reshape(self.params["kernel"].shape)
        self.grads["bias"] = dout.sum(axis=(1, 2, 3))

    def backward(self, dout):
        self.param_backward(dout)
        # input gradient: full correlation of dout with the flipped kernel
        dpad = np.pad(dout, ((0, 0), (0, 0), (2, 2), (2, 2)))
        return self.convolve_planes(
            dpad, self.params["kernel"][::-1, ::-1].transpose(0, 1, 3, 2))


class BatchNorm(Layer):
    """Per-channel batch normalization over (batch, height, width) with the
    batch statistics. Inference runs it only folded into its convolution
    (Conv3x3.fold), on the running moments that training updates."""

    def __init__(self, channels, dtype=np.float32):
        super().__init__()
        self.params["scale"] = np.ones(channels, dtype=dtype)
        self.params["shift"] = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)

    def forward(self, x):
        mean = x.mean(axis=(1, 2, 3), dtype=np.float64, keepdims=True)
        var = x.var(axis=(1, 2, 3), dtype=np.float64, keepdims=True)
        self.running_mean = ((1 - BN_MOMENTUM) * self.running_mean
                             + BN_MOMENTUM * mean.ravel())
        self.running_var = ((1 - BN_MOMENTUM) * self.running_var
                            + BN_MOMENTUM * var.ravel())
        inv_std = (1.0 / np.sqrt(var + BN_EPS)).astype(x.dtype)
        xhat = x - mean.astype(x.dtype)
        xhat *= inv_std
        self._cache = (xhat, inv_std)
        out = xhat * _per_plane(self.params["scale"])
        out += _per_plane(self.params["shift"])
        return out

    def backward(self, dout):
        xhat, inv_std = self._cache
        self.grads["scale"] = (dout * xhat).sum(axis=(1, 2, 3))
        self.grads["shift"] = dout.sum(axis=(1, 2, 3))
        dxhat = dout * _per_plane(self.params["scale"])
        return (dxhat - dxhat.mean(axis=(1, 2, 3), keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=(1, 2, 3), keepdims=True)) \
            * inv_std

    def state(self):
        return {"running_mean": self.running_mean.copy(),
                "running_var": self.running_var.copy()}

    def load_state(self, state):
        self.running_mean = np.asarray(state["running_mean"], np.float64)
        self.running_var = np.asarray(state["running_var"], np.float64)


def relu(x):
    """Bit for bit np.where(x > 0, x, 0), several times faster: fmax sends
    NaN to 0, and adding +0.0 turns a -0.0 into +0.0."""
    out = np.fmax(x, 0)
    out += 0.0
    return out


def flatten(x):
    """Planes (C, B, H, W) to rows (B, H * W * C)."""
    return x.transpose(1, 2, 3, 0).reshape(x.shape[1], -1)


class ReLU(Layer):
    def forward(self, x):
        # its output is > 0 exactly where x is; the next layer keeps it too
        self._cache = relu(x)
        return self._cache

    def backward(self, dout):
        return np.where(self._cache > 0, dout, 0)


class MaxPool2(Layer):
    @staticmethod
    def _windows(x):
        """A view of planes (C, B, H, W) as (C, B, H//2, W//2, 2, 2)
        windows, indexed (kh, kw) last."""
        c, b, h, w = x.shape
        return x[:, :, :h // 2 * 2, :w // 2 * 2] \
            .reshape(c, b, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)

    def forward(self, x):
        self._cache = x
        return self.forward_planes(x)

    @staticmethod
    def forward_planes(x):
        """Pooling of channel planes (C, B, H, W). The larger of each row
        pair comes first, so that maximum runs along whole rows."""
        ho, wo = x.shape[2] // 2, x.shape[3] // 2
        rows = np.maximum(x[:, :, 0:2 * ho:2], x[:, :, 1:2 * ho:2])
        return np.maximum(rows[..., 0:2 * wo:2], rows[..., 1:2 * wo:2])

    def backward(self, dout):
        """dout to the first maximum of each (kh, kw) window, which holds
        the value of forward_planes: the input, a ReLU output, has no -0.0."""
        x = self._cache
        win = self._windows(x)
        arg = win.reshape(win.shape[:4] + (4,)).argmax(axis=-1)
        dwin = np.where(arg[..., None] == np.arange(4), dout[..., None], 0)
        dx = np.zeros(x.shape, dtype=dout.dtype)
        self._windows(dx)[...] = dwin.reshape(dwin.shape[:-1] + (2, 2))
        return dx


class Flatten(Layer):
    def forward(self, x):
        self._cache = x.shape
        return flatten(x)

    def backward(self, dout):
        c, b, h, w = self._cache
        return dout.reshape(b, h, w, c).transpose(3, 0, 1, 2)


class Dense(Layer):
    def __init__(self, in_features, out_features, rng, dtype=np.float32):
        super().__init__()
        self.params["weight"] = he_uniform(rng, in_features,
                                           (in_features, out_features), dtype)
        self.params["bias"] = np.zeros(out_features, dtype=dtype)

    def forward(self, x):
        self._cache = x
        return x @ self.params["weight"] + self.params["bias"]

    def backward(self, dout):
        self.grads["weight"] = self._cache.T @ dout
        self.grads["bias"] = dout.sum(axis=0)
        return dout @ self.params["weight"].T
