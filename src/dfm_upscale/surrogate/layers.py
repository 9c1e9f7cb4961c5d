"""Neural network layers with explicit forward/backward passes.

Data layout is channels-last: (batch, height, width, channels). Convolutions
are 3x3, stride 1, no padding ("valid"); pooling is 2x2 max with stride 2,
truncating an odd trailing row/column. Parameters are stored in the layer's
dtype; reductions accumulate in float64 when dtype is float64 (used by the
finite-difference gradient check).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Layer:
    """Base class; layers expose params/grads dicts keyed by name.

    forward(x, train=True) saves in ``_cache`` what backward needs;
    forward(x, train=False) saves nothing, so inference frees its buffers.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x, train: bool):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError

    def state(self) -> dict:
        """Non-trainable state persisted in checkpoints."""
        return {}

    def load_state(self, state: dict):
        pass


def _channel_rows(x, *vectors):
    """x as rows of width * channels, and each per-channel vector tiled to
    that row. Elementwise arithmetic between them gives the values that
    broadcasting against the channel axis gives, with an inner loop as
    long as a row instead of as the channel count."""
    reps = x.shape[-2] if x.ndim > 2 else 1
    return (x.reshape(-1, reps * x.shape[-1]),
            *(np.tile(v, reps) for v in vectors))


def he_uniform(rng, fan_in, shape, dtype):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Conv3x3(Layer):
    def __init__(self, in_channels, out_channels, rng, dtype=np.float32):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        fan_in = 9 * in_channels
        self.params["kernel"] = he_uniform(rng, fan_in,
                                           (3, 3, in_channels, out_channels),
                                           dtype)
        self.params["bias"] = np.zeros(out_channels, dtype=dtype)

    @staticmethod
    def _im2col(x):
        # (B, H, W, C) as rows of W*C values; a window is 3 rows by 3C
        # values, one every C along the row: (B, H-2, W-2, 3, 3C) view ->
        # (B*(H-2)*(W-2), 9C), columns in (kh, kw, C) order
        b, h, w, c = x.shape
        ho, wo = h - 2, w - 2
        win = sliding_window_view(x.reshape(b, h, w * c), (3, 3 * c),
                                  axis=(1, 2))[:, :, ::c]
        return win.reshape(b * ho * wo, 9 * c), (b, ho, wo)

    def _convolve(self, x, kernel, bias):
        """(output, im2col columns) of x under the given kernel and bias."""
        cols, (b, ho, wo) = self._im2col(x)
        w = kernel.reshape(9 * self.in_channels, self.out_channels)
        out, bias = _channel_rows(
            (cols @ w).reshape(b, ho, wo, self.out_channels), bias)
        out += bias
        return out.reshape(b, ho, wo, self.out_channels), cols

    def forward(self, x, train: bool):
        out, cols = self._convolve(x, self.params["kernel"],
                                   self.params["bias"])
        self._cache = (cols, x.shape) if train else None
        return out

    def forward_folded(self, x, bn: "BatchNorm"):
        """Eval forward of this convolution followed by bn, as one
        convolution. Its kernel and bias are computed in float64 from the
        current parameters and running moments, then cast to the layer
        dtype. Like any eval forward, it frees both layers' backward
        buffers."""
        s = bn.params["scale"] / np.sqrt(bn.running_var + bn.eps)
        kernel = self.params["kernel"] * s
        bias = (self.params["bias"] - bn.running_mean) * s \
            + bn.params["shift"]
        dtype = self.params["kernel"].dtype
        self._cache = bn._cache = None
        return self._convolve(x, kernel.astype(dtype), bias.astype(dtype))[0]

    def backward(self, dout):
        cols, x_shape = self._cache
        b, h, w_in, c = x_shape
        ho, wo = h - 2, w_in - 2
        dflat = dout.reshape(b * ho * wo, self.out_channels)
        wmat = self.params["kernel"].reshape(9 * c, self.out_channels)
        self.grads["kernel"] = (cols.T @ dflat).reshape(3, 3, c,
                                                        self.out_channels)
        self.grads["bias"] = dflat.sum(axis=0)
        # input gradient: full correlation of dout with the flipped kernel
        dpad = np.zeros((b, h + 2, w_in + 2, self.out_channels),
                        dtype=dout.dtype)
        dpad[:, 2:2 + ho, 2:2 + wo] = dout.reshape(b, ho, wo,
                                                   self.out_channels)
        wflip = self.params["kernel"][::-1, ::-1].transpose(0, 1, 3, 2)
        cols2, (b2, h2, w2) = self._im2col(dpad)
        dx = cols2 @ wflip.reshape(9 * self.out_channels, c)
        return dx.reshape(b, h, w_in, c)


class BatchNorm(Layer):
    """Per-channel batch normalization over (batch, height, width)."""

    def __init__(self, channels, dtype=np.float32, momentum=0.1,
                 eps=1e-5):
        super().__init__()
        self.params["scale"] = np.ones(channels, dtype=dtype)
        self.params["shift"] = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.momentum = momentum
        self.eps = eps

    def forward(self, x, train: bool):
        axes = tuple(range(x.ndim - 1))
        if train:
            mean = x.mean(axis=axes, dtype=np.float64)
            var = x.var(axis=axes, dtype=np.float64)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = (1.0 / np.sqrt(var + self.eps)).astype(x.dtype)
        rows, mean, inv, scale, shift = _channel_rows(
            x, mean.astype(x.dtype), inv_std, self.params["scale"],
            self.params["shift"])
        xhat = rows - mean
        xhat *= inv
        self._cache = (xhat.reshape(x.shape), inv_std, axes) if train else None
        # inference keeps no xhat, so scale and shift go in place
        out = xhat * scale if train else np.multiply(xhat, scale, out=xhat)
        out += shift
        return out.reshape(x.shape)

    def backward(self, dout):
        xhat, inv_std, axes = self._cache
        self.grads["scale"] = (dout * xhat).sum(axis=axes)
        self.grads["shift"] = dout.sum(axis=axes)
        dxhat = dout * self.params["scale"]
        return (dxhat - dxhat.mean(axis=axes)
                - xhat * (dxhat * xhat).mean(axis=axes)) * inv_std

    def state(self):
        return {"running_mean": self.running_mean.copy(),
                "running_var": self.running_var.copy()}

    def load_state(self, state):
        self.running_mean = np.asarray(state["running_mean"], np.float64)
        self.running_var = np.asarray(state["running_var"], np.float64)


class ReLU(Layer):
    def forward(self, x, train: bool):
        self._cache = x > 0 if train else None
        # Bit for bit np.where(x > 0, x, 0), several times faster: fmax
        # sends NaN to 0, and adding +0.0 turns a -0.0 into +0.0.
        out = np.fmax(x, 0)
        out += 0.0
        return out

    def backward(self, dout):
        return np.where(self._cache, dout, 0)


class MaxPool2(Layer):
    def forward(self, x, train: bool):
        b, h, w, c = x.shape
        ho, wo = h // 2, w // 2
        if not train:
            # The value that argmax picks below, from four strided views
            # instead of a transposed 5-D copy (a tie can differ only in
            # the sign of a zero, and the ReLU beside a pool, before or
            # after it, leaves none).
            self._cache = None
            return np.maximum(
                np.maximum(x[:, 0:2 * ho:2, 0:2 * wo:2],
                           x[:, 0:2 * ho:2, 1:2 * wo:2]),
                np.maximum(x[:, 1:2 * ho:2, 0:2 * wo:2],
                           x[:, 1:2 * ho:2, 1:2 * wo:2]))
        xt = x[:, :2 * ho, :2 * wo]
        win = xt.reshape(b, ho, 2, wo, 2, c).transpose(0, 1, 3, 5, 2, 4)
        win = win.reshape(b, ho, wo, c, 4)
        arg = win.argmax(axis=-1)
        self._cache = (x.shape, arg) if train else None
        return np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]

    def backward(self, dout):
        (b, h, w, c), arg = self._cache
        ho, wo = h // 2, w // 2
        dwin = np.zeros((b, ho, wo, c, 4), dtype=dout.dtype)
        np.put_along_axis(dwin, arg[..., None], dout[..., None], axis=-1)
        dx = np.zeros((b, h, w, c), dtype=dout.dtype)
        dx[:, :2 * ho, :2 * wo] = dwin.reshape(b, ho, wo, c, 2, 2) \
            .transpose(0, 1, 4, 2, 5, 3).reshape(b, 2 * ho, 2 * wo, c)
        return dx


class Flatten(Layer):
    def forward(self, x, train: bool):
        self._cache = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._cache)


class Dense(Layer):
    def __init__(self, in_features, out_features, rng, dtype=np.float32):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.params["weight"] = he_uniform(rng, in_features,
                                           (in_features, out_features), dtype)
        self.params["bias"] = np.zeros(out_features, dtype=dtype)

    def forward(self, x, train: bool):
        self._cache = x if train else None
        return x @ self.params["weight"] + self.params["bias"]

    def backward(self, dout):
        self.grads["weight"] = self._cache.T @ dout
        self.grads["bias"] = dout.sum(axis=0)
        return dout @ self.params["weight"].T
