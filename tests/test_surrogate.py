import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from dfm_upscale.dataset_pipeline import (compute_stats, inverse_preprocess,
                                          preprocess)
from dfm_upscale.config import TrainSection
from dfm_upscale.surrogate import (Adam, Architecture, SurrogateModel,
                                   compute_metrics, evaluate,
                                   predict_samples, train, write_history_csv)
from dfm_upscale.surrogate import layers
from dfm_upscale.surrogate import model as model_module
from dfm_upscale.surrogate.layers import BatchNorm, Conv3x3, Dense, MaxPool2
from dfm_upscale.seeding import substream

from conftest import finite_difference_grad_errors, reference_architecture

SMALL_ARCH = Architecture(resolution=16, conv_channels=(2, 3),
                          dense_widths=(8, 8, 8))


def small_model(seed=0, dtype=np.float32):
    return SurrogateModel(SMALL_ARCH, seed=seed, dtype=dtype)


def planes(x):
    """A (B, C, H, W) stack as channel planes (C, B, H, W)."""
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3))


def train_pass(model, x):
    """The predictions of the training pass: every layer's forward in turn,
    BatchNorm on the batch statistics (and updating its running moments)."""
    h = planes(x)
    for layer in model.layers.values():
        h = layer.forward(h)
    return h


def mse(preds, targets):
    """The validation loss of train: summed over components, averaged over
    samples."""
    return float(np.mean(np.sum((preds - targets) ** 2, axis=1)))


def unfolded_eval(model, x):
    """The inference pass written out layer by layer without the fold:
    conv with bias, BatchNorm on the running moments, ReLU, pool."""
    h = planes(x)
    for layer in model.layers.values():
        if isinstance(layer, BatchNorm):
            mean, var, scale, shift = (
                np.asarray(v).astype(h.dtype).reshape(-1, 1, 1, 1)
                for v in (layer.running_mean,
                          layer.running_var + layers.BN_EPS,
                          layer.params["scale"], layer.params["shift"]))
            h = (h - mean) / np.sqrt(var) * scale + shift
        elif isinstance(layer, MaxPool2):
            c, b, hh, ww = h.shape
            h = h[:, :, :hh // 2 * 2, :ww // 2 * 2] \
                .reshape(c, b, hh // 2, 2, ww // 2, 2).max(axis=(3, 5))
        else:
            h = layer.forward(h)
    return h


def synthetic_dataset(rng, n, r=16):
    images = np.exp(rng.normal(-6.0, 0.5, (n, 4, r, r))).astype(np.float32)
    images[:, 1] = rng.normal(0.0, 1e-8, (n, r, r))
    images[:, 3] = 1.0
    targets = np.exp(rng.normal(-6.0, 0.5, (n, 3)))
    targets[:, 1] = rng.normal(0.0, 1e-8, n)
    return images, targets


class TestArchitecture:
    def test_reference_stage_sides(self):
        arch = reference_architecture()
        assert arch.stage_sides() == [127, 62, 30, 14, 6]
        assert arch.flatten_width == 9216
        assert arch.conv_channels == (24, 48, 96, 192, 256)
        assert arch.dense_widths == (2048, 2048, 1024)

    def test_small_arch(self):
        assert SMALL_ARCH.stage_sides() == [7, 2]
        assert SMALL_ARCH.flatten_width == 12
        assert SMALL_ARCH.max_stages() == 2

    def test_too_many_stages_rejected(self):
        arch = Architecture(resolution=16, conv_channels=(2, 3, 4),
                            dense_widths=(8,))
        with pytest.raises(ValueError, match="at most"):
            arch.stage_sides()

    def test_round_trip(self):
        # through the JSON of model.json
        saved = json.loads(json.dumps(asdict(SMALL_ARCH)))
        assert Architecture.from_dict(saved) == SMALL_ARCH


class TestForward:
    def test_output_shape_and_intermediates(self):
        model = small_model()
        arch = model.architecture
        x = np.random.default_rng(0).standard_normal((2, 4, 16, 16))
        out = model.forward(x.astype(np.float32))
        assert out.shape == (2, 3)
        # every layer's output against the sides the architecture predicts
        shapes = {}
        h = planes(x.astype(np.float32))
        for name, layer in model.layers.items():
            h = layer.forward(h)
            shapes[name] = h.shape
        assert arch.stage_sides() == [7, 2]
        assert [shapes[f"pool{i}"] for i in range(2)] == [
            (c, 2, side, side)
            for side, c in zip(arch.stage_sides(), arch.conv_channels)]
        assert shapes["flatten"] == (2, arch.flatten_width) == (2, 12)
        assert shapes["output"] == (2, 3)

    def test_fresh_model_maps_zero_to_zero(self):
        # zero biases/shifts everywhere: the all-zero image stays zero
        model = small_model()
        out = model.forward(np.zeros((3, 4, 16, 16), dtype=np.float32))
        assert np.all(out == 0.0)

    def test_identical_inputs_identical_outputs(self):
        model = small_model(seed=3)
        row = np.random.default_rng(1).standard_normal((4, 16, 16))
        batch = np.stack([row, row, row]).astype(np.float32)
        out = model.forward(batch)
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[0], out[2])

    def test_inference_keeps_no_backward_state(self):
        model = small_model()
        x = np.random.default_rng(3).standard_normal((4, 4, 16, 16)) \
            .astype(np.float32)
        model.loss_and_backward(x, np.zeros((4, 3)))  # fills every cache
        layers = model.layers.values()
        assert all(layer._cache is not None for layer in layers)
        model.forward(x)
        assert all(layer._cache is None for layer in layers)

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5),
                                             (np.float64, 1e-12)])
    def test_folded_eval_matches_layer_composition(self, dtype, rtol):
        arch = Architecture(resolution=32, conv_channels=(4, 6, 8),
                            dense_widths=(16,))
        model = SurrogateModel(arch, seed=2, dtype=dtype)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4, 32, 32)).astype(dtype)
        bns = [layer for layer in model.layers.values()
               if isinstance(layer, BatchNorm)]
        for _ in range(2):  # the fold follows the current moments
            for bn in bns:
                c = len(bn.running_mean)
                bn.running_mean = rng.normal(0.0, 0.5, c)
                bn.running_var = rng.uniform(0.05, 4.0, c)
                bn.params["scale"] = rng.uniform(0.3, 2.0, c).astype(dtype) \
                    * np.where(np.arange(c) % 2, -1, 1).astype(dtype)
                bn.params["shift"] = rng.normal(0.0, 0.3, c).astype(dtype)
            ref = unfolded_eval(model, x)
            out = model.forward(x)
            assert out.dtype == ref.dtype == dtype
            assert np.max(np.abs(out - ref)) <= rtol * np.max(np.abs(ref))

    def test_train_path_is_the_layer_composition(self):
        # the train forward and backward run every layer in turn; skipping
        # conv0's input gradient leaves every parameter gradient bit for bit
        model = small_model(seed=5)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 4, 16, 16)).astype(np.float32)
        t = rng.standard_normal((4, 3))
        ref = train_pass(model, x)
        diff = ref - t.astype(ref.dtype)
        dout = (2.0 / len(x)) * diff
        for layer in reversed(model.layers.values()):
            dout = layer.backward(dout)
        grads = {name: layer.grads[key].copy()
                 for name, layer, key in model.named_params()}
        assert model.loss_and_backward(x, t) == float(np.mean(np.sum(
            diff.astype(np.float64) ** 2, axis=1)))
        assert all(np.array_equal(layer.grads[key], grads[name])
                   for name, layer, key in model.named_params())

    def test_empty_batch_predicts_nothing(self):
        out = small_model().forward(np.zeros((0, 4, 16, 16), np.float32))
        assert out.shape == (0, 3) and out.dtype == np.float32

    def test_wrong_input_shape_rejected(self):
        model = small_model()
        with pytest.raises(ValueError, match="expected"):
            model.forward(np.zeros((1, 4, 8, 8), dtype=np.float32))

    def test_channels_last_stack_rejected(self):
        # a (B, R, R, 4) stack holds as many values as (B, 4, R, R)
        model = small_model()
        model.stats = compute_stats(*synthetic_dataset(
            np.random.default_rng(0), 2), np.arange(2))
        x = np.ones((2, 16, 16, 4), dtype=np.float32)
        for run in (model.forward, lambda b: predict_samples(model, b),
                    lambda b: model.loss_and_backward(b, np.zeros((2, 3)))):
            with pytest.raises(ValueError,
                               match=r"expected \(B, 4, 16, 16\), got "
                                     r"\(2, 16, 16, 4\)"):
                run(x)

    def test_deterministic_init(self):
        a = small_model(seed=7)
        b = small_model(seed=7)
        pa = a.checkpoint()
        pb = b.checkpoint()
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)


class TestLossAndGradients:
    def test_zero_loss_zero_grads(self):
        model = small_model(seed=1)
        x = np.random.default_rng(2).standard_normal((4, 4, 16, 16)) \
            .astype(np.float32)
        preds = train_pass(model, x)
        loss = model.loss_and_backward(x, preds)
        assert loss == pytest.approx(0.0, abs=1e-12)
        for _, layer, key in model.named_params():
            assert np.allclose(layer.grads[key], 0.0, atol=1e-10)

    def test_residual_doubling_quadruples_loss(self):
        model = small_model(seed=1)
        x = np.random.default_rng(3).standard_normal((4, 4, 16, 16)) \
            .astype(np.float32)
        preds = train_pass(model, x)
        d = np.random.default_rng(4).standard_normal(preds.shape)
        l1 = model.loss_and_backward(x, preds - d)
        l2 = model.loss_and_backward(x, preds - 2 * d)
        assert l2 == pytest.approx(4.0 * l1, rel=1e-5)

    def test_first_layer_input_gradient_skipped(self, monkeypatch):
        # a forward convolution per conv layer, and an input gradient per
        # conv layer but the first
        model = small_model(seed=5)
        x = np.zeros((2, 4, 16, 16), dtype=np.float32)
        calls = []
        convolve = Conv3x3.convolve_planes
        monkeypatch.setattr(Conv3x3, "convolve_planes", staticmethod(
            lambda planes, kernel: calls.append(1) or convolve(planes,
                                                               kernel)))
        model.loss_and_backward(x, np.zeros((2, 3)))
        assert len(calls) == 2 * len(SMALL_ARCH.conv_channels) - 1

    def test_finite_difference_gradient_check(self):
        model = SurrogateModel(SMALL_ARCH, seed=0, dtype=np.float64)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 16, 16))
        t = rng.standard_normal((2, 3))
        errors = finite_difference_grad_errors(model, x, t, eps=1e-3)
        assert errors  # every parameter tensor was checked
        for name, err in errors.items():
            assert err < 1e-4, f"{name}: max relative gradient error {err}"

    def test_training_step_peak_memory(self):
        # the desk architecture at batch 64: columns built band by band keep
        # one step near 60 MB; whole im2col matrices took about 175 MB
        arch = Architecture(resolution=64, conv_channels=(8, 16, 32),
                            dense_widths=(64, 64))
        model = SurrogateModel(arch, seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 4, 64, 64)).astype(np.float32)
        t = rng.standard_normal((64, 3))
        model.loss_and_backward(x, t)
        tracemalloc.start()
        try:
            model.loss_and_backward(x, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6, f"peak {peak / 1e6:.0f} MB"

    def test_nan_loss_rejected(self):
        model = small_model()
        x = np.zeros((1, 4, 16, 16), dtype=np.float32)
        with pytest.raises(FloatingPointError):
            model.loss_and_backward(x, np.full((1, 3), np.nan))


class TestBatchNorm:
    def test_train_mode_batch_statistics(self):
        # each channel plane is normalized with its own statistics
        bn = BatchNorm(3, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((3, 8, 6, 6)) \
            * np.array([2.0, 0.1, 7.0]).reshape(3, 1, 1, 1) \
            + np.array([5.0, -2.0, 0.5]).reshape(3, 1, 1, 1)
        y = bn.forward(x)
        assert np.all(np.abs(y.mean(axis=(1, 2, 3))) < 1e-12)
        var = x.var(axis=(1, 2, 3))
        np.testing.assert_allclose(y.var(axis=(1, 2, 3)),
                                   var / (var + layers.BN_EPS), rtol=1e-12)
        assert np.array_equal(bn.running_mean,
                              0.1 * x.mean(axis=(1, 2, 3)))

    def test_eval_mode_uses_running_moments(self):
        # inference folds the running moments into the convolution
        bn = BatchNorm(2, dtype=np.float64)
        rng = np.random.default_rng(1)
        for _ in range(200):
            bn.forward(rng.normal(3.0, 1.5, (2, 16, 4, 4)))
        assert np.allclose(bn.running_mean, 3.0, atol=0.1)
        assert np.allclose(bn.running_var, 2.25, atol=0.1)
        conv = Conv3x3(3, 2, rng, dtype=np.float64)
        conv.params["bias"] = rng.normal(0.0, 1.0, 2)
        x = rng.standard_normal((3, 4, 6, 5))
        kernel, bias = conv.fold(bn)
        y = conv.forward(x)
        expect = (y - bn.running_mean.reshape(2, 1, 1, 1)) \
            / np.sqrt(bn.running_var + layers.BN_EPS).reshape(2, 1, 1, 1)
        folded = Conv3x3.convolve_planes(x, kernel) + bias.reshape(2, 1, 1, 1)
        np.testing.assert_allclose(folded, expect, rtol=1e-12, atol=1e-12)

    def test_state_round_trip(self):
        bn = BatchNorm(2)
        bn.forward(np.random.default_rng(2).normal(1.0, 1.0, (2, 4, 3, 3)))
        st = bn.state()
        fresh = BatchNorm(2)
        fresh.load_state(st)
        assert np.array_equal(fresh.running_mean, bn.running_mean)
        assert np.array_equal(fresh.running_var, bn.running_var)


class TestInferenceKernels:
    """The layer arithmetic against the plain formulas."""

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32),
                                             (np.float64, np.uint64)])
    def test_relu_matches_where(self, dtype, bits):
        x = np.random.default_rng(0).standard_normal((2, 5, 5, 3)) \
            .astype(dtype)
        x.flat[:6] = [-0.0, np.nan, 0.0, np.inf, -np.inf, 1e-45]
        for sub in (x, x[:1, :1, :1, :2]):
            y = layers.relu(sub)
            assert np.array_equal(y.view(bits),
                                  np.where(sub > 0, sub, 0).view(bits))

    def test_maxpool_inference_matches_argmax_path(self):
        # odd-sided planes, and windows that are all zero after the ReLU:
        # the pooled values and the routing of ties against the first
        # maximum of each (kh, kw) window
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 7, 9, 5))
        x[:, :, 2:4, 2:4] = 0.0
        x = np.where(x > 0, x, 0).astype(np.float32)
        assert (x[:, :, :8, :4].reshape(3, 7, 4, 2, 2, 2)
                .max(axis=(3, 5)) == 0).any()

        def windows(a):
            return a[:, :, :8, :4].reshape(3, 7, 4, 2, 2, 2) \
                .transpose(0, 1, 2, 4, 3, 5).reshape(3, 7, 4, 2, 4)

        arg = windows(x).argmax(axis=-1)
        pool = MaxPool2()
        assert np.array_equal(pool.forward(x), np.take_along_axis(
            windows(x), arg[..., None], axis=-1)[..., 0])
        assert np.array_equal(MaxPool2.forward_planes(x), pool.forward(x))
        dout = rng.standard_normal(arg.shape).astype(np.float32)
        dx = pool.backward(dout)
        assert np.array_equal(windows(dx), np.where(
            arg[..., None] == np.arange(4), dout[..., None], 0))
        assert not dx[:, :, 8:].any() and not dx[..., 4:].any()

    def test_maxpool_backward_routes_to_first_maximum(self):
        # windows in (kh, kw) order: ties go to the first maximum
        x = np.array([[1.0, 3.0, 2.0, 2.0, 9.0],
                      [3.0, 0.0, 2.0, 2.0, 9.0],
                      [0.0, 0.0, -1.0, 5.0, 9.0]]).reshape(1, 1, 3, 5)
        pool = MaxPool2()
        assert np.array_equal(pool.forward(x), [[[[3.0, 2.0]]]])
        dx = pool.backward(np.array([[[[10.0, 20.0]]]]))
        assert np.array_equal(dx, np.array([[0.0, 10.0, 20.0, 0.0, 0.0],
                                            [0.0, 0.0, 0.0, 0.0, 0.0],
                                            [0.0, 0.0, 0.0, 0.0, 0.0]])
                              .reshape(1, 1, 3, 5))

    def test_batchnorm_matches_channel_broadcast(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm(5)
        bn.params["scale"] = rng.normal(1.0, 0.3, 5).astype(np.float32)
        bn.params["shift"] = rng.normal(0.0, 0.3, 5).astype(np.float32)
        x = rng.standard_normal((5, 3, 6, 7)).astype(np.float32)
        mean = x.mean(axis=(1, 2, 3), dtype=np.float64)
        var = x.var(axis=(1, 2, 3), dtype=np.float64)
        inv_std = (1.0 / np.sqrt(var + layers.BN_EPS)).astype(np.float32)
        expect = ((x.transpose(1, 2, 3, 0) - mean.astype(np.float32))
                  * inv_std * bn.params["scale"] + bn.params["shift"])
        assert np.array_equal(bn.forward(x), expect.transpose(3, 0, 1, 2))

    def test_conv_columns_in_kernel_order(self):
        rng = np.random.default_rng(3)
        conv = Conv3x3(2, 3, rng)
        conv.params["bias"] = rng.normal(0.0, 1.0, 3).astype(np.float32)
        x = rng.standard_normal((2, 6, 5, 2)).astype(np.float32)
        cols = np.stack([x[:, i:i + 4, j:j + 3] for i in range(3)
                         for j in range(3)], axis=3).reshape(24, 18)
        expect = (cols @ conv.params["kernel"].reshape(18, 3)
                  + conv.params["bias"]).reshape(2, 4, 3, 3)
        out = conv.forward(np.ascontiguousarray(x.transpose(3, 0, 1, 2)))
        assert out.shape == (3, 2, 4, 3)
        assert np.array_equal(out.transpose(1, 2, 3, 0), expect)

    def test_flatten_rows_in_height_width_channel_order(self):
        # the order of the dense weights in weights.npz
        x = np.random.default_rng(6).standard_normal((2, 5, 3, 4))
        rows = x.transpose(0, 2, 3, 1).reshape(2, -1)
        flat = layers.Flatten()
        assert np.array_equal(flat.forward(planes(x)), rows)
        assert np.array_equal(flat.backward(rows), planes(x))

    def test_planes_conv_matches_columns_in_any_bands(self, monkeypatch):
        rng = np.random.default_rng(4)
        kernel = rng.standard_normal((3, 3, 2, 3)).astype(np.float32)
        x = rng.standard_normal((2, 9, 7, 2)).astype(np.float32)
        cols = np.stack([x[:, i:i + 7, j:j + 5] for i in range(3)
                         for j in range(3)], axis=3).reshape(70, 18)
        expect = (cols @ kernel.reshape(18, 3)).reshape(2, 7, 5, 3)
        planes = np.ascontiguousarray(x.transpose(3, 0, 1, 2))
        whole = Conv3x3.convolve_planes(planes, kernel)  # one band per image
        assert whole.shape == (3, 2, 7, 5)
        np.testing.assert_allclose(whole.transpose(1, 2, 3, 0), expect,
                                   rtol=1e-6, atol=1e-6)
        # bands of 3, 3 and 1 output rows, and of one row each
        for band_values in (270, 1):
            monkeypatch.setattr(layers, "BAND_VALUES", band_values)
            assert np.array_equal(Conv3x3.convolve_planes(planes, kernel),
                                  whole)

    def test_conv_gradients_in_any_bands(self, monkeypatch):
        # the kernel gradient sums band products; the input gradient is the
        # full correlation with the flipped kernel
        rng = np.random.default_rng(5)
        conv = Conv3x3(2, 3, rng, dtype=np.float64)
        x = rng.standard_normal((2, 2, 9, 7))
        dout = rng.standard_normal((3, 2, 7, 5))
        cols = np.stack([x[:, :, i:i + 7, j:j + 5] for i in range(3)
                         for j in range(3)])  # (9, C, B, 7, 5)
        want_kernel = np.einsum("kcbhw,obhw->kco", cols, dout) \
            .reshape(3, 3, 2, 3)
        want_dx = np.zeros_like(x)
        for i in range(3):
            for j in range(3):
                want_dx[:, :, i:i + 7, j:j + 5] += np.einsum(
                    "co,obhw->cbhw", conv.params["kernel"][i, j], dout)
        for band_values in (2 ** 16, 270, 1):
            monkeypatch.setattr(layers, "BAND_VALUES", band_values)
            conv.forward(x)
            dx = conv.backward(dout)
            np.testing.assert_allclose(conv.grads["kernel"], want_kernel,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(conv.grads["bias"],
                                       dout.sum(axis=(1, 2, 3)), rtol=1e-12)
            np.testing.assert_allclose(dx, want_dx, rtol=1e-12, atol=1e-12)


class TestAdam:
    class Stub:
        def __init__(self, layer):
            self.layer = layer

        def named_params(self):
            yield "dense.weight", self.layer, "weight"
            yield "dense.bias", self.layer, "bias"

    def test_first_step_is_signed_lr(self):
        layer = Dense(2, 2, substream(0, "init"), dtype=np.float64)
        before = layer.params["weight"].copy()
        g = np.array([[1.0, -2.0], [0.5, -0.25]])
        layer.grads["weight"] = g
        layer.grads["bias"] = np.zeros(2)
        opt = Adam(self.Stub(layer), lr=0.0025)
        opt.step()
        step = before - layer.params["weight"]
        # bias-corrected first step moves each weight by ~lr * sign(grad)
        assert np.allclose(step, 0.0025 * np.sign(g), rtol=1e-6)

    def test_zero_gradient_no_motion(self):
        layer = Dense(2, 2, substream(0, "init"), dtype=np.float64)
        before = layer.params["weight"].copy()
        layer.grads["weight"] = np.zeros((2, 2))
        layer.grads["bias"] = np.zeros(2)
        opt = Adam(self.Stub(layer), lr=0.0025)
        opt.step()
        assert np.array_equal(layer.params["weight"], before)


class TestTraining:
    def test_plateau_schedule_decays_learning_rate(self):
        # zero data: loss and gradients vanish, so validation never improves
        # after epoch 1 and the rate drops by 10x after the patience window
        model = small_model(seed=0)
        images = np.zeros((8, 4, 16, 16), dtype=np.float32)
        targets = np.zeros((8, 3))
        schedule = TrainSection(epochs=12, batch_size=4,
                                learning_rate=0.0025, patience=10)
        result = train(model, images, targets, images, targets, schedule,
                       seed=0)
        lrs = [rec.lr for rec in result.history]
        assert lrs[:11] == [0.0025] * 11
        assert lrs[11] == pytest.approx(0.00025)
        assert result.best_epoch == 1

    def test_best_checkpoint_restored(self):
        rng = np.random.default_rng(0)
        images, targets = synthetic_dataset(rng, 16)
        stats = compute_stats(images.astype(float), targets, np.arange(12))
        prep = np.stack([preprocess(images[i].astype(float), targets[i],
                                    stats)[0] for i in range(16)])
        tgt = np.stack([preprocess(images[i].astype(float), targets[i],
                                   stats)[1] for i in range(16)])
        model = small_model(seed=1)
        schedule = TrainSection(epochs=4, batch_size=4)
        result = train(model, prep[:12].astype(np.float32), tgt[:12],
                       prep[12:].astype(np.float32), tgt[12:], schedule,
                       seed=0)
        final_val = mse(model.forward(prep[12:].astype(np.float32)),
                        tgt[12:])
        assert final_val == pytest.approx(result.best_val_loss, rel=1e-12)
        assert 1 <= result.best_epoch <= 4
        assert len(result.history) == 4

    def test_training_reduces_loss(self):
        model = small_model(seed=2)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((32, 4, 16, 16)).astype(np.float32)
        t = 0.1 * rng.standard_normal((32, 3))
        schedule = TrainSection(epochs=10, batch_size=8)
        result = train(model, x, t, x, t, schedule, seed=0)
        assert result.best_val_loss < result.history[0].val_loss

    def test_empty_training_split_rejected(self):
        with pytest.raises(ValueError):
            train(small_model(), np.zeros((0, 4, 16, 16)), np.zeros((0, 3)),
                  np.zeros((1, 4, 16, 16), dtype=np.float32), np.zeros((1, 3)),
                  TrainSection(epochs=1), seed=0)

    def test_history_csv(self, tmp_path):
        import csv
        model = small_model(seed=0)
        images = np.zeros((4, 4, 16, 16), dtype=np.float32)
        targets = np.zeros((4, 3))
        result = train(model, images, targets, images, targets,
                       TrainSection(epochs=3, batch_size=2), seed=0)
        path = tmp_path / "history.csv"
        write_history_csv(result, path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        assert rows[0]["epoch"] == "1"
        assert float(rows[2]["lr"]) == 0.0025

    def test_learning_rate_recorded_without_epochs(self):
        model = small_model(seed=0)
        images = np.zeros((4, 4, 16, 16), dtype=np.float32)
        targets = np.zeros((4, 3))
        train(model, images, targets, images, targets,
              TrainSection(epochs=0, learning_rate=0.01), seed=0)
        assert model.training_state.learning_rate == 0.01


class TestMetrics:
    def test_hand_example(self):
        t = np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 3.0]])
        p = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 3.0]])
        with pytest.raises(ValueError):
            compute_metrics(p, t)  # zero-variance middle component
        t = np.array([[0.0, -1.0, 1.0], [2.0, 1.0, 3.0]])
        m = compute_metrics(p, t)
        # component 0: residuals (1, -1), var = 1 -> R2 = 0, NRMSE = 1
        assert m.r2[0] == pytest.approx(0.0)
        assert m.nrmse[0] == pytest.approx(1.0)
        assert m.r2[2] == pytest.approx(1.0)
        assert m.nrmse[2] == pytest.approx(0.0)
        assert m.mse == pytest.approx(np.mean([1 + 1 + 0, 1 + 1 + 0]))
        assert m.r2_mean == pytest.approx(np.mean(m.r2))

    def test_constant_mean_predictor_scores_zero(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((100, 3))
        p = np.tile(t.mean(axis=0), (100, 1))
        m = compute_metrics(p, t)
        assert np.allclose(m.r2, 0.0, atol=1e-12)
        assert np.allclose(m.nrmse, 1.0, rtol=1e-12)

    def test_perfect_predictor(self):
        t = np.random.default_rng(1).standard_normal((10, 3))
        m = compute_metrics(t.copy(), t)
        assert np.allclose(m.r2, 1.0)
        assert m.mse == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics(np.zeros((3, 3)), np.zeros((4, 3)))


class TestPrediction:
    def make_fixture(self):
        rng = np.random.default_rng(0)
        images, targets = synthetic_dataset(rng, 8)
        stats = compute_stats(images.astype(float), targets, np.arange(8))
        model = SurrogateModel(SMALL_ARCH, seed=4, stats=stats)
        return model, images, stats

    def test_matches_manual_inverse(self):
        model, images, stats = self.make_fixture()
        kxx, kxy, kyy = predict_samples(model, images[:1].astype(float))[0]
        img, _, xbar = preprocess(images[0].astype(float), None, stats)
        _, raw = inverse_preprocess(
            None,
            model.forward(img[None].astype(np.float32))[0].astype(float),
            stats, xbar)
        assert kxx == pytest.approx(raw[0], rel=1e-12)
        assert kxy == pytest.approx(raw[1], rel=1e-12)
        assert kyy == pytest.approx(raw[2], rel=1e-12)
        assert kxx > 0 and kyy > 0  # log parameterization

    def test_batched_preprocessing_matches_per_sample(self):
        model, images, stats = self.make_fixture()
        rasters = images[:5].astype(float)
        prep, _, xbars = preprocess(rasters, None, stats)
        singles = [preprocess(image, None, stats) for image in rasters]
        outs = model.forward(np.asarray([img for img, _, _ in singles],
                                        np.float32))
        preds = predict_samples(model, rasters)
        for i, (img, _, xbar) in enumerate(singles):
            assert np.array_equal(prep[i], img)
            assert xbars[i] == xbar
            assert np.array_equal(
                preds[i],
                inverse_preprocess(None, outs[i].astype(float), stats,
                                   xbar)[1])

    def test_stats_mismatch_rejected(self, tmp_path):
        # statistics edited after save no longer match model.json
        model, _, stats = self.make_fixture()
        model.save(tmp_path / "m")
        other = {k: {kk: {"avg": vv["avg"] + 1.0, "std": vv["std"]}
                     for kk, vv in v.items()} for k, v in stats.items()}
        with open(tmp_path / "m" / "stats.json", "w") as f:
            json.dump(other, f, indent=2)
        with pytest.raises(ValueError, match="statistics"):
            SurrogateModel.load(tmp_path / "m")

    def test_model_without_stats_rejected(self):
        _, images, _ = self.make_fixture()
        with pytest.raises(ValueError, match="statistics"):
            predict_samples(small_model(seed=4), images[:1].astype(float))

    def test_batch_matches_single(self):
        model, images, stats = self.make_fixture()
        rasters = images[:5].astype(float)
        batch = predict_samples(model, rasters)
        assert batch.shape == (5, 3)
        for i in range(5):
            single = predict_samples(model, rasters[i:i + 1])[0]
            assert np.allclose(batch[i], single, rtol=1e-6)

    def test_evaluate_and_batches(self, monkeypatch):
        model, images, stats = self.make_fixture()
        x = images.astype(np.float32)
        whole = model.forward(x)
        # batches of 3, 3 and 2 predict what one batch of 8 does
        monkeypatch.setattr(model_module, "PREDICT_BATCH", 3)
        preds = model.forward(x)
        assert preds.shape == (8, 3)
        assert np.allclose(preds, whole, rtol=1e-6)
        t = preds + np.random.default_rng(2).standard_normal((8, 3))
        m = evaluate(model, x, t)
        assert m.mse == pytest.approx(mse(model.forward(x), t), rel=1e-9)


class TestSerialization:
    def test_save_load_identical_predictions(self, tmp_path):
        stats = {"input": {"kxy": {"avg": 0.5, "std": 2.0}},
                 "target": {"kxy": {"avg": -0.5, "std": 3.0}}}
        model = SurrogateModel(SMALL_ARCH, seed=9, stats=stats)
        model.training_state.epoch = 5
        # give batchnorm non-trivial running state
        x = np.random.default_rng(0).standard_normal((4, 4, 16, 16)) \
            .astype(np.float32)
        train_pass(model, x)
        model.save(tmp_path / "m")
        assert sorted(p.name for p in (tmp_path / "m").iterdir()) == \
            ["model.json", "stats.json", "weights.npz"]
        back = SurrogateModel.load(tmp_path / "m")
        assert back.stats == stats
        assert back.training_state.epoch == 5
        assert np.array_equal(back.forward(x), model.forward(x))
