import numpy as np
import pytest

from dfm_upscale.dataset_pipeline import (compute_stats, inverse_target,
                                          preprocess)
from dfm_upscale.rasterizer import RasterSample
from dfm_upscale.config import TrainSection, fingerprint
from dfm_upscale.surrogate import (Adam, Architecture, SurrogateModel,
                                   compute_metrics, evaluate,
                                   predict_in_batches, predict_samples, train,
                                   validation_loss, write_history_csv)
from dfm_upscale.surrogate.layers import (BatchNorm, Conv3x3, Dense, MaxPool2,
                                         ReLU)
from dfm_upscale.seeding import substream

from conftest import finite_difference_grad_errors, reference_architecture

SMALL_ARCH = Architecture(resolution=16, conv_channels=(2, 3),
                          dense_widths=(8, 8, 8))


def small_model(seed=0, dtype=np.float32):
    return SurrogateModel(SMALL_ARCH, seed=seed, dtype=dtype)


def synthetic_dataset(rng, n, r=16):
    images = np.exp(rng.normal(-6.0, 0.5, (n, r, r, 4))).astype(np.float32)
    images[..., 1] = rng.normal(0.0, 1e-8, (n, r, r))
    images[..., 3] = 1.0
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
        assert Architecture.from_dict(SMALL_ARCH.to_dict()) == SMALL_ARCH


class TestForward:
    def test_output_shape_and_intermediates(self):
        model = small_model()
        arch = model.architecture
        x = np.random.default_rng(0).standard_normal((2, 16, 16, 4))
        out = model.forward(x.astype(np.float32))
        assert out.shape == (2, 3)
        # every layer's output against the sides the architecture predicts
        shapes = {}
        h = x.astype(np.float32)
        for name, layer in zip(model.layer_names, model.layers):
            h = layer.forward(h, False)
            shapes[name] = h.shape[1:]
        assert arch.stage_sides() == [7, 2]
        assert [shapes[f"pool{i}"] for i in range(2)] == [
            (side, side, c)
            for side, c in zip(arch.stage_sides(), arch.conv_channels)]
        assert shapes["flatten"] == (arch.flatten_width,) == (12,)
        assert shapes["output"] == (3,)

    def test_fresh_model_maps_zero_to_zero(self):
        # zero biases/shifts everywhere: the all-zero image stays zero
        model = small_model()
        out = model.forward(np.zeros((3, 16, 16, 4), dtype=np.float32))
        assert np.all(out == 0.0)

    def test_identical_inputs_identical_outputs(self):
        model = small_model(seed=3)
        row = np.random.default_rng(1).standard_normal((16, 16, 4))
        batch = np.stack([row, row, row]).astype(np.float32)
        out = model.forward(batch)
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[0], out[2])

    def test_inference_keeps_no_backward_state(self):
        model = small_model()
        x = np.random.default_rng(3).standard_normal((4, 16, 16, 4)) \
            .astype(np.float32)
        model.loss_and_backward(x, np.zeros((4, 3)))  # fills every cache
        assert all(layer._cache is not None for layer in model.layers)
        model.forward(x, train=False)
        assert all(layer._cache is None for layer in model.layers)

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5),
                                             (np.float64, 1e-12)])
    def test_folded_eval_matches_layer_composition(self, dtype, rtol):
        arch = Architecture(resolution=32, conv_channels=(4, 6, 8),
                            dense_widths=(16,))
        model = SurrogateModel(arch, seed=2, dtype=dtype)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 32, 32, 4)).astype(dtype)
        bns = [layer for layer in model.layers
               if isinstance(layer, BatchNorm)]
        for _ in range(2):  # the fold follows the current moments
            for bn in bns:
                c = len(bn.running_mean)
                bn.running_mean = rng.normal(0.0, 0.5, c)
                bn.running_var = rng.uniform(0.05, 4.0, c)
                bn.params["scale"] = rng.uniform(0.3, 2.0, c).astype(dtype) \
                    * np.where(np.arange(c) % 2, -1, 1).astype(dtype)
                bn.params["shift"] = rng.normal(0.0, 0.3, c).astype(dtype)
            ref = x
            for layer in model.layers:
                ref = layer.forward(ref, False)
            out = model.forward(x)
            assert out.dtype == ref.dtype == dtype
            assert np.max(np.abs(out - ref)) <= rtol * np.max(np.abs(ref))

    def test_train_path_is_the_layer_composition(self):
        # the train forward and backward run every layer in turn
        model = small_model(seed=5)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 16, 16, 4)).astype(np.float32)
        t = rng.standard_normal((4, 3))
        ref = x
        for layer in model.layers:
            ref = layer.forward(ref, True)
        dout = (2.0 / len(x)) * (ref - t.astype(ref.dtype))
        for layer in reversed(model.layers):
            dout = layer.backward(dout)
        grads = {name: layer.grads[key].copy()
                 for name, layer, key in model.named_params()}
        assert np.array_equal(model.forward(x, train=True), ref)
        model.loss_and_backward(x, t)
        assert all(np.array_equal(layer.grads[key], grads[name])
                   for name, layer, key in model.named_params())

    def test_wrong_input_shape_rejected(self):
        model = small_model()
        with pytest.raises(ValueError, match="expected"):
            model.forward(np.zeros((1, 8, 8, 4), dtype=np.float32))

    def test_deterministic_init(self):
        a = small_model(seed=7)
        b = small_model(seed=7)
        pa, _ = a.copy_params()
        pb, _ = b.copy_params()
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)


class TestLossAndGradients:
    def test_zero_loss_zero_grads(self):
        model = small_model(seed=1)
        x = np.random.default_rng(2).standard_normal((4, 16, 16, 4)) \
            .astype(np.float32)
        preds = model.forward(x, train=True)
        loss = model.loss_and_backward(x, preds)
        assert loss == pytest.approx(0.0, abs=1e-12)
        for _, layer, key in model.named_params():
            assert np.allclose(layer.grads[key], 0.0, atol=1e-10)

    def test_residual_doubling_quadruples_loss(self):
        model = small_model(seed=1)
        x = np.random.default_rng(3).standard_normal((4, 16, 16, 4)) \
            .astype(np.float32)
        preds = model.forward(x, train=True)
        d = np.random.default_rng(4).standard_normal(preds.shape)
        l1 = model.loss_and_backward(x, preds - d)
        l2 = model.loss_and_backward(x, preds - 2 * d)
        assert l2 == pytest.approx(4.0 * l1, rel=1e-5)

    def test_finite_difference_gradient_check(self):
        model = SurrogateModel(SMALL_ARCH, seed=0, dtype=np.float64)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 16, 16, 4))
        t = rng.standard_normal((2, 3))
        errors = finite_difference_grad_errors(model, x, t, eps=1e-3)
        assert errors  # every parameter tensor was checked
        for name, err in errors.items():
            assert err < 1e-4, f"{name}: max relative gradient error {err}"

    def test_nan_loss_rejected(self):
        model = small_model()
        x = np.zeros((1, 16, 16, 4), dtype=np.float32)
        with pytest.raises(FloatingPointError):
            model.loss_and_backward(x, np.full((1, 3), np.nan))


class TestBatchNorm:
    def test_train_mode_batch_statistics(self):
        bn = BatchNorm(3, dtype=np.float64)
        x = np.random.default_rng(0).normal(5.0, 2.0, (8, 6, 6, 3))
        y = bn.forward(x, train=True)
        mean = y.mean(axis=(0, 1, 2))
        var = y.var(axis=(0, 1, 2))
        assert np.all(np.abs(mean) < 1e-6)
        assert np.all(np.abs(var - 1.0) < 1e-4)

    def test_eval_mode_uses_running_moments(self):
        bn = BatchNorm(2, dtype=np.float64)
        rng = np.random.default_rng(1)
        for _ in range(200):
            bn.forward(rng.normal(3.0, 1.5, (16, 4, 4, 2)), train=True)
        x = rng.normal(3.0, 1.5, (16, 4, 4, 2))
        y = bn.forward(x, train=False)
        expect = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        assert np.allclose(y, expect)
        assert np.allclose(bn.running_mean, 3.0, atol=0.1)

    def test_state_round_trip(self):
        bn = BatchNorm(2)
        bn.forward(np.random.default_rng(2).normal(1.0, 1.0, (4, 3, 3, 2)),
                   train=True)
        st = bn.state()
        fresh = BatchNorm(2)
        fresh.load_state(st)
        assert np.array_equal(fresh.running_mean, bn.running_mean)
        assert np.array_equal(fresh.running_var, bn.running_var)


class TestInferenceKernels:
    """The inference arithmetic gives the same bits as the plain formulas."""

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32),
                                             (np.float64, np.uint64)])
    def test_relu_matches_where(self, dtype, bits):
        x = np.random.default_rng(0).standard_normal((2, 5, 5, 3)) \
            .astype(dtype)
        x.flat[:6] = [-0.0, np.nan, 0.0, np.inf, -np.inf, 1e-45]
        for sub in (x, x[:1, :1, :1, :2]):
            y = ReLU().forward(sub, train=False)
            assert np.array_equal(y.view(bits),
                                  np.where(sub > 0, sub, 0).view(bits))

    def test_maxpool_inference_matches_argmax_path(self):
        x = np.random.default_rng(1).standard_normal((3, 7, 9, 4))
        x = np.where(x > 0, x, 0).astype(np.float32)
        pool = MaxPool2()
        assert np.array_equal(pool.forward(x, train=False),
                              pool.forward(x, train=True))

    def test_batchnorm_matches_channel_broadcast(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm(5)
        bn.running_mean = rng.normal(0.0, 1.0, 5)
        bn.running_var = rng.uniform(0.5, 2.0, 5)
        bn.params["scale"] = rng.normal(1.0, 0.3, 5).astype(np.float32)
        bn.params["shift"] = rng.normal(0.0, 0.3, 5).astype(np.float32)
        x = rng.standard_normal((3, 6, 7, 5)).astype(np.float32)
        inv_std = (1.0 / np.sqrt(bn.running_var + bn.eps)).astype(np.float32)
        expect = ((x - bn.running_mean.astype(np.float32)) * inv_std
                  * bn.params["scale"] + bn.params["shift"])
        assert np.array_equal(bn.forward(x, train=False), expect)

    def test_conv_columns_in_kernel_order(self):
        rng = np.random.default_rng(3)
        conv = Conv3x3(2, 3, rng)
        conv.params["bias"] = rng.normal(0.0, 1.0, 3).astype(np.float32)
        x = rng.standard_normal((2, 6, 5, 2)).astype(np.float32)
        cols = np.stack([x[:, i:i + 4, j:j + 3] for i in range(3)
                         for j in range(3)], axis=3).reshape(24, 18)
        expect = (cols @ conv.params["kernel"].reshape(18, 3)
                  + conv.params["bias"]).reshape(2, 4, 3, 3)
        assert np.array_equal(conv.forward(x, train=False), expect)


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
        images = np.zeros((8, 16, 16, 4), dtype=np.float32)
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
        final_val = validation_loss(model, prep[12:].astype(np.float32),
                                    tgt[12:], 4)
        assert final_val == pytest.approx(result.best_val_loss, rel=1e-12)
        assert 1 <= result.best_epoch <= 4
        assert len(result.history) == 4

    def test_training_reduces_loss(self):
        model = small_model(seed=2)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((32, 16, 16, 4)).astype(np.float32)
        t = 0.1 * rng.standard_normal((32, 3))
        schedule = TrainSection(epochs=10, batch_size=8)
        result = train(model, x, t, x, t, schedule, seed=0)
        assert result.best_val_loss < result.history[0].val_loss

    def test_empty_training_split_rejected(self):
        with pytest.raises(ValueError):
            train(small_model(), np.zeros((0, 16, 16, 4)), np.zeros((0, 3)),
                  np.zeros((1, 16, 16, 4), dtype=np.float32), np.zeros((1, 3)),
                  TrainSection(epochs=1), seed=0)

    def test_history_csv(self, tmp_path):
        import csv
        model = small_model(seed=0)
        images = np.zeros((4, 16, 16, 4), dtype=np.float32)
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
        model = small_model(seed=4)
        model.stats_hash = fingerprint(stats)
        return model, images, stats

    def test_matches_manual_inverse(self):
        model, images, stats = self.make_fixture()
        sample = RasterSample(image=images[0].astype(float))
        kxx, kxy, kyy = predict_samples(model, [sample], stats)[0]
        img, _, xbar = preprocess(images[0].astype(float), None, stats)
        raw = inverse_target(
            model.forward(img[None].astype(np.float32))[0].astype(float),
            stats, xbar)
        assert kxx == pytest.approx(raw[0], rel=1e-12)
        assert kxy == pytest.approx(raw[1], rel=1e-12)
        assert kyy == pytest.approx(raw[2], rel=1e-12)
        assert kxx > 0 and kyy > 0  # log parameterization

    def test_batched_preprocessing_matches_per_sample(self):
        model, images, stats = self.make_fixture()
        samples = [RasterSample(image=images[i].astype(float))
                   for i in range(5)]
        prep, _, xbars = preprocess(
            np.stack([s.image for s in samples]), None, stats)
        singles = [preprocess(s.image, None, stats) for s in samples]
        outs = model.forward(np.asarray([img for img, _, _ in singles],
                                        np.float32))
        preds = predict_samples(model, samples, stats)
        for i, (img, _, xbar) in enumerate(singles):
            assert np.array_equal(prep[i], img)
            assert xbars[i] == xbar
            assert np.array_equal(
                preds[i], inverse_target(outs[i].astype(float), stats, xbar))

    def test_stats_mismatch_rejected(self):
        model, images, stats = self.make_fixture()
        other = {k: {kk: {"avg": vv["avg"] + 1.0, "std": vv["std"]}
                     for kk, vv in v.items()} for k, v in stats.items()}
        with pytest.raises(ValueError, match="statistics"):
            predict_samples(model,
                            [RasterSample(image=images[0].astype(float))],
                            other)

    def test_batch_matches_single(self):
        model, images, stats = self.make_fixture()
        samples = [RasterSample(image=images[i].astype(float))
                   for i in range(5)]
        batch = predict_samples(model, samples, stats)
        assert batch.shape == (5, 3)
        for i, s in enumerate(samples):
            single = predict_samples(model, [s], stats)[0]
            assert np.allclose(batch[i], single, rtol=1e-6)

    def test_evaluate_and_batches(self):
        model, images, stats = self.make_fixture()
        x = images.astype(np.float32)
        preds = predict_in_batches(model, x, batch_size=3)
        assert preds.shape == (8, 3)
        t = preds + np.random.default_rng(2).standard_normal((8, 3))
        m = evaluate(model, x, t, batch_size=3)
        assert m.mse == pytest.approx(
            validation_loss(model, x, t, 3), rel=1e-9)


class TestSerialization:
    def test_save_load_identical_predictions(self, tmp_path):
        model = small_model(seed=9)
        model.stats_hash = "abc"
        model.training_state.epoch = 5
        # give batchnorm non-trivial running state
        x = np.random.default_rng(0).standard_normal((4, 16, 16, 4)) \
            .astype(np.float32)
        model.forward(x, train=True)
        model.save(tmp_path / "m")
        back = SurrogateModel.load(tmp_path / "m")
        assert back.stats_hash == "abc"
        assert back.training_state.epoch == 5
        assert np.array_equal(back.forward(x), model.forward(x))
