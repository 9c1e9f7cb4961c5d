"""End-to-end acceptance checks for the upscaling pipeline and surrogate.

Each test prints one CRITERION nn: PASS/FAIL line (visible with pytest -s or
in captured output on failure) and then asserts, so a red test still reports
its measured numbers.
"""

import sys
import time

import numpy as np
import pytest

from dfm_upscale.bench import bench_anisotropy, bench_aquifer, bench_speedup
from dfm_upscale.config import RunConfig, TrainSection
from dfm_upscale.dataset_pipeline import (compute_stats, generate_dataset,
                                          inverse_preprocess, preprocess)
from dfm_upscale.frac_geom import (PowerLawSpec, calibrate_alpha,
                                   generate_dfn)
from dfm_upscale.geometry import Rect
from dfm_upscale.homogenizer import (anisotropy_tensor, build_block_grid,
                                     numeric_backend, upscale_domain)
from dfm_upscale.random_field import Grid, sample_gaussian_field, \
    sample_tensor_field
from dfm_upscale.rasterizer import rasterize_block
from dfm_upscale.surrogate import (Architecture, SurrogateModel,
                                   compute_metrics, evaluate, predict_samples,
                                   train)

from conftest import (CONSTANTS, finite_difference_grad_errors,
                      layered_field, reference_architecture, same_fractures,
                      uniform_field)
from test_homogenizer import scaled_problem


def report(num, ok, detail):
    line = f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # also bypass pytest capture
        print(line, file=sys.__stdout__)
    return ok


# ---------------------------------------------------------------------------
# shared desk-scale dataset and trained surrogate (criteria 8 and 12)

DESK_SEED = 123
DESK_EPOCHS = 20


@pytest.fixture(scope="session")
def desk_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk") / "dataset"
    cfg = RunConfig.from_dict({
        "dataset": {"ratio_class": "A", "n_samples": 2048,
                    "lambdas": [0.0, 2.0, 5.0]},
        "raster": {"resolution": 64}})
    manifest, stats = generate_dataset(cfg, seed=DESK_SEED, out_dir=out)
    return out, manifest, stats


@pytest.fixture(scope="session")
def desk_model(desk_dataset):
    from dfm_upscale.cli import _preprocessed_splits
    out, manifest, _ = desk_dataset
    images, targets, splits, _, stats = _preprocessed_splits(out)
    arch = Architecture(resolution=64, conv_channels=(8, 16, 32),
                        dense_widths=(64, 64))
    model = SurrogateModel(arch, seed=0)
    schedule = TrainSection(epochs=DESK_EPOCHS, batch_size=64)
    result = train(model, images[splits["train"]], targets[splits["train"]],
                   images[splits["val"]], targets[splits["val"]], schedule,
                   seed=0)
    metrics = evaluate(model, images[splits["test"]],
                       targets[splits["test"]])
    return model, stats, result, metrics


# ---------------------------------------------------------------------------


def test_criterion_01_constant_tensor_identity(unit_rect):
    kxx, kxy, kyy = 2e-6, 3e-7, 1e-6
    field = uniform_field(unit_rect, kxx, kxy, kyy)
    t0 = time.perf_counter()
    k, _ = anisotropy_tensor(field, None, unit_rect, 32)
    elapsed = time.perf_counter() - t0
    err = np.max(np.abs(k - [kxx, kxy, kyy])
                 / np.abs([kxx, kxy, kyy]))
    ok = err < 1e-8 and elapsed < 1.0
    assert report(1, ok, f"constant tensor recovered, max rel err "
                         f"{err:.2e}, {elapsed:.3f} s")
    assert err < 1e-8
    assert elapsed < 1.0


def test_criterion_02_layered_medium(unit_rect):
    # The tensor fit prescribes the head h = y on all four sides (a Dirichlet
    # condition), so for a finite stack the apparent k_yy lies above the
    # harmonic mean and at most at the arithmetic mean, and it converges to
    # the harmonic mean at first order in layer thickness over block size
    # (Renard & de Marsily, Adv. Water Resour. 1997). Measured at contrast
    # 100 with one element per layer: k_yy is 110.3 / 54.7 / 27.2 / 13.6 /
    # 6.8 % above the harmonic mean at 32 / 64 / 128 / 256 / 512 layers
    # (error x layers 34.7-35.3), so 2 % in a single solve would take about
    # 1750 layers, and two or four elements per layer at 128 layers still
    # leave 16.8 / 12.7 %. The criterion therefore checks the bounds at 64
    # and 128 layers, the first-order ratio of their k_yy errors, and that
    # the Richardson limit 2 k_yy(128) - k_yy(64) is the harmonic mean
    # within 2 % (measured ratio 0.498, limit -0.25 %).
    k_pair = [1e-6, 1e-8]   # the stack alternates these two layers
    arith = float(np.mean(k_pair))
    harm = float(len(k_pair) / np.sum(1.0 / np.asarray(k_pair)))
    kxx, kyy = {}, {}
    for n_layers in (64, 128):
        field = layered_field(unit_rect, k_pair * (n_layers // 2), n=n_layers)
        t0 = time.perf_counter()
        (kxx[n_layers], _, kyy[n_layers]), _ = anisotropy_tensor(
            field, None, unit_rect, n_layers)
        elapsed = time.perf_counter() - t0   # kept: the 128-layer solve
    err_xx = max(abs(k - arith) / arith for k in kxx.values())
    err_yy = {n: (k - harm) / harm for n, k in kyy.items()}
    ratio = err_yy[128] / err_yy[64]
    err_lim = (2.0 * kyy[128] - kyy[64] - harm) / harm
    bounded = all(harm < k <= arith for k in kyy.values())
    ok = (elapsed < 10.0 and err_xx < 0.02 and bounded
          and abs(ratio - 0.5) < 0.05 and abs(err_lim) < 0.02)
    report(2, ok, f"layered medium: k_xx err {err_xx:.2e} (arithmetic), "
                  f"k_yy err {err_yy[64]:.3f} at 64 / {err_yy[128]:.3f} at "
                  f"128 layers, ratio {ratio:.3f} (0.5 +/- 0.05), "
                  f"extrapolated k_yy err {err_lim:.2e} (harmonic), "
                  f"{elapsed:.2f} s")
    assert elapsed < 10.0
    assert err_xx < 0.02
    assert bounded, f"k_yy {kyy} outside (harmonic {harm:.3e}, " \
                    f"arithmetic {arith:.3e}]"
    assert abs(ratio - 0.5) < 0.05, \
        f"k_yy error ratio 128/64 layers: {ratio:.3f} (first order: 0.5)"
    assert abs(err_lim) < 0.02, \
        f"extrapolated k_yy vs harmonic mean: {err_lim:.3f} relative " \
        f"(limit 0.02)"


def test_criterion_03_scale_equivariance():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(20):
        scale = float(10.0 ** rng.uniform(-2.0, 3.0))
        (f, net, rect), (fs, nets, rects) = scaled_problem(scale, seed=i)
        eq, _ = anisotropy_tensor(f, net, rect, 16)
        eq_s, _ = anisotropy_tensor(fs, nets, rects, 16)
        worst = max(worst, float(np.max(np.abs(eq_s - scale ** 2 * eq)
                                        / np.abs(scale ** 2 * eq))))
    ok = worst < 1e-8
    assert report(3, ok, f"20 instances, max rel deviation {worst:.2e}")
    assert worst < 1e-8


def test_criterion_04_calibrated_fracture_count():
    side = 114.28
    domain = Rect(0.0, 0.0, side, side)
    alpha = calibrate_alpha(1500.0, 10.0, side * side, 4.325, 100.0)
    spec = PowerLawSpec(alpha, 4.325, 100.0)
    counts = [len(generate_dfn(spec, 10.0, domain, 1e-4, CONSTANTS, seed=s))
              for s in range(50)]
    mean = float(np.mean(counts))
    ok = abs(mean - 1500.0) / 1500.0 < 0.15
    assert report(4, ok, f"alpha {alpha:.3f}, mean count {mean:.1f} "
                         f"over 50 realizations (target 1500 +/- 15%)")
    assert ok


def test_criterion_05_random_field_statistics():
    grid = Grid(320, 320, 1.0)   # 102400 >= 1e5 cells
    lam = 10.0
    chol = np.linalg.cholesky(np.array([[0.25, 0.2], [0.2, 0.25]]))
    ktx = sample_gaussian_field(grid, lam, seed=0, tag="logk-x").values
    kty = sample_gaussian_field(grid, lam, seed=0, tag="logk-y").values
    log_kx = -6.0 + chol[0, 0] * ktx
    log_ky = -5.8 + chol[1, 0] * ktx + chol[1, 1] * kty
    var = float(log_kx.var())
    cov = float(np.cov(log_kx.ravel(), log_ky.ravel())[0, 1])
    lag = int(lam)
    ktx_c = ktx - ktx.mean()
    corr = float(np.mean(ktx_c[:, :-lag] * ktx_c[:, lag:]) / ktx.var())
    ok = (abs(var - 0.25) / 0.25 < 0.10
          and abs(cov - 0.20) / 0.20 < 0.15
          and abs(corr - np.exp(-1.0)) < 0.05)
    assert report(5, ok, f"var(log k_x) {var:.4f} (0.25 +/- 10%), "
                         f"cov {cov:.4f} (0.20 +/- 15%), corr at lag "
                         f"lambda {corr:.4f} (e^-1 +/- 0.05)")
    assert ok


def test_criterion_06_reference_network_shapes():
    model = SurrogateModel(reference_architecture(), seed=0)
    x = np.random.default_rng(0).standard_normal((1, 256, 256, 4)) \
        .astype(np.float32)
    sides = []
    flat_width = None
    for name, layer in zip(model.layer_names, model.layers):
        x = layer.forward(x, False)
        if name.startswith("pool"):
            sides.append(x.shape[1])
        if name == "flatten":
            flat_width = x.shape[1]
    ok = sides == [127, 62, 30, 14, 6] and flat_width == 9216 \
        and x.shape == (1, 3)
    assert report(6, ok, f"stage sides {sides}, flatten {flat_width} "
                         "(expect 127/62/30/14/6 and 9216)")
    assert ok


def test_criterion_07_gradient_fidelity():
    arch = Architecture(resolution=16, conv_channels=(2, 3),
                        dense_widths=(8, 8, 8))
    model = SurrogateModel(arch, seed=0, dtype=np.float64)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 16, 16, 4))
    t = rng.standard_normal((2, 3))
    t0 = time.perf_counter()
    errors = finite_difference_grad_errors(model, x, t, eps=1e-3)
    elapsed = time.perf_counter() - t0
    worst = max(errors.values())
    ok = worst < 1e-4 and elapsed < 60.0
    assert report(7, ok, f"{len(errors)} parameter tensors, worst rel "
                         f"error {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_08_desk_training_learns(desk_model):
    model, stats, result, metrics = desk_model
    first = result.history[0].val_loss
    best = result.best_val_loss
    ok = best <= 0.5 * first and metrics.r2_mean > 0.0
    assert report(8, ok, f"epoch-1 val MSE {first:.4f} -> best {best:.4f} "
                         f"({best / first:.2f}x), test mean R^2 "
                         f"{metrics.r2_mean:.3f} over {DESK_EPOCHS} epochs")
    assert best <= 0.5 * first
    assert metrics.r2_mean > 0.0


def test_criterion_09_metric_definitions():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((50, 3))
    perfect = compute_metrics(t.copy(), t)
    mean = compute_metrics(np.tile(t.mean(axis=0), (50, 1)), t)
    ok = (np.allclose(perfect.r2, 1.0) and np.allclose(perfect.nrmse, 0.0)
          and np.allclose(mean.r2, 0.0, atol=1e-12)
          and np.allclose(mean.nrmse, 1.0, rtol=1e-12))
    assert report(9, ok, "perfect predictor R^2=1/NRMSE=0, mean predictor "
                         "R^2=0/NRMSE=1 (exact)")
    assert ok


def test_criterion_10_preprocessing_round_trip_and_leakage():
    rng = np.random.default_rng(4)
    images = np.exp(rng.normal(-6.0, 0.5, (8, 8, 8, 4)))
    images[..., 1] = rng.normal(0.0, 1e-7, (8, 8, 8))
    images[..., 3] = 1.0
    targets = np.exp(rng.normal(-6.0, 0.5, (8, 3)))
    targets[:, 1] = rng.normal(0.0, 1e-7, 8)
    train_idx = np.arange(5)
    stats = compute_stats(images, targets, train_idx)
    img, tgt, xbar = preprocess(images[0], targets[0], stats)
    back_img, back_tgt = inverse_preprocess(img, tgt, stats, xbar)
    round_trip = (np.allclose(back_img, images[0], rtol=1e-12, atol=1e-20)
                  and np.allclose(back_tgt, targets[0], rtol=1e-12,
                                  atol=1e-20))
    tampered_images = images.copy()
    tampered_targets = targets.copy()
    tampered_images[6] *= 100.0
    tampered_targets[7] *= 100.0
    no_leak = compute_stats(tampered_images, tampered_targets,
                            train_idx) == stats
    ok = round_trip and no_leak
    assert report(10, ok, f"round trip exact to 1e-12: {round_trip}; "
                          f"held-out samples do not affect stats: {no_leak}")
    assert ok


BENCH_CONFIG = {
    "blocks": {"domain_side": 20.0, "block_size": 20.0},
    "srf": {"resolution": 16, "correlation_length": 0.0},
    "solver": {"resolution": 12},
    "raster": {"resolution": 16},
    "dfn": {"rho_2d": 2.0},
}


def test_criterion_11_backend_equivalence():
    cfg = RunConfig.from_dict(BENCH_CONFIG)
    res = cfg.solver.resolution
    backends = {"numeric": numeric_backend(res),
                "numeric-2": numeric_backend(res)}
    aq = bench_aquifer(cfg, seed=1, n_samples=3, backends=backends)
    an = bench_anisotropy(cfg, seed=1, n_samples=3, backends=backends)
    ok = aq.r2 == [1.0] and an.r2 == [1.0, 1.0, 1.0]
    assert report(11, ok, f"numeric vs numeric: aquifer R^2 {aq.r2}, "
                          f"anisotropy R^2 {an.r2} (exact)")
    assert ok


def test_criterion_12_speedup_direction(desk_model):
    model, stats, _, _ = desk_model
    cfg = RunConfig.from_dict({
        "blocks": {"domain_side": 100.0, "block_size": 2 * 100.0 / 14},
        "srf": {"resolution": 64, "correlation_length": 0.0},
        "solver": {"resolution": 24},
        "raster": {"resolution": 64},
    })
    rep = bench_speedup(cfg, seed=2, n_blocks=225, surrogate_model=model,
                        surrogate_stats=stats, repetitions=1)
    raster_frac = rep["c_s_rasterization_seconds"] / rep["c_s_seconds"]
    ok = (rep["n_blocks"] >= 225 and rep["speedup"] > 1.0
          and raster_frac > 0.5)
    assert report(12, ok, f"{rep['n_blocks']} blocks: C_H/C_S = "
                          f"{rep['speedup']:.1f} (C_H {rep['c_h_seconds']:.1f}"
                          f" s, C_S {rep['c_s_seconds']:.2f} s, rasterization"
                          f" {100 * raster_frac:.0f}% of C_S); paper "
                          "reference 4x-28x recorded as metadata only")
    assert rep["n_blocks"] >= 225
    assert rep["speedup"] > 1.0
    assert raster_frac > 0.5


def test_criterion_13_determinism(tmp_path):
    checks = {}
    domain = Rect(0.0, 0.0, 20.0, 20.0)
    spec = PowerLawSpec(2.5, 2.0, 15.0)

    nets = [generate_dfn(spec, 3.0, domain, 1e-4, CONSTANTS, seed=9)
            for _ in range(2)]
    checks["dfn"] = same_fractures(nets[0], nets[1])

    grid = Grid(32, 32, 20.0 / 32)
    fields = [sample_tensor_field(grid, 3.0, (-6.0, -5.8),
                                  np.array([[0.25, 0.2], [0.2, 0.25]]),
                                  seed=9) for _ in range(2)]
    checks["srf"] = (np.array_equal(fields[0].kxx, fields[1].kxx)
                     and np.array_equal(fields[0].kxy, fields[1].kxy)
                     and np.array_equal(fields[0].kyy, fields[1].kyy))

    bgrid = build_block_grid(20.0, 20.0)
    runs = []
    for _ in range(2):
        _, blocks, _ = upscale_domain(fields[0], nets[0], bgrid,
                                      numeric_backend(12))
        runs.append(blocks.k)
    checks["homogenize"] = np.array_equal(runs[0], runs[1])

    block = bgrid.block_rect(1, 1)
    rasters = [rasterize_block(fields[0], nets[0], block, 16)
               for _ in range(2)]
    checks["rasterize"] = np.array_equal(rasters[0].image, rasters[1].image)

    dcfg = RunConfig.from_dict({
        "dataset": {"ratio_class": "A", "n_samples": 6, "lambdas": [0.0, 2.0],
                    "srf_resolution": 16, "solver_resolution": 12},
        "raster": {"resolution": 16}})
    shas = []
    for sub in ("d1", "d2"):
        manifest, _ = generate_dataset(dcfg, seed=9, out_dir=tmp_path / sub)
        shas.append([s["sha256"] for s in manifest["shards"]])
    checks["dataset"] = shas[0] == shas[1]

    arch = Architecture(resolution=16, conv_channels=(2, 3),
                        dense_widths=(8,))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 16, 16, 4)).astype(np.float32)
    t = rng.standard_normal((8, 3))
    params = []
    for _ in range(2):
        model = SurrogateModel(arch, seed=1)
        train(model, x, t, x, t, TrainSection(epochs=2, batch_size=4),
              seed=1)
        p, _ = model.copy_params()
        params.append(p)
    checks["training"] = all(np.array_equal(params[0][k], params[1][k])
                             for k in params[0])

    from dfm_upscale.dataset_pipeline import load_dataset
    images, targets, _, stats = load_dataset(tmp_path / "d1")
    from dfm_upscale.rasterizer import RasterSample
    samples = [RasterSample(image=img) for img in images]
    model = SurrogateModel(arch, seed=1)
    preds = [predict_samples(model, samples, stats) for _ in range(2)]
    checks["prediction"] = np.array_equal(preds[0], preds[1])

    ok = all(checks.values())
    assert report(13, ok, "bit-identical repeated runs per stage: "
                          + ", ".join(f"{k}={v}" for k, v in checks.items()))
    assert ok
