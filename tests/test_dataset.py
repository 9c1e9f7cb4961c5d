import json

import numpy as np
import pytest

from dfm_upscale.config import RATIO_CLASSES, ConfigError, RunConfig
from dfm_upscale.dataset_pipeline import (compute_stats, enforce_ratio,
                                          generate_dataset, generate_sample,
                                          inverse_preprocess, inverse_target,
                                          load_dataset, normalize_sample,
                                          preprocess, sample_matrix_mean,
                                          split_indices)
from dfm_upscale.frac_geom import PowerLawSpec, generate_dfn
from dfm_upscale.geometry import Rect

from conftest import CONSTANTS, uniform_field


def small_config(**dataset):
    """A run config with a small dataset section; keyword arguments
    override its dataset keys."""
    section = dict(ratio_class="A", n_samples=9, lambdas=[0.0, 5.0, 10.0],
                   srf_resolution=16, solver_resolution=12)
    section.update(dataset)
    return RunConfig.from_dict({"dataset": section,
                                "raster": {"resolution": 16}})


def random_sample_arrays(rng, n, r=8):
    """Synthetic positive-definite-ish samples for preprocessing tests."""
    images = np.exp(rng.normal(-6.0, 0.5, (n, r, r, 4)))
    images[..., 1] = rng.normal(0.0, 1e-7, (n, r, r))
    images[..., 3] = 1.0
    targets = np.exp(rng.normal(-6.0, 0.5, (n, 3)))
    targets[:, 1] = rng.normal(0.0, 1e-7, n)
    return images, targets


class TestConfig:
    def test_ratio_classes(self):
        assert RATIO_CLASSES == {"A": 1e3, "B": 1e5, "C": 1e7}
        assert small_config(ratio_class="B").dataset.ratio_class == "B"

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError, match="ratio_class"):
            RunConfig.from_dict({"dataset": {"ratio_class": "Z"}})
        with pytest.raises(ConfigError, match="ratio_class"):
            RunConfig.from_dict({"dataset": {"ratio_class": ["A"]}})

    def test_empty_lambdas_rejected(self):
        with pytest.raises(ConfigError, match="lambdas"):
            RunConfig.from_dict({"dataset": {"lambdas": []}})


class TestEnforceRatio:
    def test_exact_after_enforcement(self):
        block = Rect(0.0, 0.0, 14.28, 14.28)
        field = uniform_field(block, 2e-6, 0.0, 1e-6)
        net = generate_dfn(PowerLawSpec(2.5, 4.325, 100.0), 10.0, block,
                           1e-4, CONSTANTS, seed=3)
        assert len(net) > 1
        scaled, factor = enforce_ratio(net, field, 1e3)
        km = np.exp(np.mean(np.log(0.5 * (field.kxx + field.kyy))))
        med = np.median(scaled.conductivity)
        assert med / km == pytest.approx(1e3, rel=1e-12)
        # one common factor: conductivity ratios between fractures unchanged
        for a_cond, b_cond, a_ap, b_ap in zip(
                net.conductivity, scaled.conductivity, net.aperture,
                scaled.aperture):
            assert b_cond == pytest.approx(a_cond * factor, rel=1e-12)
            assert b_ap == a_ap

    def test_empty_network(self):
        block = Rect(0.0, 0.0, 1.0, 1.0)
        field = uniform_field(block, 1e-6)
        net = generate_dfn(PowerLawSpec(2.5, 0.2, 0.8), 1e-9, block, 1e-4,
                           CONSTANTS, seed=0)
        out, factor = enforce_ratio(net, field, 1e3)
        assert factor == 1.0 and len(out) == 0


class TestGenerateSample:
    def test_shapes_and_lambda_cycling(self):
        cfg = small_config()
        s0 = generate_sample(cfg, 0, seed=11)
        s4 = generate_sample(cfg, 4, seed=11)
        assert s0.image.shape == (16, 16, 4)
        assert s0.target.shape == (3,)
        assert s0.metadata["lambda"] == 0.0
        assert s4.metadata["lambda"] == 5.0  # index 4 -> lambdas[1]

    def test_determinism(self):
        cfg = small_config()
        a = generate_sample(cfg, 3, seed=11)
        b = generate_sample(cfg, 3, seed=11)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.target, b.target)

    def test_seed_sensitivity(self):
        cfg = small_config()
        a = generate_sample(cfg, 3, seed=11)
        b = generate_sample(cfg, 3, seed=12)
        assert not np.array_equal(a.image, b.image)


class TestSplits:
    def test_reference_counts(self):
        s = split_indices(75000, seed=0)
        assert len(s["test"]) == 15000
        assert len(s["val"]) == 12000
        assert len(s["train"]) == 48000

    def test_small_counts(self):
        s = split_indices(100, seed=0)
        assert (len(s["train"]), len(s["val"]), len(s["test"])) == (64, 16, 20)

    def test_disjoint_cover(self):
        s = split_indices(97, seed=5)
        allidx = np.concatenate([s["train"], s["val"], s["test"]])
        assert len(np.unique(allidx)) == 97

    def test_deterministic_and_seed_dependent(self):
        a = split_indices(50, seed=1)
        b = split_indices(50, seed=1)
        c = split_indices(50, seed=2)
        assert np.array_equal(a["train"], b["train"])
        assert not np.array_equal(a["train"], c["train"])

    def test_too_small(self):
        with pytest.raises(ValueError):
            split_indices(4, seed=0)


class TestPreprocessing:
    def test_matrix_mean_hand_example(self):
        image = np.zeros((8, 8, 4))
        image[..., 0] = 2.0
        image[..., 1] = 1.0
        image[..., 2] = 3.0
        image[..., 3] = 1.0
        image[0, 0, :] = [100.0, 0.0, 100.0, 5e-3]  # fracture pixel excluded
        assert sample_matrix_mean(image) == pytest.approx(2.0)

    def test_normalize_divides_by_matrix_mean(self):
        image = np.zeros((8, 8, 4))
        image[..., 0] = 4.0
        image[..., 1] = 2.0
        image[..., 2] = 6.0
        image[..., 3] = 1.0
        out, tgt, xbar = normalize_sample(image, np.array([8.0, 4.0, 12.0]))
        assert xbar == pytest.approx(4.0)
        assert np.all(out[..., 0] == 1.0)
        assert np.all(out[..., 3] == 1.0)  # cross-section untouched
        assert np.allclose(tgt, [2.0, 1.0, 3.0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        images, targets = random_sample_arrays(rng, 6)
        stats = compute_stats(images, targets, np.arange(4))
        img, tgt, xbar = preprocess(images[0], targets[0], stats)
        back_img, back_tgt = inverse_preprocess(img, tgt, stats, xbar)
        assert np.allclose(back_img, images[0], rtol=1e-12, atol=1e-20)
        assert np.allclose(back_tgt, targets[0], rtol=1e-12, atol=1e-20)
        assert np.allclose(inverse_target(tgt, stats, xbar), targets[0],
                           rtol=1e-12)

    def test_stack_matches_per_sample(self):
        rng = np.random.default_rng(4)
        images, targets = random_sample_arrays(rng, 6)
        stats = compute_stats(images, targets, np.arange(4))
        imgs, tgts, xbars = preprocess(images, targets, stats)
        assert xbars.shape == (6,)
        for i in range(6):
            img, tgt, xbar = preprocess(images[i], targets[i], stats)
            assert isinstance(xbar, float) and xbars[i] == xbar
            assert np.array_equal(imgs[i], img)
            assert np.array_equal(tgts[i], tgt)

    def test_standardized_train_statistics(self):
        rng = np.random.default_rng(1)
        images, targets = random_sample_arrays(rng, 8)
        train = np.arange(8)
        stats = compute_stats(images, targets, train)
        logs = []
        for i in train:
            img, _, _ = preprocess(images[i], targets[i], stats)
            logs.append(img[..., 0].ravel())
        pooled = np.concatenate(logs)
        assert pooled.mean() == pytest.approx(0.0, abs=1e-10)
        assert pooled.std() == pytest.approx(1.0, rel=1e-10)

    def test_non_positive_diagonal_rejected(self):
        rng = np.random.default_rng(2)
        images, targets = random_sample_arrays(rng, 6)
        stats = compute_stats(images, targets, np.arange(4))
        bad = np.array(images[0])
        bad[2, 2, 0] = -1.0
        with pytest.raises(ValueError, match="non-positive"):
            preprocess(bad, targets[0], stats)

    def test_no_leakage_from_held_out_samples(self):
        rng = np.random.default_rng(3)
        images, targets = random_sample_arrays(rng, 8)
        train = np.arange(5)
        stats_a = compute_stats(images, targets, train)
        images[6] *= 100.0  # tamper with a held-out sample
        targets[7] *= 100.0
        stats_b = compute_stats(images, targets, train)
        assert stats_a == stats_b


class TestGenerateDataset:
    # SHA-256 of the one shard of small_config() at seed 9: a change to any
    # sample bit, or to what the dataset reads from its config, shows here
    RECORDED_SHARD_SHA256 = ("da93ec0ec10c56af685ee539abac40485ef3480b778cdec"
                             "8507b393d775c996d")

    def test_recorded_shard_hash(self, tmp_path):
        manifest, _ = generate_dataset(small_config(), seed=9,
                                       out_dir=tmp_path / "d")
        assert [sh["sha256"] for sh in manifest["shards"]] == \
            [self.RECORDED_SHARD_SHA256]

    def test_shards_bit_identical_and_worker_invariant(self, tmp_path):
        cfg = small_config()
        m1, s1 = generate_dataset(cfg, seed=21, out_dir=tmp_path / "a")
        m2, s2 = generate_dataset(cfg, seed=21, out_dir=tmp_path / "b",
                                  workers=2)
        assert [sh["sha256"] for sh in m1["shards"]] == \
            [sh["sha256"] for sh in m2["shards"]]
        assert s1 == s2
        assert m1["splits"] == m2["splits"]

    def test_manifest_contents(self, tmp_path):
        cfg = small_config()
        manifest, stats = generate_dataset(cfg, seed=21,
                                           out_dir=tmp_path / "d")
        assert manifest["n_samples"] == 9
        assert manifest["skipped"] == 0
        assert manifest["lambda_per_sample"] == [0.0, 5.0, 10.0] * 3
        assert manifest["record_size_bytes"] == 4 * (4 * 16 * 16 + 3)
        assert set(stats) == {"input", "target"}
        with open(tmp_path / "d" / "manifest.json") as f:
            assert json.load(f) == manifest

    def test_load_round_trip(self, tmp_path):
        cfg = small_config()
        generate_dataset(cfg, seed=21, out_dir=tmp_path / "d")
        images, targets, manifest, stats = load_dataset(tmp_path / "d")
        assert images.shape == (9, 16, 16, 4)
        assert targets.shape == (9, 3)
        # records agree with regenerating the first sample directly
        s0 = generate_sample(cfg, 0, seed=21)
        assert np.allclose(images[0], s0.image, rtol=1e-6)
        assert np.allclose(targets[0], s0.target, rtol=1e-6)

    def test_class_a_log_spread_bounded(self, tmp_path):
        cfg = small_config(n_samples=12)
        generate_dataset(cfg, seed=33, out_dir=tmp_path / "d")
        images, targets, _, _ = load_dataset(tmp_path / "d")
        assert np.log(targets[:, 0]).std() < 3.0
