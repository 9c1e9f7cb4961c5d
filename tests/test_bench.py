from dataclasses import replace

import numpy as np
import pytest

from dfm_upscale import bench
from dfm_upscale.bench import (bench_anisotropy, bench_aquifer, bench_speedup,
                               environment_fingerprint, fine_model, sweep)
from dfm_upscale.config import RunConfig
from dfm_upscale.homogenizer import (CHUNK_BLOCKS, build_block_grid,
                                     numeric_backend)

from conftest import same_fractures


def small_run_config():
    return RunConfig.from_dict({
        "blocks": {"domain_side": 20.0, "block_size": 20.0},
        "srf": {"resolution": 16, "correlation_length": 0.0},
        "solver": {"resolution": 12},
        "raster": {"resolution": 16},
        "dfn": {"rho_2d": 2.0},
    })


class TestFineModel:
    def test_determinism(self):
        cfg = small_run_config()
        f1, n1, g1 = fine_model(cfg, seed=3)
        f2, n2, g2 = fine_model(cfg, seed=3)
        assert np.array_equal(f1.k[..., 0], f2.k[..., 0])
        assert len(n1) == len(n2)
        assert same_fractures(n1, n2)
        assert g1.n_blocks == g2.n_blocks == 9

    def test_parameter_overrides(self):
        cfg = small_run_config()
        _, sparse, _ = fine_model(
            replace(cfg, dfn=replace(cfg.dfn, rho_2d=0.5)), seed=3)
        _, dense, _ = fine_model(
            replace(cfg, dfn=replace(cfg.dfn, rho_2d=8.0)), seed=3)
        assert len(dense) > len(sparse)


class TestBackendComparisons:
    def test_aquifer_numeric_vs_numeric_r2_is_one(self):
        cfg = small_run_config()
        res = cfg.solver.resolution
        backends = {"numeric": numeric_backend(res),
                    "numeric-2": numeric_backend(res)}
        report = bench_aquifer(cfg, seed=1, n_samples=3, backends=backends)
        assert report.r2 == [1.0]
        assert len(report.pairs) == 3
        for ref, cand in report.pairs:
            assert ref == cand

    def test_anisotropy_numeric_vs_numeric_r2_is_one(self):
        cfg = small_run_config()
        res = cfg.solver.resolution
        backends = {"numeric": numeric_backend(res),
                    "numeric-2": numeric_backend(res)}
        report = bench_anisotropy(cfg, seed=1, n_samples=3, backends=backends)
        assert report.r2 == [1.0, 1.0, 1.0]

    def test_requires_exactly_two_backends(self):
        cfg = small_run_config()
        with pytest.raises(ValueError):
            bench_aquifer(cfg, 0, 2, {"a": numeric_backend(12)})

    @pytest.mark.parametrize("compare", [bench_aquifer, bench_anisotropy])
    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_rejects_fewer_than_two_samples(self, compare, n_samples):
        backends = {"a": numeric_backend(12), "b": numeric_backend(12)}
        with pytest.raises(ValueError, match="at least 2 samples"):
            compare(small_run_config(), 0, n_samples, backends)


class TestSpeedup:
    def test_report_contents(self):
        cfg = small_run_config()
        report = bench_speedup(cfg, seed=1, n_blocks=4, repetitions=1)
        assert report["n_blocks"] == 4
        assert report["c_h_seconds"] > 0
        assert report["c_s_seconds"] > 0
        assert report["speedup"] == pytest.approx(
            report["c_h_seconds"] / report["c_s_seconds"])
        assert not report["inference_included"]
        assert report["c_s_rasterization_seconds"] <= report["c_s_seconds"]
        assert "environment" in report

    @pytest.mark.parametrize("n_blocks", [5, 9])
    def test_times_the_first_n_blocks(self, monkeypatch, n_blocks):
        # both timed loops get the first n_blocks rects of the 25, in
        # chunks of CHUNK_BLOCKS
        cfg = small_run_config()
        cfg = replace(cfg, blocks=replace(cfg.blocks, block_size=10.0))
        rects = build_block_grid(20.0, 10.0).rects
        solved, rasterized = [], []
        monkeypatch.setattr(bench, "numeric_backend", lambda res: (
            lambda field, chunk: solved.append(chunk)))
        monkeypatch.setattr(bench, "rasterize_blocks", lambda field, chunk,
                            res: rasterized.append(chunk))
        report = bench_speedup(cfg, seed=1, n_blocks=n_blocks, repetitions=2)
        assert report["n_blocks"] == n_blocks
        sizes = [min(CHUNK_BLOCKS, n_blocks - start)
                 for start in range(0, n_blocks, CHUNK_BLOCKS)]
        for chunks in (solved, rasterized):
            assert [len(c.rects) for c in chunks] == sizes * 2
            for rep in (chunks[:len(sizes)], chunks[len(sizes):]):
                assert np.array_equal(
                    np.concatenate([c.rects for c in rep]), rects[:n_blocks])
                assert all(c.block.max(initial=-1) < len(c.rects)
                           for c in rep)

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError, match="repetition"):
            bench_speedup(small_run_config(), seed=1, n_blocks=4,
                          repetitions=0)


class TestSweep:
    def test_density_sweep_rows(self):
        cfg = small_run_config()
        rows = sweep(cfg, seed=2, param="rho", values=[0.5, 4.0])
        assert [r["value"] for r in rows] == [0.5, 4.0]
        assert rows[1]["n_fractures"] > rows[0]["n_fractures"]
        assert rows[1]["mean_kxx"] > rows[0]["mean_kxx"]
        assert all(r["n_blocks"] == 9 for r in rows)

    def test_surrogate_column_r2_one_for_identical_backend(self):
        cfg = small_run_config()
        rows = sweep(cfg, seed=2, param="lambda", values=[0.0],
                     surrogate_backend_fn=numeric_backend(
                         cfg.solver.resolution))
        assert rows[0]["r2_kxx"] == 1.0
        assert rows[0]["r2_kyy"] == 1.0

    def test_unknown_param(self):
        with pytest.raises(ValueError):
            sweep(small_run_config(), 0, "alpha", [1.0])


def test_environment_fingerprint_keys():
    env = environment_fingerprint()
    assert set(env) >= {"platform", "machine", "cpu_count", "python", "numpy"}
    assert env["numpy"] == np.__version__
