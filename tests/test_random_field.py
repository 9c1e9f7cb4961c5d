import json

import numpy as np
import pytest

from dfm_upscale.random_field import (Grid, ScalarField, TensorField,
                                      assemble_tensor_field,
                                      sample_gaussian_field,
                                      sample_tensor_field, save_tensor_field)

MEAN_LOG = np.array([-6.0, -5.8])
COV_LOG = np.array([[0.25, 0.2], [0.2, 0.25]])


def is_spd(field: TensorField) -> bool:
    return bool(np.all(field.kxx > 0) and np.all(field.kyy > 0)
                and np.all(field.kxx * field.kyy - field.kxy ** 2 > 0))


def load_tensor_field(path) -> TensorField:
    """Read back what save_tensor_field wrote."""
    with open(f"{path}.json") as f:
        header = json.load(f)
    grid = Grid(header["nx"], header["ny"], header["cell"],
                tuple(header["origin"]))
    raw = np.fromfile(path, dtype="<f4").reshape(3, grid.nx, grid.ny)
    return TensorField(grid, *raw.astype(float),
                       metadata=header.get("metadata"))


class TestGaussianField:
    def test_white_noise_lag1_correlation(self):
        grid = Grid(1000, 1000, 1.0)
        f = sample_gaussian_field(grid, 0.0, seed=1)
        v = f.values
        corr = np.corrcoef(v[:-1].ravel(), v[1:].ravel())[0, 1]
        assert abs(corr) < 0.01

    def test_determinism(self):
        grid = Grid(32, 32, 1.0)
        a = sample_gaussian_field(grid, 10.0, seed=5)
        b = sample_gaussian_field(grid, 10.0, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_correlation_at_lag_lambda(self):
        grid = Grid(64, 64, 1.0)
        lam = 10.0
        vals = np.stack([sample_gaussian_field(grid, lam, seed=s).values
                         for s in range(500)])
        # ensemble statistics (spatial averages are biased for correlated
        # fields over a window of a few correlation lengths)
        var = vals.var(axis=0).mean()
        corr = np.mean(vals[:, :-10] * vals[:, 10:]) / var
        assert corr == pytest.approx(np.exp(-1.0), abs=0.05)
        assert var == pytest.approx(1.0, rel=0.05)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            sample_gaussian_field(Grid(8, 8, 1.0), -1.0, seed=0)

    def test_dense_fallback_matches_statistics(self):
        # exercise the dense path directly on a small grid
        from dfm_upscale.random_field import _sample_dense
        from dfm_upscale.seeding import substream
        grid = Grid(16, 16, 1.0)
        vals = [_sample_dense(grid, 4.0, substream(s, "f"))
                for s in range(300)]
        vals = np.stack(vals)
        assert vals.shape == (300, 16, 16)
        assert vals.var() == pytest.approx(1.0, rel=0.1)
        corr = np.mean(vals[:, :-4] * vals[:, 4:]) / vals.var()
        assert corr == pytest.approx(np.exp(-1.0), abs=0.1)

    def test_dense_fallback_size_limit(self):
        from dfm_upscale.random_field import EmbeddingError, _sample_dense
        from dfm_upscale.seeding import substream
        with pytest.raises(EmbeddingError):
            _sample_dense(Grid(100, 100, 1.0), 4.0, substream(0, "f"))


def constant_scalar(grid, value):
    return ScalarField(grid, np.full(grid.shape, float(value)))


class TestAssembleTensorField:
    grid = Grid(4, 4, 1.0)

    def assemble(self, xx, xy, kx_tilde=0.0, ky_tilde=0.0,
                 mean=MEAN_LOG, cov=COV_LOG):
        return assemble_tensor_field(
            constant_scalar(self.grid, xx), constant_scalar(self.grid, xy),
            constant_scalar(self.grid, kx_tilde),
            constant_scalar(self.grid, ky_tilde), mean, cov)

    def test_identity_rotation(self):
        f = self.assemble(1.0, 0.0)
        assert f.kxx.flat[0] == pytest.approx(np.exp(-6.0))
        assert f.kyy.flat[0] == pytest.approx(np.exp(-5.8))
        assert f.kxy.flat[0] == pytest.approx(0.0, abs=1e-18)

    def test_quarter_turn_swaps(self):
        f = self.assemble(0.0, 1.0)
        assert f.kxx.flat[0] == pytest.approx(np.exp(-5.8))
        assert f.kyy.flat[0] == pytest.approx(np.exp(-6.0))
        assert f.kxy.flat[0] == pytest.approx(0.0, abs=1e-18)

    def test_similarity_invariants(self):
        rng = np.random.default_rng(3)
        grid = Grid(16, 16, 1.0)
        f = assemble_tensor_field(
            ScalarField(grid, rng.standard_normal(grid.shape)),
            ScalarField(grid, rng.standard_normal(grid.shape)),
            ScalarField(grid, rng.standard_normal(grid.shape)),
            ScalarField(grid, rng.standard_normal(grid.shape)),
            MEAN_LOG, COV_LOG)
        chol = np.linalg.cholesky(COV_LOG)
        # recompute the principal values the same way to compare invariants
        det = f.kxx * f.kyy - f.kxy ** 2
        trace = f.kxx + f.kyy
        eigs = np.linalg.eigvalsh(f.tensor_at(
            grid.origin[0] + (np.arange(16) + 0.5),
            grid.origin[1] + 8.5 * np.ones(16)))
        assert np.all(det > 0)
        assert np.allclose(eigs[:, 0] * eigs[:, 1],
                           det[np.arange(16), 8], rtol=1e-12)
        assert np.allclose(eigs.sum(axis=1), trace[np.arange(16), 8],
                           rtol=1e-12)

    def test_spd_everywhere_and_eigenvalues_match_principals(self):
        field = sample_tensor_field(Grid(64, 64, 1.0), 0.0, MEAN_LOG,
                                    COV_LOG, seed=17)
        assert is_spd(field)
        # reconstruct principal values independently
        from dfm_upscale.random_field import sample_gaussian_field
        chol = np.linalg.cholesky(COV_LOG)
        kt_x = sample_gaussian_field(field.grid, 0.0, 17, "logk-x").values
        kt_y = sample_gaussian_field(field.grid, 0.0, 17, "logk-y").values
        kx = np.exp(MEAN_LOG[0] + chol[0, 0] * kt_x)
        ky = np.exp(MEAN_LOG[1] + chol[1, 0] * kt_x + chol[1, 1] * kt_y)
        mats = np.stack([np.stack([field.kxx, field.kxy], -1),
                         np.stack([field.kxy, field.kyy], -1)], -2)
        eigs = np.sort(np.linalg.eigvalsh(mats), axis=-1)
        expect = np.sort(np.stack([kx, ky], -1), axis=-1)
        assert np.allclose(eigs, expect, rtol=1e-12)

    def test_log_statistics(self):
        # variance/covariance of the log principal values at scale
        grid = Grid(320, 320, 1.0)
        from dfm_upscale.random_field import sample_gaussian_field
        chol = np.linalg.cholesky(COV_LOG)
        kt_x = sample_gaussian_field(grid, 0.0, 23, "logk-x").values
        kt_y = sample_gaussian_field(grid, 0.0, 23, "logk-y").values
        log_kx = MEAN_LOG[0] + chol[0, 0] * kt_x
        log_ky = MEAN_LOG[1] + chol[1, 0] * kt_x + chol[1, 1] * kt_y
        assert log_kx.var() == pytest.approx(0.25, rel=0.10)
        cov = np.cov(log_kx.ravel(), log_ky.ravel())[0, 1]
        assert cov == pytest.approx(0.20, rel=0.15)

    def test_purpose_tags_uncorrelated(self):
        grid = Grid(320, 320, 1.0)
        a = sample_gaussian_field(grid, 0.0, 5, "dir-x").values.ravel()
        b = sample_gaussian_field(grid, 0.0, 5, "logk-x").values.ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    def test_mismatched_grids_rejected(self):
        g1 = Grid(4, 4, 1.0)
        g2 = Grid(5, 5, 1.0)
        with pytest.raises(ValueError):
            assemble_tensor_field(constant_scalar(g1, 1.0),
                                  constant_scalar(g2, 0.0),
                                  constant_scalar(g1, 0.0),
                                  constant_scalar(g1, 0.0),
                                  MEAN_LOG, COV_LOG)

    def test_zero_direction_redrawn(self):
        grid = Grid(2, 2, 1.0)
        from dfm_upscale.seeding import substream
        f = assemble_tensor_field(constant_scalar(grid, 0.0),
                                  constant_scalar(grid, 0.0),
                                  constant_scalar(grid, 0.0),
                                  constant_scalar(grid, 0.0),
                                  MEAN_LOG, COV_LOG,
                                  redraw_rng=substream(0, "redraw"))
        assert is_spd(f)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        field = sample_tensor_field(Grid(12, 9, 0.5, (1.0, -2.0)), 3.0,
                                    MEAN_LOG, COV_LOG, seed=8)
        path = tmp_path / "field.bin"
        save_tensor_field(field, path)
        back = load_tensor_field(path)
        assert back.grid == field.grid
        # float32 round-trip
        assert np.allclose(back.kxx, field.kxx, rtol=1e-6)
        assert np.allclose(back.kxy, field.kxy, rtol=1e-6, atol=1e-12)
        assert np.allclose(back.kyy, field.kyy, rtol=1e-6)
