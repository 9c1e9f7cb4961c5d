import json

import numpy as np
import pytest

from dfm_upscale.random_field import (Grid, TensorField,
                                      _circulant_amplitude,
                                      assemble_tensor_field,
                                      sample_gaussian_field,
                                      sample_tensor_field, save_tensor_field)

MEAN_LOG = np.array([-6.0, -5.8])
COV_LOG = np.array([[0.25, 0.2], [0.2, 0.25]])


def is_spd(field: TensorField) -> bool:
    kxx, kxy, kyy = np.moveaxis(field.k, -1, 0)
    return bool(np.all(kxx > 0) and np.all(kyy > 0)
                and np.all(kxx * kyy - kxy ** 2 > 0))


def load_tensor_field(path) -> TensorField:
    """Read back what save_tensor_field wrote."""
    with open(f"{path}.json") as f:
        header = json.load(f)
    grid = Grid(header["nx"], header["ny"], header["cell"],
                tuple(header["origin"]))
    raw = np.fromfile(path, dtype="<f4").reshape(3, grid.nx, grid.ny)
    return TensorField(grid, np.moveaxis(raw, 0, -1).astype(float),
                       metadata=header.get("metadata"))


class TestGaussianField:
    def test_white_noise_lag1_correlation(self):
        grid = Grid(1000, 1000, 1.0)
        v = sample_gaussian_field(grid, 0.0, seed=1)
        assert v.shape == grid.shape
        corr = np.corrcoef(v[:-1].ravel(), v[1:].ravel())[0, 1]
        assert abs(corr) < 0.01

    def test_determinism(self):
        grid = Grid(32, 32, 1.0)
        a = sample_gaussian_field(grid, 10.0, seed=5)
        b = sample_gaussian_field(grid, 10.0, seed=5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("lam", [0.0, 10.0])
    def test_field_owns_its_data(self, lam):
        # a view of the padded transform would keep all of it alive
        v = sample_gaussian_field(Grid(32, 24, 1.0), lam, seed=5)
        assert v.base is None and v.flags.c_contiguous

    def test_spectrum_shared_read_only(self):
        amp = _circulant_amplitude(32, 32, 1.0, 10.0)
        assert _circulant_amplitude(32, 32, 1.0, 10.0) is amp
        assert not amp.flags.writeable
        assert amp.shape == (32 + 70, 32 + 70)

    # corners of the (nx, cell, lambda) range: fine and coarse cells, a
    # correlation length far below and far above the cell, the largest
    # padding, and the dataset block at the reference lambda
    @pytest.mark.parametrize("nx, cell, lam", [
        (16, 0.05, 0.01), (16, 1.0, 100.0), (128, 5.0, 200.0),
        (64, 14.28 / 64, 25.0)])
    def test_embedding_spectrum_check_passes(self, nx, cell, lam):
        amp = _circulant_amplitude(nx, nx, cell, lam)
        assert np.all(np.isfinite(amp)) and amp.max() > 0.0

    def test_correlation_at_lag_lambda(self):
        grid = Grid(64, 64, 1.0)
        lam = 10.0
        vals = np.stack([sample_gaussian_field(grid, lam, seed=s)
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


def constant_scalar(grid, value):
    return np.full(grid.shape, float(value))


class TestAssembleTensorField:
    grid = Grid(4, 4, 1.0)

    def assemble(self, xx, xy, kx_tilde=0.0, ky_tilde=0.0,
                 mean=MEAN_LOG, cov=COV_LOG):
        return assemble_tensor_field(
            self.grid, constant_scalar(self.grid, xx),
            constant_scalar(self.grid, xy),
            constant_scalar(self.grid, kx_tilde),
            constant_scalar(self.grid, ky_tilde), mean, cov)

    def test_identity_rotation(self):
        kxx, kxy, kyy = self.assemble(1.0, 0.0).k[0, 0]
        assert kxx == pytest.approx(np.exp(-6.0))
        assert kyy == pytest.approx(np.exp(-5.8))
        assert kxy == pytest.approx(0.0, abs=1e-18)

    def test_quarter_turn_swaps(self):
        kxx, kxy, kyy = self.assemble(0.0, 1.0).k[0, 0]
        assert kxx == pytest.approx(np.exp(-5.8))
        assert kyy == pytest.approx(np.exp(-6.0))
        assert kxy == pytest.approx(0.0, abs=1e-18)

    def test_similarity_invariants(self):
        rng = np.random.default_rng(3)
        grid = Grid(16, 16, 1.0)
        f = assemble_tensor_field(
            grid, *rng.standard_normal((4,) + grid.shape), MEAN_LOG, COV_LOG)
        chol = np.linalg.cholesky(COV_LOG)
        # recompute the principal values the same way to compare invariants
        kxx, kxy, kyy = np.moveaxis(f.k, -1, 0)
        det = kxx * kyy - kxy ** 2
        trace = kxx + kyy
        ix, iy = grid.cell_index(grid.origin[0] + (np.arange(16) + 0.5),
                                 grid.origin[1] + 8.5 * np.ones(16))
        eigs = np.linalg.eigvalsh(np.stack(
            [kxx[ix, iy], kxy[ix, iy], kxy[ix, iy], kyy[ix, iy]],
            axis=-1).reshape(-1, 2, 2))
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
        kt_x = sample_gaussian_field(field.grid, 0.0, 17, "logk-x")
        kt_y = sample_gaussian_field(field.grid, 0.0, 17, "logk-y")
        kx = np.exp(MEAN_LOG[0] + chol[0, 0] * kt_x)
        ky = np.exp(MEAN_LOG[1] + chol[1, 0] * kt_x + chol[1, 1] * kt_y)
        kxx, kxy, kyy = np.moveaxis(field.k, -1, 0)
        mats = np.stack([np.stack([kxx, kxy], -1),
                         np.stack([kxy, kyy], -1)], -2)
        eigs = np.sort(np.linalg.eigvalsh(mats), axis=-1)
        expect = np.sort(np.stack([kx, ky], -1), axis=-1)
        assert np.allclose(eigs, expect, rtol=1e-12)

    def test_log_statistics(self):
        # variance/covariance of the log principal values at scale
        grid = Grid(320, 320, 1.0)
        from dfm_upscale.random_field import sample_gaussian_field
        chol = np.linalg.cholesky(COV_LOG)
        kt_x = sample_gaussian_field(grid, 0.0, 23, "logk-x")
        kt_y = sample_gaussian_field(grid, 0.0, 23, "logk-y")
        log_kx = MEAN_LOG[0] + chol[0, 0] * kt_x
        log_ky = MEAN_LOG[1] + chol[1, 0] * kt_x + chol[1, 1] * kt_y
        assert log_kx.var() == pytest.approx(0.25, rel=0.10)
        cov = np.cov(log_kx.ravel(), log_ky.ravel())[0, 1]
        assert cov == pytest.approx(0.20, rel=0.15)

    def test_purpose_tags_uncorrelated(self):
        grid = Grid(320, 320, 1.0)
        a = sample_gaussian_field(grid, 0.0, 5, "dir-x").ravel()
        b = sample_gaussian_field(grid, 0.0, 5, "logk-x").ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    def test_mismatched_grids_rejected(self):
        g1 = Grid(4, 4, 1.0)
        g2 = Grid(5, 5, 1.0)
        with pytest.raises(ValueError):
            assemble_tensor_field(g1, constant_scalar(g1, 1.0),
                                  constant_scalar(g2, 0.0),
                                  constant_scalar(g1, 0.0),
                                  constant_scalar(g1, 0.0),
                                  MEAN_LOG, COV_LOG)


class TestTensorField:
    @pytest.mark.parametrize("shape", [(4, 5), (4, 5, 2), (5, 4, 3)])
    def test_k_must_be_grid_by_three(self, shape):
        with pytest.raises(ValueError):
            TensorField(Grid(4, 5, 1.0), np.ones(shape))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        field = sample_tensor_field(Grid(12, 9, 0.5, (1.0, -2.0)), 3.0,
                                    MEAN_LOG, COV_LOG, seed=8)
        path = tmp_path / "field.bin"
        save_tensor_field(field, path)
        back = load_tensor_field(path)
        assert back.grid == field.grid
        # float32 round-trip
        assert np.allclose(back.k[..., 0], field.k[..., 0], rtol=1e-6)
        assert np.allclose(back.k[..., 1], field.k[..., 1], rtol=1e-6,
                           atol=1e-12)
        assert np.allclose(back.k[..., 2], field.k[..., 2], rtol=1e-6)
