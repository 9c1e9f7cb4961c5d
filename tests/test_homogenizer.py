import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfm_upscale import homogenizer
from dfm_upscale.dfm_solver import discretize, linear_head, solve_darcy
from dfm_upscale.frac_geom import PowerLawSpec, generate_dfn
from dfm_upscale.geometry import Rect
from dfm_upscale.homogenizer import (BlockResults, anisotropy_tensor,
                                     aquifer_kx, build_block_grid,
                                     clip_network, clipped_blocks,
                                     numeric_backend, positive_definite,
                                     project_spd, upscale_domain,
                                     write_block_csv, _weighted_averages)
from dfm_upscale.random_field import Grid, TensorField, sample_tensor_field

from conftest import (CONSTANTS, layered_field, make_fracture, network_of,
                      same_fractures, uniform_field)

# block edges of build_block_grid(4.0, 2.0) and build_block_grid(4.0, 4.0)
# lie on multiples of 1 in [-2, 6]; half-steps end segments between them
_coords = st.one_of(st.sampled_from([0.5 * k for k in range(-5, 12)]),
                    st.floats(-2.5, 6.5, allow_nan=False))
_segments = st.one_of(
    st.tuples(_coords, _coords, _coords, _coords),
    st.tuples(_coords, _coords, _coords).map(lambda t: (t[0], t[1],
                                                        t[2], t[1])),
    st.tuples(_coords, _coords, _coords).map(lambda t: (t[0], t[1],
                                                        t[0], t[2])),
).filter(lambda s: (s[0], s[1]) != (s[2], s[3]))


def exact_network(segments):
    """A network whose endpoints are exactly the given (x0, y0, x1, y1)
    rows, not recomputed from centers and angles."""
    net = network_of(*(make_fracture(s[:2], s[2:], frac_id=k)
                       for k, s in enumerate(segments)),
                     domain=Rect(-2.0, -2.0, 6.0, 6.0))
    ends = np.asarray(segments, float).reshape(-1, 4)
    net.p0, net.p1 = ends[:, :2], ends[:, 2:]
    return net


def scaled_problem(scale, seed):
    """A random matrix field plus fractures, and the same problem with all
    lengths multiplied by `scale` and the matrix conductivity by scale**2
    (fracture conductivity follows the quadratic aperture law)."""
    rng = np.random.default_rng(seed)
    n = 8
    rect = Rect(0.0, 0.0, 1.0, 1.0)
    kx = np.exp(-6 + 0.5 * rng.standard_normal((n, n)))
    ky = np.exp(-6 + 0.5 * rng.standard_normal((n, n)))
    field = TensorField(Grid(n, n, 1.0 / n), kx, np.zeros((n, n)), ky)
    ends = rng.uniform(0.1, 0.9, (3, 4))
    fracs = [make_fracture(e[:2], e[2:], aperture=1e-3, frac_id=i)
             for i, e in enumerate(ends)]

    rect_s = Rect(0.0, 0.0, scale, scale)
    field_s = TensorField(Grid(n, n, scale / n), scale ** 2 * kx,
                          np.zeros((n, n)), scale ** 2 * ky)
    fracs_s = [make_fracture(scale * e[:2], scale * e[2:],
                             aperture=scale * 1e-3, frac_id=i)
               for i, e in enumerate(ends)]
    return ((field, network_of(*fracs), rect),
            (field_s, network_of(*fracs_s, domain=rect_s), rect_s))


class TestAnisotropyTensor:
    def test_constant_tensor_identity(self, unit_rect):
        kxx, kxy, kyy = 2e-6, 3e-7, 1e-6
        field = uniform_field(unit_rect, kxx, kxy, kyy)
        k, _ = anisotropy_tensor(field, None, unit_rect, 32)
        assert k == pytest.approx([kxx, kxy, kyy], rel=1e-8)
        assert positive_definite(k[None]).all()

    def test_layered_kxx_arithmetic(self, unit_rect):
        k_vals = [1e-6, 1e-8, 5e-7, 2e-6]
        field = layered_field(unit_rect, k_vals, n=64)
        (kxx, kxy, _), _ = anisotropy_tensor(field, None, unit_rect, 64)
        assert kxx == pytest.approx(np.mean(k_vals), rel=0.02)
        assert abs(kxy) < 0.02 * kxx

    def test_mean_gradient_matches_boundary_data(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        net = network_of(make_fracture((0.1, 0.3), (0.9, 0.7)),
                         make_fracture((0.3, 0.9), (0.7, 0.1), frac_id=1))
        system = discretize(field, net, unit_rect, 32, 32)
        for direction, unit in (("x", [1, 0]), ("y", [0, 1])):
            sol = solve_darcy(system, linear_head(direction))
            g, _ = _weighted_averages(sol)
            assert np.linalg.norm(g - np.asarray(unit, float)) <= 0.05

    def test_transpose_symmetry(self, unit_rect):
        k_vals = [1e-6, 1e-7, 3e-7, 2e-6]
        field = layered_field(unit_rect, k_vals, n=32)
        # same medium rotated a quarter turn: vertical layers
        rot = TensorField(field.grid, field.kyy.T, field.kxy.T, field.kxx.T)
        k, _ = anisotropy_tensor(field, None, unit_rect, 32)
        k_rot, _ = anisotropy_tensor(rot, None, unit_rect, 32)
        assert k_rot[0] == pytest.approx(k[2], rel=0.02)
        assert k_rot[2] == pytest.approx(k[0], rel=0.02)

    def test_scale_equivariance(self):
        for seed, scale in ((0, 2.0), (1, 37.5), (2, 1000.0)):
            (f, net, rect), (fs, nets, rects) = scaled_problem(scale, seed)
            k, _ = anisotropy_tensor(f, net, rect, 16)
            k_s, _ = anisotropy_tensor(fs, nets, rects, 16)
            assert np.allclose(k_s, scale ** 2 * k, rtol=1e-8)

    def test_fractures_increase_conductivity(self, unit_rect):
        # equivalent trace never drops when fractures are added
        spec = PowerLawSpec(2.5, 0.2, 0.8)
        field = uniform_field(unit_rect, 1e-6)
        base, _ = anisotropy_tensor(field, None, unit_rect, 16)
        trace0 = base[0] + base[2]
        for seed in range(100):
            net = generate_dfn(spec, 10.0, unit_rect, 1e-4, CONSTANTS,
                               seed=seed)
            k, _ = anisotropy_tensor(field, net, unit_rect, 16)
            assert k[0] + k[2] >= trace0 * (1.0 - 0.01)


class TestGoldenTensors:
    # anisotropy_tensor of three blocks of the criterion-13 fine model
    # (20 m domain, seed 9, solver resolution 12), recorded before the
    # fracture assembly was vectorized; (i, j) -> (k_xx, k_xy, k_yy)
    GOLDEN = {
        (0, 0): (0.0027850082223818524, -2.3880654352964312e-05,
                 0.002696332072073873),
        (1, 1): (0.0034133332745951124, 8.890953925358554e-05,
                 0.0032478244417866197),
        (2, 1): (0.0032847889358048887, 9.128088757645764e-05,
                 0.0032405798315505007),
    }

    def test_recorded_tensors(self):
        domain = Rect(0.0, 0.0, 20.0, 20.0)
        net = generate_dfn(PowerLawSpec(2.5, 2.0, 15.0), 3.0, domain, 1e-4,
                           CONSTANTS, seed=9)
        field = sample_tensor_field(Grid(32, 32, 20.0 / 32), 3.0,
                                    (-6.0, -5.8),
                                    np.array([[0.25, 0.2], [0.2, 0.25]]),
                                    seed=9)
        grid = build_block_grid(20.0, 20.0)
        for (i, j), expected in self.GOLDEN.items():
            rect = grid.block_rect(i, j)
            k, _ = anisotropy_tensor(field, clip_network(net, rect), rect, 12)
            assert k == pytest.approx(expected, rel=1e-12)


class TestAquiferKx:
    def test_uniform(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        outflow, kx = aquifer_kx(field, None, unit_rect, 32, head=1.0)
        assert kx == pytest.approx(1e-6, rel=1e-8)
        assert outflow == pytest.approx(1e-6, rel=1e-8)

    def test_head_independence(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        _, k1 = aquifer_kx(field, None, unit_rect, 16, head=1.0)
        _, k2 = aquifer_kx(field, None, unit_rect, 16, head=7.5)
        assert k1 == pytest.approx(k2, rel=1e-10)

    def test_geometry_normalization(self):
        # k_x is intrinsic: a 2:1 domain gives the same value
        rect = Rect(0.0, 0.0, 2.0, 1.0)
        grid = Grid(16, 8, 0.125)
        field = TensorField(grid, np.full((16, 8), 1e-6),
                            np.zeros((16, 8)), np.full((16, 8), 1e-6))
        _, kx = aquifer_kx(field, None, rect, 16, head=1.0)
        assert kx == pytest.approx(1e-6, rel=1e-8)

    def test_layered_arithmetic(self, unit_rect):
        k_vals = [1e-6, 1e-8, 5e-7, 2e-6]
        field = layered_field(unit_rect, k_vals, n=64)
        _, kx = aquifer_kx(field, None, unit_rect, 64, head=1.0)
        assert kx == pytest.approx(np.mean(k_vals), rel=0.02)

    def test_invalid_head(self, unit_rect):
        with pytest.raises(ValueError):
            aquifer_kx(uniform_field(unit_rect, 1.0), None, unit_rect, 8,
                       head=0.0)


class TestBlockGrid:
    def test_reference_tiling(self):
        grid = build_block_grid(100.0, 2 * 100.0 / 14)
        assert grid.n_per_axis == 15
        assert grid.n_blocks == 225
        assert grid.centers_x[0] == 0.0
        assert grid.centers_x[-1] == pytest.approx(100.0)
        assert grid.extended.x0 == pytest.approx(-100.0 / 14)
        assert grid.extended.x1 == pytest.approx(100.0 + 100.0 / 14)

    def test_small_tiling(self):
        grid = build_block_grid(4.0, 4.0)
        assert grid.n_blocks == 9
        assert np.allclose(grid.centers_x, [0.0, 2.0, 4.0])
        rect = grid.block_rect(0, 0)
        assert rect.as_tuple() == (-2.0, -2.0, 2.0, 2.0)

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ValueError):
            build_block_grid(100.0, 13.0)

    def test_block_iterator_row_major(self):
        grid = build_block_grid(4.0, 4.0)
        ids = [(bid, i, j) for bid, i, j, _ in grid.blocks()]
        assert ids[0] == (0, 0, 0)
        assert ids[1] == (1, 1, 0)   # x fastest
        assert ids[3] == (3, 0, 1)
        assert len(ids) == 9


class TestClipNetwork:
    def test_keeps_intersecting_only(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        inside = make_fracture((0.2, 0.2), (0.8, 0.8), frac_id=0)
        outside = make_fracture((2.0, 2.0), (3.0, 3.0), frac_id=1)
        net = network_of(inside, outside, domain=Rect(0, 0, 4, 4))
        clipped = clip_network(net, rect)
        assert clipped.id.tolist() == [0]
        assert clipped.domain == rect

    def test_length_threshold(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        short = make_fracture((0.2, 0.2), (0.4, 0.2), frac_id=0)
        long = make_fracture((0.1, 0.5), (0.9, 0.5), frac_id=1)
        net = network_of(short, long)
        clipped = clip_network(net, rect, length_threshold=0.5)
        assert clipped.id.tolist() == [0]

    def test_empty_network(self):
        rect = Rect(0, 0, 1, 1)
        clipped = clip_network(network_of(domain=Rect(0, 0, 4, 4)), rect)
        assert len(clipped) == 0
        assert clipped.domain == rect

    @settings(max_examples=200, deadline=None)
    @given(segments=st.lists(_segments, max_size=12),
           block_size=st.sampled_from([2.0, 4.0]),
           threshold=st.one_of(st.none(), st.floats(0.1, 8.0)))
    def test_screened_clip_equals_unscreened(self, segments, block_size,
                                             threshold):
        net = exact_network(segments)
        grid = build_block_grid(4.0, block_size)
        screened = list(clipped_blocks(net, grid, threshold))
        assert len(screened) == grid.n_blocks
        for (_, _, _, rect), (srect, clipped) in zip(grid.blocks(),
                                                     screened):
            whole = clip_network(net, rect, threshold)
            assert srect == rect
            assert same_fractures(clipped, whole)
            assert clipped.domain == whole.domain == rect

    def test_screen_without_network(self):
        grid = build_block_grid(4.0, 2.0)
        blocks = list(clipped_blocks(network_of(domain=grid.extended), grid,
                                     0.5))
        assert [rect for rect, _ in blocks] == \
            [rect for _, _, _, rect in grid.blocks()]
        assert all(len(c) == 0 and c.domain == rect for rect, c in blocks)


class TestProjectSpd:
    def test_already_spd_unchanged(self):
        k = np.array([2e-6, 3e-7, 1e-6])
        assert np.allclose(project_spd(k), k, rtol=1e-12)

    def test_indefinite_clamped(self):
        k = np.array([1e-6, 5e-6, 1e-6])  # det < 0
        assert not positive_definite(k[None]).any()
        fixed = project_spd(k)
        assert positive_definite(fixed[None]).all()
        # eigenvectors preserved: only the negative eigenvalue moves
        vals = np.linalg.eigvalsh([[fixed[0], fixed[1]], [fixed[1], fixed[2]]])
        assert vals[0] > 0
        assert vals[1] == pytest.approx(6e-6, rel=1e-10)


class TestUpscaleDomain:
    def test_uniform_field_round_trip(self):
        side = 4.0
        rect = Rect(-2.0, -2.0, 6.0, 6.0)  # covers the extended domain
        kxx, kxy, kyy = 2e-6, 3e-7, 1e-6
        field = uniform_field(rect, kxx, kxy, kyy)
        grid = build_block_grid(side, 4.0)
        coarse, blocks, projected = upscale_domain(
            field, network_of(domain=rect), grid, numeric_backend(16),
            coarse_resolution=8)
        assert projected == 0
        assert blocks.k.shape == (9, 3) and blocks.residual.shape == (9,)
        assert coarse.grid.shape == (8, 8)
        assert np.allclose(coarse.kxx, kxx, rtol=1e-8)
        assert np.allclose(coarse.kxy, kxy, rtol=1e-8)
        assert np.allclose(coarse.kyy, kyy, rtol=1e-8)

    def test_interpolation_between_blocks(self):
        # synthetic backend: kxx equals the block-center x coordinate
        def backend(field, chunk):
            k = [[0.5 * (rect.x0 + rect.x1) + 3.0, 0.0, 1.0]
                 for rect, _ in chunk]
            return BlockResults(np.array(k), np.zeros(len(chunk)))

        side = 4.0
        rect = Rect(-2.0, -2.0, 6.0, 6.0)
        field = uniform_field(rect, 1.0)
        grid = build_block_grid(side, 4.0)
        coarse, _, _ = upscale_domain(field, network_of(domain=rect), grid,
                                      backend, coarse_resolution=4)
        # coarse cell centers at x = 0.5, 1.5, 2.5, 3.5 interpolate linearly
        assert np.allclose(coarse.kxx[:, 0], np.array([0.5, 1.5, 2.5, 3.5])
                           + 3.0, rtol=1e-12)

    def test_non_spd_blocks_projected(self):
        def backend(field, chunk):
            return BlockResults(np.tile([1.0, 2.0, 1.0], (len(chunk), 1)),
                                np.zeros(len(chunk)))

        rect = Rect(-2.0, -2.0, 6.0, 6.0)
        field = uniform_field(rect, 1.0)
        grid = build_block_grid(4.0, 4.0)
        coarse, blocks, projected = upscale_domain(
            field, network_of(domain=rect), grid, backend)
        assert projected == 9
        assert positive_definite(blocks.k).all()

    @pytest.mark.parametrize("block_size", [4.0, 2.0])  # 9 and 25 blocks
    def test_numeric_chunks_match_per_block_loop(self, monkeypatch,
                                                 block_size):
        side, threshold = 4.0, 3.0
        grid = build_block_grid(side, block_size)
        ext = grid.extended
        rng = np.random.default_rng(5)
        n = 16
        kx = np.exp(-6 + 0.5 * rng.standard_normal((n, n)))
        field = TensorField(Grid(n, n, ext.width / n, (ext.x0, ext.y0)),
                            kx, 0.1 * kx, kx[::-1].copy())
        net = generate_dfn(PowerLawSpec(2.5, 0.5, 4.0), 1.5, ext, 1e-4,
                           CONSTANTS, seed=3)
        coarse, blocks, projected = upscale_domain(
            field, net, grid, numeric_backend(8), threshold,
            coarse_resolution=6)
        assert grid.n_blocks % homogenizer.CHUNK_BLOCKS != 0
        # every block as the per-block loop computes it, unscreened
        for (_, _, _, rect), k, res in zip(grid.blocks(), blocks.k,
                                           blocks.residual):
            ref, ref_res = anisotropy_tensor(
                field, clip_network(net, rect, threshold), rect, 8)
            if not positive_definite(ref[None])[0]:
                ref = project_spd(ref)
            assert res == ref_res
            assert np.array_equal(k, ref)
        # one block per backend call gives the same bytes
        monkeypatch.setattr(homogenizer, "CHUNK_BLOCKS", 1)
        coarse1, blocks1, projected1 = upscale_domain(
            field, net, grid, numeric_backend(8), threshold,
            coarse_resolution=6)
        assert projected1 == projected
        assert np.array_equal(blocks1.k, blocks.k)
        assert np.array_equal(blocks1.residual, blocks.residual)
        for c in ("kxx", "kxy", "kyy"):
            assert np.array_equal(getattr(coarse1, c), getattr(coarse, c))


class TestBlockCsv:
    def test_round_trip(self, tmp_path):
        grid = build_block_grid(4.0, 4.0)
        k = np.column_stack([1e-6 * np.arange(1, 10), np.full(9, 1e-8),
                             np.full(9, 2e-6)])
        path = tmp_path / "blocks.csv"
        write_block_csv(grid, BlockResults(k, np.zeros(9)), path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 9
        assert float(rows[3]["k_xx"]) == 4e-6
        assert rows[0]["pd_flag"] == "1"
        assert float(rows[0]["cx"]) == 0.0
        assert float(rows[1]["cx"]) == 2.0

    def test_golden_bytes(self, tmp_path):
        # repr of every float, CRLF rows, and pd_flag 0 on the indefinite
        # row and on the row with negative k_xx
        k = np.array([[0.1 + 0.2, -2.5e-07, 1 / 3],
                      [1.0, 2.0, 1.0],
                      [-1e-9, 0.0, 1.0],
                      [2e-6, 1e-300, 1e-6]])
        residual = np.array([0.0, 1.25e-17, 3.3e-09, 2 / 3])
        path = tmp_path / "blocks.csv"
        write_block_csv(build_block_grid(2.0, 4.0), BlockResults(k, residual),
                        path)
        assert path.read_bytes() == (
            b"block_id,cx,cy,k_xx,k_xy,k_yy,pd_flag,residual\r\n"
            b"0,0.0,0.0,0.30000000000000004,-2.5e-07,0.3333333333333333,1,"
            b"0.0\r\n"
            b"1,2.0,0.0,1.0,2.0,1.0,0,1.25e-17\r\n"
            b"2,0.0,2.0,-1e-09,0.0,1.0,0,3.3e-09\r\n"
            b"3,2.0,2.0,2e-06,1e-300,1e-06,1,0.6666666666666666\r\n")
