import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfm_upscale import homogenizer
from dfm_upscale.dataset_pipeline import compute_stats
from dfm_upscale.dfm_solver import SIDES, discretize, solve_darcy
from dfm_upscale.frac_geom import (FractureNetwork, PowerLawSpec,
                                   clip_to_blocks, generate_dfn)
from dfm_upscale.geometry import Rect, clip_segments
from dfm_upscale.homogenizer import (BlockResults, anisotropy_tensor,
                                     aquifer_kx, block_candidates,
                                     build_block_grid, numeric_backend,
                                     positive_definite,
                                     project_spd, upscale_domain,
                                     write_block_csv, _weighted_averages)
from dfm_upscale.random_field import Grid, TensorField, sample_tensor_field
from dfm_upscale.rasterizer import rasterize_blocks
from dfm_upscale.surrogate import Architecture, SurrogateModel
from dfm_upscale.surrogate.predict import surrogate_backend

from conftest import (CONSTANTS, layered_field, make_fracture, network_of,
                      uniform_field)

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
                       for k, s in enumerate(segments)))
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
    field = TensorField(Grid(n, n, 1.0 / n),
                        np.stack([kx, np.zeros((n, n)), ky], axis=-1))
    ends = rng.uniform(0.1, 0.9, (3, 4))
    fracs = [make_fracture(e[:2], e[2:], aperture=1e-3, frac_id=i)
             for i, e in enumerate(ends)]

    rect_s = Rect(0.0, 0.0, scale, scale)
    field_s = TensorField(Grid(n, n, scale / n), np.stack(
        [scale ** 2 * kx, np.zeros((n, n)), scale ** 2 * ky], axis=-1))
    fracs_s = [make_fracture(scale * e[:2], scale * e[2:],
                             aperture=scale * 1e-3, frac_id=i)
               for i, e in enumerate(ends)]
    return ((field, network_of(*fracs), rect),
            (field_s, network_of(*fracs_s), rect_s))


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
        # h = x and h = y on the whole boundary
        sols = solve_darcy(system, SIDES, system.dof_coords)
        for sol, unit in zip(sols, np.eye(2)):
            g, _ = _weighted_averages(sol)
            assert np.linalg.norm(g - unit) <= 0.05

    def test_transpose_symmetry(self, unit_rect):
        k_vals = [1e-6, 1e-7, 3e-7, 2e-6]
        field = layered_field(unit_rect, k_vals, n=32)
        # same medium rotated a quarter turn: vertical layers
        rot = TensorField(field.grid, field.k[:, :, ::-1].transpose(1, 0, 2))
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
            rect = Rect(*grid.rects[j * grid.n_per_axis + i])
            k, _ = anisotropy_tensor(field, net, rect, 12)
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
        field = TensorField(grid, np.tile([1e-6, 0.0, 1e-6], (16, 8, 1)))
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
        assert grid.centers[0] == 0.0
        assert grid.centers[-1] == pytest.approx(100.0)
        assert grid.extended.x0 == pytest.approx(-100.0 / 14)
        assert grid.extended.x1 == pytest.approx(100.0 + 100.0 / 14)

    def test_small_tiling(self):
        grid = build_block_grid(4.0, 4.0)
        assert grid.n_blocks == 9
        assert np.allclose(grid.centers, [0.0, 2.0, 4.0])
        assert grid.rects[0].tolist() == [-2.0, -2.0, 2.0, 2.0]

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ValueError):
            build_block_grid(100.0, 13.0)

    def test_rects_row_major(self):
        # block b = j * n + i, x fastest, is centers (i, j) -/+ half a
        # block, bit for bit
        for side, block_size in [(4.0, 4.0), (4.0, 2.0),
                                 (100.0, 2 * 100.0 / 14), (20.0, 10.0)]:
            grid = build_block_grid(side, block_size)
            n, half = grid.n_per_axis, 0.5 * grid.block_size
            c = grid.centers
            expected = [Rect(c[i] - half, c[j] - half, c[i] + half,
                             c[j] + half).as_tuple()
                        for j in range(n) for i in range(n)]
            assert grid.rects.shape == (grid.n_blocks, 4)
            assert np.array_equal(grid.rects, expected)
            assert grid.rects[1, 0] > grid.rects[0, 0]   # x fastest
            assert grid.rects[n, 1] > grid.rects[0, 1]


def candidates_of(network, block_size, threshold=None):
    """The ids of every block's clipped fractures over the 4 x 4 domain."""
    grid = build_block_grid(4.0, block_size)
    return [chunk.id[chunk.block == b].tolist()
            for chunk in block_candidates(network, grid.rects, threshold)
            for b in range(len(chunk.rects))]


# random blocks, whose corners often lie on the half-steps of _coords
_rects = st.tuples(_coords, _coords,
                   st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                             st.floats(0.1, 4.0)),
                   st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                             st.floats(0.1, 4.0))).map(
    lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))


class TestClipNetwork:
    """A block's rows of a chunk are what clipping the whole network to
    the block gives."""

    def test_keeps_intersecting_only(self):
        inside = make_fracture((0.2, 0.2), (0.8, 0.8), frac_id=0)
        outside = make_fracture((4.5, 4.5), (5.5, 5.5), frac_id=1)
        net = network_of(inside, outside)
        grid = build_block_grid(4.0, 2.0)
        first = next(block_candidates(net, grid.rects))
        assert np.array_equal(first.rects, grid.rects[:8])
        # blocks 0, 1, 5 and 6 overlap at the inside fracture
        assert first.block.tolist() == [0, 1, 5, 6]
        assert first.id.tolist() == [0] * 4
        _, q0, q1 = clip_segments(net.p0[:1], net.p1[:1], grid.rects[:1])
        assert np.array_equal(first.p0[:1], q0)
        assert np.array_equal(first.p1[:1], q1)
        ids = candidates_of(net, 2.0)
        assert all(1 not in block for block in ids[:-1])
        assert ids[-1] == [1]

    def test_length_threshold(self):
        short = make_fracture((0.2, 0.2), (0.4, 0.2), frac_id=0)
        long = make_fracture((0.1, 0.5), (0.9, 0.5), frac_id=1)
        net = network_of(short, long)
        ids = candidates_of(net, 2.0, threshold=0.5)
        assert ids[0] == [0]
        assert all(1 not in block for block in ids)
        assert candidates_of(net, 2.0)[0] == [0, 1]

    def test_empty_network(self):
        assert candidates_of(network_of(), 4.0) == [[]] * 9

    @settings(max_examples=200, deadline=None)
    @given(segments=st.one_of(st.none(), st.lists(_segments, max_size=12)),
           rects=st.lists(_rects, min_size=1, max_size=6),
           touching=st.booleans(),
           threshold=st.one_of(st.none(), st.floats(0.1, 8.0)))
    def test_screened_clip_equals_unscreened(self, segments, rects,
                                             touching, threshold):
        if segments is not None and touching:
            # one fracture meets the first block at its corner only, one
            # runs along its bottom edge
            x0, y0, x1, y1 = rects[0]
            segments = segments + [(x1, y1, x1 + 1.0, y1 + 1.5),
                                   (x0 - 0.5, y0, x1, y0)]
        net = None if segments is None else exact_network(segments)
        rows = (None if net is None or threshold is None
                else net.length < threshold)
        if net is not None:
            net.aperture = 1e-3 * (1.0 + np.arange(len(net)))
            net.conductivity = 1.0 + np.arange(len(net))
        chunk = clip_to_blocks(net, rects, rows)
        assert np.array_equal(chunk.rects, rects)
        assert np.all(np.diff(chunk.block) >= 0)
        for b, rect in enumerate(rects):
            mine = chunk.block == b
            if net is None:
                assert not mine.any()
                continue
            sel = (np.arange(len(net)) if rows is None
                   else np.flatnonzero(rows))
            kept, q0, q1 = clip_segments(net.p0[sel], net.p1[sel],
                                         Rect(*rect))
            src = sel[kept]
            assert np.array_equal(chunk.id[mine], net.id[src])
            assert np.array_equal(chunk.aperture[mine], net.aperture[src])
            assert np.array_equal(chunk.conductivity[mine],
                                  net.conductivity[src])
            assert np.array_equal(chunk.p0[mine], q0)
            assert np.array_equal(chunk.p1[mine], q1)
        one = clip_to_blocks(net, Rect(*rects[0]), rows)
        for a, b in zip(one, clip_to_blocks(net, rects[:1], rows)):
            assert np.array_equal(a, b)

    def test_screen_without_network(self):
        grid = build_block_grid(4.0, 2.0)
        chunks = list(block_candidates(network_of(), grid.rects, 0.5))
        assert [len(c.rects) for c in chunks] == [8, 8, 8, 1]
        assert np.array_equal(np.concatenate([c.rects for c in chunks]),
                              grid.rects)
        assert all(len(c.block) == len(c.id) == 0 for c in chunks)


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
            field, network_of(), grid, numeric_backend(16),
            coarse_resolution=8)
        assert projected == 0
        assert blocks.k.shape == (9, 3) and blocks.residual.shape == (9,)
        assert coarse.grid.shape == (8, 8)
        assert np.allclose(coarse.k[..., 0], kxx, rtol=1e-8)
        assert np.allclose(coarse.k[..., 1], kxy, rtol=1e-8)
        assert np.allclose(coarse.k[..., 2], kyy, rtol=1e-8)

    def test_interpolation_between_blocks(self):
        # synthetic backend: kxx equals the block-center x coordinate
        def backend(field, chunk):
            x0, _, x1, _ = chunk.rects.T
            k = np.column_stack([0.5 * (x0 + x1) + 3.0, np.zeros(len(x0)),
                                 np.ones(len(x0))])
            return BlockResults(k, np.zeros(len(x0)))

        side = 4.0
        rect = Rect(-2.0, -2.0, 6.0, 6.0)
        field = uniform_field(rect, 1.0)
        grid = build_block_grid(side, 4.0)
        coarse, _, _ = upscale_domain(field, network_of(), grid,
                                      backend, coarse_resolution=4)
        # coarse cell centers at x = 0.5, 1.5, 2.5, 3.5 interpolate linearly
        assert np.allclose(coarse.k[:, 0, 0], np.array([0.5, 1.5, 2.5, 3.5])
                           + 3.0, rtol=1e-12)

    def test_non_spd_blocks_projected(self):
        def backend(field, chunk):
            n = len(chunk.rects)
            return BlockResults(np.tile([1.0, 2.0, 1.0], (n, 1)), np.zeros(n))

        rect = Rect(-2.0, -2.0, 6.0, 6.0)
        field = uniform_field(rect, 1.0)
        grid = build_block_grid(4.0, 4.0)
        coarse, blocks, projected = upscale_domain(
            field, network_of(), grid, backend)
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
                            np.stack([kx, 0.1 * kx, kx[::-1]], axis=-1))
        net = generate_dfn(PowerLawSpec(2.5, 0.5, 4.0), 1.5, ext, 1e-4,
                           CONSTANTS, seed=3)
        coarse, blocks, projected = upscale_domain(
            field, net, grid, numeric_backend(8), threshold,
            coarse_resolution=6)
        assert grid.n_blocks % homogenizer.CHUNK_BLOCKS != 0
        # every block as the per-block loop computes it, unscreened
        mask = net.length < threshold
        short = FractureNetwork(*(getattr(net, name)[mask] for name in (
            "id", "center", "length", "angle", "aperture", "conductivity")))
        for rect, k, res in zip(grid.rects, blocks.k, blocks.residual):
            ref, ref_res = anisotropy_tensor(field, short, Rect(*rect), 8)
            if not positive_definite(ref[None])[0]:
                ref = project_spd(ref)
            assert res == ref_res
            assert np.array_equal(k, ref)
        # one block per chunk, or all blocks in one, gives the same bytes
        for size in (1, grid.n_blocks):
            monkeypatch.setattr(homogenizer, "CHUNK_BLOCKS", size)
            coarse1, blocks1, projected1 = upscale_domain(
                field, net, grid, numeric_backend(8), threshold,
                coarse_resolution=6)
            assert projected1 == projected
            assert np.array_equal(blocks1.k, blocks.k)
            assert np.array_equal(blocks1.residual, blocks.residual)
            assert np.array_equal(coarse1.k, coarse.k)

    def test_surrogate_chunks_match_per_block_loop(self, monkeypatch):
        grid = build_block_grid(4.0, 2.0)  # 25 blocks: chunks of 8, 8, 8, 1
        assert grid.n_blocks % homogenizer.CHUNK_BLOCKS != 0
        ext = grid.extended
        rng = np.random.default_rng(7)
        n = 16
        kx = np.exp(-6 + 0.5 * rng.standard_normal((n, n)))
        field = TensorField(Grid(n, n, ext.width / n, (ext.x0, ext.y0)),
                            np.stack([kx, 0.1 * kx, kx[::-1]], axis=-1))
        # block (i, j) covers [i - 1, i + 1] x [j - 1, j + 1]; no fracture
        # reaches y > 2.5, so blocks 20-24 have no candidates
        net = exact_network([
            (-1.5, 0.3, 5.5, 0.3),  # crosses blocks 0-9, two chunks
            (0.3, -1.5, 0.3, 2.5),  # same aperture as 0: id 0 wins
            (1.2, 0.1, 2.7, 1.9),   # wider than 0: wins where they cross
            (3.4, 1.6, 3.6, 1.6),
        ])
        net.aperture = np.array([1e-3, 1e-3, 2e-3, 1e-3])
        net.conductivity = np.array([1.0, 2.0, 3.0, 4.0])
        res = 16
        chunks = list(block_candidates(net, grid.rects))
        assert [len(c.rects) for c in chunks] == [8, 8, 8, 1]
        block = np.concatenate([c.block + homogenizer.CHUNK_BLOCKS * i
                                for i, c in enumerate(chunks)])
        assert block.max() < 20
        images = np.concatenate([rasterize_blocks(field, c, res)
                                 for c in chunks])
        single = np.concatenate([
            rasterize_blocks(field, clip_to_blocks(net, rect), res)
            for rect in grid.rects])
        assert np.array_equal(images, single)
        # the fractures of one block do not paint another
        conductivity = images[:, 3] != 1.0
        assert not conductivity[20:].any()
        drawn = [set(np.unique(image[0][mask])) for image, mask
                 in zip(images, conductivity)]
        assert drawn[0] == {1.0, 2.0}            # (0, 0): fractures 0 and 1
        assert drawn[4] == {1.0}                 # (4, 0): fracture 0 only
        assert drawn[14] == {4.0}                # (4, 2): fracture 3 only
        # pixel (row, col) = (10, 10) of blocks 0 and 1 is where fracture 0
        # crosses fracture 1 and fracture 2
        assert images[0, 0, 10, 10] == 1.0
        assert images[1, 0, 10, 10] == 3.0

        rng = np.random.default_rng(0)
        stats = compute_stats(single, np.exp(rng.normal(-6, 0.5, (25, 3))),
                              np.arange(25))
        model = SurrogateModel(
            Architecture(resolution=res, conv_channels=(2, 3),
                         dense_widths=(8,)), seed=4, stats=stats)
        _, chunked, _ = upscale_domain(field, net, grid,
                                       surrogate_backend(model))
        monkeypatch.setattr(homogenizer, "CHUNK_BLOCKS", 1)
        _, one_by_one, _ = upscale_domain(field, net, grid,
                                          surrogate_backend(model))
        assert np.array_equal(chunked.k, one_by_one.k)


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
