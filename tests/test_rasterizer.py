import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfm_upscale.geometry import Rect, clip_segments, supercover_cells
from dfm_upscale.frac_geom import clip_to_blocks
from dfm_upscale.homogenizer import build_block_grid
from dfm_upscale.rasterizer import rasterize_blocks
from dfm_upscale.random_field import Grid, TensorField

from conftest import make_fracture, network_of, uniform_field


def matrix_mask(image):
    return image[3] == 1.0


def rasterize_block(field_, network, block, resolution):
    """The (4, R, R) image of one block: its chunk of one."""
    return rasterize_blocks(field_, clip_to_blocks(network, block),
                            resolution)[0]


def reference_rasterize_block(field_, network, block, resolution):
    """One block at a time, with a 2x2 tensor lookup per pixel: the
    per-block form of rasterize_blocks, kept as its reference."""
    r = resolution
    pitch = block.width / r
    centers = block.x0 + pitch * (np.arange(r) + 0.5)
    centers_y = block.y0 + pitch * (np.arange(r) + 0.5)
    cx, cy = np.meshgrid(centers, centers_y, indexing="xy")
    ix, iy = field_.grid.cell_index(cx, cy)  # (r, r), row-major in y

    image = np.empty((4, r, r))
    image[0] = field_.k[ix, iy, 0]
    image[1] = field_.k[ix, iy, 1]
    image[2] = field_.k[ix, iy, 2]
    image[3] = 1.0

    order = np.lexsort((-network.id, network.aperture))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    kept, q0, q1 = clip_segments(network.p0, network.p1, block)
    origin = np.array([block.x0, block.y0])
    seg, cells = supercover_cells((q0 - origin) / pitch, (q1 - origin) / pitch,
                                  r, r)
    owner = np.full((r, r), -1, dtype=np.int64)
    np.maximum.at(owner, (cells[:, 1], cells[:, 0]), rank[kept[seg]])
    hit = owner >= 0
    drawn = order[owner[hit]]
    image[0][hit] = network.conductivity[drawn]
    image[1][hit] = 0.0
    image[2][hit] = network.conductivity[drawn]
    image[3][hit] = network.aperture[drawn]
    return image


# block edges of build_block_grid(3.0, 2.0) lie on multiples of 1 in
# [-1, 4] and the pixel edges of its 8-pixel rasters on multiples of 1/4:
# coordinates in eighths often start, end or run on them
_coord = st.one_of(st.integers(-12, 36).map(lambda k: k / 8),
                   st.floats(-1.5, 4.5, allow_nan=False))
_fracture = st.tuples(_coord, _coord, _coord, _coord,
                      st.sampled_from([1e-3, 2e-3]))


class TestMatrixFill:
    def test_uniform_field(self, unit_rect):
        field = uniform_field(unit_rect, 2e-6, 3e-7, 1e-6)
        s = rasterize_block(field, network_of(), unit_rect, 16)
        assert s.shape == (4, 16, 16)
        assert np.all(s[0] == 2e-6)
        assert np.all(s[1] == 3e-7)
        assert np.all(s[2] == 1e-6)
        assert np.all(s[3] == 1.0)
        assert np.all(matrix_mask(s))

    def test_image_orientation(self, unit_rect):
        # kxx increasing with y must appear as increasing row index
        grid = Grid(8, 8, 1.0 / 8)
        ky = np.tile(np.arange(8, dtype=float) + 1.0, (8, 1))  # [ix, iy]
        field = TensorField(grid, np.stack([ky, np.zeros((8, 8)), ky], -1))
        s = rasterize_block(field, network_of(), unit_rect, 8)
        assert np.all(np.diff(s[0, :, 0]) > 0)     # rows follow y
        assert np.all(s[0, 0, :] == s[0, 0, 0])  # constant in x

    def test_reference_resolution(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        s = rasterize_block(field, network_of(), unit_rect, 256)
        assert s.shape == (4, 256, 256)

    def test_minimum_resolution(self, unit_rect):
        with pytest.raises(ValueError):
            rasterize_block(uniform_field(unit_rect, 1.0), network_of(),
                            unit_rect, 4)

    def test_non_square_block_rejected(self):
        rect = Rect(0.0, 0.0, 2.0, 1.0)
        grid = Grid(8, 8, 0.25)
        field = TensorField(grid, np.tile([1.0, 0.0, 1.0], (8, 8, 1)))
        with pytest.raises(ValueError):
            rasterize_block(field, network_of(), rect, 8)


class TestFracturePixels:
    def test_mid_height_horizontal_line(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        fr = make_fracture((0.0, 0.5), (1.0, 0.5), aperture=1e-3)
        s = rasterize_block(field, network_of(fr), unit_rect, 16)
        # y = 0.5 lies on the edge between rows 7 and 8: ties round up
        assert np.all(s[0, 8, :] == fr.conductivity)
        assert np.all(s[1, 8, :] == 0.0)
        assert np.all(s[2, 8, :] == fr.conductivity)
        assert np.all(s[3, 8, :] == 1e-3)
        mask = matrix_mask(s)
        assert not mask[8].any()
        assert mask.sum() == 15 * 16

    def test_fracture_isotropic_encoding(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6, 3e-7)
        fr = make_fracture((0.1, 0.1), (0.9, 0.8), aperture=2e-3)
        s = rasterize_block(field, network_of(fr), unit_rect, 32)
        frac = ~matrix_mask(s)
        assert frac.any()
        assert np.all(s[0][frac] == fr.conductivity)
        assert np.all(s[1][frac] == 0.0)
        assert np.all(s[2][frac] == fr.conductivity)
        assert np.all(s[3][frac] == 2e-3)

    def test_larger_aperture_wins_on_overlap(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        thin = make_fracture((0.0, 0.5), (1.0, 0.5), aperture=1e-3,
                             frac_id=0)
        wide = make_fracture((0.5, 0.0), (0.5, 1.0), aperture=3e-3,
                             frac_id=1)
        s = rasterize_block(field, network_of(thin, wide), unit_rect, 16)
        # the crossing pixel carries the wider fracture
        assert s[3, 8, 8] == 3e-3
        assert s[0, 8, 8] == wide.conductivity
        assert s[3, 8, 0] == 1e-3  # away from the crossing

    def test_equal_apertures_lower_id_wins(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        low = make_fracture((0.0, 0.5), (1.0, 0.5), conductivity=1.0,
                            frac_id=3)
        high = make_fracture((0.5, 0.0), (0.5, 1.0), conductivity=2.0,
                             frac_id=7)
        for net in (network_of(low, high), network_of(high, low)):
            s = rasterize_block(field, net, unit_rect, 16)
            assert s[0, 8, 8] == 1.0

    def test_three_crossing_resolve_by_rank(self, unit_rect):
        # three lines through the centre pixel (8, 8) of a 16 x 16 raster;
        # rank order (aperture, -id): b < c < a
        field = uniform_field(unit_rect, 1e-6)
        a = make_fracture((0.0, 0.52), (1.0, 0.52), aperture=3e-3,
                          frac_id=0)
        b = make_fracture((0.52, 0.0), (0.52, 1.0), aperture=1e-3,
                          frac_id=1)
        c = make_fracture((0.02, 0.02), (0.98, 0.98), aperture=2e-3,
                          frac_id=2)
        s = rasterize_block(field, network_of(a, b, c), unit_rect, 16)
        assert s[3, 8, 8] == 3e-3      # a, b and c cross here
        assert s[3, 4, 8] == 1e-3      # b alone
        assert s[3, 12, 12] == 2e-3    # c alone
        s = rasterize_block(field, network_of(b, c), unit_rect, 16)
        assert s[3, 8, 8] == 2e-3      # c outranks b

    def test_input_order_does_not_matter(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        rng = np.random.default_rng(2)
        fracs = [make_fracture(rng.uniform(-0.2, 1.2, 2),
                               rng.uniform(-0.2, 1.2, 2),
                               aperture=float(rng.choice([1e-3, 2e-3])),
                               frac_id=i) for i in range(12)]
        ref = rasterize_block(field, network_of(*fracs), unit_rect, 32)
        assert (~matrix_mask(ref)).sum() > 32
        for perm in (rng.permutation(12) for _ in range(5)):
            s = rasterize_block(field, network_of(*[fracs[k] for k in perm]),
                                unit_rect, 32)
            assert np.array_equal(s, ref)

    @pytest.mark.parametrize("p0,p1", [((1.0, 1.0), (1.5, 1.5)),
                                       ((0.5, 1.5), (1.0, 1.0))])
    def test_corner_touch_draws_nothing(self, unit_rect, p0, p1):
        field = uniform_field(unit_rect, 1e-6)
        s = rasterize_block(field, network_of(make_fracture(p0, p1)),
                            unit_rect, 16)
        assert np.all(matrix_mask(s))

    def test_pixel_count_bounds(self, unit_rect):
        # a one-pixel line over a segment of length l (in pixels) marks
        # between l and 2l + 2 pixels
        field = uniform_field(unit_rect, 1e-6)
        rng = np.random.default_rng(0)
        for i in range(20):
            p0 = rng.uniform(0.05, 0.95, 2)
            p1 = rng.uniform(0.05, 0.95, 2)
            fr = make_fracture(p0, p1, frac_id=i)
            s = rasterize_block(field, network_of(fr), unit_rect, 64)
            n_pix = int((~matrix_mask(s)).sum())
            l_pix = np.hypot(*(p1 - p0)) * 64
            assert np.floor(l_pix) <= n_pix <= 2 * l_pix + 2

    def test_supercover_matches_point_sampling(self, unit_rect):
        # oracle: dense sampling along the fracture hits only marked pixels
        field = uniform_field(unit_rect, 1e-6)
        p0 = np.array([0.13, 0.21])
        p1 = np.array([0.87, 0.69])
        fr = make_fracture(p0, p1)
        s = rasterize_block(field, network_of(fr), unit_rect, 32)
        frac = ~matrix_mask(s)
        for t in np.linspace(0.0, 1.0, 5001):
            x, y = p0 + t * (p1 - p0)
            col = min(int(x * 32), 31)
            row = min(int(y * 32), 31)
            assert frac[row, col]

    def test_outside_fracture_ignored(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        fr = make_fracture((2.0, 2.0), (3.0, 2.5))
        s = rasterize_block(field, network_of(fr), unit_rect, 16)
        assert np.all(matrix_mask(s))

    def test_determinism(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        net = network_of(make_fracture((0.1, 0.2), (0.9, 0.8), frac_id=0),
                         make_fracture((0.2, 0.9), (0.8, 0.1), frac_id=1))
        a = rasterize_block(field, net, unit_rect, 64)
        b = rasterize_block(field, net, unit_rect, 64)
        assert np.array_equal(a, b)


class TestChunks:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(_fracture, max_size=10), data=st.data())
    def test_matches_per_block_reference(self, rows, data):
        # 16 blocks, cut into chunks of random sizes; random ids, so equal
        # apertures fall to the lower id in every block
        grid = build_block_grid(3.0, 2.0)
        ext = grid.extended
        rng = np.random.default_rng(len(rows))
        field = TensorField(Grid(12, 12, ext.width / 12, (ext.x0, ext.y0)),
                            np.moveaxis(rng.uniform(1.0, 2.0, (3, 12, 12)),
                                        0, -1))
        ids = data.draw(st.permutations(range(len(rows))))
        net = network_of(*(make_fracture(r[:2], r[2:4], aperture=r[4],
                                         conductivity=float(k), frac_id=i)
                           for k, (r, i) in enumerate(zip(rows, ids))))
        net.p0 = np.array([r[:2] for r in rows], float).reshape(-1, 2)
        net.p1 = np.array([r[2:4] for r in rows], float).reshape(-1, 2)
        rects = grid.rects
        cuts = sorted(data.draw(st.sets(st.integers(1, len(rects) - 1))))
        for a, b in zip([0] + cuts, cuts + [len(rects)]):
            images = rasterize_blocks(field, clip_to_blocks(net, rects[a:b]),
                                      8)
            assert images.shape == (b - a, 4, 8, 8)
            for image, rect in zip(images, rects[a:b]):
                assert np.array_equal(image, reference_rasterize_block(
                    field, net, Rect(*rect), 8))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(_fracture, max_size=10), seed=st.integers(0, 99))
    def test_transpose_equivariant(self, rows, seed):
        # swapping x and y (the field's k_xx and k_yy, the rects and the
        # endpoints) transposes every image and swaps channels 0 and 2, bit
        # for bit, when each block's width and height are equal floats
        grid = build_block_grid(3.0, 2.0)
        ext = grid.extended
        rng = np.random.default_rng(seed)
        k = np.moveaxis(rng.uniform(1.0, 2.0, (3, 12, 10)), 0, -1)
        field = TensorField(Grid(12, 10, ext.width / 12, (ext.x0, ext.y0)),
                            k)
        swapped = TensorField(Grid(10, 12, ext.width / 12, (ext.y0, ext.x0)),
                              k.transpose(1, 0, 2)[..., ::-1])
        net = network_of(*(make_fracture(r[:2], r[2:4], aperture=r[4],
                                         conductivity=float(i + 1),
                                         frac_id=i)
                           for i, r in enumerate(rows)))
        net.p0 = np.array([r[:2] for r in rows], float).reshape(-1, 2)
        net.p1 = np.array([r[2:4] for r in rows], float).reshape(-1, 2)
        rects = grid.rects
        assert np.array_equal(rects[:, 2] - rects[:, 0],
                              rects[:, 3] - rects[:, 1])
        chunk = clip_to_blocks(net, rects)
        mirror = chunk._replace(rects=rects[:, [1, 0, 3, 2]],
                                p0=chunk.p0[:, ::-1], p1=chunk.p1[:, ::-1])
        images = rasterize_blocks(field, chunk, 8)
        assert np.array_equal(rasterize_blocks(swapped, mirror, 8),
                              images.transpose(0, 1, 3, 2)[:, [2, 1, 0, 3]])

    def test_rejects_bad_resolution_and_non_square_blocks(self, unit_rect):
        field = uniform_field(Rect(0.0, 0.0, 2.0, 2.0), 1.0)
        square = unit_rect.as_tuple()
        with pytest.raises(ValueError):
            rasterize_blocks(field, clip_to_blocks(network_of(),
                                                   [square, square]), 4)
        with pytest.raises(ValueError):
            rasterize_blocks(field, clip_to_blocks(
                None, [square, (0.0, 0.0, 2.0, 1.0)]), 8)
