import numpy as np
import pytest

from dfm_upscale.geometry import Rect
from dfm_upscale.rasterizer import rasterize_block
from dfm_upscale.random_field import Grid, TensorField

from conftest import make_fracture, network_of, uniform_field


def matrix_mask(sample):
    return sample.image[:, :, 3] == 1.0


class TestMatrixFill:
    def test_uniform_field(self, unit_rect):
        field = uniform_field(unit_rect, 2e-6, 3e-7, 1e-6)
        s = rasterize_block(field, None, unit_rect, 16)
        assert s.image.shape == (16, 16, 4)
        assert np.all(s.image[:, :, 0] == 2e-6)
        assert np.all(s.image[:, :, 1] == 3e-7)
        assert np.all(s.image[:, :, 2] == 1e-6)
        assert np.all(s.image[:, :, 3] == 1.0)
        assert np.all(matrix_mask(s))

    def test_image_orientation(self, unit_rect):
        # kxx increasing with y must appear as increasing row index
        grid = Grid(8, 8, 1.0 / 8)
        ky = np.tile(np.arange(8, dtype=float) + 1.0, (8, 1))  # [ix, iy]
        field = TensorField(grid, ky, np.zeros((8, 8)), ky.copy())
        s = rasterize_block(field, None, unit_rect, 8)
        assert np.all(np.diff(s.image[:, 0, 0]) > 0)     # rows follow y
        assert np.all(s.image[0, :, 0] == s.image[0, 0, 0])  # constant in x

    def test_reference_resolution(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        s = rasterize_block(field, None, unit_rect, 256)
        assert s.image.shape == (256, 256, 4)

    def test_minimum_resolution(self, unit_rect):
        with pytest.raises(ValueError):
            rasterize_block(uniform_field(unit_rect, 1.0), None, unit_rect, 4)

    def test_non_square_block_rejected(self):
        rect = Rect(0.0, 0.0, 2.0, 1.0)
        grid = Grid(8, 8, 0.25)
        field = TensorField(grid, np.ones((8, 8)), np.zeros((8, 8)),
                            np.ones((8, 8)))
        with pytest.raises(ValueError):
            rasterize_block(field, None, rect, 8)


class TestFracturePixels:
    def test_mid_height_horizontal_line(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        fr = make_fracture((0.0, 0.5), (1.0, 0.5), aperture=1e-3)
        s = rasterize_block(field, network_of(fr), unit_rect, 16)
        # y = 0.5 lies on the edge between rows 7 and 8: ties round up
        assert np.all(s.image[8, :, 0] == fr.conductivity)
        assert np.all(s.image[8, :, 1] == 0.0)
        assert np.all(s.image[8, :, 2] == fr.conductivity)
        assert np.all(s.image[8, :, 3] == 1e-3)
        mask = matrix_mask(s)
        assert not mask[8].any()
        assert mask.sum() == 15 * 16

    def test_fracture_isotropic_encoding(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6, 3e-7)
        fr = make_fracture((0.1, 0.1), (0.9, 0.8), aperture=2e-3)
        s = rasterize_block(field, network_of(fr), unit_rect, 32)
        frac = ~matrix_mask(s)
        assert frac.any()
        assert np.all(s.image[frac, 0] == fr.conductivity)
        assert np.all(s.image[frac, 1] == 0.0)
        assert np.all(s.image[frac, 2] == fr.conductivity)
        assert np.all(s.image[frac, 3] == 2e-3)

    def test_larger_aperture_wins_on_overlap(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        thin = make_fracture((0.0, 0.5), (1.0, 0.5), aperture=1e-3,
                             frac_id=0)
        wide = make_fracture((0.5, 0.0), (0.5, 1.0), aperture=3e-3,
                             frac_id=1)
        s = rasterize_block(field, network_of(thin, wide), unit_rect, 16)
        # the crossing pixel carries the wider fracture
        assert s.image[8, 8, 3] == 3e-3
        assert s.image[8, 8, 0] == wide.conductivity
        assert s.image[8, 0, 3] == 1e-3  # away from the crossing

    def test_equal_apertures_lower_id_wins(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        low = make_fracture((0.0, 0.5), (1.0, 0.5), conductivity=1.0,
                            frac_id=3)
        high = make_fracture((0.5, 0.0), (0.5, 1.0), conductivity=2.0,
                             frac_id=7)
        for net in (network_of(low, high), network_of(high, low)):
            s = rasterize_block(field, net, unit_rect, 16)
            assert s.image[8, 8, 0] == 1.0

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
        assert s.image[8, 8, 3] == 3e-3      # a, b and c cross here
        assert s.image[4, 8, 3] == 1e-3      # b alone
        assert s.image[12, 12, 3] == 2e-3    # c alone
        s = rasterize_block(field, network_of(b, c), unit_rect, 16)
        assert s.image[8, 8, 3] == 2e-3      # c outranks b

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
            assert np.array_equal(s.image, ref.image)

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
        assert np.array_equal(a.image, b.image)
