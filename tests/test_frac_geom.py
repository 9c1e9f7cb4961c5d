import csv

import numpy as np
import pytest
from scipy import stats

from dfm_upscale.frac_geom import (CSV_COLUMNS, FractureNetwork,
                                   PowerLawSpec, calibrate_alpha,
                                   excluded_area, expected_count,
                                   fracture_conductivity, generate_dfn,
                                   sample_power_law, save_network)
from dfm_upscale.geometry import Rect

from conftest import CONSTANTS, same_fractures


def power_law_cdf(spec, r):
    p = 1.0 - spec.alpha
    return (r ** p - spec.r_min ** p) / (spec.r_max ** p - spec.r_min ** p)


class TestSamplePowerLaw:
    def test_endpoints(self):
        spec = PowerLawSpec(2.5, 4.325, 100.0)
        assert sample_power_law(spec, 0.0) == pytest.approx(spec.r_min)
        assert sample_power_law(spec, 1.0) == pytest.approx(spec.r_max)

    def test_monotone_in_u(self):
        spec = PowerLawSpec(2.5, 1.0, 50.0)
        u = np.linspace(0.0, 1.0, 101)
        r = sample_power_law(spec, u)
        assert np.all(np.diff(r) > 0)
        assert np.all((r >= spec.r_min) & (r <= spec.r_max))

    def test_median_against_bisection_oracle(self):
        spec = PowerLawSpec(2.0, 1.0, 100.0)
        # independent oracle: invert the CDF by bisection
        lo, hi = spec.r_min, spec.r_max
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if power_law_cdf(spec, mid) < 0.5:
                lo = mid
            else:
                hi = mid
        assert sample_power_law(spec, 0.5) == pytest.approx(lo, rel=1e-9)
        assert sample_power_law(spec, 0.5) == pytest.approx(1.98020, rel=1e-4)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            PowerLawSpec(1.0, 1.0, 10.0)

    def test_u_out_of_range(self):
        spec = PowerLawSpec(2.5, 1.0, 10.0)
        with pytest.raises(ValueError):
            sample_power_law(spec, 1.5)


class TestExpectedCount:
    def test_monodisperse_definition(self):
        # nearly-degenerate length distribution approximates fixed length l
        length = 3.0
        spec = PowerLawSpec(2.5, length, length * (1.0 + 1e-9))
        area = (2.0 / np.pi) * length ** 2
        assert expected_count(spec, 1.0, area) == pytest.approx(1.0, rel=1e-6)

    def test_linearity_in_density(self):
        spec = PowerLawSpec(2.5, 4.325, 100.0)
        one = expected_count(spec, 5.0, 200.0)
        assert expected_count(spec, 10.0, 200.0) == pytest.approx(2 * one)

    def test_calibrated_count_near_1500(self):
        area = 114.28 ** 2
        alpha = calibrate_alpha(1500.0, 10.0, area, 4.325, 100.0)
        spec = PowerLawSpec(alpha, 4.325, 100.0)
        assert expected_count(spec, 10.0, area) == pytest.approx(1500.0,
                                                                 rel=1e-6)
        # the calibration lands at a plausible exponent
        assert 1.5 < alpha < 3.5

    def test_invalid_inputs(self):
        spec = PowerLawSpec(2.5, 1.0, 10.0)
        with pytest.raises(ValueError):
            expected_count(spec, -1.0, 10.0)


class TestMoments:
    def test_mean_against_quadrature(self):
        from scipy.integrate import quad
        spec = PowerLawSpec(2.5, 4.325, 100.0)
        pdf = lambda r: spec.norm_const * r ** (-spec.alpha)
        mean, _ = quad(lambda r: r * pdf(r), spec.r_min, spec.r_max)
        assert spec.mean_length == pytest.approx(mean, rel=1e-9)

    def test_log_case(self):
        # k + 1 - alpha = 0 hits the logarithmic branch
        spec = PowerLawSpec(2.0, 1.0, 10.0)
        from scipy.integrate import quad
        pdf = lambda r: spec.norm_const * r ** (-spec.alpha)
        mean, _ = quad(lambda r: r * pdf(r), spec.r_min, spec.r_max)
        assert spec.moment(1) == pytest.approx(mean, rel=1e-9)

    def test_excluded_area_formula(self):
        spec = PowerLawSpec(2.5, 4.325, 100.0)
        assert excluded_area(spec) == pytest.approx(
            (2.0 / np.pi) * spec.mean_length ** 2)


class TestFractureConductivity:
    def test_aperture_relation(self):
        delta, _ = fracture_conductivity(100.0, 1e-4, CONSTANTS)
        assert delta == pytest.approx(0.01)

    def test_cubic_law_value(self):
        _, k_f = fracture_conductivity(100.0, 1e-4, CONSTANTS)
        assert k_f == pytest.approx(81.75)

    def test_quadratic_scaling(self):
        _, k1 = fracture_conductivity(10.0, 1e-4, CONSTANTS)
        _, k2 = fracture_conductivity(20.0, 1e-4, CONSTANTS)
        assert k2 == pytest.approx(4.0 * k1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            fracture_conductivity(-1.0, 1e-4, CONSTANTS)
        with pytest.raises(ValueError):
            fracture_conductivity(1.0, 0.0, CONSTANTS)


class TestGenerateDfn:
    domain = Rect(0.0, 0.0, 50.0, 50.0)
    spec = PowerLawSpec(2.5, 2.0, 40.0)

    def dfn(self, density, seed):
        return generate_dfn(self.spec, density, self.domain, 1e-4, CONSTANTS,
                            seed=seed)

    def test_determinism(self):
        a = self.dfn(5.0, 42)
        b = self.dfn(5.0, 42)
        assert len(a) == len(b)
        assert same_fractures(a, b)  # bit-identical

    def test_seed_changes_network(self):
        a = self.dfn(5.0, 1)
        b = self.dfn(5.0, 2)
        assert a.length.tolist() != b.length.tolist()

    def test_centers_inside_angles_in_range(self):
        net = self.dfn(5.0, 3)
        for center, angle, length, aperture, conductivity in zip(
                net.center, net.angle, net.length, net.aperture,
                net.conductivity):
            assert self.domain.x0 <= center[0] <= self.domain.x1
            assert self.domain.y0 <= center[1] <= self.domain.y1
            assert 0.0 <= angle < np.pi
            assert self.spec.r_min <= length <= self.spec.r_max
            assert aperture == pytest.approx(1e-4 * length)
            d, k = fracture_conductivity(length, 1e-4, CONSTANTS)
            assert conductivity == pytest.approx(k)

    def test_endpoints_match_scalar_reference(self):
        # the per-fracture formula the array endpoints replace
        net = self.dfn(5.0, 4)
        assert len(net) > 10
        for k in range(len(net)):
            h = 0.5 * float(net.length[k]) * np.array(
                [np.cos(float(net.angle[k])), np.sin(float(net.angle[k]))])
            assert np.array_equal(net.p0[k], net.center[k] - h)
            assert np.array_equal(net.p1[k], net.center[k] + h)

    def test_vanishing_density(self):
        net = self.dfn(1e-9, 3)
        assert len(net) == 0

    def test_empirical_mean_length(self):
        spec = PowerLawSpec(2.5, 4.325, 100.0)
        rng = np.random.default_rng(7)
        lengths = sample_power_law(spec, rng.uniform(size=10 ** 4))
        assert np.mean(lengths) == pytest.approx(spec.mean_length, rel=0.02)

    def test_length_distribution_ks(self):
        spec = PowerLawSpec(2.5, 4.325, 100.0)
        rng = np.random.default_rng(11)
        lengths = sample_power_law(spec, rng.uniform(size=10 ** 5))
        ks = stats.kstest(lengths, lambda r: power_law_cdf(spec, r))
        assert ks.statistic < 0.01

    def test_angle_uniformity_chi2(self):
        nets = [self.dfn(30.0, s) for s in range(60)]
        angles = np.concatenate([n.angle for n in nets])
        assert len(angles) > 10 ** 4
        counts, _ = np.histogram(angles, bins=20, range=(0.0, np.pi))
        chi2 = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
        # 1% significance, 19 dof
        assert chi2 < stats.chi2.ppf(0.99, 19)

    def test_poisson_dispersion(self):
        # variance/mean of sub-rectangle counts near 1 for a Poisson process
        domain = Rect(0.0, 0.0, 10.0, 10.0)
        spec = PowerLawSpec(2.5, 0.5, 5.0)
        counts = []
        for s in range(500):
            net = generate_dfn(spec, 2.0, domain, 1e-4, CONSTANTS, seed=s)
            grid = np.zeros((10, 10))
            for cx, cy in net.center:
                i = min(int(cx), 9)
                j = min(int(cy), 9)
                grid[i, j] += 1
            counts.append(grid.ravel())
        counts = np.concatenate(counts)
        assert 0.8 < counts.var() / counts.mean() < 1.2


class TestSerialization:
    def test_round_trip(self, tmp_path):
        # network.csv parses back to exactly the arrays
        net = generate_dfn(PowerLawSpec(2.5, 2.0, 30.0), 5.0,
                           Rect(0, 0, 40, 40), 1e-4, CONSTANTS, seed=9)
        path = tmp_path / "network.csv"
        save_network(net, path)
        with open(path, newline="") as f:
            header, *rows = csv.reader(f)
        assert header == list(CSV_COLUMNS)
        cols = {name: [float(v) for v in values]
                for name, values in zip(header, zip(*rows))}
        back = FractureNetwork(
            id=[int(v) for v, *_ in rows],
            center=np.column_stack([cols["cx"], cols["cy"]]),
            **{name: cols[name] for name in
               ("length", "angle", "aperture", "conductivity")})
        assert len(back) == len(net) > 0
        assert same_fractures(back, net)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["network.csv"]
