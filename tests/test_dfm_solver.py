import warnings

import numpy as np
import pytest

from dfm_upscale.dfm_solver import (BoundaryCondition, aquifer_bc, discretize,
                                    linear_head, locate_triangle, solve_darcy)
from dfm_upscale.geometry import Rect
from dfm_upscale.random_field import Grid, TensorField

from conftest import (layered_field, make_fracture, network_of,
                      uniform_field)


def random_tensor_field(rect, n, seed, log_spread=1.0):
    """Heterogeneous SPD tensor field for generic tests."""
    rng = np.random.default_rng(seed)
    grid = Grid(n, n, rect.width / n, (rect.x0, rect.y0))
    kx = np.exp(-6.0 + log_spread * rng.standard_normal((n, n)))
    ky = np.exp(-6.0 + log_spread * rng.standard_normal((n, n)))
    theta = rng.uniform(0, np.pi, (n, n))
    c, s = np.cos(theta), np.sin(theta)
    kxx = c ** 2 * kx + s ** 2 * ky
    kyy = s ** 2 * kx + c ** 2 * ky
    kxy = c * s * (kx - ky)
    return TensorField(grid, kxx, kxy, kyy)


class TestDiscretize:
    def test_matrix_only_dof_count(self, unit_rect):
        field = uniform_field(unit_rect, 1.0)
        sys_ = discretize(field, None, unit_rect, 8, 8)
        assert sys_.n_dofs == 9 * 9
        assert sys_.n_matrix_dofs == 81
        assert len(sys_.frac_elems) == 0
        assert sys_.matrix.shape == (81, 81)
        assert len(sys_.tris) == 2 * 64

    def test_single_fracture_chain(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        net = network_of(make_fracture((0.0, 0.5), (1.0, 0.5)))
        sys_ = discretize(field, net, unit_rect, 8, 8)
        n_el = len(sys_.frac_elems)
        assert n_el > 0
        # single chain without intersections: one more node than elements
        assert len(sys_.frac_nodes) == n_el + 1
        # subdivision target is 0.75 * cell size
        assert np.all(sys_.frac_len <= 0.75 * (1.0 / 8) + 1e-12)
        assert sys_.frac_len.sum() == pytest.approx(1.0)
        assert np.allclose(sys_.frac_tangent, [1.0, 0.0])
        assert np.all(sys_.coupling_tri >= 0)
        assert np.all(sys_.coupling_tri < len(sys_.tris))

    def test_crossing_fractures_share_dof(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        net = network_of(
            make_fracture((0.1, 0.1), (0.9, 0.9), frac_id=0),
            make_fracture((0.1, 0.9), (0.9, 0.1), frac_id=1))
        sys_ = discretize(field, net, unit_rect, 8, 8)
        # the crossing point appears exactly once among the fracture nodes
        hits = np.flatnonzero(
            np.hypot(sys_.frac_nodes[:, 0] - 0.5,
                     sys_.frac_nodes[:, 1] - 0.5) < 1e-9)
        assert len(hits) == 1
        # two chains sharing one node: nodes = elems + 2 - 1
        assert len(sys_.frac_nodes) == len(sys_.frac_elems) + 1

    def test_outside_fracture_dropped(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        net = network_of(make_fracture((2.0, 2.0), (3.0, 3.0)))
        sys_ = discretize(field, net, unit_rect, 8, 8)
        assert sys_.dropped_fractures == 1
        assert len(sys_.frac_elems) == 0

    def test_overlapping_collinear_merged(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        net = network_of(
            make_fracture((0.1, 0.5), (0.6, 0.5), aperture=1e-3, frac_id=0),
            make_fracture((0.4, 0.5), (0.9, 0.5), aperture=2e-3, frac_id=1))
        with pytest.warns(UserWarning, match="merged"):
            sys_ = discretize(field, net, unit_rect, 8, 8)
        assert sys_.merged_fractures == 1
        # the wider-aperture fracture wins on the merged span
        assert np.all(sys_.frac_aperture == 2e-3)
        assert sys_.frac_len.sum() == pytest.approx(0.8)

    def test_spd_and_symmetric(self, unit_rect):
        field = random_tensor_field(unit_rect, 8, seed=0)
        net = network_of(make_fracture((0.1, 0.2), (0.9, 0.8)))
        sys_ = discretize(field, net, unit_rect, 8, 8)
        a = sys_.matrix
        assert abs(a - a.T).max() < 1e-14 * abs(a).max()

    def test_resolution_floor(self, unit_rect):
        with pytest.raises(ValueError):
            discretize(uniform_field(unit_rect, 1.0), None, unit_rect, 1, 8)

    def test_determinism(self, unit_rect):
        field = random_tensor_field(unit_rect, 16, seed=3)
        net = network_of(make_fracture((0.1, 0.2), (0.9, 0.8)),
                         make_fracture((0.2, 0.8), (0.8, 0.1), frac_id=1))
        a = discretize(field, net, unit_rect, 16, 16)
        b = discretize(field, net, unit_rect, 16, 16)
        assert np.array_equal(a.matrix.toarray(), b.matrix.toarray())


# fractures on an 8 x 8 mesh of the unit square (cell size 0.125)
DEGENERATE_NETWORKS = {
    "x_junction": [((0.1, 0.1), (0.9, 0.9)), ((0.1, 0.9), (0.9, 0.1))],
    "t_junction": [((0.1, 0.5), (0.9, 0.5)), ((0.5, 0.5), (0.5, 0.9))],
    "through_mesh_nodes": [((0.125, 0.0), (0.5, 0.75))],
    "along_cell_edges": [((0.0, 0.25), (1.0, 0.25)), ((0.5, 0.1), (0.5, 0.9))],
    "along_cell_diagonal": [((0.0, 0.0), (1.0, 1.0))],
    "collinear_overlap": [((0.1, 0.5), (0.6, 0.5)), ((0.4, 0.5), (0.9, 0.5)),
                          ((0.2, 0.1), (0.2, 0.9))],
    "touching_boundary": [((-0.5, 0.3), (1.0, 0.3)), ((1.0, 0.0), (1.0, 1.0)),
                          ((0.5, -0.2), (0.5, 0.4))],
}


class TestDegenerateGeometry:
    @pytest.mark.parametrize("name", sorted(DEGENERATE_NETWORKS))
    def test_assembly_invariants(self, unit_rect, name):
        fracs = [make_fracture(p0, p1, frac_id=k) for k, (p0, p1)
                 in enumerate(DEGENERATE_NETWORKS[name])]
        field = random_tensor_field(unit_rect, 8, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the collinear-merge warning
            sys_ = discretize(field, network_of(*fracs), unit_rect, 8, 8)
        assert len(sys_.frac_elems) > 0
        a = sys_.matrix
        scale = abs(a).max()
        assert abs(a - a.T).max() <= 1e-14 * scale
        # constant heads carry no flux: the assembly's null vector
        assert np.abs(a @ np.ones(a.shape[0])).max() <= 1e-12 * scale
        p = sys_.frac_nodes[sys_.frac_elems]
        mid = 0.5 * (p[:, 0] + p[:, 1])
        assert np.array_equal(
            sys_.coupling_tri,
            locate_triangle(unit_rect, 8, 8, mid[:, 0], mid[:, 1]))


class TestFactorizationReuse:
    def test_each_solve_matches_a_fresh_system(self, unit_rect):
        # x and y share the Dirichlet mask and one factorization; the
        # aquifer problem in between has another mask and must refactor
        field = random_tensor_field(unit_rect, 16, seed=4)
        net = network_of(make_fracture((0.1, 0.2), (0.9, 0.8)),
                         make_fracture((0.2, 0.8), (0.8, 0.1), frac_id=1))
        sys_ = discretize(field, net, unit_rect, 16, 16)
        for bc in (linear_head("x"), aquifer_bc(1.0), linear_head("y")):
            fresh = discretize(field, net, unit_rect, 16, 16)
            assert np.array_equal(solve_darcy(sys_, bc).h,
                                  solve_darcy(fresh, bc).h)


class TestLocateTriangle:
    domain = Rect(0.0, 0.0, 1.0, 1.0)

    def test_interior(self):
        # cell (0, 0): lower triangle below the diagonal, upper above
        assert locate_triangle(self.domain, 4, 4, 0.2, 0.05) == 0
        assert locate_triangle(self.domain, 4, 4, 0.05, 0.2) == 1

    def test_cell_offset(self):
        # cell (ix, iy) holds triangles 2*(ix*ny + iy) and +1
        assert locate_triangle(self.domain, 4, 4, 0.9, 0.55) in (28, 29)

    def test_clamped_outside(self):
        assert locate_triangle(self.domain, 4, 4, -1.0, -1.0) == 0

    @staticmethod
    def reference(domain, nx, ny, x, y):
        """Scalar form of the floor, clamp and tie rules."""
        fx = (x - domain.x0) / (domain.width / nx)
        fy = (y - domain.y0) / (domain.height / ny)
        ix = min(max(int(np.floor(fx)), 0), nx - 1)
        iy = min(max(int(np.floor(fy)), 0), ny - 1)
        return 2 * (ix * ny + iy) + (0 if fx - ix >= fy - iy else 1)

    def test_arrays_match_scalar_reference(self):
        # cell edges, diagonals, corners and points outside the domain
        g = np.linspace(-0.25, 1.25, 25)
        x, y = (v.ravel() for v in np.meshgrid(g, g))
        tri = locate_triangle(self.domain, 4, 4, x, y)
        assert np.array_equal(tri, [self.reference(self.domain, 4, 4, a, b)
                                    for a, b in zip(x, y)])


class TestLinearExactness:
    def test_isotropic(self, unit_rect):
        field = uniform_field(unit_rect, 2.5e-6, n=8)
        sys_ = discretize(field, None, unit_rect, 8, 8)
        sol = solve_darcy(sys_, linear_head("x"))
        assert np.allclose(sol.h, sys_.nodes[:, 0], atol=1e-12)
        assert np.allclose(sol.tri_grad, [1.0, 0.0], atol=1e-10)
        assert np.allclose(sol.tri_vel, [-2.5e-6, 0.0], atol=1e-16)

    def test_full_tensor(self, unit_rect):
        kxx, kxy, kyy = 2e-6, 3e-7, 1e-6
        field = uniform_field(unit_rect, kxx, kxy, kyy, n=8)
        sys_ = discretize(field, None, unit_rect, 16, 16)
        sol = solve_darcy(sys_, linear_head("y"))
        assert np.allclose(sol.h, sys_.nodes[:, 1], atol=1e-12)
        # u = -K grad h with grad h = (0, 1)
        assert np.allclose(sol.tri_vel, [-kxy, -kyy], rtol=1e-10)

    def test_with_fracture(self, unit_rect):
        # a straight fracture carries the same linear head: still exact
        field = uniform_field(unit_rect, 1e-6, n=8)
        net = network_of(make_fracture((0.0, 0.5), (1.0, 0.5)))
        sys_ = discretize(field, net, unit_rect, 8, 8)
        sol = solve_darcy(sys_, linear_head("x"))
        coords = sys_.dof_coords
        assert np.allclose(sol.h, coords[:, 0], atol=1e-9)
        assert np.allclose(sol.frac_grad, [1.0, 0.0], atol=1e-8)


class TestMassBalance:
    def test_heterogeneous_with_fractures(self, unit_rect):
        field = random_tensor_field(unit_rect, 32, seed=7)
        net = network_of(
            make_fracture((0.05, 0.2), (0.95, 0.7), frac_id=0),
            make_fracture((0.3, 0.05), (0.6, 0.95), frac_id=1),
            make_fracture((0.1, 0.8), (0.9, 0.3), frac_id=2))
        sys_ = discretize(field, net, unit_rect, 32, 32)
        sol = solve_darcy(sys_, linear_head("x"))
        scale = max(abs(v) for v in sol.boundary_flux.values())
        assert abs(sol.total_outflow) <= 1e-8 * scale

    def test_aquifer_left_right_balance(self, unit_rect):
        field = random_tensor_field(unit_rect, 16, seed=9)
        sys_ = discretize(field, None, unit_rect, 16, 16)
        sol = solve_darcy(sys_, aquifer_bc(1.0))
        assert set(sol.boundary_flux) == {"left", "right"}
        assert sol.boundary_flux["right"] > 0  # outflow at the low-head side
        scale = abs(sol.boundary_flux["right"])
        assert abs(sol.total_outflow) <= 1e-8 * scale

    # boundary fluxes of one heterogeneous fractured system, recorded when
    # they were summed by a per-DOF loop; corner DOFs count for the side
    # listed first (left/right before bottom/top)
    RECORDED_FLUXES = {
        "aquifer": {"left": -0.004234483981446529,
                    "right": 0.004234483981398496},
        "x": {"left": 0.004956430843458132, "right": -0.0031653720926914804,
              "bottom": -0.0023276760651658847, "top": 0.0005366173143980537},
        "y": {"left": -0.0016982917544296609, "right": -0.0007101514050013671,
              "bottom": 0.006946453527855886, "top": -0.0045380103684391875},
    }

    def test_recorded_fluxes(self, unit_rect):
        field = random_tensor_field(unit_rect, 16, seed=5)
        net = network_of(
            make_fracture((0.05, 0.3), (0.95, 0.7), frac_id=0),
            make_fracture((0.2, 0.9), (0.7, 0.0), aperture=2e-3, frac_id=1),
            make_fracture((0.0, 0.5), (0.6, 0.5), frac_id=2))
        sys_ = discretize(field, net, unit_rect, 16, 16)
        for name, bc in [("aquifer", aquifer_bc(1.0)),
                         ("x", linear_head("x")), ("y", linear_head("y"))]:
            flux = solve_darcy(sys_, bc).boundary_flux
            assert flux == self.RECORDED_FLUXES[name]
            assert list(flux) == list(self.RECORDED_FLUXES[name])


class TestLayeredOracles:
    def test_harmonic_mean_exact_with_sealed_sides(self, unit_rect):
        # flow across horizontal layers with no-flow sides is 1D: the
        # discrete flux equals the harmonic mean exactly
        k_vals = [1e-6, 1e-8, 5e-7, 2e-6]
        field = layered_field(unit_rect, k_vals, n=32)
        bc = BoundaryCondition({
            "bottom": lambda x, y: np.ones_like(np.asarray(x, float)),
            "top": lambda x, y: np.zeros_like(np.asarray(x, float)),
        })
        sys_ = discretize(field, None, unit_rect, 32, 32)
        sol = solve_darcy(sys_, bc)
        harmonic = len(k_vals) / sum(1.0 / k for k in k_vals)
        assert sol.boundary_flux["top"] == pytest.approx(harmonic, rel=1e-9)

    def test_arithmetic_mean_exact_along_layers(self, unit_rect):
        k_vals = [1e-6, 1e-8, 5e-7, 2e-6]
        field = layered_field(unit_rect, k_vals, n=32)
        sys_ = discretize(field, None, unit_rect, 32, 32)
        sol = solve_darcy(sys_, aquifer_bc(1.0))
        assert sol.boundary_flux["right"] == pytest.approx(
            np.mean(k_vals), rel=1e-9)

    def test_full_dirichlet_refinement_converges(self, unit_rect):
        # with head fixed on all four sides the side walls short-circuit the
        # low layers, so the limit exceeds the harmonic mean; refinement
        # still converges (successive changes shrink)
        k_vals = [1e-6, 1e-8]
        harmonic = 2.0 / (1e6 + 1e8)
        fluxes = []
        for n in (16, 32, 64):
            field = layered_field(unit_rect, k_vals, n=n)
            sys_ = discretize(field, None, unit_rect, n, n)
            sol = solve_darcy(sys_, linear_head("y"))
            # h = y drives flow downward: outflow leaves at the bottom
            fluxes.append(sol.boundary_flux["bottom"])
        assert abs(fluxes[2] - fluxes[1]) < abs(fluxes[1] - fluxes[0])
        assert all(f > harmonic for f in fluxes)


class TestAquiferSuperposition:
    def test_mid_height_fracture(self, unit_rect):
        # independent oracle: matrix and fracture conduct in parallel, so
        # Y ~ k_m * H * dh/L + (aperture * K_f) * dh/L
        k_m = 1e-6
        aperture = 1e-3
        k_f = 9.81 * 1000.0 * aperture ** 2 / (12.0 * 1e-3)
        field = uniform_field(unit_rect, k_m, n=8)
        net = network_of(make_fracture((0.0, 0.5), (1.0, 0.5),
                                       aperture=aperture))
        sys_ = discretize(field, net, unit_rect, 64, 64)
        sol = solve_darcy(sys_, aquifer_bc(1.0))
        expected = k_m * 1.0 + aperture * k_f
        assert sol.boundary_flux["right"] == pytest.approx(expected, rel=0.05)


class TestMonotonicity:
    def test_flux_scales_linearly_with_conductivity(self, unit_rect):
        field = random_tensor_field(unit_rect, 16, seed=11)
        scaled = TensorField(field.grid, 3.0 * field.kxx, 3.0 * field.kxy,
                             3.0 * field.kyy)
        f1 = solve_darcy(discretize(field, None, unit_rect, 16, 16),
                         aquifer_bc(1.0)).boundary_flux["right"]
        f3 = solve_darcy(discretize(scaled, None, unit_rect, 16, 16),
                         aquifer_bc(1.0)).boundary_flux["right"]
        assert f3 == pytest.approx(3.0 * f1, rel=1e-9)

    def test_fracture_increases_outflow(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6, n=8)
        net = network_of(make_fracture((0.1, 0.5), (0.9, 0.5)))
        base = solve_darcy(discretize(field, None, unit_rect, 32, 32),
                           aquifer_bc(1.0)).boundary_flux["right"]
        frac = solve_darcy(discretize(field, net, unit_rect, 32, 32),
                           aquifer_bc(1.0)).boundary_flux["right"]
        assert frac > base


class TestSolvers:
    def test_direct_matches_dense_solve(self, unit_rect):
        field = random_tensor_field(unit_rect, 16, seed=5, log_spread=0.5)
        sys_ = discretize(field, None, unit_rect, 16, 16)
        sol = solve_darcy(sys_, aquifer_bc(1.0))
        # independent reference: dense solve of the reduced free-DOF system
        x = sys_.dof_coords[:, 0]
        left = np.isclose(x, 0.0)
        fixed = left | np.isclose(x, 1.0)
        free = ~fixed
        a = sys_.matrix.toarray()
        h_ref = np.where(left, 1.0, 0.0)
        h_ref[free] = np.linalg.solve(a[np.ix_(free, free)],
                                      -a[np.ix_(free, fixed)] @ h_ref[fixed])
        assert np.allclose(sol.h, h_ref, rtol=0,
                           atol=1e-10 * np.abs(h_ref).max())


class TestBoundaryConditions:
    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError):
            BoundaryCondition({"north": lambda x, y: x})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoundaryCondition({})

    def test_linear_head_direction(self):
        with pytest.raises(ValueError):
            linear_head("z")
