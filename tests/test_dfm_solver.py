import copy
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.linalg import LinAlgError

from dfm_upscale import dfm_solver
from dfm_upscale.bench import fine_model
from dfm_upscale.config import RATIO_CLASSES, RunConfig
from dfm_upscale.dataset_pipeline import enforce_ratio
from dfm_upscale.dfm_solver import (RESIDUAL_GATE, SIDES, SolverError,
                                    _band_factor, _barycentric,
                                    _collinear_candidates, _fracture_chains,
                                    _lower_band, _mesh_topology, _stiffness,
                                    _stiffness_maps, discretize,
                                    discretize_blocks, solve_darcy)
from dfm_upscale.frac_geom import clip_to_blocks
from dfm_upscale.geometry import (_PAIR_CHUNK, Rect, runs,
                                  segment_intersections)
from dfm_upscale.homogenizer import anisotropy_tensor, positive_definite
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
    return TensorField(grid, np.stack([kxx, kxy, kyy], axis=-1))


def linear_head(sys_, direction):
    """(sides, heads) of h = x or h = y on the whole boundary."""
    return SIDES, sys_.dof_coords[:, ["x", "y"].index(direction), None]


def aquifer_head(sys_, head=1.0):
    """(sides, heads) of h = head at the left side and h = 0 at the right,
    no-flow top and bottom."""
    return (("left", "right"),
            np.where(sys_.side_masks["left"], head, 0.0)[:, None])


def paper_problems(sys_):
    """The (sides, heads) of h = x, of h = y and of the aquifer."""
    return [linear_head(sys_, "x"), linear_head(sys_, "y"),
            aquifer_head(sys_)]


def solve_one(sys_, bc):
    """The FlowSolution of a one-column (sides, heads)."""
    sol, = solve_darcy(sys_, *bc)
    return sol


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

    def test_outside_fracture_ignored(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        net = network_of(make_fracture((2.0, 2.0), (3.0, 3.0)))
        sys_ = discretize(field, net, unit_rect, 8, 8)
        assert sys_.dropped_fractures == 0
        assert len(sys_.frac_elems) == 0

    def test_fracture_below_snap_tolerance_dropped(self, unit_rect):
        # snap_tol is 1e-9 * diameter, about 1.4e-9 on the unit square
        field = uniform_field(unit_rect, 1e-6)
        net = network_of(make_fracture((0.5, 0.5), (0.5 + 1e-9, 0.5)))
        sys_ = discretize(field, net, unit_rect, 8, 8)
        assert sys_.dropped_fractures == 1
        assert len(sys_.frac_elems) == 0

    def test_overlapping_collinear_merged(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6)
        net = network_of(
            make_fracture((0.1, 0.5), (0.6, 0.5), aperture=1e-3, frac_id=0),
            make_fracture((0.4, 0.5), (0.9, 0.5), aperture=2e-3, frac_id=1))
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
            triangle_of(unit_rect, 8, 8, mid[:, 0], mid[:, 1]))

    @pytest.mark.parametrize("ratio_class", sorted(RATIO_CLASSES))
    @pytest.mark.parametrize("name", sorted(DEGENERATE_NETWORKS))
    def test_solve_invariants(self, unit_rect, name, ratio_class):
        # every solve passes the gate (or raises SolverError), balances its
        # boundary fluxes, and the fitted tensor is SPD
        fracs = [make_fracture(p0, p1, frac_id=k) for k, (p0, p1)
                 in enumerate(DEGENERATE_NETWORKS[name])]
        field = random_tensor_field(unit_rect, 8, seed=1)
        net, _ = enforce_ratio(network_of(*fracs), field,
                               RATIO_CLASSES[ratio_class])
        sys_ = discretize(field, net, unit_rect, 8, 8)
        for bc in paper_problems(sys_):
            sol = solve_one(sys_, bc)
            assert sol.residual <= RESIDUAL_GATE
            imbalance = abs(sum(sol.boundary_flux.values()))
            # the reactions sum terms up to |A| |h|, and balance to their
            # rounding; at class C (K_f / K_m = 1e7) that rounding reaches
            # 1e-7 of the fluxes, above the TestMassBalance bound
            terms = np.linalg.norm(abs(sys_.matrix) @ np.abs(sol.h))
            assert imbalance <= 8 * EPS * terms
            if ratio_class != "C":
                scale = max(abs(v) for v in sol.boundary_flux.values())
                assert imbalance <= 1e-8 * scale
        k, _ = anisotropy_tensor(field, net, unit_rect, 8)
        assert positive_definite(k[None])[0]


def reference_stiffness(sys_):
    """Per triangle, area * grad_a . K . grad_b with the basis gradients and
    the area taken from the node coordinates, summed by einsum: the
    coordinate-based form that the closed-form terms replace."""
    p = sys_.nodes[sys_.tris]  # (n, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    grads = np.empty((len(p), 3, 2))
    # grad N_a = perp(edge opposite a) / (2 * signed area)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        grads[:, a, 0] = (p[:, b, 1] - p[:, c, 1]) / det
        grads[:, a, 1] = (p[:, c, 0] - p[:, b, 0]) / det
    k = sys_.tri_k
    tensors = np.stack([k[:, [0, 1]], k[:, [1, 2]]], axis=1)
    return (np.einsum("nad,ndc,nbc->nab", grads, tensors, grads)
            * (0.5 * np.abs(det))[:, None, None])


def triangle_of(domain, nx, ny, x, y):
    """The triangle index that _barycentric gives each point."""
    return _barycentric(domain.x0, domain.y0, domain.width / nx,
                        domain.height / ny, nx, ny, np.atleast_1d(x),
                        np.atleast_1d(y))[0]


def reference_triangle(domain, nx, ny, x, y):
    """Scalar form of the floor, clamp and tie rules."""
    fx = (x - domain.x0) / (domain.width / nx)
    fy = (y - domain.y0) / (domain.height / ny)
    ix = min(max(int(np.floor(fx)), 0), nx - 1)
    iy = min(max(int(np.floor(fy)), 0), ny - 1)
    return 2 * (ix * ny + iy) + (0 if fx - ix >= fy - iy else 1)


def reference_barycentric(sys_, tri, x, y):
    """Barycentric weights of the points in the given triangles from a 2 x 2
    solve on the node coordinates."""
    p = sys_.nodes[sys_.tris[tri]]
    m = np.stack([p[:, 0] - p[:, 2], p[:, 1] - p[:, 2]], axis=2)
    w01 = np.linalg.solve(m, (np.column_stack([x, y]) - p[:, 2])[..., None])
    return np.column_stack([w01[..., 0], 1.0 - w01[:, 0, 0] - w01[:, 1, 0]])


EPS = np.finfo(float).eps
# near the origin, so the node coordinates the references start from round
# far below the cell size; the second has hx != hy
CLOSED_FORM_MESHES = [(Rect(0.0, 0.0, 1.0, 1.0), 8, 8),
                      (Rect(0.3, -1.2, 1.6, -0.5), 7, 5)]


class TestClosedFormTerms:
    @pytest.mark.parametrize("rect, nx, ny", CLOSED_FORM_MESHES)
    def test_stiffness_matches_coordinate_reference(self, rect, nx, ny):
        sys_ = discretize(random_tensor_field(rect, 8, seed=2), None, rect,
                          nx, ny)
        got = _stiffness(sys_.tri_k.reshape(nx, ny, 2, 3),
                         _stiffness_maps(sys_.hx, sys_.hy)).reshape(-1, 3, 3)
        want = reference_stiffness(sys_)
        scale = np.abs(want).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(got - want) <= 16 * EPS * scale)

    @pytest.mark.parametrize("rect, nx, ny", CLOSED_FORM_MESHES)
    def test_barycentric_matches_coordinate_reference(self, rect, nx, ny):
        sys_ = discretize(uniform_field(rect, 1.0), None, rect, nx, ny)
        rng = np.random.default_rng(1)
        # random points, points on vertical cell edges, and points on cell
        # diagonals (lx == ly)
        diagonal = rng.integers(0, min(nx, ny), 100) + rng.uniform(0, 1, 100)
        fx = np.concatenate([rng.uniform(0, nx, 500), rng.integers(0, nx, 100),
                             diagonal])
        fy = np.concatenate([rng.uniform(0, ny, 500), rng.uniform(0, ny, 100),
                             diagonal])
        x = rect.x0 + fx * sys_.hx
        y = rect.y0 + fy * sys_.hy
        tri, w = _barycentric(rect.x0, rect.y0, sys_.hx, sys_.hy, nx, ny, x, y)
        assert np.array_equal(tri, [reference_triangle(rect, nx, ny, a, b)
                                    for a, b in zip(x, y)])
        want = reference_barycentric(sys_, tri, x, y)
        assert np.all(np.abs(w - want) <= 16 * EPS)

    def test_centroid_tensors_keep_their_bits(self):
        # field cells a third of a mesh cell wide: every centroid's x lies
        # on a field cell edge, so its last bit picks the cell
        rect = Rect(0.3, -1.2, 1.6, -0.5)
        nx, ny = 7, 5
        rng = np.random.default_rng(3)
        grid = Grid(3 * nx, 3 * ny, rect.width / (3 * nx), (rect.x0, rect.y0))
        field = TensorField(grid, np.moveaxis(
            rng.uniform(1.0, 2.0, (3, 3 * nx, 3 * ny)), 0, -1))
        sys_ = discretize(field, None, rect, nx, ny)
        centroids = sys_.nodes[sys_.tris].mean(axis=1)
        ix, iy = grid.cell_index(centroids[:, 0], centroids[:, 1])
        assert np.array_equal(sys_.tri_k, np.column_stack(
            [field.k[ix, iy, 0], field.k[ix, iy, 1], field.k[ix, iy, 2]]))


CHUNK_FIELD = random_tensor_field(Rect(-1.0, -1.0, 3.0, 3.0), 16, seed=6)
CROSSING = network_of(
    make_fracture((-0.5, 0.3), (2.5, 0.6), frac_id=0),
    make_fracture((0.2, -0.5), (1.8, 2.4), aperture=2e-3, frac_id=1),
    make_fracture((0.7, 0.5), (0.7 + 1e-12, 0.5), frac_id=2))
HIT_RECTS = [Rect(0.0, 0.0, 1.0, 1.0),
             Rect(1.0, 0.0, 2.0, 1.5),     # hx != hy
             Rect(0.5, 0.5, 1.5, 1.5)]
MISS_RECTS = [Rect(2.2, 2.2, 2.9, 2.9), Rect(-0.9, 2.0, -0.2, 2.9)]


def chunk_systems(net, rects):
    return list(discretize_blocks(
        CHUNK_FIELD, clip_to_blocks(net, [r.as_tuple() for r in rects]),
        8, 8))


def assert_same_block(got, want):
    assert_systems_equal(got, want)
    assert got.domain == want.domain
    assert np.array_equal(got.nodes, want.nodes)
    assert np.array_equal(got.tri_k, want.tri_k)


class TestChunkAssembly:
    # each block's system comes from its rows of the chunk's table, so a
    # block without rows may stand anywhere in the chunk
    @pytest.mark.parametrize("empty_at", [0, 1, 3], ids=["first", "middle",
                                                         "last"])
    def test_blocks_match_one_block_calls(self, empty_at):
        rects = list(HIT_RECTS)
        rects.insert(empty_at, MISS_RECTS[0])
        for net in (CROSSING, network_of(), None):
            systems = chunk_systems(net, rects)
            assert len(systems) == len(rects)
            for rect, got in zip(rects, systems):
                want = discretize(CHUNK_FIELD, net, rect, 8, 8)
                assert got.domain == rect
                assert_same_block(got, want)
            assert [len(s.frac_elems) > 0 for s in systems] == [
                net is CROSSING and k != empty_at for k in range(len(rects))]

    def test_chunk_with_empty_table(self):
        assert len(clip_to_blocks(CROSSING, [r.as_tuple() for r in
                                             MISS_RECTS]).block) == 0
        for got, rect in zip(chunk_systems(CROSSING, MISS_RECTS), MISS_RECTS):
            assert len(got.frac_nodes) == 0
            assert got.dropped_fractures == got.merged_fractures == 0
            assert_same_block(got, discretize(CHUNK_FIELD, None, rect, 8, 8))

    def test_reversed_rects_reverse_the_systems(self):
        rects = HIT_RECTS + MISS_RECTS[:1]
        forward = chunk_systems(CROSSING, rects)
        backward = chunk_systems(CROSSING, rects[::-1])
        for got, want in zip(backward, forward[::-1]):
            assert_same_block(got, want)


class TestMeshTopology:
    def test_shared_and_read_only(self, unit_rect):
        field = uniform_field(unit_rect, 1.0)
        a = discretize(field, None, unit_rect, 8, 6)
        b = discretize(field, None, Rect(3.0, 4.0, 5.0, 6.0), 8, 6)
        assert a.tris is b.tris
        assert not np.array_equal(a.nodes, b.nodes)
        tris, rows, cols = _mesh_topology(8, 6)
        assert tris is a.tris
        assert np.array_equal(rows, np.repeat(tris, 3, axis=1).ravel())
        assert np.array_equal(cols, np.tile(tris, (1, 3)).ravel())
        for arr in (tris, rows, cols):
            with pytest.raises(ValueError):
                arr[0] = 0


def reference_fracture_chains(seg_p0, seg_p1, snap_tol, target):
    """Scalar breakpoint, cleaning and numbering loop: the loop form of
    _fracture_chains, kept as its reference."""
    seg_d = seg_p1 - seg_p0
    breakpoints = [[] for _ in seg_p0]  # (t, share_key) per segment
    for i, j, pt in zip(*segment_intersections(seg_p0, seg_p1, snap_tol)):
        key = (int(round(pt[0] / snap_tol)), int(round(pt[1] / snap_tol)))
        for idx in (i, j):
            d = seg_d[idx]
            t = float(np.clip(((pt - seg_p0[idx]) @ d) / np.hypot(*d) ** 2,
                              0.0, 1.0))
            breakpoints[idx].append((t, key))

    bp_ids, bp_xy = [], []
    shared = {}  # quantized intersection point -> fracture node index
    spans = []   # (segment, t0, t1, nsub, first interior id, end ids)
    n_f = 0
    dropped = 0
    for seg_idx, (a0, a1) in enumerate(zip(seg_p0, seg_p1)):
        d = a1 - a0
        seg_len = np.hypot(*d)
        if seg_len <= snap_tol:
            dropped += 1
            continue
        pts = sorted(set([(0.0, None), (1.0, None)]
                         + [(t, k) for t, k in breakpoints[seg_idx]]),
                     key=lambda p: (p[0], p[1] is None, p[1]))
        cleaned = [pts[0]]
        for t, k in pts[1:]:
            if (t - cleaned[-1][0]) * seg_len <= snap_tol:
                if cleaned[-1][1] is None and k is not None:
                    cleaned[-1] = (cleaned[-1][0], k)
                continue
            cleaned.append((t, k))
        if len(cleaned) == 1:
            dropped += 1
            continue
        node_ids = []
        for t, k in cleaned:
            if k not in shared:
                bp_ids.append(n_f)
                bp_xy.append(a0 + t * d)
                if k is not None:
                    shared[k] = n_f
                node_ids.append(n_f)
                n_f += 1
            else:
                node_ids.append(shared[k])
        for (t0, _), (t1, _), i0, i1 in zip(cleaned[:-1], cleaned[1:],
                                            node_ids[:-1], node_ids[1:]):
            nsub = max(1, int(np.ceil((t1 - t0) * seg_len / target)))
            spans.append((seg_idx, t0, t1, nsub, n_f, i0, i1))
            n_f += nsub - 1

    frac_nodes = np.zeros((n_f, 2))
    frac_nodes[bp_ids] = np.reshape(bp_xy, (-1, 2))
    table = np.array(spans, dtype=float).reshape(-1, 7)
    sp_t0, sp_t1 = table[:, 1], table[:, 2]
    sp_seg, sp_nsub, sp_first, sp_i0, sp_i1 = (
        table[:, [0, 3, 4, 5, 6]].T.astype(np.int64))
    span, s = runs(sp_nsub - 1)
    s += 1
    t = sp_t0[span] + (sp_t1[span] - sp_t0[span]) * s / sp_nsub[span]
    frac_nodes[sp_first[span] + s - 1] = (seg_p0[sp_seg[span]]
                                          + t[:, None] * seg_d[sp_seg[span]])
    return frac_nodes, (sp_seg, sp_nsub, sp_first, sp_i0, sp_i1), dropped


def assert_chains_match(seg_p0, seg_p1, snap_tol, target=0.75 / 8):
    seg_p0 = np.asarray(seg_p0, float).reshape(-1, 2)
    seg_p1 = np.asarray(seg_p1, float).reshape(-1, 2)
    nodes, spans, dropped = _fracture_chains(seg_p0, seg_p1, snap_tol, target)
    ref_nodes, ref_spans, ref_dropped = reference_fracture_chains(
        seg_p0, seg_p1, snap_tol, target)
    assert np.array_equal(nodes, ref_nodes)
    for got, want in zip(spans, ref_spans):
        assert np.array_equal(got, want)
    assert dropped == ref_dropped


def reference_discretize(field, network, domain, nx, ny):
    """discretize with the scalar chain loop, and the merge loop run on
    every network instead of only on those the pre-screen passes."""
    with mock.patch.object(dfm_solver, "_fracture_chains",
                           reference_fracture_chains), \
            mock.patch.object(dfm_solver, "_collinear_candidates",
                              lambda *args: True):
        return discretize(field, network, domain, nx, ny)


SYSTEM_ARRAYS = ("frac_nodes", "frac_elems", "frac_len", "frac_tangent",
                 "frac_aperture", "frac_cond", "coupling_tri")


def assert_systems_equal(a, b):
    for name in SYSTEM_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a.matrix, name),
                              getattr(b.matrix, name)), name
    assert a.dropped_fractures == b.dropped_fractures
    assert a.merged_fractures == b.merged_fractures


def discretize_both(field, network, domain, nx, ny):
    return (discretize(field, network, domain, nx, ny),
            reference_discretize(field, network, domain, nx, ny))


UNIT_SNAP_TOL = 1e-9 * Rect(0.0, 0.0, 1.0, 1.0).diameter
# multiples of half a cell of an 8 x 8 mesh on the unit square, some moved
# by less or a little more than UNIT_SNAP_TOL: fractures end on others,
# several pass through one point, and breakpoints fall within snap_tol of
# each other or of an endpoint
snapped = st.builds(lambda k, e: k / 16 + e, st.integers(-2, 18),
                    st.sampled_from([0.0, 0.0, 0.0, 5e-10, -5e-10, 2e-9]))
coordinate = st.one_of(snapped, st.floats(-0.2, 1.2))
point = st.tuples(coordinate, coordinate)
# zero-length and sub-snap_tol segments beside ordinary ones
short = st.builds(lambda p, e: (p, (p[0] + e, p[1] + e / 2)), point,
                  st.sampled_from([0.0, 1e-12, 5e-10]))
segment = st.one_of(st.tuples(point, point), st.tuples(point, point), short)
segment_lists = st.lists(segment, min_size=1, max_size=9)


# two verticals a fraction of snap_tol apart, left of the start of the unit
# horizontal y = 0.5: both crossings clip to t = 0 on the horizontal, with
# the keys (-1, k) and (0, k)
EQUAL_T_SEGMENTS = ([(-1e-9, 0.0), (-2e-10, 0.0), (0.0, 0.5)],
                    [(-1e-9, 1.0), (-2e-10, 1.0), (1.0, 0.5)])
EQUAL_T_CHAINS = f"""
import json
import numpy as np
from dfm_upscale.dfm_solver import _fracture_chains
_, spans, _ = _fracture_chains(*map(np.array, {EQUAL_T_SEGMENTS!r}),
                               1e-9 * np.sqrt(2), 0.09)
print(json.dumps([a.tolist() for a in spans]))
"""


class TestFractureChains:
    @settings(max_examples=300, deadline=None)
    @given(segs=segment_lists)
    def test_matches_scalar_reference(self, segs):
        assert_chains_match([a for a, _ in segs], [b for _, b in segs],
                            UNIT_SNAP_TOL)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_random_network(self, seed):
        # over a thousand hits in general position: every breakpoint t and
        # node coordinate must round as the scalar loop does; with seeds 0
        # and 2, h * h in place of the scalar's pow changes some t
        rng = np.random.default_rng(seed)
        p0 = rng.uniform(0.0, 1.0, (300, 2))
        angle = rng.uniform(0.0, np.pi, 300)
        p1 = p0 + rng.uniform(0.05, 0.5, (300, 1)) * np.stack(
            [np.cos(angle), np.sin(angle)], 1)
        assert len(segment_intersections(p0, p1, UNIT_SNAP_TOL)[0]) > 1000
        assert_chains_match(p0, p1, UNIT_SNAP_TOL)

    @pytest.mark.parametrize("x", [
        UNIT_SNAP_TOL,                          # gap exactly snap_tol
        np.nextafter(UNIT_SNAP_TOL, 0.0),
        np.nextafter(UNIT_SNAP_TOL, 1.0),
        1.0 - UNIT_SNAP_TOL,
    ])
    def test_breakpoint_at_snap_tol_from_an_end(self, x):
        # a vertical at x crosses the unit horizontal at t = x exactly
        p0 = [(0.0, 0.5), (x, 0.0)]
        p1 = [(1.0, 0.5), (x, 1.0)]
        assert_chains_match(p0, p1, UNIT_SNAP_TOL)

    def test_three_fractures_through_one_point(self):
        assert_chains_match([(0.0, 0.0), (0.0, 1.0), (0.5, 0.0)],
                            [(1.0, 1.0), (1.0, 0.0), (0.5, 1.0)],
                            UNIT_SNAP_TOL)

    def test_equal_t_resolve_alike_in_every_process(self):
        # at equal t the order must not follow hash(None), which differs
        # between processes: keyed points come first, in ascending key order
        src = str(Path(dfm_solver.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        outs = {subprocess.run([sys.executable, "-c", EQUAL_T_CHAINS],
                               env=env, capture_output=True, text=True,
                               check=True, timeout=120).stdout
                for _ in range(8)}
        assert len(outs) == 1
        seg, _, _, start, end = map(np.array, json.loads(outs.pop()))
        # the horizontal (segment 2) starts at the node of key (-1, k), its
        # crossing with segment 0, which ends segment 0's first piece
        first = {s: np.flatnonzero(seg == s)[0] for s in range(3)}
        assert start[first[2]] == end[first[0]] != end[first[1]]
        assert_chains_match(*EQUAL_T_SEGMENTS, 1e-9 * np.sqrt(2), 0.09)

    def test_empty(self):
        nodes, spans, dropped = _fracture_chains(
            np.zeros((0, 2)), np.zeros((0, 2)), UNIT_SNAP_TOL, 0.1)
        assert nodes.shape == (0, 2) and dropped == 0
        assert all(len(a) == 0 for a in spans)


NETWORK_FIELD = random_tensor_field(Rect(0.0, 0.0, 1.0, 1.0), 8, seed=1)


class TestDiscretizeMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(segs=segment_lists,
           apertures=st.lists(st.sampled_from([1e-3, 2e-3]), min_size=9,
                              max_size=9))
    def test_random_networks(self, segs, apertures):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        net = network_of(*[make_fracture(a, b, aperture=ap, frac_id=k)
                           for k, ((a, b), ap)
                           in enumerate(zip(segs, apertures))])
        assert_systems_equal(*discretize_both(NETWORK_FIELD, net, rect, 8, 8))

    @pytest.mark.parametrize("name", sorted(DEGENERATE_NETWORKS))
    def test_degenerate_networks(self, unit_rect, name):
        net = network_of(*[make_fracture(p0, p1, frac_id=k) for k, (p0, p1)
                           in enumerate(DEGENERATE_NETWORKS[name])])
        assert_systems_equal(*discretize_both(NETWORK_FIELD, net, unit_rect,
                                              8, 8))


# a segment from (0, 0) to (e, e), crossing the horizontal (-1, 0)-(1, 0),
# whose squared length underflows to 0 (1e-300) or whose length is the
# smallest subnormal (5e-324)
SUBNORMAL_ENDS = [1e-300, 5e-324]
SUBNORMAL_RECT = Rect(-1.0, -1.0, 1.0, 1.0)


class TestSubnormalSegments:
    @pytest.mark.parametrize("e", SUBNORMAL_ENDS)
    def test_chains_without_warnings(self, e):
        p0 = np.array([[-1.0, 0.0], [0.0, 0.0]])
        p1 = np.array([[1.0, 0.0], [e, e]])
        snap_tol = 1e-9 * SUBNORMAL_RECT.diameter
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = segment_intersections(p0, p1, snap_tol)
            got = _fracture_chains(p0, p1, snap_tol, 0.1)
        assert np.array_equal(hits[0], [0]) and np.array_equal(hits[1], [1])
        with np.errstate(all="ignore"):  # the scalar loop divides 0 by 0
            want = reference_fracture_chains(p0, p1, snap_tol, 0.1)
        assert np.array_equal(got[0], want[0])
        for a, b in zip(got[1], want[1]):
            assert np.array_equal(a, b)
        assert got[2] == want[2] == 1

    def test_discretize_without_warnings(self):
        # through a network only the 1e-300 segment stays: the fracture
        # parametrization rounds the 5e-324 one to zero length, and the
        # clip drops it
        field = uniform_field(SUBNORMAL_RECT, 1e-6)
        net = network_of(make_fracture((-1.0, 0.0), (1.0, 0.0)),
                         make_fracture((0.0, 0.0), (1e-300, 1e-300),
                                       frac_id=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = discretize(field, net, SUBNORMAL_RECT, 8, 8)
        with np.errstate(all="ignore"):
            want = reference_discretize(field, net, SUBNORMAL_RECT, 8, 8)
        assert_systems_equal(got, want)
        assert got.dropped_fractures == 1


def reference_candidates(start, delta, tol):
    """Pair-by-pair form of _collinear_candidates."""
    for i in range(len(start)):
        di = delta[i]
        li = np.hypot(*di)
        for j in range(i + 1, len(start)):
            w = start[j] - start[i]
            cross = di[0] * delta[j, 1] - di[1] * delta[j, 0]
            off0 = di[0] * w[1] - di[1] * w[0]
            if abs(cross) < tol * li and abs(off0) < tol * li:
                return True
    return False


class TestCollinearPreScreen:
    @settings(max_examples=200, deadline=None)
    @given(segs=segment_lists)
    def test_matches_pairwise_reference(self, segs):
        start = np.array([a for a, _ in segs], float)
        delta = np.array([b for _, b in segs], float) - start
        assert (_collinear_candidates(start, delta, UNIT_SNAP_TOL)
                == reference_candidates(start, delta, UNIT_SNAP_TOL))

    def test_parallel_offset_is_no_candidate(self):
        start = np.array([[0.1, 0.2], [0.3, 0.7]])
        delta = np.array([[0.5, 0.0], [0.5, 0.0]])
        assert not _collinear_candidates(start, delta, UNIT_SNAP_TOL)

    def test_collinear_disjoint_passes_but_does_not_merge(self, unit_rect):
        start = np.array([[0.1, 0.5], [0.6, 0.5]])
        delta = np.array([[0.2, 0.0], [0.3, 0.0]])
        assert _collinear_candidates(start, delta, UNIT_SNAP_TOL)
        net = network_of(make_fracture((0.1, 0.5), (0.3, 0.5), frac_id=0),
                         make_fracture((0.6, 0.5), (0.9, 0.5), frac_id=1),
                         make_fracture((0.2, 0.1), (0.7, 0.9), frac_id=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys_ = discretize(NETWORK_FIELD, net, unit_rect, 8, 8)
        assert sys_.merged_fractures == 0
        assert_systems_equal(sys_, reference_discretize(NETWORK_FIELD, net,
                                                        unit_rect, 8, 8))

    def test_no_candidate_no_warning(self, unit_rect):
        net = network_of(
            make_fracture((0.05, 0.2), (0.95, 0.7), frac_id=0),
            make_fracture((0.3, 0.05), (0.6, 0.95), frac_id=1),
            make_fracture((0.1, 0.8), (0.9, 0.3), frac_id=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys_ = discretize(NETWORK_FIELD, net, unit_rect, 8, 8)
        assert sys_.merged_fractures == 0

    def test_memory_bounded_by_chunk(self):
        # a full-domain network: about 1930 fractures, 1.9 million pairs;
        # one float64 array over all pairs alone would exceed the bound
        rng = np.random.default_rng(0)
        n = 1930
        start = rng.uniform(0.0, 100.0, (n, 2))
        angle = rng.uniform(0.0, np.pi, n)
        delta = rng.uniform(1.0, 15.0, (n, 1)) * np.stack(
            [np.cos(angle), np.sin(angle)], 1)
        bound = 8 * 8 * _PAIR_CHUNK
        assert 8 * n * n > bound
        tracemalloc.start()
        try:
            found = _collinear_candidates(start, delta,
                                          1e-9 * np.hypot(100.0, 100.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not found
        assert peak < bound


class TestFactorizationReuse:
    def test_each_solve_matches_a_fresh_system(self, unit_rect):
        # every solve factors its own free-DOF matrix: solving one system
        # under several masks in turn reads nothing an earlier solve left
        field = random_tensor_field(unit_rect, 16, seed=4)
        net = network_of(make_fracture((0.1, 0.2), (0.9, 0.8)),
                         make_fracture((0.2, 0.8), (0.8, 0.1), frac_id=1))
        sys_ = discretize(field, net, unit_rect, 16, 16)
        for bc in paper_problems(sys_) + [linear_head(sys_, "x")]:
            sol = solve_one(sys_, bc)
            fresh = solve_one(discretize(field, net, unit_rect, 16, 16), bc)
            assert np.array_equal(sol.h, fresh.h)
            assert sol.boundary_flux == fresh.boundary_flux


def head_bc(sys_, *gs):
    """(sides, heads) of the heads g(x, y) of each g on the whole
    boundary, one column per g."""
    x, y = sys_.dof_coords.T
    return SIDES, np.column_stack([g(x, y) for g in gs])


class TestColumnSolve:
    FLOW_FIELDS = ("h", "tri_grad", "tri_vel", "frac_grad", "frac_vel")

    @pytest.fixture
    def system(self, unit_rect):
        net = network_of(
            make_fracture((0.05, 0.3), (0.95, 0.7), frac_id=0),
            make_fracture((0.2, 0.9), (0.7, 0.0), aperture=2e-3, frac_id=1),
            make_fracture((0.0, 0.5), (0.6, 0.5), frac_id=2))
        return discretize(random_tensor_field(unit_rect, 16, seed=5), net,
                          unit_rect, 16, 16)

    @pytest.mark.parametrize("problem", [
        lambda s: head_bc(s, lambda x, y: x, lambda x, y: y,
                          lambda x, y: x - 2.0 * y),
        lambda s: (("left", "right"), np.column_stack(
            [aquifer_head(s, v)[1] for v in (1.0, 2.5)]))],
        ids=["linear", "aquifer"])
    def test_columns_match_single_solves(self, system, problem):
        # one column, two, three and in either order: every column keeps
        # the bits it has alone, its norms included
        sides, heads = problem(system)
        k = heads.shape[1]
        alone = [solve_one(system, (sides, heads[:, [j]])) for j in range(k)]
        for cols in ([0, 1], [1, 0], list(range(k)), [1]):
            together = solve_darcy(system, sides, heads[:, cols])
            for j, sol in zip(cols, together):
                for name in self.FLOW_FIELDS:
                    assert np.array_equal(getattr(sol, name),
                                          getattr(alone[j], name)), name
                assert sol.boundary_flux == alone[j].boundary_flux
                assert sol.residual == alone[j].residual


class TestLocateTriangle:
    """The triangle index that _barycentric gives each point."""

    domain = Rect(0.0, 0.0, 1.0, 1.0)

    def test_interior(self):
        # cell (0, 0): lower triangle below the diagonal, upper above
        assert triangle_of(self.domain, 4, 4, 0.2, 0.05) == [0]
        assert triangle_of(self.domain, 4, 4, 0.05, 0.2) == [1]

    def test_cell_offset(self):
        # cell (ix, iy) holds triangles 2*(ix*ny + iy) and +1; a point on
        # a cell edge goes to the larger cell, one on the diagonal to the
        # lower triangle
        assert triangle_of(self.domain, 4, 4, 0.9, 0.55) == [28]
        assert triangle_of(self.domain, 4, 4, 0.6, 0.5) == [20]
        assert triangle_of(self.domain, 4, 4, 0.3, 0.3) == [10]

    def test_clamped_outside(self):
        assert triangle_of(self.domain, 4, 4, -1.0, -1.0) == [0]
        assert triangle_of(self.domain, 4, 4, 2.0, 0.1) == [24]

    def test_arrays_match_scalar_reference(self):
        # cell edges, diagonals, corners and points outside the domain
        g = np.linspace(-0.25, 1.25, 25)
        x, y = (v.ravel() for v in np.meshgrid(g, g))
        tri = triangle_of(self.domain, 4, 4, x, y)
        assert np.array_equal(tri, [reference_triangle(self.domain, 4, 4, a, b)
                                    for a, b in zip(x, y)])


class TestLinearExactness:
    def test_isotropic(self, unit_rect):
        field = uniform_field(unit_rect, 2.5e-6, n=8)
        sys_ = discretize(field, None, unit_rect, 8, 8)
        sol = solve_one(sys_, linear_head(sys_, "x"))
        assert np.allclose(sol.h, sys_.nodes[:, 0], atol=1e-12)
        assert np.allclose(sol.tri_grad, [1.0, 0.0], atol=1e-10)
        assert np.allclose(sol.tri_vel, [-2.5e-6, 0.0], atol=1e-16)

    def test_full_tensor(self, unit_rect):
        kxx, kxy, kyy = 2e-6, 3e-7, 1e-6
        field = uniform_field(unit_rect, kxx, kxy, kyy, n=8)
        sys_ = discretize(field, None, unit_rect, 16, 16)
        sol = solve_one(sys_, linear_head(sys_, "y"))
        assert np.allclose(sol.h, sys_.nodes[:, 1], atol=1e-12)
        # u = -K grad h with grad h = (0, 1)
        assert np.allclose(sol.tri_vel, [-kxy, -kyy], rtol=1e-10)

    def test_with_fracture(self, unit_rect):
        # a straight fracture carries the same linear head: still exact
        field = uniform_field(unit_rect, 1e-6, n=8)
        net = network_of(make_fracture((0.0, 0.5), (1.0, 0.5)))
        sys_ = discretize(field, net, unit_rect, 8, 8)
        sol = solve_one(sys_, linear_head(sys_, "x"))
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
        sol = solve_one(sys_, linear_head(sys_, "x"))
        scale = max(abs(v) for v in sol.boundary_flux.values())
        assert abs(sum(sol.boundary_flux.values())) <= 1e-8 * scale

    def test_aquifer_left_right_balance(self, unit_rect):
        field = random_tensor_field(unit_rect, 16, seed=9)
        sys_ = discretize(field, None, unit_rect, 16, 16)
        sol = solve_one(sys_, aquifer_head(sys_))
        assert set(sol.boundary_flux) == {"left", "right"}
        assert sol.boundary_flux["right"] > 0  # outflow at the low-head side
        scale = abs(sol.boundary_flux["right"])
        assert abs(sum(sol.boundary_flux.values())) <= 1e-8 * scale

    # boundary fluxes of one heterogeneous fractured system, recorded from
    # the banded Cholesky solve of the closed-form P1 assembly and summed in
    # DOF order as the per-DOF loop did; corner DOFs count for the side
    # listed first (left/right before bottom/top)
    RECORDED_FLUXES = {
        "aquifer": {"left": -0.004234483981398099,
                    "right": 0.004234483981414242},
        "x": {"left": 0.004956430843462756, "right": -0.003165372092687894,
              "bottom": -0.0023276760651504956, "top": 0.000536617314398885},
        "y": {"left": -0.001698291754422848, "right": -0.0007101514049992193,
              "bottom": 0.0069464535278614455, "top": -0.004538010368439292},
    }

    def test_recorded_fluxes(self, unit_rect):
        field = random_tensor_field(unit_rect, 16, seed=5)
        net = network_of(
            make_fracture((0.05, 0.3), (0.95, 0.7), frac_id=0),
            make_fracture((0.2, 0.9), (0.7, 0.0), aperture=2e-3, frac_id=1),
            make_fracture((0.0, 0.5), (0.6, 0.5), frac_id=2))
        sys_ = discretize(field, net, unit_rect, 16, 16)
        for name, bc in [("aquifer", aquifer_head(sys_)),
                         ("x", linear_head(sys_, "x")),
                         ("y", linear_head(sys_, "y"))]:
            flux = solve_one(sys_, bc).boundary_flux
            assert flux == self.RECORDED_FLUXES[name]
            assert list(flux) == list(self.RECORDED_FLUXES[name])


class TestLayeredOracles:
    def test_harmonic_mean_exact_with_sealed_sides(self, unit_rect):
        # flow across horizontal layers with no-flow sides is 1D: the
        # discrete flux equals the harmonic mean exactly
        k_vals = [1e-6, 1e-8, 5e-7, 2e-6]
        field = layered_field(unit_rect, k_vals, n=32)
        sys_ = discretize(field, None, unit_rect, 32, 32)
        # h = 1 at the bottom, h = 0 at the top
        heads = np.where(sys_.side_masks["bottom"], 1.0, 0.0)[:, None]
        sol, = solve_darcy(sys_, ("bottom", "top"), heads)
        harmonic = len(k_vals) / sum(1.0 / k for k in k_vals)
        assert sol.boundary_flux["top"] == pytest.approx(harmonic, rel=1e-9)

    def test_arithmetic_mean_exact_along_layers(self, unit_rect):
        k_vals = [1e-6, 1e-8, 5e-7, 2e-6]
        field = layered_field(unit_rect, k_vals, n=32)
        sys_ = discretize(field, None, unit_rect, 32, 32)
        sol = solve_one(sys_, aquifer_head(sys_))
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
            sol = solve_one(sys_, linear_head(sys_, "y"))
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
        sol = solve_one(sys_, aquifer_head(sys_))
        expected = k_m * 1.0 + aperture * k_f
        assert sol.boundary_flux["right"] == pytest.approx(expected, rel=0.05)


class TestMonotonicity:
    def test_flux_scales_linearly_with_conductivity(self, unit_rect):
        field = random_tensor_field(unit_rect, 16, seed=11)
        scaled = TensorField(field.grid, 3.0 * field.k)
        f1, f3 = (solve_one(s, aquifer_head(s)).boundary_flux["right"]
                  for s in (discretize(k, None, unit_rect, 16, 16)
                            for k in (field, scaled)))
        assert f3 == pytest.approx(3.0 * f1, rel=1e-9)

    def test_fracture_increases_outflow(self, unit_rect):
        field = uniform_field(unit_rect, 1e-6, n=8)
        net = network_of(make_fracture((0.1, 0.5), (0.9, 0.5)))
        base, frac = (solve_one(s, aquifer_head(s)).boundary_flux["right"]
                      for s in (discretize(field, n, unit_rect, 32, 32)
                                for n in (None, net)))
        assert frac > base


# a backward-stable solve leaves a backward error near eps; the largest
# over 9027 solves of random 8 x 8 networks at classes A, B and C was 0.8 eps
BACKWARD_ERROR_BOUND = 8 * np.finfo(float).eps


def dense_reference(sys_, sides, heads):
    """Heads from a dense solve of the reduced free-DOF system for the
    one-column heads, with the fixed DOFs found from the unit square's
    sides: an independent reference for solve_darcy. Also returns the
    condition number of the free-DOF matrix."""
    x, y = sys_.dof_coords[:, 0], sys_.dof_coords[:, 1]
    tol = 1e-9 * np.sqrt(2.0)  # a DOF within 1e-9 diameters is on a side
    on = {"left": np.abs(x) <= tol, "right": np.abs(x - 1.0) <= tol,
          "bottom": np.abs(y) <= tol, "top": np.abs(y - 1.0) <= tol}
    fixed = np.logical_or.reduce([on[side] for side in sides])
    h = np.where(fixed, heads[:, 0], 0.0)
    free = ~fixed
    a = sys_.matrix.toarray()
    a_ff = a[np.ix_(free, free)]
    h[free] = np.linalg.solve(a_ff, -a[np.ix_(free, fixed)] @ h[fixed])
    return h, np.linalg.cond(a_ff)


def assert_matches_dense_solve(sys_, bc):
    """solve_darcy passes its gate with a backward error near eps, and its
    heads match the dense reference."""
    sol = solve_one(sys_, bc)
    assert sol.residual <= BACKWARD_ERROR_BOUND
    h_ref, cond = dense_reference(sys_, *bc)
    # two backward-stable solves agree to about cond * eps; at class B and
    # C contrast that exceeds 1e-10
    tol = max(1e-10, cond * np.finfo(float).eps)
    assert np.allclose(sol.h, h_ref, rtol=0, atol=tol * np.abs(h_ref).max())


class TestSolvers:
    @settings(max_examples=60, deadline=None)
    @given(segs=segment_lists, seed=st.integers(0, 2 ** 16))
    def test_random_networks_match_dense_solve(self, segs, seed):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        field = random_tensor_field(rect, 8, seed=seed)
        net = network_of(*[make_fracture(a, b, frac_id=k)
                           for k, (a, b) in enumerate(segs)])
        for ratio in RATIO_CLASSES.values():
            scaled, _ = enforce_ratio(net, field, ratio)
            sys_ = discretize(field, scaled, rect, 8, 8)
            for bc in paper_problems(sys_):
                assert_matches_dense_solve(sys_, bc)

    # a gate on ||r_free|| / ||rhs|| rejects some of these solves, whatever
    # the solver: rounding the exact heads alone leaves more than
    # RESIDUAL_GATE there
    @pytest.mark.parametrize("segs, seed", [
        ([((0.5, 0.0), (0.125, 0.75))], 1),
        ([((0.3, 0.5), (0.3 + 1e-8, 0.5))], 0),
        ([((0.3, 0.3), (0.3 + 1e-8, 0.3 + 1e-8)), ((0.1, 0.3), (0.9, 0.3))],
         0)], ids=["skew", "short", "short-crossed"])
    def test_gate_accepts_high_contrast_solves(self, unit_rect, segs, seed):
        field = random_tensor_field(unit_rect, 8, seed=seed)
        net = network_of(*[make_fracture(a, b, frac_id=k)
                           for k, (a, b) in enumerate(segs)])
        for ratio_class in ("B", "C"):
            scaled, _ = enforce_ratio(net, field, RATIO_CLASSES[ratio_class])
            sys_ = discretize(field, scaled, unit_rect, 8, 8)
            for bc in paper_problems(sys_):
                assert_matches_dense_solve(sys_, bc)

    def test_gate_rejects_inaccurate_heads(self, unit_rect):
        field = random_tensor_field(unit_rect, 8, seed=3)
        sys_ = discretize(field, None, unit_rect, 8, 8)
        solve = dfm_solver.cho_solve_banded
        with mock.patch.object(dfm_solver, "cho_solve_banded",
                               lambda *args: solve(*args) * (1.0 + 1e-3)):
            with pytest.raises(SolverError) as info:
                solve_one(sys_, aquifer_head(sys_))
        assert info.value.residual > RESIDUAL_GATE
        message = str(info.value)
        assert str(unit_rect) in message
        assert "column 0" in message
        assert f"{info.value.residual:.2e}" in message
        assert "63 free of 81 DOFs" in message
        # two columns, only the second one inaccurate: the gate names it
        with mock.patch.object(dfm_solver, "cho_solve_banded",
                               lambda *args: solve(*args) * [1.0, 1.0 + 1e-3]):
            with pytest.raises(SolverError) as info:
                solve_darcy(sys_, ("left", "right"), np.column_stack(
                    [aquifer_head(sys_, v)[1] for v in (1.0, 2.0)]))
        assert "column 1" in str(info.value)
        assert info.value.residual > RESIDUAL_GATE

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gate_rejects_non_finite_heads(self, unit_rect, bad):
        # NaN compares false with everything, so an unguarded gate would
        # let these columns through with residual 0
        field = random_tensor_field(unit_rect, 8, seed=3)
        sys_ = discretize(field, None, unit_rect, 8, 8)
        with mock.patch.object(dfm_solver, "cho_solve_banded",
                               lambda factor, b: np.full(b.shape, bad)):
            with pytest.raises(SolverError) as info:
                solve_darcy(sys_, ("left", "right"), np.column_stack(
                    [aquifer_head(sys_, v)[1] for v in (1.0, 2.0)]))
        assert info.value.residual > RESIDUAL_GATE
        message = str(info.value)
        assert str(unit_rect) in message
        assert "column 0" in message
        assert "63 free of 81 DOFs" in message

    def test_not_spd_raises_solver_error(self, unit_rect):
        # kxx < 0 makes the free-DOF matrix indefinite: the Cholesky fails
        field = uniform_field(unit_rect, -1e-6, kyy=1e-6)
        sys_ = discretize(field, None, unit_rect, 8, 8)
        with pytest.raises(SolverError) as info:
            solve_one(sys_, linear_head(sys_, "x"))
        assert not isinstance(info.value, LinAlgError)
        assert isinstance(info.value.__cause__, LinAlgError)
        message = str(info.value)
        assert str(unit_rect) in message
        assert "49 free of 81 DOFs" in message

    def test_direct_matches_dense_solve(self, unit_rect):
        field = random_tensor_field(unit_rect, 16, seed=5, log_spread=0.5)
        sys_ = discretize(field, None, unit_rect, 16, 16)
        sol = solve_one(sys_, aquifer_head(sys_))
        h_ref, _ = dense_reference(sys_, *aquifer_head(sys_))
        assert np.allclose(sol.h, h_ref, rtol=0,
                           atol=1e-10 * np.abs(h_ref).max())


def scaled_block(segs, seed, alpha):
    """A random 8 x 8 block with the segments as fractures, and the same
    block with the matrix field and the fracture conductivities times
    alpha."""
    field = random_tensor_field(Rect(0.0, 0.0, 1.0, 1.0), 8, seed=seed)
    net = network_of(*[make_fracture(a, b, frac_id=k)
                       for k, (a, b) in enumerate(segs)])
    scaled = copy.copy(net)
    scaled.conductivity = alpha * net.conductivity
    return ((field, net),
            (TensorField(field.grid, alpha * field.k), scaled))


def heads_and_tensor(field, net):
    rect = Rect(0.0, 0.0, 1.0, 1.0)
    sys_ = discretize(field, net, rect, 8, 8)
    heads = [sol.h for sol in solve_darcy(sys_, SIDES, sys_.dof_coords)]
    return sys_, heads, anisotropy_tensor(field, net, rect, 8)


class TestScaleEquivariance:
    # times 4^k every product, sum, square root and quotient of assembly,
    # factor and solve scales exactly: heads keep their bits
    @settings(max_examples=40, deadline=None)
    @given(segs=segment_lists, seed=st.integers(0, 2 ** 16),
           k=st.integers(-5, 5))
    def test_power_of_four_scales_exactly(self, segs, seed, k):
        alpha = 4.0 ** k
        plain, scaled = scaled_block(segs, seed, alpha)
        _, heads, (kt, res) = heads_and_tensor(*plain)
        _, heads_s, (kt_s, res_s) = heads_and_tensor(*scaled)
        for h, h_s in zip(heads, heads_s):
            assert np.array_equal(h, h_s)
        assert np.array_equal(kt_s, alpha * kt)
        assert res_s == alpha * res

    @settings(max_examples=40, deadline=None)
    @given(segs=segment_lists, seed=st.integers(0, 2 ** 16),
           alpha=st.floats(1e-3, 1e3))
    def test_any_factor_within_backward_stability(self, segs, seed, alpha):
        plain, scaled = scaled_block(segs, seed, alpha)
        sys_, heads, (kt, _) = heads_and_tensor(*plain)
        _, heads_s, (kt_s, _) = heads_and_tensor(*scaled)
        # the bound of two backward-stable solves (assert_matches_dense_solve)
        _, cond = dense_reference(sys_, *linear_head(sys_, "x"))
        tol = max(1e-10, cond * np.finfo(float).eps)
        for h, h_s in zip(heads, heads_s):
            assert np.allclose(h_s, h, rtol=0, atol=tol * np.abs(h).max())
        assert np.allclose(kt_s / alpha, kt, rtol=0,
                           atol=tol * np.abs(kt).max())


class TestBoundaryConditions:
    @pytest.fixture
    def system(self, unit_rect):
        return discretize(uniform_field(unit_rect, 1e-6), None, unit_rect,
                          4, 4)

    def test_unknown_side_rejected(self, system):
        with pytest.raises(ValueError):
            solve_darcy(system, ("left", "north"), system.dof_coords)

    def test_empty_rejected(self, system):
        with pytest.raises(ValueError):
            solve_darcy(system, (), system.dof_coords)

    def test_repeated_side_rejected(self, system):
        with pytest.raises(ValueError):
            solve_darcy(system, ("left", "left"), system.dof_coords)

    @pytest.mark.parametrize("shape", [(25,), (24, 1), (26, 2), (25, 1, 1)])
    def test_heads_shape_rejected(self, system, shape):
        with pytest.raises(ValueError):
            solve_darcy(system, SIDES, np.zeros(shape))

    def test_corner_belongs_to_first_side(self, system):
        # DOF 0 is the corner (0, 0)
        for sides in (("left", "bottom"), ("bottom", "left")):
            sol, = solve_darcy(system, sides, system.dof_coords[:, :1])
            assert 0 in sol.side_dofs[sides[0]]
            assert 0 not in sol.side_dofs[sides[1]]


# criterion 12's fine model: 225 overlapping blocks of a 100 m domain, SRF
# 64, solver 24
CRITERION_12 = RunConfig.from_dict({
    "blocks": {"domain_side": 100.0, "block_size": 2 * 100.0 / 14},
    "srf": {"resolution": 64, "correlation_length": 0.0},
    "solver": {"resolution": 24},
    "raster": {"resolution": 64},
})


@pytest.fixture(scope="module")
def criterion_12_blocks():
    """The field, the rects and the systems of blocks 0 (a corner) and 112
    (the center) of criterion 12's fine model at seed 0."""
    field, network, grid = fine_model(CRITERION_12, 0)
    rects = grid.rects[[0, 112]]
    return field, rects, list(discretize_blocks(
        field, clip_to_blocks(network, rects), 24, 24))


class TestAssembledMatrix:
    # (dtype, SHA-256) of the CSR arrays of criterion 12's blocks 0 and 112
    # at seed 0, recorded before the COO entries were written in place:
    # another entry order sums the duplicates in another order
    RECORDED_CSR = {
        0: {"data": ("float64", "9995d152057816e2084befab34f7339f"
                                "9a3d379f69f5958d7f0a611b6e251af9"),
            "indices": ("int32", "c4c0ffc802d9a77b9d02fc35b87e17cd"
                                 "03f67f07d7d31ac2024075b1330c6582"),
            "indptr": ("int32", "c68f5e768fc6ab952c833576f203f6bf"
                                "ec4412e3a1326ddd3179546952da604f")},
        112: {"data": ("float64", "09251dd3d4e542bf4723793080115cbe"
                                  "74c263052decebca10672b85c3853122"),
              "indices": ("int32", "4c74d2d79e58aedd40e4e3e8a95800ba"
                                   "dfd24e6eea27cd91157edfdabe0529fd"),
              "indptr": ("int32", "969c4237f37286d4ba3d6f69320f3158"
                                  "59b694b9e2192c83b8a27dd55ae94dc2")}}

    def test_recorded_csr_arrays(self, criterion_12_blocks):
        _, _, systems = criterion_12_blocks
        for block, system in zip((0, 112), systems):
            assert len(system.frac_elems) > 0
            got = {}
            for name in ("data", "indices", "indptr"):
                a = getattr(system.matrix, name)
                got[name] = (str(a.dtype),
                             hashlib.sha256(a.tobytes()).hexdigest())
            assert got == self.RECORDED_CSR[block], block


def dense_lower_band(a, order):
    """The lower band of a's rows and columns in order, in LAPACK's banded
    storage (band[d, j] = a[j + d, j]), from the dense matrix; the band is
    as wide as the widest stored entry below the diagonal."""
    sub = a[order][:, order]
    stored = sp.tril(sub).tocoo()
    width = int((stored.row - stored.col).max()) + 1
    dense = sub.toarray()
    band = np.zeros((width, len(order)))
    for d in range(width):
        band[d, :len(order) - d] = np.diagonal(dense, -d)
    return band


class TestLowerBand:
    def assert_dense_band(self, system, sides):
        free = ~np.logical_or.reduce([system.side_masks[s] for s in sides])
        order, _ = _band_factor(system, free)
        band = _lower_band(system.matrix, order)
        assert band.flags.f_contiguous
        assert np.array_equal(band, dense_lower_band(system.matrix, order))

    def test_fractured_criterion_12_block(self, criterion_12_blocks):
        _, _, systems = criterion_12_blocks
        assert len(systems[1].frac_elems) > 0
        self.assert_dense_band(systems[1], SIDES)

    def test_block_without_fractures(self, criterion_12_blocks):
        field, rects, _ = criterion_12_blocks
        self.assert_dense_band(discretize(field, None, Rect(*rects[1]), 24,
                                          24), SIDES)

    @pytest.mark.parametrize("sides", [SIDES, ("left",)])
    def test_two_by_two_mesh(self, unit_rect, sides):
        self.assert_dense_band(discretize(random_tensor_field(
            unit_rect, 2, seed=4), None, unit_rect, 2, 2), sides)
