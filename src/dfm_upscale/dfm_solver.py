"""Coupled matrix-fracture Darcy flow on a rectangle.

Matrix: conforming P1 elements on a structured triangulation (two triangles
per grid cell) with element-wise constant full conductivity tensors.
Fractures: 1D P1 chains embedded non-conformingly, split at mutual
intersections and subdivided below the matrix cell size. Each fracture
element exchanges with the matrix element containing its midpoint through a
penalty-like term c = len * K_f / aperture acting on the head difference
between the interpolated matrix head and the mean fracture head.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .frac_geom import BlockChunk, FractureNetwork, clip_to_blocks
from .geometry import _PAIR_CHUNK, Rect, runs, segment_intersections
from .random_field import TensorField

FRAC_ELEM_FACTOR = 0.75  # target fracture element length / matrix cell size
# backward error above which a direct solve is rejected as inaccurate
RESIDUAL_GATE = 1e-10 * 1e3


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


# the sides of a rectangle, as solve_darcy and side_masks name them
SIDES = ("left", "right", "bottom", "top")


@dataclass
class DiscreteSystem:
    domain: Rect
    nx: int
    ny: int
    nodes: np.ndarray          # (n_m, 2) matrix node coords
    tris: np.ndarray           # (n_tri, 3) node ids (see _mesh_topology)
    tri_k: np.ndarray          # (n_tri, 3) (k_xx, k_xy, k_yy) per triangle
    frac_nodes: np.ndarray     # (n_f, 2) coords; dof id = n_m + index
    frac_elems: np.ndarray     # (n_fe, 2) indices into frac_nodes
    frac_len: np.ndarray       # (n_fe,)
    frac_tangent: np.ndarray   # (n_fe, 2) unit tangents
    frac_aperture: np.ndarray  # (n_fe,)
    frac_cond: np.ndarray      # (n_fe,) hydraulic conductivity
    coupling_tri: np.ndarray   # (n_fe,) containing matrix element per midpoint
    matrix: sp.csr_matrix      # assembled stiffness, no heads fixed
    # fractures whose clipped part keeps no element; one that misses the
    # domain is not in it and is not counted
    dropped_fractures: int = 0
    merged_fractures: int = 0

    @property
    def hx(self) -> float:
        return self.domain.width / self.nx

    @property
    def hy(self) -> float:
        return self.domain.height / self.ny

    @property
    def tri_area(self) -> float:
        """The area of every triangle."""
        return 0.5 * self.hx * self.hy

    @property
    def n_matrix_dofs(self) -> int:
        return len(self.nodes)

    @property
    def n_dofs(self) -> int:
        return len(self.nodes) + len(self.frac_nodes)

    # cached on first use, not in discretize, whose time is assembly only
    @cached_property
    def dof_coords(self) -> np.ndarray:
        return np.vstack([self.nodes, self.frac_nodes])

    @cached_property
    def side_masks(self) -> dict:
        """Per side, the DOFs within 1e-9 diameters of it."""
        tol = 1e-9 * self.domain.diameter
        x, y = self.dof_coords[:, 0], self.dof_coords[:, 1]
        d = self.domain
        return {"left": np.abs(x - d.x0) <= tol,
                "right": np.abs(x - d.x1) <= tol,
                "bottom": np.abs(y - d.y0) <= tol,
                "top": np.abs(y - d.y1) <= tol}


@dataclass
class FlowSolution:
    """Heads of one head problem. The flow fields derived from them
    are computed when first read."""

    system: DiscreteSystem
    h: np.ndarray              # heads for all dofs
    reactions: np.ndarray      # A @ h: Dirichlet reactions on fixed DOFs
    side_dofs: dict            # side -> its fixed DOFs, corners to the first
    residual: float = 0.0      # backward error of the solve (see gate)

    @cached_property
    def tri_grad(self) -> np.ndarray:
        """(n_tri, 2) head gradients, head differences along cell edges:
        the lower triangle takes its x difference from its cell's bottom
        edge and its y difference from the right edge, the upper triangle
        from the top and left edges."""
        s = self.system
        hg = self.h[:s.n_matrix_dofs].reshape(s.nx + 1, s.ny + 1)
        dx = (hg[1:] - hg[:-1]) / s.hx          # (nx, ny + 1)
        dy = (hg[:, 1:] - hg[:, :-1]) / s.hy    # (nx + 1, ny)
        g = np.empty((s.nx, s.ny, 2, 2))
        g[:, :, 0, 0], g[:, :, 0, 1] = dx[:, :-1], dy[1:]
        g[:, :, 1, 0], g[:, :, 1, 1] = dx[:, 1:], dy[:-1]
        return g.reshape(-1, 2)

    @cached_property
    def tri_vel(self) -> np.ndarray:
        """(n_tri, 2), u = -K grad h."""
        k, g = self.system.tri_k, self.tri_grad
        return -np.column_stack([k[:, 0] * g[:, 0] + k[:, 1] * g[:, 1],
                                 k[:, 1] * g[:, 0] + k[:, 2] * g[:, 1]])

    @cached_property
    def frac_grad(self) -> np.ndarray:
        """(n_fe, 2), tangent * dh/ds."""
        s = self.system
        h0 = self.h[s.n_matrix_dofs + s.frac_elems[:, 0]]
        h1 = self.h[s.n_matrix_dofs + s.frac_elems[:, 1]]
        return s.frac_tangent * ((h1 - h0) / s.frac_len)[:, None]

    @cached_property
    def frac_vel(self) -> np.ndarray:
        return -self.system.frac_cond[:, None] * self.frac_grad

    @cached_property
    def boundary_flux(self) -> dict:
        """Side -> outflow (> 0) from the Dirichlet reactions, subtracted
        one by one from 0.0 in DOF order: cumsum is sequential, where np.sum
        would add pairwise and round differently."""
        return {side: float(np.cumsum(np.r_[0.0, -self.reactions[dofs]])[-1])
                for side, dofs in self.side_dofs.items()}


@lru_cache(maxsize=8)
def _mesh_topology(nx: int, ny: int):
    """Triangles of the structured nx x ny mesh and the int32 row and
    column indices of their 3 x 3 stiffness blocks, the index dtype of the
    assembled matrix. Triangles 2c and 2c + 1 are the lower and the upper
    half of cell c = ix * ny + iy. The arrays are shared by every call with
    the same resolution, so they are read-only."""
    def nid(ix, iy):
        return ix * (ny + 1) + iy

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ix = ix.ravel()
    iy = iy.ravel()
    # lower triangle (0,0)-(1,0)-(1,1) and upper triangle (0,0)-(1,1)-(0,1)
    lower = np.stack([nid(ix, iy), nid(ix + 1, iy), nid(ix + 1, iy + 1)], axis=1)
    upper = np.stack([nid(ix, iy), nid(ix + 1, iy + 1), nid(ix, iy + 1)], axis=1)
    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    tris[0::2] = lower
    tris[1::2] = upper
    rows = np.repeat(tris, 3, axis=1).ravel().astype(np.int32)
    cols = np.tile(tris, (1, 3)).ravel().astype(np.int32)
    for a in (tris, rows, cols):
        a.setflags(write=False)
    return tris, rows, cols


def _triangle_tensors(field_: TensorField, xs, ys) -> np.ndarray:
    """(..., nx, ny, 2, 3) (k_xx, k_xy, k_yy) of the field cell holding each
    triangle's centroid ((a + b) + c) / 3, lower triangle first, for the
    (..., nx + 1) and (..., ny + 1) grid lines of one or more meshes. The
    centroid coordinates are separable, and the field's cell lookup too."""
    x0, x1 = xs[..., :-1], xs[..., 1:]
    y0, y1 = ys[..., :-1], ys[..., 1:]
    ix, iy = field_.grid.cell_index(
        np.stack([((x0 + x1) + x1) / 3, ((x0 + x1) + x0) / 3], axis=-2),
        np.stack([((y0 + y0) + y1) / 3, ((y0 + y1) + y1) / 3], axis=-2))
    return np.stack([field_.k[ix[..., t, :, None], iy[..., t, None, :]]
                     for t in range(2)], axis=-2)


@lru_cache(maxsize=32)
def _stiffness_maps(hx: float, hy: float) -> np.ndarray:
    """(2, 3, 9) maps from (k_xx, k_xy, k_yy) to the 3 x 3 stiffness
    area * grad_a . K . grad_b of the lower and the upper triangle of a
    hx x hy cell, whose basis gradients are constant. Read-only, shared by
    every call with the same cell."""
    gx, gy = 1.0 / hx, 1.0 / hy
    grads = np.array([[[-gx, 0.0], [gx, -gy], [0.0, gy]],    # lower
                      [[0.0, -gy], [gx, 0.0], [-gx, gy]]])   # upper
    ga, gb = grads[:, :, None, :], grads[:, None, :, :]
    maps = 0.5 * hx * hy * np.stack(
        [ga[..., 0] * gb[..., 0],
         ga[..., 0] * gb[..., 1] + ga[..., 1] * gb[..., 0],
         ga[..., 1] * gb[..., 1]], axis=1).reshape(2, 3, 9)
    maps.setflags(write=False)
    return maps


def _stiffness(tri_k: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """(..., 2, 9) stiffness entries of the (..., 2, 3) triangle tensors
    under the broadcastable (..., 2, 3, 9) maps (see _stiffness_maps), each
    entry on its own: the k_xx, k_xy and k_yy terms added in that order."""
    return ((tri_k[..., 0, None] * maps[..., 0, :]
             + tri_k[..., 1, None] * maps[..., 1, :])
            + tri_k[..., 2, None] * maps[..., 2, :])


def _barycentric(x0, y0, hx, hy, nx: int, ny: int, x, y):
    """The triangle of each point on the nx x ny grid of hx x hy cells
    whose lower-left corner is (x0, y0), all scalars, and the (n, 3)
    weights of its nodes: (1 - lx, lx - ly, ly) in a lower triangle,
    (1 - ly, lx, ly - lx) in an upper one, with (lx, ly) the point in cell
    units from its cell's lower-left node. Edge hits go to the larger cell
    index, points outside are clamped; diagonal hits go to the lower
    triangle."""
    fx = (np.asarray(x, float) - x0) / hx
    fy = (np.asarray(y, float) - y0) / hy
    ix = np.clip(np.floor(fx), 0, nx - 1).astype(np.int64)
    iy = np.clip(np.floor(fy), 0, ny - 1).astype(np.int64)
    lx, ly = fx - ix, fy - iy
    upper = lx < ly
    w = np.column_stack([np.where(upper, 1.0 - ly, 1.0 - lx),
                         np.where(upper, lx, lx - ly),
                         np.where(upper, ly - lx, ly)])
    return 2 * (ix * ny + iy) + upper, w


def _collinear_candidates(start, delta, tol):
    """Whether any pair i < j of the segments start[k] + [0, 1] * delta[k]
    passes _merge_collinear's parallel and on-line test, with the loop's
    arithmetic; scanned in row chunks of about _PAIR_CHUNK pairs."""
    n = len(start)
    length = np.hypot(delta[:, 0], delta[:, 1])
    rows = max(1, _PAIR_CHUNK // max(n, 1))
    for r0 in range(0, n, rows):
        a = np.arange(r0, min(r0 + rows, n))
        di, lim = delta[a, None], tol * length[a, None]
        w = start[None, :] - start[a, None]
        cross = di[..., 0] * delta[:, 1] - di[..., 1] * delta[:, 0]
        off0 = di[..., 0] * w[..., 1] - di[..., 1] * w[..., 0]
        if np.any((a[:, None] < np.arange(n)) & (np.abs(cross) < lim)
                  & (np.abs(off0) < lim)):
            return True
    return False


def _merge_collinear(p0, p1, aperture, tol):
    """Merge overlapping collinear segments p0[k]-p1[k]. Returns (rows, p0,
    p1, merged count): per kept segment, the row k whose properties it takes
    (of two merged rows, the one with the wider aperture), and its ends.

    Each segment is tested against all later ones at once; a merge changes
    only the earlier segment, so the later ones keep their original arrays.
    Without a candidate pair on the original arrays no merge can happen,
    and the inputs are returned as they are.
    """
    start, delta = p0, p1 - p0
    if not _collinear_candidates(start, delta, tol):
        return np.arange(len(p0)), p0, p1, 0
    out = list(zip(range(len(p0)), p0, p1))
    alive = np.ones(len(out), dtype=bool)
    merged = 0
    for i in range(len(out)):
        if not alive[i]:
            continue
        j = i + 1
        while True:
            row_i, a0, a1 = out[i]
            di = a1 - a0
            li = np.hypot(*di)
            w = start[j:] - a0
            cross = di[0] * delta[j:, 1] - di[1] * delta[j:, 0]
            off0 = di[0] * w[:, 1] - di[1] * w[:, 0]
            hits = np.flatnonzero(alive[j:] & (np.abs(cross) < tol * li)
                                  & (np.abs(off0) < tol * li))
            if not len(hits):
                break
            j += hits[0]
            row_j, b0, b1 = out[j]
            t = di / li
            s = np.sort(np.array([0.0, li, (b0 - a0) @ t, (b1 - a0) @ t]))
            lo, hi = s[0], s[-1]
            if hi - lo < li + np.hypot(*delta[j]) - tol:  # projections overlap
                keep = row_i if aperture[row_i] >= aperture[row_j] else row_j
                out[i] = (keep, a0 + lo * t, a0 + hi * t)
                alive[j] = False
                merged += 1
            j += 1
    out = [seg for seg, keep in zip(out, alive) if keep]
    return (np.array([row for row, _, _ in out], np.int64),
            np.reshape([a0 for _, a0, _ in out], (-1, 2)),
            np.reshape([a1 for _, _, a1 in out], (-1, 2)), merged)


def _clean_chain(points, seg_len, tol):
    """(t, share key) breakpoints of one segment plus its endpoints, sorted
    by t, dropping each point within tol of the last kept one; a dropped
    keyed point passes its key to a kept endpoint. At equal t, keyed points
    come before an endpoint and in ascending key order."""
    pts = sorted(set([(0.0, None), (1.0, None)] + points),
                 key=lambda p: (p[0], p[1] is None, p[1]))
    cleaned = [pts[0]]
    for t, k in pts[1:]:
        if (t - cleaned[-1][0]) * seg_len <= tol:
            if cleaned[-1][1] is None and k is not None:
                cleaned[-1] = (cleaned[-1][0], k)
            continue
        cleaned.append((t, k))
    return cleaned


def _fracture_chains(seg_p0, seg_p1, snap_tol, target):
    """Split the segments at their mutual intersections, subdivide each
    piece below target and number the fracture nodes.

    Returns (frac_nodes, spans, dropped). spans holds per piece, in segment
    and chain order, the arrays (segment, nsub, first interior node id,
    start node id, end node id). Intersection points that quantize to the
    same snap_tol key share one node. Per segment, its new breakpoint nodes
    are numbered first, then the nsub - 1 interior nodes of each piece.
    dropped counts the segments that keep no piece.
    """
    seg_d = seg_p1 - seg_p0
    seg_len = np.hypot(seg_d[:, 0], seg_d[:, 1])
    live = seg_len > snap_tol

    # both segments of every hit, hit by hit and i before j
    hit_i, hit_j, hit_pt = segment_intersections(seg_p0, seg_p1, snap_tol)
    b_seg = np.column_stack([hit_i, hit_j]).ravel()
    b_pt = np.repeat(hit_pt, 2, axis=0)
    b_key = np.rint(b_pt / snap_tol).astype(np.int64)
    # matmul of 1 x 2 by 2 x 1 and float_power round as the scalar
    # (pt - p0) @ d and np.hypot(*d) ** 2 do; w . d summed elementwise
    # and h * h do not. A segment whose squared length underflows to 0
    # (length below about 1e-162) is not live, and its points are dropped
    # below: its t stays 0 rather than 0 / 0.
    w, d = b_pt - seg_p0[b_seg], seg_d[b_seg]
    len2 = np.float_power(seg_len[b_seg], 2)
    b_t = np.clip(np.divide(np.matmul(w[:, None, :], d[:, :, None])[:, 0, 0],
                            len2, out=np.zeros(len(len2)), where=len2 > 0.0),
                  0.0, 1.0)

    # every live segment's breakpoints and unkeyed endpoints, sorted by t
    ends = np.flatnonzero(live)
    seg = np.concatenate([b_seg, ends, ends])
    t = np.concatenate([b_t, np.zeros(len(ends)), np.ones(len(ends))])
    key = np.concatenate([b_key, np.zeros((2 * len(ends), 2), np.int64)])
    keyed = np.arange(len(seg)) < len(b_seg)
    order = np.lexsort((t, seg))
    order = order[live[seg[order]]]
    seg, t, key, keyed = seg[order], t[order], key[order], keyed[order]

    # A segment whose sorted points are all more than snap_tol apart keeps
    # them all. The rest go through the scalar cleaning, which drops close
    # points and resolves equal t in its own order.
    same = seg[1:] == seg[:-1]
    close = same & ~((t[1:] - t[:-1]) * seg_len[seg[1:]] > snap_tol)
    slow = np.zeros(len(seg_p0), dtype=bool)
    slow[seg[1:][close]] = True
    dropped = int(np.count_nonzero(~live))
    fix = []  # (segment, t, key or None) along the cleaned slow chains
    for s in np.flatnonzero(slow):
        mine = np.flatnonzero(b_seg == s)
        cleaned = _clean_chain(
            list(zip(b_t[mine].tolist(), map(tuple, b_key[mine].tolist()))),
            seg_len[s], snap_tol)
        if len(cleaned) == 1:
            dropped += 1
        else:
            fix += [(s, tc, k) for tc, k in cleaned]
    if slow.any():
        fast = ~slow[seg]
        f_seg, f_t, f_key = zip(*fix) if fix else ((), (), ())
        seg = np.concatenate([seg[fast], np.array(f_seg, np.int64)])
        t = np.concatenate([t[fast], np.array(f_t, float)])
        key = np.concatenate([key[fast], np.reshape(
            np.array([k or (0, 0) for k in f_key], np.int64), (-1, 2))])
        keyed = np.concatenate([keyed[fast],
                                np.array([k is not None for k in f_key],
                                         bool)])
        order = np.argsort(seg, kind="stable")
        seg, t, key, keyed = seg[order], t[order], key[order], keyed[order]

    # a keyed point takes the node of its key's first point, every other
    # point a new node; the stable sort keeps equal keys in point order
    point = np.arange(len(seg))
    owner = point.copy()
    kp = np.flatnonzero(keyed)
    by_key = kp[np.lexsort((key[kp, 1], key[kp, 0]))]
    k = key[by_key]
    first = np.ones(len(k), dtype=bool)
    first[1:] = np.any(k[1:] != k[:-1], axis=1)
    owner[by_key] = by_key[first][np.cumsum(first) - 1]
    new = owner == point

    piece = np.flatnonzero(seg[1:] == seg[:-1])
    sp_seg = seg[piece]
    sp_t0, sp_t1 = t[piece], t[piece + 1]
    sp_nsub = np.maximum(1, np.ceil((sp_t1 - sp_t0) * seg_len[sp_seg]
                                    / target)).astype(np.int64)
    # ids run segment by segment: its new nodes in chain order, then the
    # nsub - 1 interior nodes of each of its pieces
    n_new = np.count_nonzero(new)
    count = np.concatenate([np.ones(n_new, np.int64), sp_nsub - 1])
    order = np.argsort(np.concatenate([seg[new], sp_seg]), kind="stable")
    first_id = np.empty_like(count)
    first_id[order] = np.cumsum(count[order]) - count[order]
    node_id = np.zeros(len(seg), np.int64)
    node_id[new] = first_id[:n_new]
    node_id = node_id[owner]
    sp_first = first_id[n_new:]

    frac_nodes = np.zeros((int(count.sum()), 2))
    frac_nodes[node_id[new]] = (seg_p0[seg[new]]
                                + t[new, None] * seg_d[seg[new]])
    # interior nodes s = 1 .. nsub - 1 of every piece
    span, s = runs(sp_nsub - 1)
    s += 1
    ts = sp_t0[span] + (sp_t1[span] - sp_t0[span]) * s / sp_nsub[span]
    frac_nodes[sp_first[span] + s - 1] = (seg_p0[sp_seg[span]]
                                          + ts[:, None] * seg_d[sp_seg[span]])
    spans = (sp_seg, sp_nsub, sp_first, node_id[piece], node_id[piece + 1])
    return frac_nodes, spans, dropped


def discretize(field_: TensorField, network: FractureNetwork | None,
               domain: Rect, nx: int, ny: int) -> DiscreteSystem:
    """Assemble the coupled sparse SPD system for one block or domain.

    The network's fractures are clipped to domain; any that miss it are
    ignored, so a caller may pass a superset of the fractures in it."""
    return next(discretize_blocks(field_, clip_to_blocks(network, domain),
                                  nx, ny))


def discretize_blocks(field_: TensorField, chunk: BlockChunk, nx: int,
                      ny: int) -> Iterator[DiscreteSystem]:
    """An iterator over the systems of the blocks of chunk (see
    frac_geom.clip_to_blocks), in order. The grid lines of the blocks'
    meshes, their triangle tensors and the triangles' stiffness are
    computed for the whole chunk at once, each block's from its own rect.
    Everything else of a block is assembled from its own rows of the
    chunk's table alone, when the iterator reaches it, so a caller that
    solves the systems in turn holds one at a time."""
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")
    box = chunk.rects
    hx = (box[:, 2] - box[:, 0]) / nx
    hy = (box[:, 3] - box[:, 1]) / ny
    xs = box[:, 0, None] + hx[:, None] * np.arange(nx + 1)
    ys = box[:, 1, None] + hy[:, None] * np.arange(ny + 1)
    tri_k = _triangle_tensors(field_, xs, ys)
    maps = np.reshape([_stiffness_maps(a, b) for a, b in
                       zip(hx.tolist(), hy.tolist())], (-1, 1, 1, 2, 3, 9))
    stiffness = _stiffness(tri_k, maps)
    bounds = np.searchsorted(chunk.block, np.arange(len(box) + 1))
    return (_assemble(Rect(*box[b].tolist()), xs[b], ys[b], tri_k[b],
                      stiffness[b], chunk.p0[a:e], chunk.p1[a:e],
                      chunk.aperture[a:e], chunk.conductivity[a:e])
            for b, (a, e) in enumerate(zip(bounds[:-1], bounds[1:])))


# the 16 COO entries of a fracture element, as columns of its (f0, f1, t0,
# t1, t2) DOFs and of its (plus, minus, -c w / 2) values: conduction and
# the exchange's fracture part on f0 and f1, then the triangle-fracture
# part, (t, f) and its transpose (f, t). np.take writes them straight into
# its out array in any mode but "raise", which buffers; all are in range.
_FRAC_ROWS = [0, 1, 0, 1, 2, 3, 4, 2, 3, 4, 0, 0, 0, 1, 1, 1]
_FRAC_COLS = [0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 2, 3, 4, 2, 3, 4]
_FRAC_VALUES = [0, 0, 1, 1, 2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4]


def _assemble(domain: Rect, xs, ys, tri_k, stiffness, p0, p1, aperture,
              conductivity) -> DiscreteSystem:
    """The system of one block on the mesh with grid lines xs and ys,
    triangle tensors tri_k and triangle stiffness entries stiffness (see
    _stiffness), with its clipped fractures p0[k]-p1[k]."""
    nx, ny = len(xs) - 1, len(ys) - 1
    hx, hy = domain.width / nx, domain.height / ny
    snap_tol = 1e-9 * domain.diameter

    # mesh: node id ix * (ny + 1) + iy
    nodes = np.empty((nx + 1, ny + 1, 2))
    nodes[..., 0] = xs[:, None]
    nodes[..., 1] = ys[None, :]
    nodes = nodes.reshape(-1, 2)
    n_m = len(nodes)
    tris, rows, cols = _mesh_topology(nx, ny)

    seg_row, seg_p0, seg_p1, merged = _merge_collinear(p0, p1, aperture,
                                                       snap_tol)
    frac_nodes, (sp_seg, sp_nsub, sp_first, sp_i0, sp_i1), dropped = \
        _fracture_chains(seg_p0, seg_p1, snap_tol,
                         FRAC_ELEM_FACTOR * min(hx, hy))
    seg_d = seg_p1 - seg_p0
    # elements s = 0 .. nsub - 1 of every piece, in chain order
    span, s = runs(sp_nsub)
    n0 = np.where(s == 0, sp_i0[span], sp_first[span] + s - 1)
    n1 = np.where(s == sp_nsub[span] - 1, sp_i1[span], sp_first[span] + s)
    e_p0, e_p1 = frac_nodes[n0], frac_nodes[n1]
    e_len = np.hypot(e_p1[:, 0] - e_p0[:, 0], e_p1[:, 1] - e_p0[:, 1])
    keep = e_len > snap_tol
    span, n0, n1, e_p0, e_p1, e_len = (a[keep] for a in (span, n0, n1, e_p0,
                                                         e_p1, e_len))
    e_seg = sp_seg[span]
    e_tan = seg_d[e_seg] / np.hypot(seg_d[e_seg, 0], seg_d[e_seg, 1])[:, None]
    e_row = seg_row[e_seg]
    e_ap, e_cond = aperture[e_row], conductivity[e_row]
    mid = 0.5 * (e_p0 + e_p1)
    e_tri, w = _barycentric(domain.x0, domain.y0, hx, hy, nx, ny, mid[:, 0],
                            mid[:, 1])

    # Fracture conduction t along each element, and the exchange
    # c (w . h_tri - (h_f0 + h_f1) / 2)^2 / 2 at its midpoint. The exchange's
    # triangle part c w w^T is added to its triangle's 9 stiffness entries,
    # element by element; conduction and the fracture part c / 4 share 4
    # entries, and the triangle-fracture part -c w / 2 takes 6 + 6. The
    # COO entries are written in place: 9 per triangle, then 16 per element.
    t_e = e_ap * e_cond / e_len
    c = e_len * e_cond / e_ap
    cw = c[:, None] * w
    n9, n_fe = 9 * len(tris), len(e_tri)
    data = np.empty(n9 + 16 * n_fe)
    data[:n9] = stiffness.ravel()
    np.add.at(data, (9 * e_tri[:, None] + np.arange(9)).ravel(),
              (cw[:, :, None] * w[:, None, :]).ravel())
    q = 0.25 * c
    values = np.empty((n_fe, 5))
    values[:, 0], values[:, 1], values[:, 2:] = t_e + q, q - t_e, -0.5 * cw
    np.take(values, _FRAC_VALUES, axis=1, mode="clip",
            out=data[n9:].reshape(n_fe, 16))
    frac_elems = np.column_stack([n0, n1])
    dofs = np.empty((n_fe, 5), np.int32)
    dofs[:, :2], dofs[:, 2:] = n_m + frac_elems, tris[e_tri]
    ij = np.empty((2, len(data)), np.int32)
    ij[0, :n9], ij[1, :n9] = rows, cols
    for k, pattern in enumerate((_FRAC_ROWS, _FRAC_COLS)):
        np.take(dofs, pattern, axis=1, mode="clip",
                out=ij[k, n9:].reshape(n_fe, 16))
    n_dofs = n_m + len(frac_nodes)
    matrix = sp.coo_matrix((data, (ij[0], ij[1])),
                           shape=(n_dofs, n_dofs)).tocsr()
    return DiscreteSystem(
        domain=domain, nx=nx, ny=ny, nodes=nodes, tris=tris,
        tri_k=tri_k.reshape(-1, 3), frac_nodes=frac_nodes,
        frac_elems=frac_elems, frac_len=e_len, frac_tangent=e_tan,
        frac_aperture=e_ap, frac_cond=e_cond, coupling_tri=e_tri,
        matrix=matrix, dropped_fractures=dropped, merged_fractures=merged)


def _lower_band(a: sp.csr_matrix, order) -> np.ndarray:
    """The lower band of a's rows and columns in order, in LAPACK's banded
    storage, filled straight from the CSR arrays. In Fortran order LAPACK
    factors it in place, without a copy."""
    n = len(order)
    pos = np.full(a.shape[0], n)  # a DOF not in order goes past the last
    pos[order] = np.arange(n)
    i = np.repeat(pos, np.diff(a.indptr))
    j = pos[a.indices]
    d = i - j
    lower = (d >= 0) & (i < n)  # both DOFs in order, on or below the diagonal
    d, j = np.compress(lower, d), np.compress(lower, j)
    width = int(d.max()) + 1
    # band[d, j] is entry j * width + d of the band's Fortran-order memory
    band = np.zeros(n * width)
    band[j * width + d] = np.compress(lower, a.data)
    return band.reshape(n, width).T


def _band_factor(system: DiscreteSystem, free):
    """The free DOFs in the reverse Cuthill-McKee order of the full matrix,
    and the banded Cholesky factor of their matrix in that order."""
    order = reverse_cuthill_mckee(system.matrix, symmetric_mode=True)
    order = order[free[order]]
    try:
        return order, cholesky_banded(_lower_band(system.matrix, order),
                                      overwrite_ab=True, lower=True)
    except LinAlgError as exc:
        raise SolverError(
            f"free-DOF matrix of {system.domain} ({len(order)} free of "
            f"{system.n_dofs} DOFs) is not positive definite: {exc}") from exc


def solve_darcy(system: DiscreteSystem, sides,
                heads: np.ndarray) -> list[FlowSolution]:
    """Solve the assembled system for k head problems at once: heads is
    (n_dofs, k), and its entries on the listed sides are the fixed heads of
    the k problems; the other sides are no-flow. A DOF on two listed sides
    (a corner) belongs to the side listed first.

    The free-DOF matrix is SPD. Its DOFs follow the reverse Cuthill-McKee
    order of the full matrix, which gives it a narrow band, and it is
    factored once by a banded Cholesky for all columns. The solve is direct
    because the fracture coupling makes the system too ill-conditioned for a
    Jacobi-preconditioned iterative solver at high fracture/matrix contrast. A
    matrix that is not SPD raises SolverError, and so does a column whose
    backward error exceeds RESIDUAL_GATE (it is inf where the heads are not
    finite): the free-DOF residual relative to the terms it sums,
    ||r_free|| / ||(|A| |h|)_free||. Rounding the exact
    heads already leaves a residual near eps times that sum, so the gate
    measures the solve and not the conditioning of the system. Every step
    treats the columns apart (the banded solve, the sparse products and the
    per-column norms), so a column's results do not depend on the others.
    """
    sides = list(sides)
    if (not sides or len(set(sides)) < len(sides)
            or not set(sides) <= set(SIDES)):
        raise ValueError(f"sides must be distinct names from {SIDES}, at "
                         f"least one: got {sides}")
    heads = np.asarray(heads, float)
    if heads.ndim != 2 or heads.shape[0] != system.n_dofs:
        raise ValueError(f"heads must be shaped (n_dofs, k) = "
                         f"({system.n_dofs}, k), not {heads.shape}")
    a = system.matrix
    mask = np.zeros(system.n_dofs, dtype=bool)
    side_dofs = {}
    for side in sides:
        m = system.side_masks[side]
        side_dofs[side] = np.flatnonzero(m & ~mask)
        mask |= m
    free = ~mask
    order, factor = _band_factor(system, free)
    # h is zero on the free DOFs, so -(A @ h) there is the right-hand side
    # of the free system
    h = np.where(mask[:, None], heads, 0.0)
    h[order] = cho_solve_banded((factor, True), -(a @ h)[order])

    # one product gives the residual on the free DOFs and the Dirichlet
    # reactions on the fixed ones
    r = a @ h
    # |A| shares a's index arrays
    terms = sp.csr_matrix((np.abs(a.data), a.indices, a.indptr),
                          shape=a.shape) @ np.abs(h)
    r_free, terms_free = r[free], terms[free]
    flows = []
    for j in range(h.shape[1]):
        scale = np.linalg.norm(terms_free[:, j])
        if not np.isfinite(scale):  # heads that are inf or NaN
            residual = np.inf
        else:
            residual = (float(np.linalg.norm(r_free[:, j]) / scale)
                        if scale > 0 else 0.0)
        if residual > RESIDUAL_GATE:
            raise SolverError(
                f"direct solve of {system.domain}: head column "
                f"{j} has backward error {residual:.2e} above "
                f"{RESIDUAL_GATE:.0e} ({int(free.sum())} free of "
                f"{system.n_dofs} DOFs)", residual=residual)
        flows.append(FlowSolution(system=system, h=h[:, j], reactions=r[:, j],
                                  side_dofs=side_dofs, residual=residual))
    return flows
