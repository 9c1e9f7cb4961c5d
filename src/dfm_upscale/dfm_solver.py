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

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .frac_geom import FractureNetwork
from .geometry import (_PAIR_CHUNK, Rect, clip_segments, runs,
                       segment_intersections)
from .random_field import TensorField

FRAC_ELEM_FACTOR = 0.75  # target fracture element length / matrix cell size
# backward error above which a direct solve is rejected as inaccurate
RESIDUAL_GATE = 1e-10 * 1e3


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class BoundaryCondition:
    """Dirichlet head values on a subset of sides; other sides are no-flow.

    dirichlet maps side name ('left', 'right', 'bottom', 'top') to a callable
    g(x, y) -> head, vectorized over numpy arrays.
    """

    dirichlet: dict

    SIDES = ("left", "right", "bottom", "top")

    def __post_init__(self):
        unknown = set(self.dirichlet) - set(self.SIDES)
        if unknown:
            raise ValueError(f"unknown sides {sorted(unknown)}")
        if not self.dirichlet:
            raise ValueError("at least one Dirichlet side is required")


def linear_head(direction: str) -> BoundaryCondition:
    """h = x or h = y prescribed on the whole boundary."""
    if direction == "x":
        g = lambda x, y: np.asarray(x, float)
    elif direction == "y":
        g = lambda x, y: np.asarray(y, float)
    else:
        raise ValueError("direction must be 'x' or 'y'")
    return BoundaryCondition({s: g for s in BoundaryCondition.SIDES})


def aquifer_bc(head: float) -> BoundaryCondition:
    """h = head at the left side, h = 0 at the right, no-flow top/bottom."""
    return BoundaryCondition({
        "left": lambda x, y: np.full_like(np.asarray(x, float), head),
        "right": lambda x, y: np.zeros_like(np.asarray(x, float)),
    })


@dataclass
class DiscreteSystem:
    domain: Rect
    nx: int
    ny: int
    nodes: np.ndarray          # (n_m, 2) matrix node coords
    tris: np.ndarray           # (n_tri, 3) node ids
    tri_area: np.ndarray       # (n_tri,)
    tri_grads: np.ndarray      # (n_tri, 3, 2) basis gradients
    tri_K: np.ndarray          # (n_tri, 2, 2)
    frac_nodes: np.ndarray     # (n_f, 2) coords; dof id = n_m + index
    frac_elems: np.ndarray     # (n_fe, 2) indices into frac_nodes
    frac_len: np.ndarray       # (n_fe,)
    frac_tangent: np.ndarray   # (n_fe, 2) unit tangents
    frac_aperture: np.ndarray  # (n_fe,)
    frac_cond: np.ndarray      # (n_fe,) hydraulic conductivity
    coupling_tri: np.ndarray   # (n_fe,) containing matrix element per midpoint
    matrix: sp.csr_matrix      # assembled stiffness, no BCs applied
    dropped_fractures: int = 0
    merged_fractures: int = 0
    # (Dirichlet mask bytes, free DOFs in solve order, banded Cholesky
    # factor of their matrix) of the last solve
    _factor: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    @property
    def n_matrix_dofs(self) -> int:
        return len(self.nodes)

    @property
    def n_dofs(self) -> int:
        return len(self.nodes) + len(self.frac_nodes)

    # cached on first use, not in discretize, whose time is assembly only
    @cached_property
    def dof_coords(self) -> np.ndarray:
        if len(self.frac_nodes):
            return np.vstack([self.nodes, self.frac_nodes])
        return self.nodes

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

    @cached_property
    def order(self) -> np.ndarray:
        """Reverse Cuthill-McKee order of the full matrix. It does not
        depend on the Dirichlet mask: every solve's free DOFs follow it."""
        return reverse_cuthill_mckee(self.matrix, symmetric_mode=True)

    @cached_property
    def abs_matrix(self) -> sp.csr_matrix:
        """|A|, which scales every solve's backward error."""
        return abs(self.matrix)


@dataclass
class FlowSolution:
    system: DiscreteSystem
    h: np.ndarray              # heads for all dofs
    tri_grad: np.ndarray       # (n_tri, 2)
    tri_vel: np.ndarray        # (n_tri, 2), u = -K grad h
    frac_grad: np.ndarray      # (n_fe, 2), tangent * dh/ds
    frac_vel: np.ndarray       # (n_fe, 2)
    boundary_flux: dict = field(default_factory=dict)  # side -> outflow
    residual: float = 0.0      # backward error of the solve (see gate)


@lru_cache(maxsize=8)
def _mesh_topology(nx: int, ny: int):
    """Triangles of the structured nx x ny mesh and the row and column
    indices of their 3 x 3 stiffness blocks. The arrays are shared by every
    call with the same resolution, so they are read-only."""
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
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    for a in (tris, rows, cols):
        a.setflags(write=False)
    return tris, rows, cols


def _mesh_nodes(domain: Rect, nx: int, ny: int):
    hx = domain.width / nx
    hy = domain.height / ny
    xs = domain.x0 + hx * np.arange(nx + 1)
    ys = domain.y0 + hy * np.arange(ny + 1)
    px, py = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([px.ravel(), py.ravel()], axis=1), hx, hy


def _p1_gradients(nodes, tris):
    p = nodes[tris]                      # (n, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * np.abs(det)
    grads = np.empty((len(tris), 3, 2))
    # grad N_a = perp(edge opposite a) / (2 * signed area)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        grads[:, a, 0] = (p[:, b, 1] - p[:, c, 1]) / det
        grads[:, a, 1] = (p[:, c, 0] - p[:, b, 0]) / det
    return area, grads


def _stiffness(grads, tri_K):
    """grad_a . K . grad_b per triangle, the terms added to 0.0 one by one
    over (d, c) = (0, 0), (0, 1), (1, 0), (1, 1): the order and rounding of
    np.einsum("nad,ndc,nbc->nab", grads, tri_K, grads), in about half the
    time."""
    s = np.zeros((len(grads), 3, 3))
    for d in range(2):
        for c in range(2):
            s = s + ((grads[:, :, None, d] * tri_K[:, None, None, d, c])
                     * grads[:, None, :, c])
    return s


def locate_triangle(domain: Rect, nx: int, ny: int, x, y):
    """Index of the triangle containing (x, y), elementwise over arrays;
    edge hits resolve toward the larger cell index, diagonal hits toward the
    lower triangle."""
    fx = (np.asarray(x, float) - domain.x0) / (domain.width / nx)
    fy = (np.asarray(y, float) - domain.y0) / (domain.height / ny)
    ix = np.clip(np.floor(fx), 0, nx - 1).astype(np.int64)
    iy = np.clip(np.floor(fy), 0, ny - 1).astype(np.int64)
    return 2 * (ix * ny + iy) + (fx - ix < fy - iy)


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


def _merge_collinear(rows, p0, p1, aperture, tol):
    """Merge overlapping collinear segments rows[k]: p0[k]-p1[k]; the
    fracture row with the wider aperture wins. Returns (rows, p0, p1,
    merged count).

    Each segment is tested against all later ones at once; a merge changes
    only the earlier segment, so the later ones keep their original arrays.
    Without a candidate pair on the original arrays no merge can happen,
    and the inputs are returned as they are.
    """
    start, delta = p0, p1 - p0
    if not _collinear_candidates(start, delta, tol):
        return rows, p0, p1, 0
    out = list(zip(rows, p0, p1))
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
    keyed point passes its key to a kept endpoint. Equal t resolve in set
    order."""
    pts = sorted(set([(0.0, None), (1.0, None)] + points), key=lambda p: p[0])
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
    # point a new node
    point = np.arange(len(seg))
    owner = point.copy()
    kp = np.flatnonzero(keyed)
    if len(kp):
        _, first, inverse = np.unique(key[kp], axis=0, return_index=True,
                                      return_inverse=True)
        owner[kp] = kp[first][inverse.reshape(-1)]
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
    """Assemble the coupled sparse SPD system for one block or domain."""
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")
    nodes, hx, hy = _mesh_nodes(domain, nx, ny)
    tris, rows, cols = _mesh_topology(nx, ny)
    area, grads = _p1_gradients(nodes, tris)

    centroids = nodes[tris].mean(axis=1)
    tri_K = field_.tensor_at(centroids[:, 0], centroids[:, 1])

    # matrix stiffness: S_ab = area * grad_a . K . grad_b
    data = (_stiffness(grads, tri_K) * area[:, None, None]).ravel()

    snap_tol = 1e-9 * domain.diameter
    dropped = merged = 0
    seg_row = np.zeros(0, np.int64)
    seg_p0 = seg_p1 = np.zeros((0, 2))
    aperture = conductivity = np.zeros(0)
    if network is not None and len(network):
        aperture, conductivity = network.aperture, network.conductivity
        seg_row, q0, q1 = clip_segments(network.p0, network.p1, domain)
        dropped = len(network) - len(seg_row)
        seg_row, seg_p0, seg_p1, merged = _merge_collinear(
            seg_row, q0, q1, aperture, snap_tol)

    n_m = len(nodes)
    target = FRAC_ELEM_FACTOR * min(hx, hy)
    frac_nodes, spans, zero_len_dropped = _fracture_chains(
        seg_p0, seg_p1, snap_tol, target)
    sp_seg, sp_nsub, sp_first, sp_i0, sp_i1 = spans
    seg_d = seg_p1 - seg_p0
    # elements s = 0 .. nsub - 1 of every piece, in chain order
    span, s = runs(sp_nsub)
    n0 = np.where(s == 0, sp_i0[span], sp_first[span] + s - 1)
    n1 = np.where(s == sp_nsub[span] - 1, sp_i1[span], sp_first[span] + s)
    p0, p1 = frac_nodes[n0], frac_nodes[n1]
    e_len = np.hypot(p1[:, 0] - p0[:, 0], p1[:, 1] - p0[:, 1])
    keep = e_len > snap_tol
    n0, n1, p0, p1, e_len = n0[keep], n1[keep], p0[keep], p1[keep], e_len[keep]
    e_seg = sp_seg[span[keep]]
    e_tan = seg_d[e_seg] / np.hypot(seg_d[e_seg, 0], seg_d[e_seg, 1])[:, None]
    e_row = seg_row[e_seg]
    e_ap, e_cond = aperture[e_row], conductivity[e_row]
    mid = 0.5 * (p0 + p1)
    e_tri = locate_triangle(domain, nx, ny, mid[:, 0], mid[:, 1])

    # fracture conduction along each element, then the matrix-fracture
    # exchange at its midpoint: 4 + 25 entries per element, in that order
    t_e = e_ap * e_cond / e_len
    c = e_len * e_cond / e_ap
    p = nodes[tris[e_tri]]
    bary_t = np.stack([p[:, 0] - p[:, 2], p[:, 1] - p[:, 2]], axis=2)
    w01 = np.linalg.solve(bary_t, (mid - p[:, 2])[..., None])[..., 0]
    w = np.column_stack([w01, 1.0 - w01[:, 0] - w01[:, 1],
                         np.full((len(c), 2), -0.5)])
    f0, f1 = n_m + n0, n_m + n1
    dofs = np.column_stack([tris[e_tri], f0, f1])
    couple_rows = np.column_stack([f0, f1, f0, f1,
                                   np.repeat(dofs, 5, axis=1)])
    couple_cols = np.column_stack([f0, f1, f1, f0, np.tile(dofs, 5)])
    couple_data = np.column_stack([
        t_e, t_e, -t_e, -t_e,
        (c[:, None, None] * w[:, :, None] * w[:, None, :]).reshape(-1, 25)])

    n_dofs = n_m + len(frac_nodes)
    all_rows = np.concatenate([rows, couple_rows.ravel()])
    all_cols = np.concatenate([cols, couple_cols.ravel()])
    all_data = np.concatenate([data, couple_data.ravel()])
    matrix = sp.coo_matrix((all_data, (all_rows, all_cols)),
                           shape=(n_dofs, n_dofs)).tocsr()

    return DiscreteSystem(
        domain=domain, nx=nx, ny=ny, nodes=nodes, tris=tris, tri_area=area,
        tri_grads=grads, tri_K=tri_K, frac_nodes=frac_nodes,
        frac_elems=np.column_stack([n0, n1]), frac_len=e_len,
        frac_tangent=e_tan, frac_aperture=e_ap, frac_cond=e_cond,
        coupling_tri=e_tri, matrix=matrix,
        dropped_fractures=dropped + zero_len_dropped,
        merged_fractures=merged)


def _dirichlet_dofs(system: DiscreteSystem, bc: BoundaryCondition):
    """Dirichlet mask and values, plus each side's DOF indices in ascending
    order; a DOF on two sides (a corner) belongs to the side listed first."""
    coords = system.dof_coords
    values = np.zeros(system.n_dofs)
    mask = np.zeros(system.n_dofs, dtype=bool)
    side_dofs = {}
    for side, g in bc.dirichlet.items():
        m = system.side_masks[side]
        values[m] = g(coords[m, 0], coords[m, 1])
        side_dofs[side] = np.flatnonzero(m & ~mask)
        mask |= m
    return mask, values, side_dofs


def _band_factor(system: DiscreteSystem, free):
    """The free DOFs in the order they take in system.order, and the banded
    Cholesky factor of their matrix in that order. The lower band is filled
    straight from the CSR arrays of the full matrix."""
    a = system.matrix
    order = system.order[free[system.order]]
    pos = np.full(system.n_dofs, -1)
    pos[order] = np.arange(len(order))
    i = np.repeat(pos, np.diff(a.indptr))
    j = pos[a.indices]
    lower = (j >= 0) & (i >= j)  # both DOFs free, on or below the diagonal
    i, j = i[lower], j[lower]
    band = np.zeros((int((i - j).max()) + 1, len(order)))
    band[i - j, j] = a.data[lower]
    try:
        return order, cholesky_banded(band, lower=True)
    except LinAlgError as exc:
        raise SolverError(
            f"free-DOF matrix of {system.domain} ({len(order)} free of "
            f"{system.n_dofs} DOFs) is not positive definite: {exc}") from exc


def solve_darcy(system: DiscreteSystem, bc: BoundaryCondition) -> FlowSolution:
    """Solve the assembled system under Dirichlet/no-flow boundary data.

    The free-DOF matrix is SPD. Its DOFs follow the system's reverse
    Cuthill-McKee order, which gives it a narrow band, and it is factored
    by a banded Cholesky once per Dirichlet mask (the x and y linear-head
    problems share one factor). The solve is direct because the fracture
    coupling makes the system too ill-conditioned for a Jacobi-
    preconditioned iterative solver at high fracture/matrix contrast. A
    matrix that is not SPD raises SolverError, and so does a backward
    error above RESIDUAL_GATE: the free-DOF residual relative to the terms
    it sums, ||r_free|| / ||(|A| |h|)_free||. Rounding the exact heads
    already leaves a residual near eps times that sum, so the gate measures
    the solve and not the conditioning of the system.
    """
    a = system.matrix
    mask, values, side_dofs = _dirichlet_dofs(system, bc)
    free = ~mask
    key = mask.tobytes()
    if system._factor is None or system._factor[0] != key:
        system._factor = (key, *_band_factor(system, free))
    _, order, factor = system._factor
    # values is zero on the free DOFs, so -(A @ values) there is the
    # right-hand side of the free system
    rhs = -(a @ values)[order]
    h = np.array(values)
    h[order] = cho_solve_banded((factor, True), rhs)

    # one product gives the residual on the free DOFs and the Dirichlet
    # reactions on the fixed ones
    r = a @ h
    scale = np.linalg.norm((system.abs_matrix @ np.abs(h))[free])
    residual = float(np.linalg.norm(r[free]) / scale) if scale > 0 else 0.0
    if residual > RESIDUAL_GATE:
        raise SolverError(f"direct solve backward error {residual:.2e} too "
                          "large", residual=residual)

    tri_grad = np.einsum("nad,na->nd", system.tri_grads, h[system.tris])
    tri_vel = -np.einsum("ndc,nc->nd", system.tri_K, tri_grad)

    n_m = system.n_matrix_dofs
    if len(system.frac_elems):
        h0 = h[n_m + system.frac_elems[:, 0]]
        h1 = h[n_m + system.frac_elems[:, 1]]
        dh_ds = (h1 - h0) / system.frac_len
        frac_grad = system.frac_tangent * dh_ds[:, None]
        frac_vel = -system.frac_cond[:, None] * frac_grad
    else:
        frac_grad = np.zeros((0, 2))
        frac_vel = np.zeros((0, 2))

    # Dirichlet reactions give the discrete boundary fluxes (outflow > 0),
    # subtracted one by one from 0.0 in DOF order: cumsum is sequential,
    # where np.sum would add pairwise and round differently
    boundary_flux = {side: float(np.cumsum(np.r_[0.0, -r[dofs]])[-1])
                     for side, dofs in side_dofs.items()}

    return FlowSolution(system=system, h=h, tri_grad=tri_grad,
                        tri_vel=tri_vel, frac_grad=frac_grad,
                        frac_vel=frac_vel, boundary_flux=boundary_flux,
                        residual=residual)
