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

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .frac_geom import FractureNetwork
from .geometry import Rect, clip_segment, segment_intersection
from .random_field import TensorField

FRAC_ELEM_FACTOR = 0.75  # target fracture element length / matrix cell size
# relative residual above which a direct solve is rejected as inaccurate
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

    @property
    def n_matrix_dofs(self) -> int:
        return len(self.nodes)

    @property
    def n_dofs(self) -> int:
        return len(self.nodes) + len(self.frac_nodes)

    @property
    def dof_coords(self) -> np.ndarray:
        if len(self.frac_nodes):
            return np.vstack([self.nodes, self.frac_nodes])
        return self.nodes


@dataclass
class FlowSolution:
    system: DiscreteSystem
    h: np.ndarray              # heads for all dofs
    tri_grad: np.ndarray       # (n_tri, 2)
    tri_vel: np.ndarray        # (n_tri, 2), u = -K grad h
    frac_grad: np.ndarray      # (n_fe, 2), tangent * dh/ds
    frac_vel: np.ndarray       # (n_fe, 2)
    boundary_flux: dict = field(default_factory=dict)  # side -> outflow
    residual: float = 0.0

    @property
    def total_outflow(self) -> float:
        return sum(self.boundary_flux.values())


def _structured_matrix_mesh(domain: Rect, nx: int, ny: int):
    hx = domain.width / nx
    hy = domain.height / ny
    xs = domain.x0 + hx * np.arange(nx + 1)
    ys = domain.y0 + hy * np.arange(ny + 1)
    px, py = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([px.ravel(), py.ravel()], axis=1)

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
    return nodes, tris, hx, hy


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


def locate_triangle(domain: Rect, nx: int, ny: int, x: float, y: float) -> int:
    """Index of the triangle containing (x, y); edge hits resolve toward the
    larger cell index, diagonal hits toward the lower triangle."""
    hx = domain.width / nx
    hy = domain.height / ny
    fx = (x - domain.x0) / hx
    fy = (y - domain.y0) / hy
    ix = min(max(int(np.floor(fx)), 0), nx - 1)
    iy = min(max(int(np.floor(fy)), 0), ny - 1)
    lx = fx - ix
    ly = fy - iy
    cell = ix * ny + iy
    return 2 * cell + (0 if lx >= ly else 1)


def _barycentric(nodes, tris, tri_idx, point):
    p = nodes[tris[tri_idx]]
    t = np.array([[p[0, 0] - p[2, 0], p[1, 0] - p[2, 0]],
                  [p[0, 1] - p[2, 1], p[1, 1] - p[2, 1]]])
    w01 = np.linalg.solve(t, np.asarray(point, float) - p[2])
    return np.array([w01[0], w01[1], 1.0 - w01[0] - w01[1]])


def _clip_network(network: FractureNetwork, domain: Rect):
    """Clipped (fracture, p0, p1) triples plus the dropped-fracture count."""
    segs = []
    dropped = 0
    for fr in network.fractures:
        p0, p1 = fr.endpoints
        clipped = clip_segment(p0, p1, domain)
        if clipped is None:
            dropped += 1
            continue
        segs.append((fr, clipped[0], clipped[1]))
    return segs, dropped


def _merge_collinear(segs, tol):
    """Merge overlapping collinear segments; the wider-aperture fracture wins."""
    merged = 0
    out = list(segs)
    i = 0
    while i < len(out):
        fr_i, a0, a1 = out[i]
        di = a1 - a0
        li = np.hypot(*di)
        j = i + 1
        while j < len(out):
            fr_j, b0, b1 = out[j]
            dj = b1 - b0
            cross = di[0] * dj[1] - di[1] * dj[0]
            off0 = di[0] * (b0 - a0)[1] - di[1] * (b0 - a0)[0]
            if abs(cross) < tol * li and abs(off0) < tol * li:
                t = di / li
                s = np.sort(np.array([0.0, li, (b0 - a0) @ t, (b1 - a0) @ t]))
                lo, hi = s[0], s[-1]
                span = hi - lo
                if span < li + np.hypot(*dj) - tol:  # projections overlap
                    keep = fr_i if fr_i.aperture >= fr_j.aperture else fr_j
                    out[i] = (keep, a0 + lo * t, a0 + hi * t)
                    fr_i, a0, a1 = out[i]
                    di = a1 - a0
                    li = np.hypot(*di)
                    del out[j]
                    merged += 1
                    continue
            j += 1
        i += 1
    if merged:
        warnings.warn(f"merged {merged} overlapping collinear fracture segments")
    return out, merged


def discretize(field_: TensorField, network: FractureNetwork | None,
               domain: Rect, nx: int, ny: int) -> DiscreteSystem:
    """Assemble the coupled sparse SPD system for one block or domain."""
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")
    nodes, tris, hx, hy = _structured_matrix_mesh(domain, nx, ny)
    area, grads = _p1_gradients(nodes, tris)

    centroids = nodes[tris].mean(axis=1)
    tri_K = field_.tensor_at(centroids[:, 0], centroids[:, 1])

    # matrix stiffness: S_ab = area * grad_a . K . grad_b
    s_el = np.einsum("nad,ndc,nbc->nab", grads, tri_K, grads) * area[:, None, None]
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    data = s_el.ravel()

    snap_tol = 1e-9 * domain.diameter
    segs, dropped = ([], 0)
    merged = 0
    if network is not None and len(network.fractures):
        segs, dropped = _clip_network(network, domain)
        segs, merged = _merge_collinear(segs, snap_tol)

    # split at mutual intersections, subdivide, number fracture dofs
    n_m = len(nodes)
    frac_nodes = []
    shared = {}  # quantized intersection point -> fracture node index

    def frac_node(point, share_key=None):
        if share_key is not None and share_key in shared:
            return shared[share_key]
        frac_nodes.append(np.asarray(point, float))
        idx = len(frac_nodes) - 1
        if share_key is not None:
            shared[share_key] = idx
        return idx

    breakpoints = [[] for _ in segs]  # (t, share_key) per segment
    for i in range(len(segs)):
        _, a0, a1 = segs[i]
        for j in range(i + 1, len(segs)):
            _, b0, b1 = segs[j]
            pt = segment_intersection(a0, a1, b0, b1, snap_tol)
            if pt is None:
                continue
            key = (int(round(pt[0] / snap_tol)), int(round(pt[1] / snap_tol)))
            for idx, (q0, q1) in ((i, (a0, a1)), (j, (b0, b1))):
                d = q1 - q0
                ll = np.hypot(*d)
                t = float(np.clip(((pt - q0) @ d) / ll ** 2, 0.0, 1.0))
                breakpoints[idx].append((t, key))

    target = FRAC_ELEM_FACTOR * min(hx, hy)
    elems = []
    e_len, e_tan, e_ap, e_cond, e_tri = [], [], [], [], []
    couple_rows, couple_cols, couple_data = [], [], []
    zero_len_dropped = 0

    for seg_idx, (fr, a0, a1) in enumerate(segs):
        d = a1 - a0
        seg_len = np.hypot(*d)
        if seg_len <= snap_tol:
            zero_len_dropped += 1
            continue
        tangent = d / seg_len
        pts = sorted(set([(0.0, None), (1.0, None)]
                         + [(t, k) for t, k in breakpoints[seg_idx]]),
                     key=lambda p: p[0])
        # drop breakpoints that coincide (within tol) with an earlier one
        cleaned = [pts[0]]
        for t, k in pts[1:]:
            if (t - cleaned[-1][0]) * seg_len <= snap_tol:
                if cleaned[-1][1] is None and k is not None:
                    cleaned[-1] = (cleaned[-1][0], k)
                continue
            cleaned.append((t, k))
        if len(cleaned) == 1:
            zero_len_dropped += 1
            continue

        node_ids = []
        for t, k in cleaned:
            node_ids.append(frac_node(a0 + t * d, share_key=k))
        # uniform subdivision of each span to the target element size
        chain = []
        for (t0, _), (t1, _), i0, i1 in zip(cleaned[:-1], cleaned[1:],
                                            node_ids[:-1], node_ids[1:]):
            span = (t1 - t0) * seg_len
            nsub = max(1, int(np.ceil(span / target)))
            prev = i0
            for s in range(1, nsub):
                t = t0 + (t1 - t0) * s / nsub
                nid = frac_node(a0 + t * d)
                chain.append((prev, nid))
                prev = nid
            chain.append((prev, i1))
        for i0, i1 in chain:
            p0 = frac_nodes[i0]
            p1 = frac_nodes[i1]
            ll = float(np.hypot(*(p1 - p0)))
            if ll <= snap_tol:
                continue
            elems.append((i0, i1))
            e_len.append(ll)
            e_tan.append(tangent)
            e_ap.append(fr.aperture)
            e_cond.append(fr.conductivity)
            mid = 0.5 * (p0 + p1)
            tri_idx = locate_triangle(domain, nx, ny, mid[0], mid[1])
            e_tri.append(tri_idx)
            # fracture conduction along the element
            t_e = fr.aperture * fr.conductivity / ll
            for (ra, ca, v) in ((i0, i0, t_e), (i1, i1, t_e),
                                (i0, i1, -t_e), (i1, i0, -t_e)):
                couple_rows.append(n_m + ra)
                couple_cols.append(n_m + ca)
                couple_data.append(v)
            # matrix-fracture exchange at the midpoint
            c = ll * fr.conductivity / fr.aperture
            bary = _barycentric(nodes, tris, tri_idx, mid)
            dofs = list(tris[tri_idx]) + [n_m + i0, n_m + i1]
            w = np.concatenate([bary, [-0.5, -0.5]])
            for a in range(5):
                for b in range(5):
                    couple_rows.append(dofs[a])
                    couple_cols.append(dofs[b])
                    couple_data.append(c * w[a] * w[b])

    n_dofs = n_m + len(frac_nodes)
    all_rows = np.concatenate([rows, np.asarray(couple_rows, dtype=np.int64)])
    all_cols = np.concatenate([cols, np.asarray(couple_cols, dtype=np.int64)])
    all_data = np.concatenate([data, np.asarray(couple_data, float)])
    matrix = sp.coo_matrix((all_data, (all_rows, all_cols)),
                           shape=(n_dofs, n_dofs)).tocsr()

    return DiscreteSystem(
        domain=domain, nx=nx, ny=ny, nodes=nodes, tris=tris, tri_area=area,
        tri_grads=grads, tri_K=tri_K,
        frac_nodes=(np.asarray(frac_nodes)
                    if frac_nodes else np.zeros((0, 2))),
        frac_elems=(np.asarray(elems, dtype=np.int64)
                    if elems else np.zeros((0, 2), dtype=np.int64)),
        frac_len=np.asarray(e_len, float),
        frac_tangent=(np.asarray(e_tan, float)
                      if e_tan else np.zeros((0, 2))),
        frac_aperture=np.asarray(e_ap, float),
        frac_cond=np.asarray(e_cond, float),
        coupling_tri=np.asarray(e_tri, dtype=np.int64),
        matrix=matrix,
        dropped_fractures=dropped + zero_len_dropped,
        merged_fractures=merged)


def _dirichlet_dofs(system: DiscreteSystem, bc: BoundaryCondition):
    tol = 1e-9 * system.domain.diameter
    coords = system.dof_coords
    d = system.domain
    side_masks = {
        "left": np.abs(coords[:, 0] - d.x0) <= tol,
        "right": np.abs(coords[:, 0] - d.x1) <= tol,
        "bottom": np.abs(coords[:, 1] - d.y0) <= tol,
        "top": np.abs(coords[:, 1] - d.y1) <= tol,
    }
    values = np.zeros(system.n_dofs)
    mask = np.zeros(system.n_dofs, dtype=bool)
    side_of = {}
    for side, g in bc.dirichlet.items():
        m = side_masks[side]
        values[m] = g(coords[m, 0], coords[m, 1])
        mask |= m
        for i in np.flatnonzero(m):
            side_of.setdefault(int(i), side)
    return mask, values, side_of


def solve_darcy(system: DiscreteSystem, bc: BoundaryCondition) -> FlowSolution:
    """Solve the assembled system under Dirichlet/no-flow boundary data.

    The free-DOF system is solved by sparse LU factorization: the fracture
    coupling makes it too ill-conditioned for a Jacobi-preconditioned
    iterative solver at high fracture/matrix contrast.
    """
    a = system.matrix
    mask, values, side_of = _dirichlet_dofs(system, bc)
    free = ~mask
    h = np.array(values)
    rhs = -a[:, mask] @ values[mask]
    a_ff = a[free][:, free].tocsr()
    h_free = spla.splu(a_ff.tocsc()).solve(rhs[free])
    h[free] = h_free

    res = np.linalg.norm(a_ff @ h_free - rhs[free])
    scale = np.linalg.norm(rhs[free])
    residual = float(res / scale) if scale > 0 else 0.0
    if residual > RESIDUAL_GATE:
        raise SolverError(f"direct solve residual {residual:.2e} too large",
                          residual=residual)

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

    # Dirichlet reactions give the discrete boundary fluxes (outflow > 0)
    reactions = a @ h
    boundary_flux = {side: 0.0 for side in bc.dirichlet}
    for i, side in side_of.items():
        boundary_flux[side] -= float(reactions[i])

    return FlowSolution(system=system, h=h, tri_grad=tri_grad,
                        tri_vel=tri_vel, frac_grad=frac_grad,
                        frac_vel=frac_vel, boundary_flux=boundary_flux,
                        residual=residual)
