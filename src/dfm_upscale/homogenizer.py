"""Equivalent conductivity of blocks and domains.

The anisotropy problem solves two Darcy problems with linear boundary heads
and fits a symmetric tensor to the volume-averaged gradients and velocities.
The aquifer problem measures horizontal equivalent conductivity from the
total outflow. Overlapping half-step block grids tile the extended domain;
per-block tensors are bilinearly interpolated onto a coarse raster.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .dfm_solver import (FlowSolution, aquifer_bc, discretize, linear_head,
                         solve_darcy)
from .frac_geom import FractureNetwork
from .geometry import Rect, clip_segments
from .random_field import Grid, TensorField

# Blocks per backend call. The surrogate backend rasterizes and predicts a
# chunk in one forward pass; every image in a chunk adds about 1.2 MB to
# peak memory (conv0's im2col and the float64 copies of preprocessing).
CHUNK_BLOCKS = 8


@dataclass
class EquivalentTensor:
    kxx: float
    kxy: float
    kyy: float
    block_id: int = -1
    residual: float = 0.0

    @property
    def positive_definite(self) -> bool:
        return self.kxx > 0 and self.kyy > 0 and \
            self.kxx * self.kyy - self.kxy ** 2 > 0

    def as_array(self) -> np.ndarray:
        return np.array([self.kxx, self.kxy, self.kyy])

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.kxx, self.kxy], [self.kxy, self.kyy]])


@dataclass
class BlockGrid:
    original: Rect     # Omega_o
    extended: Rect     # inflated by half a block per side
    block_size: float
    centers_x: np.ndarray
    centers_y: np.ndarray

    @property
    def n_per_axis(self) -> int:
        return len(self.centers_x)

    @property
    def n_blocks(self) -> int:
        return self.n_per_axis ** 2

    def block_rect(self, i: int, j: int) -> Rect:
        half = 0.5 * self.block_size
        return Rect(self.centers_x[i] - half, self.centers_y[j] - half,
                    self.centers_x[i] + half, self.centers_y[j] + half)

    def blocks(self):
        """Row-major (id, i, j, rect) iterator over block centers."""
        bid = 0
        for j in range(self.n_per_axis):
            for i in range(self.n_per_axis):
                yield bid, i, j, self.block_rect(i, j)
                bid += 1


def build_block_grid(side: float, block_size: float,
                     tol: float = 1e-6) -> BlockGrid:
    """Overlapping blocks with step block_size/2 over (0, side)^2; corner
    block centers coincide with the corners of the original domain."""
    ratio = 2.0 * side / block_size
    n2 = round(ratio)
    if n2 < 1 or abs(ratio - n2) > tol * max(1.0, ratio):
        raise ValueError(
            f"2*side/block_size = {ratio} is not an integer; adjust config")
    l_eff = 2.0 * side / n2
    centers = 0.5 * l_eff * np.arange(n2 + 1)
    half = 0.5 * l_eff
    return BlockGrid(
        original=Rect(0.0, 0.0, side, side),
        extended=Rect(-half, -half, side + half, side + half),
        block_size=l_eff, centers_x=centers, centers_y=centers)


def clip_network(network: FractureNetwork | None, rect: Rect,
                 length_threshold: float | None = None) -> FractureNetwork:
    """Fractures intersecting rect (optionally only those below the length
    threshold), re-rooted on the rect as their domain. Geometry keeps the
    original infinite extent; the solver clips again."""
    if network is None:
        return FractureNetwork(
            id=np.zeros(0, np.int64), center=np.zeros((0, 2)),
            length=np.zeros(0), angle=np.zeros(0), aperture=np.zeros(0),
            conductivity=np.zeros(0), domain=rect, density=0.0, seed=0)
    rows = np.arange(len(network))
    if length_threshold is not None:
        rows = rows[network.length < length_threshold]
    kept, _, _ = clip_segments(network.p0[rows], network.p1[rows], rect)
    return network.take(rows[kept], rect)


def clipped_blocks(network: FractureNetwork | None, grid: BlockGrid,
                   length_threshold: float | None = None):
    """(block_id, rect, clipped network) of every block in row-major order.

    One (fracture x block) bounding-box test picks each block's candidate
    fractures, and clip_network runs on those only. A fracture that it
    keeps in a rect has a bounding box that meets the rect, so the result
    is the one clipping the whole network gives.
    """
    blocks = [(bid, rect) for bid, _, _, rect in grid.blocks()]
    if network is not None:
        lo = np.minimum(network.p0, network.p1)
        hi = np.maximum(network.p0, network.p1)
        r = np.array([rect.as_tuple() for _, rect in blocks])[:, :, None]
        hit = ((lo[:, 0] <= r[:, 2]) & (hi[:, 0] >= r[:, 0])
               & (lo[:, 1] <= r[:, 3]) & (hi[:, 1] >= r[:, 1]))
    for k, (bid, rect) in enumerate(blocks):
        candidates = (None if network is None
                      else network.take(np.flatnonzero(hit[k]),
                                        network.domain))
        yield bid, rect, clip_network(candidates, rect, length_threshold)


def _weighted_averages(sol: FlowSolution):
    """Measure-and-cross-section weighted mean gradient and velocity."""
    sys_ = sol.system
    w_m = sys_.tri_area  # matrix cross-section is 1
    w_f = sys_.frac_len * sys_.frac_aperture
    total = w_m.sum() + w_f.sum()
    grad = (w_m @ sol.tri_grad + (w_f @ sol.frac_grad
                                  if len(w_f) else 0.0)) / total
    vel = (w_m @ sol.tri_vel + (w_f @ sol.frac_vel
                                if len(w_f) else 0.0)) / total
    return np.asarray(grad), np.asarray(vel)


def anisotropy_tensor(field: TensorField, network: FractureNetwork | None,
                      block: Rect, resolution: int,
                      block_id: int = -1) -> EquivalentTensor:
    """Fit the equivalent symmetric tensor from two linear-head solves."""
    system = discretize(field, network, block, resolution, resolution)
    rows = []
    rhs = []
    for direction in ("x", "y"):
        sol = solve_darcy(system, linear_head(direction))
        g, u = _weighted_averages(sol)
        rows.append([g[0], g[1], 0.0])
        rows.append([0.0, g[0], g[1]])
        rhs.extend([u[0], u[1]])
    a = -np.asarray(rows)
    b = np.asarray(rhs)
    k, res, _, _ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.sqrt(res[0])) if len(res) else \
        float(np.linalg.norm(a @ k - b))
    return EquivalentTensor(kxx=float(k[0]), kxy=float(k[1]),
                            kyy=float(k[2]), block_id=block_id,
                            residual=residual)


def aquifer_kx(field: TensorField, network: FractureNetwork | None,
               domain: Rect, resolution: int, head: float):
    """Total horizontal outflow Y and equivalent horizontal conductivity."""
    if head <= 0.0:
        raise ValueError("head must be positive")
    system = discretize(field, network, domain, resolution, resolution)
    sol = solve_darcy(system, aquifer_bc(head))
    outflow = sol.boundary_flux["right"]
    k_x = outflow * domain.width / (head * domain.height)
    return float(outflow), float(k_x)


def project_spd(tensor: EquivalentTensor,
                floor_fraction: float = 1e-14) -> EquivalentTensor:
    """Clamp eigenvalues to a small positive floor relative to the trace."""
    m = tensor.as_matrix()
    vals, vecs = np.linalg.eigh(m)
    floor = floor_fraction * max(abs(np.trace(m)), 1e-300)
    clamped = np.maximum(vals, floor)
    fixed = vecs @ np.diag(clamped) @ vecs.T
    return EquivalentTensor(kxx=float(fixed[0, 0]), kxy=float(fixed[0, 1]),
                            kyy=float(fixed[1, 1]), block_id=tensor.block_id,
                            residual=tensor.residual)


def numeric_backend(resolution: int):
    """Chunk backend: the equivalent tensor of every block via the embedded
    solver."""

    def run(field, chunk):
        return [anisotropy_tensor(field, clipped, block, resolution,
                                  block_id=block_id)
                for block_id, block, clipped in chunk]

    return run


def block_tensors(field: TensorField, network: FractureNetwork | None,
                  grid: BlockGrid, backend,
                  length_threshold: float | None = None) -> list:
    """The backend's tensor of every block, row-major, unprojected.

    backend(field, chunk) -> one EquivalentTensor per chunk item, where a
    chunk holds up to CHUNK_BLOCKS (block_id, block_rect, clipped_network)
    items.
    """
    blocks = clipped_blocks(network, grid, length_threshold)
    tensors = []
    while chunk := list(islice(blocks, CHUNK_BLOCKS)):
        tensors.extend(backend(field, chunk))
    return tensors


def upscale_domain(field: TensorField, network: FractureNetwork | None,
                   grid: BlockGrid, backend,
                   length_threshold: float | None = None,
                   coarse_resolution: int | None = None):
    """Homogenize every block and interpolate block-center tensors onto the
    coarse raster of the original domain.

    backend is a chunk backend (see block_tensors). Returns (coarse
    TensorField, list of per-block EquivalentTensor, non-SPD projection
    count).
    """
    tensors = []
    projected = 0
    for eq in block_tensors(field, network, grid, backend, length_threshold):
        if not eq.positive_definite:
            eq = project_spd(eq)
            projected += 1
        tensors.append(eq)
    n = grid.n_per_axis
    # block b = j * n + i holds center (i, j): comp[c, i, j]
    comp = np.array([t.as_array() for t in tensors]).reshape(n, n, 3) \
        .transpose(2, 1, 0)

    nc = coarse_resolution or n
    side = grid.original.width
    cell = side / nc
    centers = cell * (np.arange(nc) + 0.5)
    step = 0.5 * grid.block_size
    # bilinear interpolation from the block-center lattice, per component
    f = np.clip(centers / step, 0.0, n - 1.0)
    i0 = np.minimum(f.astype(int), n - 2)
    w = f - i0
    out = np.zeros((3, nc, nc))
    for c in range(3):
        g = comp[c]
        gx = g[i0] * (1 - w)[:, None] + g[i0 + 1] * w[:, None]
        out[c] = gx[:, i0] * (1 - w)[None, :] + gx[:, i0 + 1] * w[None, :]
    coarse = TensorField(Grid(nc, nc, cell, (0.0, 0.0)),
                         out[0], out[1], out[2],
                         metadata={"block_size": grid.block_size,
                                   "length_threshold": length_threshold})
    return coarse, tensors, projected


def write_block_csv(grid: BlockGrid, tensors, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["block_id", "cx", "cy", "k_xx", "k_xy", "k_yy",
                    "pd_flag", "residual"])
        for (bid, i, j, _), eq in zip(grid.blocks(), tensors):
            w.writerow([bid, repr(float(grid.centers_x[i])),
                        repr(float(grid.centers_y[j])),
                        repr(eq.kxx), repr(eq.kxy), repr(eq.kyy),
                        int(eq.positive_definite), repr(eq.residual)])
