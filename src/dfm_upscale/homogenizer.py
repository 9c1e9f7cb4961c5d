"""Equivalent conductivity of blocks and domains.

The anisotropy problem solves the two Darcy problems with linear boundary
heads together and fits a symmetric tensor to the volume-averaged gradients
and velocities.
The aquifer problem measures horizontal equivalent conductivity from the
total outflow. Overlapping half-step block grids tile the extended domain;
the blocks go to a backend a chunk at a time, each chunk as one table of
its fractures clipped to their blocks (frac_geom.clip_to_blocks), which the
solver and the rasterizer both read. Per-block tensors are bilinearly
interpolated onto a coarse raster.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dfm_solver import (SIDES, FlowSolution, discretize, discretize_blocks,
                         solve_darcy)
from .frac_geom import BlockChunk, FractureNetwork, clip_to_blocks
from .geometry import Rect
from .random_field import Grid, TensorField

# Blocks per backend call. The surrogate backend rasterizes and predicts a
# chunk in one forward pass; at raster 64, every image in a chunk adds about
# 0.45 MB to the peak of the prediction (mostly the float64 copies of
# preprocessing; the convolutions build their columns in bands).
CHUNK_BLOCKS = 8


class BlockResults(NamedTuple):
    """Per-block results; row b is the block of row b of BlockGrid.rects."""

    k: np.ndarray         # (n, 3) equivalent tensors (k_xx, k_xy, k_yy)
    residual: np.ndarray  # (n,) least-squares residual of each fit


def positive_definite(k: np.ndarray) -> np.ndarray:
    """Row mask of the (n, 3) tensors that are positive definite."""
    kxx, kxy, kyy = k.T
    # float_power squares with libm pow (see frac_geom.fracture_conductivity);
    # ndarray ** 2 multiplies, which differs in the last bit for some k_xy
    # and can flip the flag of a near-singular tensor
    return (kxx > 0) & (kyy > 0) & (kxx * kyy - np.float_power(kxy, 2) > 0)


@dataclass
class BlockGrid:
    original: Rect     # Omega_o
    extended: Rect     # inflated by half a block per side
    block_size: float
    centers: np.ndarray  # block-center coordinates, along x and along y

    @property
    def n_per_axis(self) -> int:
        return len(self.centers)

    @property
    def n_blocks(self) -> int:
        return self.n_per_axis ** 2

    @property
    def rects(self) -> np.ndarray:
        """(n_blocks, 4) block rects (x0, y0, x1, y1), row-major: block
        b = j * n + i is centered at (centers[i], centers[j])."""
        half = 0.5 * self.block_size
        cx, cy = (c.ravel() for c in np.meshgrid(self.centers, self.centers))
        return np.column_stack([cx - half, cy - half, cx + half, cy + half])


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
        block_size=l_eff, centers=centers)


def block_candidates(network: FractureNetwork, rects: np.ndarray,
                     length_threshold: float | None = None):
    """The clipped fracture table (frac_geom.BlockChunk) of every
    CHUNK_BLOCKS consecutive rows of the (n, 4) block rects, in order.

    Only fractures shorter than length_threshold (all, if None) take part.
    """
    rows = (None if length_threshold is None
            else network.length < length_threshold)
    for start in range(0, len(rects), CHUNK_BLOCKS):
        yield clip_to_blocks(network, rects[start:start + CHUNK_BLOCKS],
                             rows)


def _weighted_averages(sol: FlowSolution):
    """Measure-and-cross-section weighted mean gradient and velocity."""
    sys_ = sol.system
    w_m = sys_.tri_area  # matrix cross-section is 1, every triangle alike
    w_f = sys_.frac_len * sys_.frac_aperture
    total = w_m * len(sys_.tris) + w_f.sum()
    grad = (w_m * sol.tri_grad.sum(axis=0) + w_f @ sol.frac_grad) / total
    vel = (w_m * sol.tri_vel.sum(axis=0) + w_f @ sol.frac_vel) / total
    return grad, vel


def _block_fits(field: TensorField, chunk: BlockChunk,
                resolution: int) -> BlockResults:
    """The tensors of the blocks of chunk, each fitted from its two
    linear-head problems h = x and h = y on the whole boundary, which are
    solved together: their boundary heads are the DOF coordinates."""
    k, residual = [], []
    for system in discretize_blocks(field, chunk, resolution, resolution):
        rows = []
        rhs = []
        for sol in solve_darcy(system, SIDES, system.dof_coords):
            g, u = _weighted_averages(sol)
            rows.append([g[0], g[1], 0.0])
            rows.append([0.0, g[0], g[1]])
            rhs.extend([u[0], u[1]])
        a = -np.asarray(rows)
        b = np.asarray(rhs)
        fit, res, _, _ = np.linalg.lstsq(a, b, rcond=None)
        k.append(fit)
        residual.append(float(np.sqrt(res[0])) if len(res) else
                        float(np.linalg.norm(a @ fit - b)))
    return BlockResults(np.array(k), np.array(residual))


def anisotropy_tensor(field: TensorField, network: FractureNetwork | None,
                      block: Rect, resolution: int):
    """Fit the equivalent symmetric tensor from the two linear-head
    problems: the one-block call of the numeric backend.

    Returns ((k_xx, k_xy, k_yy) array, least-squares residual)."""
    fit = _block_fits(field, clip_to_blocks(network, block), resolution)
    return fit.k[0], float(fit.residual[0])


def aquifer_kx(field: TensorField, network: FractureNetwork | None,
               domain: Rect, resolution: int, head: float):
    """Total horizontal outflow Y and equivalent horizontal conductivity
    under h = head at the left side, h = 0 at the right and no-flow top and
    bottom."""
    if head <= 0.0:
        raise ValueError("head must be positive")
    system = discretize(field, network, domain, resolution, resolution)
    sol, = solve_darcy(system, ("left", "right"),
                       np.where(system.side_masks["left"], head, 0.0)[:, None])
    outflow = sol.boundary_flux["right"]
    k_x = outflow * domain.width / (head * domain.height)
    return float(outflow), float(k_x)


def project_spd(k: np.ndarray, floor_fraction: float = 1e-14) -> np.ndarray:
    """Clamp the eigenvalues of one (k_xx, k_xy, k_yy) tensor to a small
    positive floor relative to the trace."""
    m = np.array([[k[0], k[1]], [k[1], k[2]]])
    vals, vecs = np.linalg.eigh(m)
    floor = floor_fraction * max(abs(np.trace(m)), 1e-300)
    clamped = np.maximum(vals, floor)
    fixed = vecs @ np.diag(clamped) @ vecs.T
    return np.array([fixed[0, 0], fixed[0, 1], fixed[1, 1]])


def numeric_backend(resolution: int):
    """Chunk backend: the equivalent tensor of every block via the embedded
    solver."""

    def run(field, chunk):
        return _block_fits(field, chunk, resolution)

    return run


def block_tensors(field: TensorField, network: FractureNetwork,
                  grid: BlockGrid, backend,
                  length_threshold: float | None = None) -> BlockResults:
    """The backend's tensor of every block, row-major, unprojected.

    backend(field, chunk) -> the BlockResults of a chunk of up to
    CHUNK_BLOCKS blocks (see block_candidates).
    """
    chunks = [backend(field, chunk) for chunk in
              block_candidates(network, grid.rects, length_threshold)]
    return BlockResults(*(np.concatenate(column) for column in zip(*chunks)))


def upscale_domain(field: TensorField, network: FractureNetwork,
                   grid: BlockGrid, backend,
                   length_threshold: float | None = None,
                   coarse_resolution: int | None = None):
    """Homogenize every block and interpolate block-center tensors onto the
    coarse raster of the original domain.

    backend is a chunk backend (see block_tensors). Returns (coarse
    TensorField, BlockResults with every non-SPD tensor projected, count of
    projected tensors).
    """
    blocks = block_tensors(field, network, grid, backend, length_threshold)
    k = blocks.k.copy()
    bad = np.flatnonzero(~positive_definite(k))
    for row in bad:
        k[row] = project_spd(k[row])
    n = grid.n_per_axis
    # block b = j * n + i holds center (i, j): comp[c, i, j]
    comp = k.reshape(n, n, 3).transpose(2, 1, 0)

    nc = coarse_resolution or n
    side = grid.original.width
    cell = side / nc
    centers = cell * (np.arange(nc) + 0.5)
    step = 0.5 * grid.block_size
    # bilinear interpolation from the block-center lattice
    f = np.clip(centers / step, 0.0, n - 1.0)
    i0 = np.minimum(f.astype(int), n - 2)
    w = f - i0
    gx = comp[:, i0] * (1 - w)[:, None] + comp[:, i0 + 1] * w[:, None]
    out = gx[:, :, i0] * (1 - w) + gx[:, :, i0 + 1] * w
    coarse = TensorField(Grid(nc, nc, cell, (0.0, 0.0)),
                         out[0], out[1], out[2],
                         metadata={"block_size": grid.block_size,
                                   "length_threshold": length_threshold})
    return coarse, blocks._replace(k=k), len(bad)


def write_block_csv(grid: BlockGrid, blocks: BlockResults, path):
    """One row per block: id, center, tensor, SPD flag and fit residual."""
    pd_flag = positive_definite(blocks.k).astype(int)
    n = grid.n_per_axis
    centers = grid.centers.tolist()
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["block_id", "cx", "cy", "k_xx", "k_xy", "k_yy",
                    "pd_flag", "residual"])
        for b, (k, pd, res) in enumerate(zip(blocks.k.tolist(),
                                             pd_flag.tolist(),
                                             blocks.residual.tolist())):
            w.writerow([b, repr(centers[b % n]), repr(centers[b // n]),
                        *map(repr, k), pd, repr(res)])
