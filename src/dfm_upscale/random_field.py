"""Correlated Gaussian scalar fields and the matrix conductivity tensor field.

A cell tensor is K = Q^T diag(k_x, k_y) Q where Q rotates by the unit
direction of two independent Gaussian fields and (k_x, k_y) are log-normal
with correlated logs. Sampling uses circulant embedding on a padded grid
(Dietrich & Newsam 1997); a failed embedding raises EmbeddingError.

Correlation convention used throughout: C(h) = exp(-h^2 / lambda^2).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import substream


@dataclass(frozen=True)
class Grid:
    nx: int
    ny: int
    cell: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or self.cell <= 0.0:
            raise ValueError(f"invalid grid {self}")

    @property
    def shape(self):
        return (self.nx, self.ny)

    def cell_index(self, x, y):
        """Nearest-cell lookup; edge hits go to the larger index; clamped."""
        ix = np.clip(np.floor((np.asarray(x) - self.origin[0]) / self.cell
                              ).astype(int), 0, self.nx - 1)
        iy = np.clip(np.floor((np.asarray(y) - self.origin[1]) / self.cell
                              ).astype(int), 0, self.ny - 1)
        return ix, iy


@dataclass
class TensorField:
    """Per-cell symmetric conductivity tensor: k[ix, iy] is the
    (k_xx, k_xy, k_yy) row of cell (ix, iy)."""

    grid: Grid
    k: np.ndarray
    metadata: dict | None = None

    def __post_init__(self):
        if np.shape(self.k) != self.grid.shape + (3,):
            raise ValueError(f"tensor shape {np.shape(self.k)} does not "
                             f"match grid {self.grid.shape} x 3")


class EmbeddingError(RuntimeError):
    pass


@functools.lru_cache(maxsize=8)
def _circulant_amplitude(nx: int, ny: int, cell: float, lam: float):
    """Per-frequency amplitude sqrt(spectrum / (mx * my)) of the padded
    circulant covariance embedding; (mx, my) is its shape.

    It depends only on the grid geometry and the correlation length, so
    repeated sampling (four fields per tensor draw, many draws per dataset)
    reuses one FFT of the covariance. The array is shared by every caller,
    so it is read-only."""
    # Pad so the wrapped covariance is negligible at the seam.
    pad = max(nx, ny, int(np.ceil(7.0 * lam / cell)))
    mx = nx + pad
    my = ny + pad
    ix = np.minimum(np.arange(mx), mx - np.arange(mx)) * cell
    iy = np.minimum(np.arange(my), my - np.arange(my)) * cell
    cov = np.exp(-(ix[:, None] ** 2 + iy[None, :] ** 2) / lam ** 2)
    spec = np.fft.fft2(cov).real
    # The true spectrum decays below double precision for smooth covariances,
    # so tiny negative eigenvalues are roundoff; clamping them to zero
    # perturbs the covariance by O(1e-6) at worst. Larger negatives mean the
    # embedding genuinely failed.
    if spec.min() < -1e-6 * spec.max():
        raise EmbeddingError(f"negative circulant spectrum: {spec.min():.3e}")
    amp = np.sqrt(np.maximum(spec, 0.0) / (mx * my))
    amp.setflags(write=False)
    return amp


def sample_gaussian_field(grid: Grid, lam: float, seed: int,
                          tag: str = "field") -> np.ndarray:
    """Stationary zero-mean unit-variance Gaussian field with
    C(h) = exp(-h^2/lam^2) as an (nx, ny) array indexed [ix, iy];
    lam = 0 gives i.i.d. N(0, 1) cells."""
    if lam < 0.0:
        raise ValueError("correlation length must be >= 0")
    rng = substream(seed, tag)
    if lam == 0.0:
        return rng.standard_normal(grid.shape)
    amp = _circulant_amplitude(grid.nx, grid.ny, grid.cell, lam)
    # real parts are drawn first: the draw order fixes every recorded field
    noise = np.empty(amp.shape, complex)
    noise.real = rng.standard_normal(amp.shape)
    noise.imag = rng.standard_normal(amp.shape)
    noise *= amp
    # the nx x ny corner of fft2, which transforms the rows and then the
    # columns: only the ny kept columns get the second transform; the copy
    # keeps no padded transform alive
    rows = np.fft.fft(noise, axis=1)
    return np.fft.fft(rows[:, :grid.ny], axis=0)[:grid.nx].real.copy()


def assemble_tensor_field(grid: Grid, dir_x, dir_y, logk_x, logk_y,
                          mean_log, cov_log,
                          metadata: dict | None = None) -> TensorField:
    """Combine four standard Gaussian (nx, ny) arrays into an SPD tensor
    field on grid.

    The direction arrays give the per-cell rotation, the other two give the
    correlated log-normal principal conductivities via the lower Cholesky
    factor of cov_log.
    """
    if any(np.shape(f) != grid.shape for f in (dir_x, dir_y, logk_x, logk_y)):
        raise ValueError("all fields must match the grid shape")
    mean_log = np.asarray(mean_log, float)
    chol = np.linalg.cholesky(np.asarray(cov_log, float))
    kx = np.exp(mean_log[0] + chol[0, 0] * logk_x)
    ky = np.exp(mean_log[1] + chol[1, 0] * logk_x + chol[1, 1] * logk_y)

    norm = np.hypot(dir_x, dir_y)
    yx = dir_x / norm
    yy = dir_y / norm

    k = np.stack([yx ** 2 * kx + yy ** 2 * ky, yx * yy * (ky - kx),
                  yy ** 2 * kx + yx ** 2 * ky], axis=-1)
    return TensorField(grid, k, metadata=metadata)


def sample_tensor_field(grid: Grid, lam: float, mean_log, cov_log,
                        seed: int) -> TensorField:
    """Full tensor-field draw from one master seed (four tagged substreams)."""
    fields = [sample_gaussian_field(grid, lam, seed, tag)
              for tag in ("dir-x", "dir-y", "logk-x", "logk-y")]
    meta = {"lambda": lam, "mean_log": list(np.asarray(mean_log, float)),
            "cov_log": np.asarray(cov_log, float).tolist(), "seed": seed,
            "covariance": "exp(-h^2/lambda^2)"}
    return assemble_tensor_field(grid, *fields, mean_log, cov_log,
                                 metadata=meta)


def save_tensor_field(field: TensorField, path):
    """Three row-major float32-LE planes (k_xx, k_xy, k_yy) + JSON header."""
    path = Path(path)
    np.moveaxis(field.k, -1, 0).astype("<f4").tofile(path)
    header = {
        "nx": field.grid.nx, "ny": field.grid.ny,
        "cell": field.grid.cell, "origin": list(field.grid.origin),
        "planes": ["kxx", "kxy", "kyy"], "dtype": "<f4", "order": "C",
        "metadata": field.metadata or {},
    }
    with open(path.with_suffix(path.suffix + ".json"), "w") as f:
        json.dump(header, f, indent=2)
