"""Correlated Gaussian scalar fields and the matrix conductivity tensor field.

A cell tensor is K = Q^T diag(k_x, k_y) Q where Q rotates by the unit
direction of two independent Gaussian fields and (k_x, k_y) are log-normal
with correlated logs. Sampling uses circulant embedding on a padded grid with
a dense Cholesky fallback for small grids.

Correlation convention used throughout: C(h) = exp(-h^2 / lambda^2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cholesky as dense_cholesky

from .seeding import substream

DENSE_FALLBACK_MAX_CELLS = 64 * 64


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
class ScalarField:
    grid: Grid
    values: np.ndarray  # shape (nx, ny), indexed [ix, iy]

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.shape != self.grid.shape:
            raise ValueError("values shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite field values")


@dataclass
class TensorField:
    """Per-cell symmetric conductivity tensor (k_xx, k_xy, k_yy)."""

    grid: Grid
    kxx: np.ndarray
    kxy: np.ndarray
    kyy: np.ndarray
    metadata: dict | None = None

    def __post_init__(self):
        for arr in (self.kxx, self.kxy, self.kyy):
            if np.asarray(arr).shape != self.grid.shape:
                raise ValueError("component shape does not match grid")

    def tensor_at(self, x, y):
        """Nearest-cell 2x2 tensors for query points; shape (..., 2, 2)."""
        ix, iy = self.grid.cell_index(x, y)
        out = np.empty(np.shape(ix) + (2, 2))
        out[..., 0, 0] = self.kxx[ix, iy]
        out[..., 0, 1] = self.kxy[ix, iy]
        out[..., 1, 0] = self.kxy[ix, iy]
        out[..., 1, 1] = self.kyy[ix, iy]
        return out


class EmbeddingError(RuntimeError):
    pass


def _gaussian_cov(dist2, lam):
    return np.exp(-dist2 / lam ** 2)


_SPECTRUM_CACHE: dict = {}
_SPECTRUM_CACHE_MAX = 8


def _circulant_spectrum(grid: Grid, lam: float):
    # The spectrum depends only on the grid geometry and the correlation
    # length, so repeated sampling (four fields per tensor draw, many draws
    # per dataset) reuses one FFT of the covariance.
    key = (grid.nx, grid.ny, grid.cell, lam)
    cached = _SPECTRUM_CACHE.get(key)
    if cached is not None:
        return cached
    result = _compute_circulant_spectrum(grid, lam)
    if len(_SPECTRUM_CACHE) >= _SPECTRUM_CACHE_MAX:
        _SPECTRUM_CACHE.pop(next(iter(_SPECTRUM_CACHE)))
    _SPECTRUM_CACHE[key] = result
    return result


def _compute_circulant_spectrum(grid: Grid, lam: float):
    # Pad so the wrapped covariance is negligible at the seam.
    pad = max(grid.nx, grid.ny, int(np.ceil(7.0 * lam / grid.cell)))
    mx = grid.nx + pad
    my = grid.ny + pad
    ix = np.minimum(np.arange(mx), mx - np.arange(mx)) * grid.cell
    iy = np.minimum(np.arange(my), my - np.arange(my)) * grid.cell
    d2 = ix[:, None] ** 2 + iy[None, :] ** 2
    cov = _gaussian_cov(d2, lam)
    spec = np.fft.fft2(cov).real
    # The true spectrum decays below double precision for smooth covariances,
    # so tiny negative eigenvalues are roundoff; clamping them to zero
    # perturbs the covariance by O(1e-6) at worst. Larger negatives mean the
    # embedding genuinely failed.
    if spec.min() < -1e-6 * spec.max():
        raise EmbeddingError(f"negative circulant spectrum: {spec.min():.3e}")
    return np.maximum(spec, 0.0), mx, my


def _sample_dense(grid: Grid, lam: float, rng) -> np.ndarray:
    n = grid.nx * grid.ny
    if n > DENSE_FALLBACK_MAX_CELLS:
        raise EmbeddingError(
            f"dense fallback limited to {DENSE_FALLBACK_MAX_CELLS} cells, got {n}")
    xs = np.arange(grid.nx) * grid.cell
    ys = np.arange(grid.ny) * grid.cell
    px, py = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([px.ravel(), py.ravel()], axis=1)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    cov = _gaussian_cov(d2, lam) + 1e-10 * np.eye(n)
    chol = dense_cholesky(cov, lower=True)
    return (chol @ rng.standard_normal(n)).reshape(grid.shape)


def sample_gaussian_field(grid: Grid, lam: float, seed: int,
                          tag: str = "field") -> ScalarField:
    """Stationary zero-mean unit-variance Gaussian field with
    C(h) = exp(-h^2/lam^2); lam = 0 gives i.i.d. N(0, 1) cells."""
    if lam < 0.0:
        raise ValueError("correlation length must be >= 0")
    rng = substream(seed, tag)
    if lam == 0.0:
        return ScalarField(grid, rng.standard_normal(grid.shape))
    try:
        spec, mx, my = _circulant_spectrum(grid, lam)
        amp = np.sqrt(spec / (mx * my))
        noise = rng.standard_normal((mx, my)) + 1j * rng.standard_normal((mx, my))
        sample = np.fft.fft2(amp * noise).real[:grid.nx, :grid.ny]
        return ScalarField(grid, sample)
    except EmbeddingError:
        return ScalarField(grid, _sample_dense(grid, lam, rng))


def assemble_tensor_field(dir_x: ScalarField, dir_y: ScalarField,
                          logk_x: ScalarField, logk_y: ScalarField,
                          mean_log: np.ndarray, cov_log: np.ndarray,
                          redraw_rng: np.random.Generator | None = None,
                          metadata: dict | None = None) -> TensorField:
    """Combine four standard Gaussian fields into an SPD tensor field.

    The direction fields give the per-cell rotation, the other two give the
    correlated log-normal principal conductivities via the lower Cholesky
    factor of cov_log.
    """
    grid = dir_x.grid
    for f in (dir_y, logk_x, logk_y):
        if f.grid != grid:
            raise ValueError("all fields must share one grid")
    cov_log = np.asarray(cov_log, float)
    mean_log = np.asarray(mean_log, float)
    chol = np.linalg.cholesky(cov_log)
    log_kx = mean_log[0] + chol[0, 0] * logk_x.values
    log_ky = mean_log[1] + chol[1, 0] * logk_x.values + chol[1, 1] * logk_y.values
    kx = np.exp(log_kx)
    ky = np.exp(log_ky)

    xx = dir_x.values.copy()
    xy = dir_y.values.copy()
    norm = np.hypot(xx, xy)
    if np.any(norm < 1e-300):
        rng = redraw_rng or np.random.default_rng(0)
        mask = norm < 1e-300
        while np.any(mask):
            xx[mask] = rng.standard_normal(mask.sum())
            xy[mask] = rng.standard_normal(mask.sum())
            norm = np.hypot(xx, xy)
            mask = norm < 1e-300
    yx = xx / norm
    yy = xy / norm

    kxx = yx ** 2 * kx + yy ** 2 * ky
    kyy = yy ** 2 * kx + yx ** 2 * ky
    kxy = yx * yy * (ky - kx)
    return TensorField(grid, kxx, kxy, kyy, metadata=metadata)


def sample_tensor_field(grid: Grid, lam: float, mean_log, cov_log,
                        seed: int) -> TensorField:
    """Full tensor-field draw from one master seed (four tagged substreams)."""
    fields = [sample_gaussian_field(grid, lam, seed, tag)
              for tag in ("dir-x", "dir-y", "logk-x", "logk-y")]
    meta = {"lambda": lam, "mean_log": list(np.asarray(mean_log, float)),
            "cov_log": np.asarray(cov_log, float).tolist(), "seed": seed,
            "covariance": "exp(-h^2/lambda^2)"}
    return assemble_tensor_field(*fields, np.asarray(mean_log, float),
                                 np.asarray(cov_log, float),
                                 redraw_rng=substream(seed, "dir-redraw"),
                                 metadata=meta)


def save_tensor_field(field: TensorField, path):
    """Three row-major float32-LE planes (k_xx, k_xy, k_yy) + JSON header."""
    path = Path(path)
    planes = np.stack([field.kxx, field.kxy, field.kyy]).astype("<f4")
    planes.tofile(path)
    header = {
        "nx": field.grid.nx, "ny": field.grid.ny,
        "cell": field.grid.cell, "origin": list(field.grid.origin),
        "planes": ["kxx", "kxy", "kyy"], "dtype": "<f4", "order": "C",
        "metadata": field.metadata or {},
    }
    with open(path.with_suffix(path.suffix + ".json"), "w") as f:
        json.dump(header, f, indent=2)
