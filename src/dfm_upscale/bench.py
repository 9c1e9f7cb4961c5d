"""Macroscale comparisons and timing.

Aquifer / anisotropy benchmarks compare two per-block upscaling backends on
the same fine models; the speedup benchmark times homogenization against
rasterization + inference per block.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .config import RunConfig
from .frac_geom import generate_dfn
from .geometry import Rect
from .homogenizer import (anisotropy_tensor, aquifer_kx, block_tensors,
                          build_block_grid, clipped_blocks, numeric_backend,
                          upscale_domain)
from .random_field import Grid, sample_tensor_field
from .rasterizer import rasterize_block
from .seeding import substream
from .surrogate.metrics import compute_metrics


@dataclass
class BenchmarkReport:
    name: str
    n_samples: int
    backends: list
    r2: list = field(default_factory=list)      # per reported component
    pairs: list = field(default_factory=list)   # [(reference, candidate), ...]
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "n_samples": self.n_samples,
                "backends": self.backends, "r2": self.r2,
                "pairs": self.pairs, "metadata": self.metadata}


def environment_fingerprint() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def fine_model(cfg: RunConfig, seed: int, index: int = 0,
               rho_2d: float | None = None,
               correlation_length: float | None = None):
    """One fine-scale realization (field + network) over the extended domain."""
    grid_geom = build_block_grid(cfg.blocks.domain_side, cfg.blocks.block_size)
    ext = grid_geom.extended
    res = cfg.srf.resolution
    cell = ext.width / res
    fgrid = Grid(res, res, cell, (ext.x0, ext.y0))
    lam = (cfg.srf.correlation_length if correlation_length is None
           else correlation_length)
    srf_seed = int(substream(seed, "bench-srf", index).integers(0, 2 ** 63))
    dfn_seed = int(substream(seed, "bench-dfn", index).integers(0, 2 ** 63))
    field_ = sample_tensor_field(fgrid, lam, cfg.srf.mean_log,
                                 np.asarray(cfg.srf.cov_log), srf_seed)
    density = cfg.dfn.rho_2d if rho_2d is None else rho_2d
    network = generate_dfn(cfg.dfn.power_law, density, ext,
                           cfg.dfn.aperture_ratio, cfg.dfn.constants, dfn_seed)
    return field_, network, grid_geom


def _coarse_models(cfg, seed, index, backends):
    field_, network, grid = fine_model(cfg, seed, index)
    out = {}
    for name, backend in backends.items():
        coarse, _, _ = upscale_domain(
            field_, network, grid, backend,
            length_threshold=cfg.blocks.length_threshold,
            coarse_resolution=cfg.blocks.coarse_resolution)
        out[name] = coarse
    return out


def bench_aquifer(cfg: RunConfig, seed: int, n_samples: int,
                  backends: dict, head: float = 1.0) -> BenchmarkReport:
    """Total horizontal outflow Y of the two upscaled coarse models."""
    names = list(backends)
    if len(names) != 2:
        raise ValueError("exactly two backends are compared")
    domain = Rect(0.0, 0.0, cfg.blocks.domain_side, cfg.blocks.domain_side)
    res = cfg.solver.resolution
    report = BenchmarkReport("aquifer", n_samples, names)
    for i in range(n_samples):
        coarse = _coarse_models(cfg, seed, i, backends)
        ys = [aquifer_kx(coarse[name], None, domain, res, head)[0]
              for name in names]
        report.pairs.append(ys)
    pairs = np.asarray(report.pairs)
    m = compute_metrics(pairs[:, 1:2], pairs[:, 0:1])
    report.r2 = [float(m.r2[0])]
    report.metadata = {"head": head, "environment": environment_fingerprint()}
    return report


def bench_anisotropy(cfg: RunConfig, seed: int, n_samples: int,
                     backends: dict) -> BenchmarkReport:
    """Whole-domain equivalent tensors of the two upscaled coarse models."""
    names = list(backends)
    if len(names) != 2:
        raise ValueError("exactly two backends are compared")
    domain = Rect(0.0, 0.0, cfg.blocks.domain_side, cfg.blocks.domain_side)
    res = cfg.solver.resolution
    report = BenchmarkReport("anisotropy", n_samples, names)
    for i in range(n_samples):
        coarse = _coarse_models(cfg, seed, i, backends)
        ks = [anisotropy_tensor(coarse[name], None, domain, res)[0]
              for name in names]
        report.pairs.append([ks[0].tolist(), ks[1].tolist()])
    ref = np.asarray([p[0] for p in report.pairs])
    cand = np.asarray([p[1] for p in report.pairs])
    m = compute_metrics(cand, ref)
    report.r2 = [float(v) for v in m.r2]
    report.metadata = {"environment": environment_fingerprint()}
    return report


def bench_speedup(cfg: RunConfig, seed: int, n_blocks: int,
                  surrogate_model=None, surrogate_stats=None,
                  repetitions: int = 3) -> dict:
    """Median-of-repetitions wall-clock cost of per-block homogenization
    (C_H: discretization + solves) versus the surrogate path
    (C_S: rasterization of every block + one batched inference pass)."""
    from .surrogate.predict import predict_samples

    field_, network, grid = fine_model(cfg, seed)
    blocks = list(islice(clipped_blocks(network, grid,
                                        cfg.blocks.length_threshold),
                         n_blocks))
    res = cfg.solver.resolution
    raster_res = (surrogate_model.architecture.resolution
                  if surrogate_model is not None else cfg.raster.resolution)

    c_h, c_s, c_raster = [], [], []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        for rect, clipped in blocks:
            anisotropy_tensor(field_, clipped, rect, res)
        c_h.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        samples = [rasterize_block(field_, clipped, rect, raster_res)
                   for rect, clipped in blocks]
        t_raster = time.perf_counter() - t0
        if surrogate_model is not None:
            predict_samples(surrogate_model, samples, surrogate_stats)
        c_s.append(time.perf_counter() - t0)
        c_raster.append(t_raster)

    ch = float(np.median(c_h))
    cs = float(np.median(c_s))
    return {
        "n_blocks": len(blocks),
        "repetitions": repetitions,
        "c_h_seconds": ch,
        "c_s_seconds": cs,
        "c_s_rasterization_seconds": float(np.median(c_raster)),
        "speedup": ch / cs,
        "solver_resolution": res,
        "raster_resolution": raster_res,
        "inference_included": surrogate_model is not None,
        "reference_cost_ratio": {"blocks_25": 4.0, "blocks_1369": 28.0},
        "environment": environment_fingerprint(),
    }


def sweep(cfg: RunConfig, seed: int, param: str, values,
          surrogate_backend_fn=None) -> list:
    """One summary row per parameter value (fracture density or field
    correlation length); optionally per-component R² of a surrogate backend
    against the numeric backend over all blocks."""
    if param not in ("rho", "lambda"):
        raise ValueError("sweep parameter must be 'rho' or 'lambda'")
    rows = []
    res = cfg.solver.resolution
    for value in values:
        kwargs = ({"rho_2d": float(value)} if param == "rho"
                  else {"correlation_length": float(value)})
        field_, network, grid = fine_model(cfg, seed, **kwargs)
        _, blocks, projected = upscale_domain(
            field_, network, grid, numeric_backend(res),
            length_threshold=cfg.blocks.length_threshold)
        comp = blocks.k
        row = {
            "param": param,
            "value": float(value),
            "n_fractures": len(network),
            "n_blocks": grid.n_blocks,
            "projected_blocks": projected,
            "mean_kxx": float(comp[:, 0].mean()),
            "mean_kxy": float(comp[:, 1].mean()),
            "mean_kyy": float(comp[:, 2].mean()),
        }
        if surrogate_backend_fn is not None:
            preds = block_tensors(field_, network, grid, surrogate_backend_fn,
                                  cfg.blocks.length_threshold)
            m = compute_metrics(preds.k, comp)
            row["r2_kxx"], row["r2_kxy"], row["r2_kyy"] = \
                (float(v) for v in m.r2)
        rows.append(row)
    return rows
