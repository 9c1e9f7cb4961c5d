"""Macroscale comparisons and timing.

Aquifer / anisotropy benchmarks compare two per-block upscaling backends on
the same fine models; the speedup benchmark times homogenization against
rasterization + inference per block.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import RunConfig
from .frac_geom import generate_dfn
from .geometry import Rect
from .homogenizer import (anisotropy_tensor, aquifer_kx, block_candidates,
                          block_tensors, build_block_grid, numeric_backend,
                          upscale_domain)
from .random_field import Grid, sample_tensor_field
from .rasterizer import rasterize_blocks
from .seeding import substream
from .surrogate.metrics import compute_metrics

AQUIFER_HEAD = 1.0  # the left-side head of bench_aquifer's problem


@dataclass
class BenchmarkReport:
    name: str
    n_samples: int
    backends: list
    r2: list = field(default_factory=list)      # per reported component
    pairs: list = field(default_factory=list)   # [(reference, candidate), ...]
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def environment_fingerprint() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def fine_model(cfg: RunConfig, seed: int, index: int = 0):
    """One fine-scale realization (field + network) over the extended domain."""
    grid_geom = build_block_grid(cfg.blocks.domain_side, cfg.blocks.block_size)
    ext = grid_geom.extended
    res = cfg.srf.resolution
    cell = ext.width / res
    fgrid = Grid(res, res, cell, (ext.x0, ext.y0))
    srf_seed = int(substream(seed, "bench-srf", index).integers(0, 2 ** 63))
    dfn_seed = int(substream(seed, "bench-dfn", index).integers(0, 2 ** 63))
    field_ = sample_tensor_field(fgrid, cfg.srf.correlation_length,
                                 cfg.srf.mean_log,
                                 np.asarray(cfg.srf.cov_log), srf_seed)
    network = generate_dfn(cfg.dfn.power_law, cfg.dfn.rho_2d, ext,
                           cfg.dfn.aperture_ratio, cfg.dfn.constants, dfn_seed)
    return field_, network, grid_geom


def _compare(name: str, cfg: RunConfig, seed: int, n_samples: int,
             backends: dict, measure, **metadata) -> BenchmarkReport:
    """Upscale n_samples fine models with each of the two backends and
    record measure(coarse field, domain, solver resolution) of every
    coarse model; R² is the second backend's per component against the
    first's."""
    names = list(backends)
    if len(names) != 2:
        raise ValueError("exactly two backends are compared")
    if n_samples < 2:
        raise ValueError(f"the {name} comparison needs at least 2 samples "
                         f"(R² of fewer is undefined), got {n_samples}")
    domain = Rect(0.0, 0.0, cfg.blocks.domain_side, cfg.blocks.domain_side)
    report = BenchmarkReport(name, n_samples, names, metadata=metadata)
    for i in range(n_samples):
        field_, network, grid = fine_model(cfg, seed, i)
        coarse = [upscale_domain(
            field_, network, grid, backend,
            length_threshold=cfg.blocks.length_threshold,
            coarse_resolution=cfg.blocks.coarse_resolution)[0]
            for backend in backends.values()]
        report.pairs.append([measure(c, domain, cfg.solver.resolution)
                             for c in coarse])
    pairs = np.asarray(report.pairs).reshape(n_samples, 2, -1)
    report.r2 = [float(v) for v in compute_metrics(pairs[:, 1],
                                                   pairs[:, 0]).r2]
    report.metadata["environment"] = environment_fingerprint()
    return report


def bench_aquifer(cfg: RunConfig, seed: int, n_samples: int,
                  backends: dict) -> BenchmarkReport:
    """Total horizontal outflow Y of the two upscaled coarse models."""
    return _compare(
        "aquifer", cfg, seed, n_samples, backends,
        lambda coarse, domain, res: aquifer_kx(coarse, None, domain, res,
                                               AQUIFER_HEAD)[0],
        head=AQUIFER_HEAD)


def bench_anisotropy(cfg: RunConfig, seed: int, n_samples: int,
                     backends: dict) -> BenchmarkReport:
    """Whole-domain equivalent tensors of the two upscaled coarse models."""
    return _compare(
        "anisotropy", cfg, seed, n_samples, backends,
        lambda coarse, domain, res: anisotropy_tensor(coarse, None, domain,
                                                      res)[0].tolist())


def bench_speedup(cfg: RunConfig, seed: int, n_blocks: int,
                  surrogate_model=None, repetitions: int = 3) -> dict:
    """Median-of-repetitions wall-clock cost of per-block homogenization
    (C_H: discretization, solves and fits by the numeric backend) versus
    the surrogate path (C_S: rasterization and inference). Both build and
    run one chunk of homogenizer.CHUNK_BLOCKS blocks at a time, as upscale
    does."""
    from .surrogate.predict import predict_samples

    if n_blocks < 1:
        raise ValueError(f"bench_speedup needs at least 1 block, got "
                         f"{n_blocks}")
    if repetitions < 1:
        raise ValueError(f"bench_speedup needs at least 1 repetition, got "
                         f"{repetitions}")
    field_, network, grid = fine_model(cfg, seed)
    n_blocks = min(n_blocks, grid.n_blocks)
    res = cfg.solver.resolution
    raster_res = (surrogate_model.architecture.resolution
                  if surrogate_model is not None else cfg.raster.resolution)

    rects = grid.rects[:n_blocks]
    numeric = numeric_backend(res)
    c_h, c_s, c_raster = [], [], []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        for chunk in block_candidates(network, rects,
                                      cfg.blocks.length_threshold):
            numeric(field_, chunk)
        c_h.append(time.perf_counter() - t0)

        # a chunk's rasterization time includes building its table
        t0 = t1 = time.perf_counter()
        t_raster = 0.0
        for chunk in block_candidates(network, rects,
                                      cfg.blocks.length_threshold):
            images = rasterize_blocks(field_, chunk, raster_res)
            t_raster += time.perf_counter() - t1
            if surrogate_model is not None:
                predict_samples(surrogate_model, images)
            t1 = time.perf_counter()
        c_s.append(time.perf_counter() - t0)
        c_raster.append(t_raster)

    ch = float(np.median(c_h))
    cs = float(np.median(c_s))
    return {
        "n_blocks": n_blocks,
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
        cfg_v = (replace(cfg, dfn=replace(cfg.dfn, rho_2d=float(value)))
                 if param == "rho" else
                 replace(cfg, srf=replace(cfg.srf,
                                          correlation_length=float(value))))
        field_, network, grid = fine_model(cfg_v, seed)
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
