"""Homogenization dataset generation, preprocessing and splits.

Each sample pairs a 4-channel block raster with its equivalent-tensor target.
Samples are generated independently from derived sub-seeds, the fracture to
matrix conductivity ratio is enforced by one per-sample rescaling factor, and
preprocessing statistics come from the training split only.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import MIN_SPLIT_SAMPLES, RATIO_CLASSES, RunConfig, json_object
from .frac_geom import clip_to_blocks, generate_dfn, FractureNetwork
from .geometry import Rect
from .homogenizer import numeric_backend
from .dfm_solver import SolverError
from .random_field import Grid, sample_tensor_field
from .rasterizer import rasterize_blocks
from .seeding import substream

log = logging.getLogger(__name__)

SHARD_RECORDS = 1024
# abort once more than this share of samples (and more than one) fails
MAX_SKIP_FRACTION = 0.01


def enforce_ratio(network: FractureNetwork, field_, ratio: float):
    """Rescale all fracture conductivities by one factor so that
    median(K_f) / geometric-mean of the matrix trace/2 equals ratio."""
    if not len(network):
        return network, 1.0
    k = field_.k
    km = float(np.exp(np.mean(np.log(0.5 * (k[..., 0] + k[..., 2])))))
    med = float(np.median(network.conductivity))
    factor = ratio * km / med
    scaled = replace(network, conductivity=network.conductivity * factor)
    return scaled, factor


def generate_sample(cfg: RunConfig, index: int, seed: int):
    """One sample as (image (4, R, R), target (3,), lambda); deterministic
    in (cfg, seed, index).

    Reads cfg.dataset, cfg.dfn, the SRF moments of cfg.srf and
    cfg.raster.resolution. Raises SolverError if homogenization fails.
    """
    ds, dfn = cfg.dataset, cfg.dfn
    lam = float(ds.lambdas[index % len(ds.lambdas)])
    block = Rect(0.0, 0.0, ds.block_size, ds.block_size)
    grid = Grid(ds.srf_resolution, ds.srf_resolution,
                ds.block_size / ds.srf_resolution, (0.0, 0.0))
    srf_seed = int(substream(seed, "sample-srf", index).integers(0, 2 ** 63))
    dfn_seed = int(substream(seed, "sample-dfn", index).integers(0, 2 ** 63))
    field_ = sample_tensor_field(grid, lam, cfg.srf.mean_log,
                                 np.asarray(cfg.srf.cov_log), srf_seed)
    network = generate_dfn(dfn.power_law, dfn.rho_2d, block,
                           dfn.aperture_ratio, dfn.constants, dfn_seed)
    network, _ = enforce_ratio(network, field_,
                               RATIO_CLASSES[ds.ratio_class])
    chunk = clip_to_blocks(network, block)
    k = numeric_backend(ds.solver_resolution)(field_, chunk).k[0]
    image = rasterize_blocks(field_, chunk, cfg.raster.resolution)[0]
    return image, k, lam


def split_indices(n: int, seed: int):
    """Deterministic 64/16/20 train/val/test split by seeded permutation."""
    if n < MIN_SPLIT_SAMPLES:
        raise ValueError(f"need at least {MIN_SPLIT_SAMPLES} samples to split")
    perm = substream(seed, "split").permutation(n)
    n_test = int(n * 0.2)
    n_val = int((n - n_test) * 0.2)
    test = np.sort(perm[:n_test])
    val = np.sort(perm[n_test:n_test + n_val])
    train = np.sort(perm[n_test + n_val:])
    return {"train": train, "val": val, "test": test}


def sample_matrix_mean(image: np.ndarray) -> float:
    """Arithmetic mean of the three tensor channels over matrix pixels."""
    mask = image[3] == 1.0
    if not mask.any():
        raise ValueError("sample has no matrix pixels")
    # C-contiguous (k, 4) rows fix the order in which the mean sums, and so
    # the bits of xbar and of the preprocessing statistics
    rows = np.compress(mask.ravel(), image.reshape(4, -1).T, axis=0)
    xbar = float(rows[:, :3].mean())
    if xbar <= 0.0:
        raise ValueError("non-positive matrix mean conductivity")
    return xbar


# stats keys of the tensor components (kxx, kxy, kyy); the diagonal is logged
_CHANNEL_KEYS = ("log_kxx", "kxy", "log_kyy")


def _normalize(images: np.ndarray, targets: np.ndarray | None):
    """(images, targets, xbar): copies of `images` (..., 4, H, W) and
    `targets` (None or (..., 3)) whose tensor components are divided by
    their own image's matrix mean xbar (...)."""
    images = np.asarray(images)
    xbar = np.array([sample_matrix_mean(image) for image in
                     images.reshape((-1,) + images.shape[-3:])])
    xbar = xbar.reshape(images.shape[:-3])
    out = np.empty(images.shape, np.result_type(images, xbar))
    np.divide(images[..., :3, :, :], xbar[..., None, None, None],
              out=out[..., :3, :, :])
    out[..., 3, :, :] = images[..., 3, :, :]
    tgt = None if targets is None else np.asarray(targets) / xbar[..., None]
    return out, tgt, xbar


def _standardize(values: np.ndarray, stats3: dict):
    """In place on the tensor components values[..., c, :, :], c = 0, 1, 2,
    of a float array: log of the diagonal, then (v - avg) / std. Targets
    (..., 3) pass as their (..., 3, 1, 1) view."""
    for c, key in enumerate(_CHANNEL_KEYS):
        v = values[..., c, :, :]
        if key.startswith("log"):
            if np.any(v <= 0.0):
                bad = tuple(np.argwhere(v <= 0.0)[0].tolist())
                raise ValueError(f"non-positive {key[4:]} at {bad}: SPD "
                                 "invariant violated upstream")
            np.log(v, out=v)
        v -= stats3[key]["avg"]
        v /= stats3[key]["std"]


def _unstandardize(values: np.ndarray, stats3: dict):
    """In place, the exact inverse of _standardize."""
    for c, key in enumerate(_CHANNEL_KEYS):
        v = values[..., c, :, :]
        v *= stats3[key]["std"]
        v += stats3[key]["avg"]
        if key.startswith("log"):
            np.exp(v, out=v)


def preprocess(images: np.ndarray, targets: np.ndarray | None, stats: dict):
    """Per-sample normalization followed by train-split standardization.

    `images` is one (4, H, W) raster or a stack of them along leading
    axes; `targets` is None or the matching (..., 3). Each image is divided
    by its own matrix mean xbar. Returns (images, targets, xbar); xbar is a
    float for one image and an array for a stack, needed for the inverse.
    """
    out, tgt, xbar = _normalize(images, targets)
    _standardize(out, stats["input"])
    if tgt is not None:
        _standardize(tgt[..., None, None], stats["target"])
    return out, tgt, float(xbar) if xbar.ndim == 0 else xbar


def inverse_preprocess(images: np.ndarray | None, targets: np.ndarray | None,
                       stats: dict, xbar):
    """Exact inverse of preprocess given its xbar: (images, targets) in
    physical units, None where the argument is None."""
    xbar = np.asarray(xbar, dtype=float)
    out = tgt = None
    if images is not None:
        out = np.array(images, dtype=float)
        _unstandardize(out, stats["input"])
        out[..., :3, :, :] *= xbar[..., None, None, None]
    if targets is not None:
        tgt = np.array(targets, dtype=float)
        _unstandardize(tgt[..., None, None], stats["target"])
        tgt *= xbar[..., None]
    return out, tgt


def compute_stats(images, targets, train_idx):
    """Standardization statistics of normalized data over the training split."""
    norm, tgt, _ = _normalize(images[train_idx], targets[train_idx])
    stats = {"input": {}, "target": {}}
    for part, values in (("input", norm), ("target", tgt[..., None, None])):
        for c, key in enumerate(_CHANNEL_KEYS):
            flat = values[..., c, :, :].ravel()
            flat = np.log(flat) if key.startswith("log") else flat
            std = float(flat.std())
            stats[part][key] = {"avg": float(flat.mean()),
                                "std": std if std > 0 else 1.0}
    return stats


def record_dtype(resolution: int) -> np.dtype:
    """One shard record: the raster's four (R, R) channel planes, then its
    (3,) target, all float32-LE."""
    return np.dtype([("planes", "<f4", (4, resolution, resolution)),
                     ("target", "<f4", (3,))])


def _try_sample(args):
    cfg, index, seed = args
    try:
        return index, generate_sample(cfg, index, seed), None
    except SolverError as exc:
        return index, None, str(exc)


def generate_dataset(cfg: RunConfig, seed: int, out_dir, workers: int = 1):
    """Generate samples, write fixed-record shards, manifest and stats.

    Samples are independent and deterministic in (cfg, seed, index), so a
    worker pool changes nothing but wall-clock time. The manifest records
    the resolved cfg and its hash, as resolved_config.json does.
    """
    out_dir = Path(out_dir)
    (out_dir / "shards").mkdir(parents=True, exist_ok=True)
    n_samples = cfg.dataset.n_samples
    r = cfg.raster.resolution

    jobs = [(cfg, idx, seed) for idx in range(n_samples)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_try_sample, jobs, chunksize=4))
    else:
        results = [_try_sample(job) for job in jobs]

    records = np.empty(n_samples, record_dtype(r))
    lambdas = np.empty(n_samples)
    kept = 0
    skipped = 0
    for idx, sample, err in results:
        if sample is None:
            skipped += 1
            log.warning("sample %d skipped: %s", idx, err)
            if skipped > max(1, MAX_SKIP_FRACTION * n_samples):
                raise RuntimeError(
                    f"aborting: {skipped} homogenization failures")
            continue
        image, target, lambdas[kept] = sample
        records[kept] = image, target
        kept += 1
    records = records[:kept]

    shards = []
    for start in range(0, kept, SHARD_RECORDS):
        name = f"shard_{len(shards):05d}.bin"
        payload = records[start:start + SHARD_RECORDS].tobytes()
        (out_dir / "shards" / name).write_bytes(payload)
        shards.append({"file": f"shards/{name}",
                       "records": min(start + SHARD_RECORDS, kept) - start,
                       "sha256": hashlib.sha256(payload).hexdigest()})

    splits = split_indices(kept, seed)
    images, targets = _unpack(records)
    stats = compute_stats(images, targets, splits["train"])
    manifest = {
        "config": cfg.to_dict(),
        "config_hash": cfg.hash(),
        "seed": seed,
        "n_samples": kept,
        "skipped": skipped,
        "record_size_bytes": records.dtype.itemsize,
        "raster_resolution": r,
        "lambda_per_sample": lambdas[:kept].tolist(),
        "splits": {k: v.tolist() for k, v in splits.items()},
        "shards": shards,
    }
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)
    with open(out_dir / "stats.json", "w") as f:
        json.dump(stats, f, indent=2)
    return manifest, stats


def _unpack(records: np.ndarray):
    """C-contiguous float64 (images (n, 4, R, R), targets (n, 3)) of shard
    records."""
    return (records["planes"].astype(float, order="C"),
            records["target"].astype(float, order="C"))


def load_dataset(dataset_dir):
    """Load shards back into memory: (images, targets, manifest, stats);
    ValueError naming the key if manifest.json misses raster_resolution,
    shards or splits, or an entry of shards misses file or records."""
    dataset_dir = Path(dataset_dir)
    where = dataset_dir / "manifest.json"
    with open(where) as f:
        manifest = json_object(json.load(f), where, (
            "raster_resolution", "shards", "splits"))
    with open(dataset_dir / "stats.json") as f:
        stats = json.load(f)
    dtype = record_dtype(manifest["raster_resolution"])
    parts = []
    for i, shard in enumerate(manifest["shards"]):
        json_object(shard, f"{where}: shards[{i}]", ("file", "records"))
        path = dataset_dir / shard["file"]
        size = path.stat().st_size
        if size != shard["records"] * dtype.itemsize:
            raise ValueError(f"shard {shard['file']}: expected "
                             f"{shard['records']} records of "
                             f"{dtype.itemsize} bytes, found {size} bytes")
        parts.append(np.fromfile(path, dtype))
    records = np.concatenate(parts) if parts else np.empty(0, dtype)
    return *_unpack(records), manifest, stats
