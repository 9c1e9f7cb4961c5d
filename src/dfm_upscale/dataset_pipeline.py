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

from .config import RATIO_CLASSES, RunConfig
from .frac_geom import generate_dfn, FractureNetwork
from .geometry import Rect
from .homogenizer import anisotropy_tensor
from .dfm_solver import SolverError
from .random_field import Grid, sample_tensor_field
from .rasterizer import rasterize_block
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
    km = float(np.exp(np.mean(np.log(0.5 * (field_.kxx + field_.kyy)))))
    med = float(np.median(network.conductivity))
    factor = ratio * km / med
    scaled = replace(network, conductivity=network.conductivity * factor)
    return scaled, factor


def generate_sample(cfg: RunConfig, index: int, seed: int):
    """One (raster, target) pair; deterministic in (cfg, seed, index).

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
    network, factor = enforce_ratio(network, field_,
                                     RATIO_CLASSES[ds.ratio_class])
    k, _ = anisotropy_tensor(field_, network, block, ds.solver_resolution)
    sample = rasterize_block(field_, network, block, cfg.raster.resolution,
                             metadata={"index": index, "lambda": lam,
                                       "ratio_factor": factor,
                                       "seed": seed})
    sample.target = k
    return sample


def split_indices(n: int, seed: int):
    """Deterministic 64/16/20 train/val/test split by seeded permutation."""
    if n < 5:
        raise ValueError("need at least 5 samples to split")
    perm = substream(seed, "split").permutation(n)
    n_test = int(n * 0.2)
    n_val = int((n - n_test) * 0.2)
    test = np.sort(perm[:n_test])
    val = np.sort(perm[n_test:n_test + n_val])
    train = np.sort(perm[n_test + n_val:])
    return {"train": train, "val": val, "test": test}


def sample_matrix_mean(image: np.ndarray) -> float:
    """Arithmetic mean of the three tensor channels over matrix pixels."""
    mask = image[:, :, 3] == 1.0
    if not mask.any():
        raise ValueError("sample has no matrix pixels")
    # the rows image[mask] gives, several times faster
    rows = np.compress(mask.ravel(), image.reshape(-1, image.shape[-1]),
                       axis=0)
    xbar = float(rows[:, :3].mean())
    if xbar <= 0.0:
        raise ValueError("non-positive matrix mean conductivity")
    return xbar


def normalize_sample(image: np.ndarray, target: np.ndarray | None):
    """Divide conductivity channels and target by the sample matrix mean."""
    xbar = sample_matrix_mean(image)
    out = np.array(image, dtype=float)
    out[:, :, :3] /= xbar
    tgt = None if target is None else np.asarray(target, float) / xbar
    return out, tgt, xbar


_CHANNEL_KEYS = ("log_kxx", "kxy", "log_kyy")


def _standardize_components(values3, stats3, inverse=False):
    """values3: (..., 3) with components (kxx, kxy, kyy)."""
    out = np.array(values3, dtype=float)
    for c, key in enumerate(_CHANNEL_KEYS):
        out[..., c] = _standardize_channel(out[..., c], key, stats3[key],
                                           inverse)
    return out


def _standardize_channel(vals, key, stat, inverse=False):
    """One component: log for the diagonal keys, then (v - avg) / std."""
    avg = stat["avg"]
    std = stat["std"]
    if key.startswith("log"):
        if inverse:
            return np.exp(vals * std + avg)
        if np.any(vals <= 0.0):
            bad = np.argwhere(vals <= 0.0)[0]
            raise ValueError(
                f"non-positive {key[4:]} at {tuple(bad)}: SPD "
                "invariant violated upstream")
        return (np.log(vals) - avg) / std
    return vals * std + avg if inverse else (vals - avg) / std


def preprocess(images: np.ndarray, targets: np.ndarray | None, stats: dict):
    """Per-sample normalization followed by train-split standardization.

    `images` is one (H, W, 4) raster or a stack of them along leading
    axes; `targets` is None or the matching (..., 3). Each image is divided
    by its own matrix mean xbar. Returns (images, targets, xbar); xbar is a
    float for one image and an array for a stack, needed for the inverse.
    """
    images = np.asarray(images)
    xbar = np.array([sample_matrix_mean(image) for image in
                     images.reshape((-1,) + images.shape[-3:])])
    xbar = xbar.reshape(images.shape[:-3])
    out = np.array(images, dtype=float)
    for c, key in enumerate(_CHANNEL_KEYS):
        out[..., c] = _standardize_channel(
            images[..., c] / xbar[..., None, None], key, stats["input"][key])
    tgt = None
    if targets is not None:
        tgt = _standardize_components(
            np.asarray(targets, float) / xbar[..., None], stats["target"])
    return out, tgt, float(xbar) if xbar.ndim == 0 else xbar


def inverse_preprocess(image: np.ndarray, target: np.ndarray | None,
                       stats: dict, xbar: float):
    out = np.array(image, dtype=float)
    out[:, :, :3] = _standardize_components(out[:, :, :3], stats["input"],
                                            inverse=True) * xbar
    tgt = None
    if target is not None:
        tgt = _standardize_components(target, stats["target"],
                                      inverse=True) * xbar
    return out, tgt


def inverse_target(target_std: np.ndarray, stats: dict,
                   xbar: float) -> np.ndarray:
    return _standardize_components(target_std, stats["target"],
                                   inverse=True) * xbar


def compute_stats(images, targets, train_idx):
    """Standardization statistics of normalized data over the training split."""
    in_acc = {k: [] for k in _CHANNEL_KEYS}
    tg_acc = {k: [] for k in _CHANNEL_KEYS}
    for i in train_idx:
        norm_img, norm_tgt, _ = normalize_sample(images[i], targets[i])
        comps = norm_img[:, :, :3].reshape(-1, 3)
        for c, key in enumerate(_CHANNEL_KEYS):
            vals = comps[:, c]
            in_acc[key].append(np.log(vals) if key.startswith("log") else vals)
            tval = norm_tgt[c]
            tg_acc[key].append(np.log(tval) if key.startswith("log")
                               else tval)

    def fold(acc):
        out = {}
        for key, chunks in acc.items():
            flat = np.concatenate([np.atleast_1d(c) for c in chunks])
            std = float(flat.std())
            out[key] = {"avg": float(flat.mean()),
                        "std": std if std > 0 else 1.0}
        return out

    return {"input": fold(in_acc), "target": fold(tg_acc)}


def _record_bytes(image: np.ndarray, target: np.ndarray) -> bytes:
    planes = np.ascontiguousarray(image.transpose(2, 0, 1)).astype("<f4")
    return planes.tobytes() + np.asarray(target, dtype="<f4").tobytes()


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
    record_size = 4 * (4 * r * r + 3)

    jobs = [(cfg, idx, seed) for idx in range(n_samples)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_try_sample, jobs, chunksize=4))
    else:
        results = [_try_sample(job) for job in jobs]

    images = np.empty((n_samples, r, r, 4), dtype=np.float32)
    targets = np.empty((n_samples, 3), dtype=np.float32)
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
        images[kept] = sample.image.astype(np.float32)
        targets[kept] = sample.target.astype(np.float32)
        lambdas[kept] = sample.metadata["lambda"]
        kept += 1
    images = images[:kept]
    targets = targets[:kept]

    shards = []
    for start in range(0, kept, SHARD_RECORDS):
        name = f"shard_{len(shards):05d}.bin"
        payload = b"".join(
            _record_bytes(images[i], targets[i])
            for i in range(start, min(start + SHARD_RECORDS, kept)))
        (out_dir / "shards" / name).write_bytes(payload)
        shards.append({"file": f"shards/{name}",
                       "records": min(start + SHARD_RECORDS, kept) - start,
                       "sha256": hashlib.sha256(payload).hexdigest()})

    splits = split_indices(kept, seed)
    stats = compute_stats(images.astype(float), targets.astype(float),
                          splits["train"])
    manifest = {
        "config": cfg.to_dict(),
        "config_hash": cfg.hash(),
        "seed": seed,
        "n_samples": kept,
        "skipped": skipped,
        "record_size_bytes": record_size,
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


def load_dataset(dataset_dir):
    """Load shards back into memory: (images, targets, manifest, stats)."""
    dataset_dir = Path(dataset_dir)
    with open(dataset_dir / "manifest.json") as f:
        manifest = json.load(f)
    with open(dataset_dir / "stats.json") as f:
        stats = json.load(f)
    r = manifest["raster_resolution"]
    rec = 4 * r * r + 3
    images = []
    targets = []
    for shard in manifest["shards"]:
        data = np.fromfile(dataset_dir / shard["file"], dtype="<f4")
        data = data.reshape(shard["records"], rec)
        images.append(data[:, :4 * r * r].reshape(-1, 4, r, r)
                      .transpose(0, 2, 3, 1))
        targets.append(data[:, 4 * r * r:])
    images = np.concatenate(images) if images else np.zeros((0, r, r, 4))
    targets = np.concatenate(targets) if targets else np.zeros((0, 3))
    return images.astype(float), targets.astype(float), manifest, stats
