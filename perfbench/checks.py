"""Output checks of one benchmark operation.

At the reference seed an operation's outputs are compared with outputs
recorded from the library before any optimisation (``reference/*.json``).
At every seed they must also satisfy invariants that hold for any input.
Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

# Relative tolerances, scaled by each tensor's largest component. Reordered
# floating-point sums in the solver move equivalent tensors by about 1e-12;
# a wrong assembly moves them by far more than 1e-8.
NUMERIC_RTOL = 1e-8
# Surrogate predictions come from a float32 forward pass, whose result
# depends on how the matrix products are blocked (batch size, BLAS kernel).
SURROGATE_RTOL = 1e-4
# Dataset targets are stored as float32 (one ulp is 6e-8 relative).
TARGET_RTOL = 1e-6
# The surrogate path projects non-SPD predictions onto an eigenvalue floor
# of 1e-14 * trace (homogenizer.project_spd). Rebuilding the matrix from its
# eigenpairs can round that floor away, leaving a singular tensor, so the
# surrogate's tensors are only required to be positive semi-definite to
# within this share of the trace.
PSD_TOL = 1e-12


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def load_reference(path: Path):
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f)


def _reference_for(reference, seed: int):
    """The reference outputs to compare with, or None at another seed."""
    if reference is None or reference["seed"] != seed:
        return None
    return reference


def _config_problem(reference, config):
    if reference["config_hash"] != config_hash(config):
        return ["reference outputs were recorded for another config"]
    return []


def spd_problems(tensors: np.ndarray, what: str, strict: bool = True) -> list:
    """Finite, symmetric positive-definite (k_xx, k_xy, k_yy) rows; with
    ``strict`` off, positive semi-definite to within PSD_TOL."""
    tensors = np.asarray(tensors, float)
    if not np.all(np.isfinite(tensors)):
        return [f"{what}: non-finite tensor components"]
    kxx, kxy, kyy = tensors[:, 0], tensors[:, 1], tensors[:, 2]
    if strict:
        bad = (kxx <= 0) | (kyy <= 0) | (kxx * kyy - kxy ** 2 <= 0)
    else:
        trace = kxx + kyy
        low = 0.5 * trace - np.hypot(0.5 * (kxx - kyy), kxy)
        bad = (trace <= 0) | (low < -PSD_TOL * trace)
    rows = np.flatnonzero(bad)
    if len(rows):
        kind = "definite" if strict else "semi-definite"
        return [f"{what}: {len(rows)} tensors not positive {kind} "
                f"(first at row {rows[0]})"]
    return []


def close_problems(actual: np.ndarray, expected: np.ndarray, rtol: float,
                   what: str) -> list:
    actual = np.asarray(actual, float)
    expected = np.asarray(expected, float)
    if actual.shape != expected.shape:
        return [f"{what}: shape {actual.shape} != reference {expected.shape}"]
    scale = np.max(np.abs(expected), axis=1, keepdims=True)
    err = np.abs(actual - expected) / np.where(scale > 0, scale, 1.0)
    worst = float(err.max()) if err.size else 0.0
    if not worst <= rtol:
        row = int(np.unravel_index(np.argmax(err), err.shape)[0])
        return [f"{what}: relative error {worst:.3g} > {rtol:g} "
                f"(first worst row {row})"]
    return []


# -- upscale --------------------------------------------------------------

def read_block_tensors(out_dir: Path) -> np.ndarray:
    with open(out_dir / "blocks.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    return np.array([[float(r["k_xx"]), float(r["k_xy"]), float(r["k_yy"])]
                     for r in rows]).reshape(-1, 3)


def check_upscale(out_dir: Path, seed: int, config: dict, n_blocks: int,
                  reference, rtol: float, strict: bool = True) -> list:
    """blocks.csv holds n_blocks finite SPD tensors (semi-definite unless
    ``strict``; matching the reference at its seed) and coarse_field.bin
    holds finite float32 values."""
    out_dir = Path(out_dir)
    try:
        tensors = read_block_tensors(out_dir)
    except (OSError, KeyError, ValueError) as exc:
        return [f"blocks.csv unreadable: {exc}"]
    problems = []
    if len(tensors) != n_blocks:
        problems.append(f"blocks.csv has {len(tensors)} blocks, "
                        f"expected {n_blocks}")
    problems += spd_problems(tensors, "blocks.csv", strict)
    coarse = out_dir / "coarse_field.bin"
    if not coarse.is_file() or coarse.stat().st_size == 0:
        problems.append("coarse_field.bin missing or empty")
    elif not np.all(np.isfinite(np.fromfile(coarse, dtype="<f4"))):
        problems.append("coarse_field.bin has non-finite values")
    ref = _reference_for(reference, seed)
    if ref is not None and not problems:
        problems += _config_problem(ref, config)
        problems += close_problems(tensors, ref["tensors"], rtol,
                                   "blocks.csv vs reference")
    return problems


# -- build-dataset --------------------------------------------------------

def read_records(out_dir: Path, manifest: dict):
    """(raster bytes per record, float32 targets (n, 3)) from the shards."""
    r = manifest["raster_resolution"]
    image_bytes = 4 * 4 * r * r
    record = image_bytes + 4 * 3
    rasters, targets = [], []
    for shard in manifest["shards"]:
        data = (out_dir / shard["file"]).read_bytes()
        for start in range(0, len(data), record):
            rasters.append(data[start:start + image_bytes])
            targets.append(np.frombuffer(
                data[start + image_bytes:start + record], dtype="<f4"))
    return rasters, np.array(targets, dtype=float).reshape(-1, 3)


def check_dataset(out_dir: Path, seed: int, config: dict, n_samples: int,
                  reference) -> list:
    """The manifest counts every requested sample, each shard matches the
    SHA-256 and size the manifest lists, rasters and targets are finite,
    targets are SPD, and stats.json is finite. At the reference seed the
    rasters are bit-identical and the targets close to the reference."""
    out_dir = Path(out_dir)
    try:
        with open(out_dir / "manifest.json") as f:
            manifest = json.load(f)
        with open(out_dir / "stats.json") as f:
            stats = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"manifest/stats unreadable: {exc}"]
    problems = []
    if manifest.get("n_samples") != n_samples or manifest.get("skipped"):
        problems.append(f"manifest counts {manifest.get('n_samples')} "
                        f"samples ({manifest.get('skipped')} skipped), "
                        f"expected {n_samples}")
    record_size = manifest.get("record_size_bytes")
    total = 0
    for shard in manifest.get("shards", []):
        path = out_dir / shard["file"]
        if not path.is_file():
            problems.append(f"{shard['file']} missing")
            continue
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != shard["sha256"]:
            problems.append(f"{shard['file']}: SHA-256 differs from manifest")
        if len(data) != shard["records"] * record_size:
            problems.append(f"{shard['file']}: {len(data)} bytes for "
                            f"{shard['records']} records")
        total += shard["records"]
    if total != n_samples:
        problems.append(f"shards hold {total} records, expected {n_samples}")
    if problems:
        return problems

    rasters, targets = read_records(out_dir, manifest)
    images = np.frombuffer(b"".join(rasters), dtype="<f4")
    if not np.all(np.isfinite(images)):
        problems.append("rasters have non-finite values")
    problems += spd_problems(targets, "targets")
    flat = [v for part in stats.values() for item in part.values()
            for v in item.values()]
    if not np.all(np.isfinite(flat)):
        problems.append("stats.json has non-finite values")

    ref = _reference_for(reference, seed)
    if ref is not None and not problems:
        problems += _config_problem(ref, config)
        hashes = [hashlib.sha256(r).hexdigest() for r in rasters]
        differ = [i for i, (a, b) in
                  enumerate(zip(hashes, ref["raster_sha256"])) if a != b]
        if differ or len(hashes) != len(ref["raster_sha256"]):
            problems.append(f"rasters differ from reference "
                            f"(records {differ[:5]})")
        problems += close_problems(targets, ref["targets"], TARGET_RTOL,
                                   "targets vs reference")
    return problems


def shard_bytes(out_dir: Path) -> int:
    with open(Path(out_dir) / "manifest.json") as f:
        manifest = json.load(f)
    return sum((Path(out_dir) / s["file"]).stat().st_size
               for s in manifest["shards"])
