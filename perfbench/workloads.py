"""The benchmark's workloads, their set-up and their output checks.

Every operation is one call of ``dfm_upscale.cli.main`` with the argv a
user would type, always with ``--workers 1``. Operation ``k`` of a run with
workload seed ``s`` passes ``--seed s + OP_SEED_STRIDE * k``, so the first
operation of a run uses the workload seed itself and the others draw fresh
inputs (a result cache keyed on the inputs cannot hide the work).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import checks

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
OP_SEED_STRIDE = 1_000_003

# The upscale configuration of acceptance criterion 12: 100 m domain,
# 2*100/14 m blocks on a half-block lattice (15 x 15 = 225 overlapping
# blocks), SRF resolution 64 with lambda = 0, the default DFN (rho = 10,
# about 1930 fractures over the extended domain), solver 24, raster 64.
UPSCALE_BLOCKS = 225
UPSCALE_CONFIG = {
    "blocks": {"domain_side": 100.0, "block_size": 2 * 100.0 / 14},
    "srf": {"resolution": 64, "correlation_length": 0.0},
    "solver": {"resolution": 24},
    "raster": {"resolution": 64},
}

# Ratio class A, lambda in {0, 2, 5}, 14.28 m blocks, solver 24, raster 64.
_DATASET_SECTION = {"ratio_class": "A", "lambdas": [0.0, 2.0, 5.0],
                    "block_size": 14.28, "srf_resolution": 64,
                    "solver_resolution": 24}
DATASET_SAMPLES = 12
DATASET_CONFIG = {
    "dataset": dict(_DATASET_SECTION, n_samples=DATASET_SAMPLES),
    "raster": {"resolution": 64},
}

# Set-up builds the surrogate model directory that upscale-surrogate loads:
# stats.json from a small fixed-seed dataset and an untrained (epochs = 0)
# model with the desk architecture. Inference cost does not depend on the
# weight values. Ten samples is the smallest set whose 20 % test split holds
# the two samples `train` needs to report R^2.
SETUP_SEED = 20240110
SETUP_CONFIG = {
    "dataset": dict(_DATASET_SECTION, n_samples=10),
    "raster": {"resolution": 64},
    "train": {"epochs": 0, "conv_channels": [8, 16, 32],
              "dense_widths": [64, 64]},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple
    config: dict
    uses_model: bool = False

    @property
    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"

    def argv(self, config_path: Path, out: Path, seed: int,
             model_dir: Path) -> list:
        argv = list(self.command) + [
            "--config", str(config_path), "--seed", str(seed),
            "--out", str(out), "--workers", "1"]
        if self.uses_model:
            argv += ["--model", str(model_dir)]
        return argv

    def check(self, out: Path, seed: int, reference) -> list:
        if self.name == "build-dataset":
            return checks.check_dataset(out, seed, self.config,
                                        DATASET_SAMPLES, reference)
        if self.uses_model:  # predictions of an untrained model
            return checks.check_upscale(out, seed, self.config,
                                        UPSCALE_BLOCKS, reference,
                                        checks.SURROGATE_RTOL, strict=False)
        return checks.check_upscale(out, seed, self.config, UPSCALE_BLOCKS,
                                    reference, checks.NUMERIC_RTOL)


WORKLOADS = {w.name: w for w in (
    Workload("upscale-numeric",
             "reference path: clip, discretize, two solves and the tensor "
             "fit per block; never rasterizes or runs the CNN",
             ("upscale", "--backend", "numeric"), UPSCALE_CONFIG),
    Workload("upscale-surrogate",
             "same fine model through clip, rasterize, preprocess and a "
             "batch-of-1 CNN forward per block; never calls the solver",
             ("upscale", "--backend", "surrogate"), UPSCALE_CONFIG,
             uses_model=True),
    Workload("build-dataset",
             "per-sample SRF and small DFN (about 28 fractures), solver and "
             "raster without clip_network, plus shards, manifest and stats",
             ("build-dataset",), DATASET_CONFIG),
)}


def op_seed(seed: int, k: int) -> int:
    return seed + OP_SEED_STRIDE * k


def write_config(config: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(config, f, indent=2)
    return path


def setup(cli_main, work: Path) -> Path:
    """Build the surrogate model directory under ``work``; return it."""
    config = write_config(SETUP_CONFIG, work / "setup.json")
    common = ["--config", str(config), "--seed", str(SETUP_SEED),
              "--workers", "1"]
    steps = (["build-dataset", "--out", str(work / "dataset")],
             ["train", "--dataset", str(work / "dataset"),
              "--out", str(work / "run")])
    for step in steps:
        if cli_main(step + common) != 0:
            raise RuntimeError(f"set-up step {step[0]!r} failed")
    return work / "run" / "model"
