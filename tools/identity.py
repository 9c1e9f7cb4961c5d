"""Hash every artifact of a fixed matrix of CLI runs, so that two source
trees can be shown to write the same bytes.

    python tools/identity.py SRC_DIR --out H.json [--against OTHER.json]

SRC_DIR is the directory holding the ``dfm_upscale`` package (a checkout's
``src``). The matrix runs ``dfm_upscale.cli.main`` in-process, in a
temporary directory, with one BLAS thread: a threaded BLAS may sum in
another order and change the last bits. Every file a run writes gets a
SHA-256 under ``<run>/<file>``, except ``run_log.jsonl`` (wall-clock time)
and the ``metadata.environment`` of ``report.json`` (the machine).

``--against`` compares the hashes with those of another tree, prints each
differing or missing artifact and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# criterion 12: 225 overlapping blocks, SRF 64, solver 24, raster 64
UPSCALE = {
    "blocks": {"domain_side": 100.0, "block_size": 2 * 100.0 / 14},
    "srf": {"resolution": 64, "correlation_length": 0.0},
    "solver": {"resolution": 24},
    "raster": {"resolution": 64},
}
_DATASET = {"ratio_class": "A", "lambdas": [0.0, 2.0, 5.0],
            "block_size": 14.28, "srf_resolution": 64,
            "solver_resolution": 24}
DATASET = {"dataset": dict(_DATASET, n_samples=12),
           "raster": {"resolution": 64}}
DATASET_DEFAULT_LAMBDA = {"dataset": {"n_samples": 10},
                          "raster": {"resolution": 64}}
# a model small enough to train for a few epochs in seconds
SETUP = {"dataset": dict(_DATASET, n_samples=10),
         "raster": {"resolution": 64},
         "train": {"epochs": 2, "batch_size": 4, "conv_channels": [8, 16, 32],
                   "dense_widths": [64, 64]}}
SETUP_SEED = 20240110
# 25 blocks over a 40 m domain; the raster matches the set-up model
SMALL = {
    "blocks": {"domain_side": 40.0, "block_size": 2 * 40.0 / 6},
    "srf": {"resolution": 32, "correlation_length": 2.0},
    "solver": {"resolution": 16},
    "raster": {"resolution": 64},
}

SKIPPED = {"run_log.jsonl"}


def matrix(model: str) -> list:
    """(run name, config, argv) of every run after the set-up; model is
    the set-up's model directory."""
    backends = {"numeric": ["--backend", "numeric"],
                "surrogate": ["--backend", "surrogate", "--model", model]}
    coarse = dict(UPSCALE, blocks=dict(UPSCALE["blocks"],
                                       coarse_resolution=37))
    runs = []
    for backend, flags in backends.items():
        for seed in (0, 3):
            runs.append((f"upscale-{backend}-s{seed}", UPSCALE,
                         ["upscale", "--seed", str(seed)] + flags))
        runs.append((f"upscale-{backend}-coarse37", coarse,
                     ["upscale", "--seed", "0"] + flags))
    runs.append(("generate-fine", UPSCALE, ["generate-fine", "--seed", "0"]))
    for seed in (0, 7):
        runs.append((f"build-dataset-s{seed}", DATASET,
                     ["build-dataset", "--seed", str(seed)]))
    runs.append(("build-dataset-default-lambda", DATASET_DEFAULT_LAMBDA,
                 ["build-dataset", "--seed", "0"]))
    runs.append(("sweep-rho", SMALL, ["sweep", "--param", "rho", "--values",
                                      "5,10", "--seed", "1"]))
    runs.append(("sweep-lambda", SMALL,
                 ["sweep", "--param", "lambda", "--values", "0,4",
                  "--model", model, "--seed", "1"]))
    for name in ("bench-aquifer", "bench-anisotropy"):
        runs.append((name, SMALL, [name, "--n-samples", "2", "--model", model,
                                   "--seed", "2"]))
    return runs


def file_digest(path: Path) -> str:
    """SHA-256 of a file; a report.json is hashed without its
    metadata.environment."""
    data = path.read_bytes()
    if path.name == "report.json":
        report = json.loads(data)
        report.get("metadata", {}).pop("environment", None)
        data = json.dumps(report, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def hash_runs(root: Path) -> dict:
    """{"<run>/<file>": sha256} of every file below root, one directory
    per run."""
    return {path.relative_to(root).as_posix(): file_digest(path)
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name not in SKIPPED}


def compare(mine: dict, other: dict) -> list:
    """One line per artifact that differs or is missing on one side."""
    lines = []
    for name in sorted(set(mine) | set(other)):
        if name not in other:
            lines.append(f"missing in other: {name}")
        elif name not in mine:
            lines.append(f"missing here: {name}")
        elif mine[name] != other[name]:
            lines.append(f"differs: {name}")
    return lines


def run_matrix(src_dir: Path, root: Path):
    """Run the set-up and the matrix with the dfm_upscale of src_dir,
    one directory per run below root."""
    sys.path.insert(0, str(src_dir.resolve()))
    import dfm_upscale
    from dfm_upscale.cli import main

    if Path(dfm_upscale.__file__).parent.parent != src_dir.resolve():
        raise SystemExit(f"dfm_upscale loaded from {dfm_upscale.__file__}, "
                         f"not from {src_dir}")

    def run(name, config, argv):
        path = root / "configs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(config))
        out = root / "runs" / name
        if main(argv + ["--config", str(path), "--out", str(out)]) != 0:
            raise SystemExit(f"run {name!r} failed")

    setup = ["--seed", str(SETUP_SEED)]
    dataset = str(root / "runs" / "setup-dataset")
    run("setup-dataset", SETUP, ["build-dataset"] + setup)
    run("setup-train", SETUP, ["train", "--dataset", dataset] + setup)
    model = str(root / "runs" / "setup-train" / "model")
    run("setup-evaluate", SETUP,
        ["evaluate", "--dataset", dataset, "--model", model] + setup)
    for name, config, argv in matrix(model):
        run(name, config, argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path,
                        help="directory holding the dfm_upscale package")
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file for the artifact hashes")
    parser.add_argument("--against", type=Path,
                        help="hashes of another tree to compare with")
    args = parser.parse_args(argv)
    # before NumPy loads: the BLAS reads these once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        run_matrix(args.src, Path(tmp))
        hashes = hash_runs(Path(tmp) / "runs")
    args.out.write_text(json.dumps(hashes, indent=2) + "\n")
    if args.against is None:
        print(f"{len(hashes)} artifacts hashed")
        return 0
    other = json.loads(args.against.read_text())
    problems = compare(hashes, other)
    for line in problems:
        print(line)
    equal = sum(other.get(name) == digest for name, digest in hashes.items())
    print(f"identity check: {equal} artifacts equal, {len(problems)} "
          "differing or missing")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
