"""Command-line entry point.

Every subcommand reads one JSON config, derives everything else from the
master seed, writes its artifacts plus a resolved-config echo into --out,
and appends a line-delimited JSON run log. Failures exit nonzero with a
machine-readable error JSON on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import bench
from .config import ConfigError, RunConfig
from .dataset_pipeline import generate_dataset, load_dataset, preprocess
from .frac_geom import save_network
from .homogenizer import (numeric_backend, upscale_domain,
                          write_block_csv)
from .random_field import save_tensor_field
from .surrogate.model import Architecture, SurrogateModel
from .surrogate.predict import surrogate_backend
from .surrogate.training import evaluate, train, write_history_csv

log = logging.getLogger("dfm_upscale")


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return RunConfig.from_file(args.config)
    return RunConfig()


def _log_run(out_dir: Path, entry: dict):
    with open(out_dir / "run_log.jsonl", "a") as f:
        f.write(json.dumps(entry) + "\n")


def _finish(out_dir: Path, cfg: RunConfig, args, artifacts: list):
    cfg.write_resolved(out_dir)
    _log_run(out_dir, {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "command": args.cmd,
        "seed": args.seed,
        "config_hash": cfg.hash(),
        "artifacts": artifacts,
        "status": "ok",
    })


def _out_dir(args) -> Path:
    out = Path(args.out or f"runs/{args.cmd}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _backends(cfg: RunConfig, args):
    """Two chunk backends: numeric reference plus the surrogate if a
    model directory was given, otherwise a second numeric instance."""
    res = cfg.solver.resolution
    backends = {"numeric": numeric_backend(res)}
    if getattr(args, "model", None):
        backends["surrogate"] = surrogate_backend(
            SurrogateModel.load(args.model))
    else:
        backends["numeric-2"] = numeric_backend(res)
    return backends


def cmd_generate_fine(cfg: RunConfig, args):
    """The fine model that upscale homogenizes: its fracture network and
    its conductivity-tensor field."""
    out = _out_dir(args)
    field, network, _ = bench.fine_model(cfg, args.seed)
    save_network(network, out / "network.csv")
    save_tensor_field(field, out / "field.bin")
    log.info("generated %d fractures", len(network))
    return ["network.csv", "field.bin", "field.bin.json"]


def _upscale(cfg: RunConfig, args, backend):
    out = _out_dir(args)
    field, network, grid = bench.fine_model(cfg, args.seed)
    coarse, blocks, projected = upscale_domain(
        field, network, grid, backend,
        length_threshold=cfg.blocks.length_threshold,
        coarse_resolution=cfg.blocks.coarse_resolution)
    write_block_csv(grid, blocks, out / "blocks.csv")
    save_tensor_field(coarse, out / "coarse_field.bin")
    if projected:
        log.warning("%d non-positive-definite block tensors projected",
                    projected)
    return ["blocks.csv", "coarse_field.bin", "coarse_field.bin.json"]


def _serial(args):
    """upscale and train run in one process: any other --workers is an
    error, not a silent serial run."""
    if args.workers != 1:
        raise ValueError(f"--workers {args.workers}: {args.cmd} runs "
                         "serially, only --workers 1 is accepted")


def cmd_upscale(cfg: RunConfig, args):
    _serial(args)
    if args.backend == "surrogate":
        if not args.model:
            raise ValueError("--model is required for the surrogate backend")
        backend = surrogate_backend(SurrogateModel.load(args.model))
    elif args.model:
        raise ValueError("--model: only --backend surrogate takes a model")
    else:
        backend = numeric_backend(cfg.solver.resolution)
    return _upscale(cfg, args, backend)


def cmd_build_dataset(cfg: RunConfig, args):
    if args.workers < 1:
        raise ValueError(f"--workers {args.workers}: must be at least 1")
    out = _out_dir(args)
    manifest, _ = generate_dataset(cfg, args.seed, out, workers=args.workers)
    log.info("dataset: %d samples, %d skipped", manifest["n_samples"],
             manifest["skipped"])
    return ["manifest.json", "stats.json"] + \
        [s["file"] for s in manifest["shards"]]


def _preprocessed_splits(dataset_dir):
    images, targets, manifest, stats = load_dataset(dataset_dir)
    splits = {k: np.asarray(v, dtype=np.int64)
              for k, v in manifest["splits"].items()}
    prep_images, prep_targets, _ = preprocess(images, targets, stats)
    return (prep_images.astype(np.float32), prep_targets.astype(np.float32),
            splits, manifest, stats)


def cmd_train(cfg: RunConfig, args):
    _serial(args)
    images, targets, splits, manifest, stats = \
        _preprocessed_splits(args.dataset)
    # R² of the test split needs 2 samples; an empty validation split is
    # train()'s error
    n_test = len(splits["test"])
    if len(splits["val"]) and n_test < 2:
        raise ValueError(f"the test split needs at least 2 samples "
                         f"(dataset.n_samples of at least 10), got {n_test}")
    out = _out_dir(args)
    res = manifest["raster_resolution"]
    tc = cfg.train
    arch = Architecture(resolution=res, conv_channels=tuple(tc.conv_channels),
                        dense_widths=tuple(tc.dense_widths))
    max_stages = arch.max_stages()
    if max_stages < len(arch.conv_channels):
        log.warning("resolution %d supports %d conv stages; truncating",
                    res, max_stages)
        arch = Architecture(resolution=res,
                            conv_channels=arch.conv_channels[:max_stages],
                            dense_widths=arch.dense_widths)
    model = SurrogateModel(arch, seed=args.seed, stats=stats)
    result = train(model, images[splits["train"]], targets[splits["train"]],
                   images[splits["val"]], targets[splits["val"]], tc,
                   args.seed)
    model.save(out / "model")
    write_history_csv(result, out / "history.csv")
    metrics = evaluate(model, images[splits["test"]], targets[splits["test"]])
    with open(out / "metrics.json", "w") as f:
        json.dump(metrics.to_dict(), f, indent=2)
    log.info("best val loss %.4g at epoch %d; test mean R^2 %.4f",
             result.best_val_loss, result.best_epoch, metrics.r2_mean)
    return ["model", "history.csv", "metrics.json"]


def cmd_evaluate(cfg: RunConfig, args):
    out = _out_dir(args)
    images, targets, splits, _, stats = _preprocessed_splits(args.dataset)
    model = SurrogateModel.load(args.model)
    if stats != model.stats:
        raise ValueError("dataset statistics do not match the model")
    metrics = evaluate(model, images[splits["test"]], targets[splits["test"]])
    with open(out / "metrics.json", "w") as f:
        json.dump(metrics.to_dict(), f, indent=2)
    return ["metrics.json"]


def cmd_bench_compare(bench_fn, cfg: RunConfig, args):
    """Two-backend comparison with ``bench.bench_aquifer`` or
    ``bench.bench_anisotropy``."""
    out = _out_dir(args)
    report = bench_fn(cfg, args.seed, args.n_samples, _backends(cfg, args))
    with open(out / "report.json", "w") as f:
        json.dump(report.to_dict(), f, indent=2)
    return ["report.json"]


def cmd_bench_speedup(cfg: RunConfig, args):
    out = _out_dir(args)
    model = SurrogateModel.load(args.model) if args.model else None
    report = bench.bench_speedup(cfg, args.seed, args.blocks, model)
    with open(out / "report.json", "w") as f:
        json.dump(report, f, indent=2)
    log.info("C_H/C_S = %.2f over %d blocks", report["speedup"],
             report["n_blocks"])
    return ["report.json"]


def cmd_sweep(cfg: RunConfig, args):
    out = _out_dir(args)
    values = [float(v) for v in args.values.split(",")]
    backend = None
    if args.model:
        backend = surrogate_backend(SurrogateModel.load(args.model))
    rows = bench.sweep(cfg, args.seed, args.param, values, backend)
    with open(out / "sweep.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    return ["sweep.csv"]


COMMANDS = {
    "generate-fine": cmd_generate_fine,
    "build-dataset": cmd_build_dataset,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "upscale": cmd_upscale,
    "bench-aquifer": partial(cmd_bench_compare, bench.bench_aquifer),
    "bench-anisotropy": partial(cmd_bench_compare, bench.bench_anisotropy),
    "bench-speedup": cmd_bench_speedup,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfm-upscale",
        description="Block homogenization of fracture-matrix Darcy models "
                    "and its convolutional surrogate.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, workers=False):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default: config seed)")
        p.add_argument("--out", help="output directory")
        if workers:
            p.add_argument("--workers", type=int, default=1)
        return p

    add("generate-fine")
    add("build-dataset", workers=True)
    p = add("train", workers=True)
    p.add_argument("--dataset", required=True)
    p = add("evaluate")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p = add("upscale", workers=True)
    p.add_argument("--backend", choices=["numeric", "surrogate"],
                   default="numeric")
    p.add_argument("--model")
    for name in ("bench-aquifer", "bench-anisotropy"):
        p = add(name)
        p.add_argument("--n-samples", type=int, default=4)
        p.add_argument("--model")
    p = add("bench-speedup")
    p.add_argument("--blocks", type=int, default=25)
    p.add_argument("--model")
    p = add("sweep")
    p.add_argument("--param", choices=["rho", "lambda"], required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated parameter values")
    p.add_argument("--model")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.seed is None:
            args.seed = cfg.seed
        artifacts = COMMANDS[args.cmd](cfg, args)
        _finish(_out_dir(args), cfg, args, artifacts)
        return 0
    except (ConfigError, OSError, ValueError, RuntimeError,
            FloatingPointError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc),
                   "command": args.cmd}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
