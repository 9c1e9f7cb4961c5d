"""Self-test of the benchmark's own checks and catalog:

    python3 perfbench/selftest.py

* BENCHMARK.json lists exactly the workloads of workloads.py and the
  per-layer metrics of layers.py;
* every output check passes the recorded reference outputs and fails on a
  perturbed copy (one tensor component, one raster byte, one target, a
  shard byte, the manifest count);
* the tracer wraps every call site, restores them all, and reports a span
  whose function is gone as missing.

Exits 0 when every case behaves as stated; prints each case.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import logging
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import run  # noqa: E402  (pins BLAS threads first)
import numpy as np  # noqa: E402

from perfbench import checks, layers, workloads  # noqa: E402
from perfbench import tracer as tracing  # noqa: E402

FAILURES = []


def expect(name: str, problems: list, should_fail: bool):
    ok = bool(problems) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {name}: "
          f"{problems[0] if problems else 'passes'}")
    if not ok:
        FAILURES.append(name)


def write_upscale_outputs(out: Path, tensors):
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "blocks.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["block_id", "k_xx", "k_xy", "k_yy"])
        for i, t in enumerate(tensors):
            w.writerow([i] + [repr(float(v)) for v in t])
    np.ones(3 * 8 * 8, dtype="<f4").tofile(out / "coarse_field.bin")


def catalog_cases():
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    expect("BENCHMARK.json per_layer == layers.PER_LAYER",
           [] if spec["per_layer"] == layers.benchmark_entries()
           else ["per_layer differs"], False)
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    defined = {n: w.why for n, w in workloads.WORKLOADS.items()}
    expect("BENCHMARK.json workloads == workloads.WORKLOADS",
           [] if listed == defined else ["workloads differ"], False)


def upscale_cases(work: Path):
    seed = workloads.REFERENCE_SEED
    for name in ("upscale-numeric", "upscale-surrogate"):
        wl = workloads.WORKLOADS[name]
        ref = checks.load_reference(wl.reference_path)
        tensors = [list(t) for t in ref["tensors"]]
        out = work / name
        write_upscale_outputs(out, tensors)
        expect(f"{name}: reference outputs", wl.check(out, seed, ref), False)
        rtol = checks.SURROGATE_RTOL if wl.uses_model else checks.NUMERIC_RTOL
        bumped = [list(t) for t in tensors]
        bumped[7][0] *= 1 + 10 * rtol
        write_upscale_outputs(out, bumped)
        expect(f"{name}: one k_xx off by 10 x rtol",
               wl.check(out, seed, ref), True)
        expect(f"{name}: same outputs at another seed (invariants only)",
               wl.check(out, seed + 1, ref), False)
        broken = [list(t) for t in tensors]
        broken[3] = [1.0, 2.0, 1.0]  # indefinite
        write_upscale_outputs(out, broken)
        expect(f"{name}: an indefinite tensor at another seed",
               wl.check(out, seed + 1, ref), True)
        write_upscale_outputs(out, tensors[:-1])
        expect(f"{name}: one block missing at another seed",
               wl.check(out, seed + 1, ref), True)


def _rewrite_shard(out: Path, mutate, fix_hash: bool):
    with open(out / "manifest.json") as f:
        manifest = json.load(f)
    shard = manifest["shards"][0]
    path = out / shard["file"]
    data = bytearray(path.read_bytes())
    mutate(data, manifest)
    path.write_bytes(bytes(data))
    if fix_hash:
        shard["sha256"] = hashlib.sha256(bytes(data)).hexdigest()
        with open(out / "manifest.json", "w") as f:
            json.dump(manifest, f)


def dataset_cases(work: Path, cli_main):
    wl = workloads.WORKLOADS["build-dataset"]
    ref = checks.load_reference(wl.reference_path)
    seed = workloads.REFERENCE_SEED
    config = workloads.write_config(wl.config, work / "dataset.json")
    pristine = work / "dataset"
    if cli_main(wl.argv(config, pristine, seed, None)) != 0:
        raise RuntimeError("build-dataset failed")
    expect("build-dataset: fresh outputs", wl.check(pristine, seed, ref),
           False)

    def case(name, mutate, fix_hash, at_seed, should_fail=True):
        out = work / "mutated"
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(pristine, out)
        _rewrite_shard(out, mutate, fix_hash)
        expect(f"build-dataset: {name}", wl.check(out, at_seed, ref),
               should_fail)

    def flip_raster_byte(data, manifest):
        data[1000] ^= 0x01

    def bump_target(data, manifest):
        r = manifest["raster_resolution"]
        at = 4 * 4 * r * r  # first record's k_xx target
        value = np.frombuffer(bytes(data[at:at + 4]), "<f4")[0]
        data[at:at + 4] = np.float32(value * (1 + 1e-4)).tobytes()

    case("one raster bit flipped, manifest hash fixed", flip_raster_byte,
         True, seed)
    case("one raster bit flipped at another seed, hash fixed "
         "(invariants only)", flip_raster_byte, True, seed + 1,
         should_fail=False)
    case("one target off by 1e-4, manifest hash fixed", bump_target,
         True, seed)
    case("one raster bit flipped, manifest hash stale", flip_raster_byte,
         False, seed + 1)

    out = work / "mutated"
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(pristine, out)
    with open(out / "manifest.json") as f:
        manifest = json.load(f)
    manifest["n_samples"] -= 1
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f)
    expect("build-dataset: manifest count short by one",
           wl.check(out, seed + 1, ref), True)


def tracer_cases():
    homogenizer = importlib.import_module("dfm_upscale.homogenizer")
    dfm_solver = importlib.import_module("dfm_upscale.dfm_solver")
    model = importlib.import_module("dfm_upscale.surrogate.model")
    originals = (homogenizer.discretize, dfm_solver.discretize,
                 model.SurrogateModel.forward)
    t = tracing.Tracer()
    t.install()
    wrapped = (homogenizer.discretize is not originals[0]
               and dfm_solver.discretize is not originals[1]
               and model.SurrogateModel.forward is not originals[2])
    t.uninstall()
    restored = (homogenizer.discretize is originals[0]
                and dfm_solver.discretize is originals[1]
                and model.SurrogateModel.forward is originals[2])
    expect("tracer wraps discretize at its call site and definition",
           [] if wrapped else ["not wrapped"], False)
    expect("tracer restores every site",
           [] if restored else ["not restored"], False)

    saved = dfm_solver.solve_darcy
    del dfm_solver.solve_darcy  # as if a refactor removed the name
    try:
        t = tracing.Tracer()
        t.install()
        t.uninstall()
    finally:
        dfm_solver.solve_darcy = saved
    expect("tracer reports a removed function as a missing span",
           [] if t.missing == ["dfm_solver.solve_darcy"]
           else [f"missing = {t.missing}"], False)


def main() -> int:
    cli_main = run.load_cli_main()
    logging.basicConfig(level=logging.WARNING)
    work = run.STATE / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        catalog_cases()
        upscale_cases(work)
        dataset_cases(work, cli_main)
        tracer_cases()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} case(s) failed" if FAILURES else "all cases ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
