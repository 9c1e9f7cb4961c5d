"""Benchmark of the dfm-upscale command line, run from the repository root:

    python3 perfbench/run.py --workload upscale-numeric --seed 0 \\
        --seconds 20 --trace 0

Each operation is one in-process call of ``dfm_upscale.cli.main`` with the
argv a user types; operations repeat until ``--seconds`` have passed (at
least one runs). Every operation's outputs are checked (see checks.py).
Times are normalized to a nominal machine speed by a probe kernel timed
around and during each operation (see speed.py); wall times are kept in
the record.

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs operations in pairs on identical inputs, one plain and one
traced (the order alternates), and reports the per-layer metrics of
layers.py plus the tracing overhead (traced minus plain seconds).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
carry the environment and derived figures. The full record of a run, and
the spans of a traced run, are written under ``.perfbench/records``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / ".perfbench"

# One process, one BLAS thread: total threads stay within nproc on any box,
# and timings do not depend on how many cores the BLAS library finds. BLAS
# reads these when NumPy loads, so they are set before anything imports it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, str(ROOT))
import numpy  # noqa: E402
import scipy  # noqa: E402

from perfbench import checks, layers, workloads  # noqa: E402
from perfbench.speed import SpeedSampler  # noqa: E402
from perfbench.tracer import ROOT as ROOT_SPAN  # noqa: E402
from perfbench.tracer import Tracer, layer_values, summarize  # noqa: E402

SETUP_REPEATS = 3

# Per-block milliseconds of the re-anchor baseline in ROADMAP.md (North
# star 1), printed beside the traced run's own figures. Inclusive times.
BASELINE_MS_PER_BLOCK = {
    "homogenizer.clip_network": 14.0,
    "dfm_solver.discretize": 73.0,
    "dfm_solver.solve_darcy": 17.0,   # both solves
    "rasterizer.rasterize_block": 15.0,
}


class LibraryMissing(RuntimeError):
    pass


def load_cli_main():
    """``dfm_upscale.cli.main`` from this checkout's ``src`` only."""
    package = ROOT / "src" / "dfm_upscale"
    if not (package / "__init__.py").is_file():
        raise LibraryMissing(f"no dfm_upscale package at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import dfm_upscale.cli
    if Path(dfm_upscale.__file__).resolve().parent != package.resolve():
        raise LibraryMissing(
            f"dfm_upscale imported from {dfm_upscale.__file__}, not {package}")
    return dfm_upscale.cli.main


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    def __init__(self, workload, cli_main, work: Path, seed: int):
        self.wl = workload
        self.cli_main = cli_main
        self.work = work
        self.seed = seed
        self.reference = checks.load_reference(workload.reference_path)
        self.config_path = None
        self.model_dir = None
        self.ops = []

    def setup(self):
        """Repeat the set-up; return (normalized, wall) seconds of each
        repetition."""
        times = []
        for i in range(SETUP_REPEATS):
            with SpeedSampler() as sampler:
                t0 = time.perf_counter()
                self.model_dir = workloads.setup(self.cli_main,
                                                 self.work / f"setup{i}")
                self.config_path = workloads.write_config(
                    self.wl.config, self.work / f"setup{i}" / "workload.json")
                wall = time.perf_counter() - t0
            times.append((sampler.normalize(wall), wall))
        return times

    def op(self, k: int, tracer=None) -> dict:
        seed = workloads.op_seed(self.seed, k)
        out = self.work / f"op{k}{'t' if tracer else ''}"
        argv = self.wl.argv(self.config_path, out, seed, self.model_dir)
        problems = []
        rc = None
        if tracer is not None:
            tracer.begin()
            tracer.install()
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            try:
                rc = tracer.run_root(self.cli_main, argv) if tracer \
                    else self.cli_main(argv)
            except Exception:  # a crash fails this operation, not the run
                problems.append(traceback.format_exc(limit=4))
            finally:
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
        if rc == 0:
            problems += self.wl.check(out, seed, self.reference)
        elif rc is not None:
            problems.append(f"exit code {rc}")
        op = {"k": k, "seed": seed, "seconds": sampler.normalize(wall),
              "wall_s": wall, "speed_factor": sampler.factor,
              "traced": bool(tracer),
              "problems": problems,
              "library_config_hash": _resolved_hash(out)}
        if rc == 0 and self.wl.name == "build-dataset":
            op["shard_bytes"] = checks.shard_bytes(out)
        if tracer is not None:
            op["spans"] = [list(s) for s in tracer.spans]
        shutil.rmtree(out, ignore_errors=True)
        self.ops.append(op)
        return op

    def measure(self, seconds: float, trace: bool):
        tracer = Tracer() if trace else None
        start = time.perf_counter()
        k = 0
        while True:
            if trace:  # a plain and a traced operation on the same inputs
                for traced in ((False, True) if k % 2 == 0 else (True, False)):
                    self.op(k, tracer if traced else None)
            else:
                self.op(k)
            k += 1
            if time.perf_counter() - start >= seconds:
                return tracer


def _resolved_hash(out: Path):
    try:
        with open(out / "resolved_config.json") as f:
            return json.load(f).get("config_hash")
    except (OSError, ValueError):
        return None


def git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(bench: Bench) -> dict:
    from dfm_upscale import bench as library_bench
    fingerprint = getattr(library_bench, "environment_fingerprint", None)
    task = Path("/proc/self/task")
    hashes = [o["library_config_hash"] for o in bench.ops
              if o["library_config_hash"]]
    return {
        "fingerprint": fingerprint() if fingerprint else None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "process_threads": len(os.listdir(task)) if task.is_dir() else None,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_sha256(ROOT / "src"),
        "config_hash": checks.config_hash(bench.wl.config),
        "library_config_hash": hashes[0] if hashes else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def end_to_end(bench: Bench, setup_times) -> tuple:
    ops = bench.ops
    ok = [o for o in ops if not o["problems"]]
    times = [o["seconds"] for o in (ok or ops)]
    command_s = statistics.median(times)
    failed = len(ops) - len(ok)
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setup_times), "s"),
        "command_s": (command_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_fraction": (len(ok) / len(ops), "ratio"),
    }
    derived = {
        "operations": len(ops),
        "command_s_all": times,
        "command_s_quartiles": (statistics.quantiles(times, n=4)
                                if len(times) > 1 else times),
        "command_wall_s_all": [o["wall_s"] for o in (ok or ops)],
        "speed_factor_all": [o["speed_factor"] for o in (ok or ops)],
        "setup_s_all": [t for t, _ in setup_times],
        "setup_wall_s_all": [w for _, w in setup_times],
        "failed_fraction": failed / len(ops),
    }
    if bench.wl.name == "build-dataset":
        derived["samples_per_s"] = workloads.DATASET_SAMPLES / command_s
    else:
        derived["upscale_s"] = command_s
        ratio = _cost_ratio(bench.wl.name, command_s)
        if ratio is not None:
            derived["C_H/C_S (upscale_s numeric / surrogate)"] = ratio
    return metrics, derived


def _cost_ratio(name, command_s):
    """C_H/C_S from this run and the latest plain run of the other upscale
    workload on record; information only, never a metric (a faster
    reference solver lowers it)."""
    other = {"upscale-numeric": "upscale-surrogate",
             "upscale-surrogate": "upscale-numeric"}[name]
    records = sorted((STATE / "records").glob(f"{other}-seed*-trace0.json"),
                     key=lambda p: p.stat().st_mtime)
    if not records:
        return None
    with open(records[-1]) as f:
        theirs = json.load(f)["metrics"]["command_s"]["value"]
    return command_s / theirs if name == "upscale-numeric" \
        else theirs / command_s


def per_layer(bench: Bench, tracer) -> tuple:
    traced = [o for o in bench.ops if o["traced"]]
    plain = {o["k"]: o["seconds"] for o in bench.ops if not o["traced"]}
    summaries = [summarize(o["spans"]) for o in traced]
    per_op = []
    for op, summary in zip(traced, summaries):
        values = layer_values(summary, op["speed_factor"])
        values["dataset_pipeline.shard_bytes"] = op.get("shard_bytes", 0)
        values["trace.overhead_s"] = op["seconds"] - plain[op["k"]]
        values["trace.missing_spans"] = len(tracer.missing)
        per_op.append(values)
    metrics = {m["name"]: (statistics.median(v[m["name"]] for v in per_op),
                           m["unit"]) for m in layers.PER_LAYER}

    def pooled(span, key):
        return [c for s in summaries
                for c in s.get(span, {}).get("counts", {}).get(key, [])]

    def spread(values):
        if not values:
            return None
        qs = statistics.quantiles(values, n=10) if len(values) > 1 \
            else [values[0]] * 9
        return {"p10": qs[0], "p50": statistics.median(values), "p90": qs[8],
                "n": len(values),
                "share_nonzero": sum(v > 0 for v in values) / len(values)}

    derived = {
        "traced_operations": len(traced),
        "missing_spans": tracer.missing,
        "absent_counters": sorted({f"{span}.{key}" for s in summaries
                                   for span, e in s.items()
                                   for key in e["absent"]}),
        # properties that gains depend on, with the share of calls having them
        "frac_elems_per_discretize": spread(pooled("dfm_solver.discretize",
                                                   "frac_elems")),
        "fractures_kept_per_clip": spread(pooled("homogenizer.clip_network",
                                                 "kept")),
        "images_per_forward": spread(pooled("surrogate.forward", "images")),
    }
    traced_s = statistics.median(o["seconds"] for o in traced)
    factors = [o["speed_factor"] for o in traced]
    layer_self = statistics.median(
        f * sum(e["self_s"] for name, e in s.items() if name != ROOT_SPAN)
        for s, f in zip(summaries, factors))
    derived["accounting_s"] = {
        "traced_command": traced_s,
        "plain_command": statistics.median(plain.values()),
        "named_layers_self": layer_self,
        "unattributed_self": metrics["cli.main.self_s"][0],
        "overhead": metrics["trace.overhead_s"][0],
    }
    if bench.wl.name != "build-dataset":
        rows = {}
        for span, baseline in BASELINE_MS_PER_BLOCK.items():
            total = statistics.median(f * s.get(span, {}).get("total_s", 0.0)
                                      for s, f in zip(summaries, factors))
            if total > 0:
                ms = 1000.0 * total / workloads.UPSCALE_BLOCKS
                rows[span] = {"ms_per_block": ms, "baseline_ms": baseline,
                              "ratio": ms / baseline}
        derived["per_block_vs_baseline"] = rows
    return metrics, derived


def write_record(name: str, record: dict, spans=None):
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    with open(records / f"{name}.json", "w") as f:
        json.dump(record, f, indent=1)
    if spans is not None:
        with open(records / f"{name}-spans.json", "w") as f:
            json.dump(spans, f)


def main(argv=None) -> int:
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    try:
        cli_main = load_cli_main()
    except (LibraryMissing, ImportError) as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    # the CLI's own logging.basicConfig is then a no-op: warnings only
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(workloads.WORKLOADS[args.workload], cli_main, work,
                  args.seed)
    try:
        setup_times = bench.setup()
        tracer = bench.measure(args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, derived = per_layer(bench, tracer)
    else:
        metrics, derived = end_to_end(bench, setup_times)
    env = environment(bench)
    failed = sum(bool(o["problems"]) for o in bench.ops)
    result = {
        "correct": failed == 0,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u)
                    in metrics.items()},
    }
    ops = [{k: v for k, v in o.items() if k != "spans"} for o in bench.ops]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_record(name, {"args": vars(args), "environment": env,
                        "derived": derived, "operations": ops, **result},
                 [o["spans"] for o in bench.ops if o["traced"]]
                 if args.trace else None)

    for o in bench.ops:
        for problem in o["problems"]:
            print(f"FAILED op {o['k']} seed {o['seed']}: {problem}",
                  file=sys.stderr)
    print("environment: " + json.dumps(env))
    for key, value in derived.items():
        print(f"derived: {key} = {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
