"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/record_reference.py [workload ...]

Runs the first operation of each workload at the reference seed and writes
``perfbench/reference/<workload>.json``. Record only from a library commit
whose outputs are trusted: a later change that alters them on purpose
re-records and states each changed number in its change log.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import checks, run, workloads  # noqa: E402


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or \
        list(workloads.WORKLOADS)
    cli_main = run.load_cli_main()
    work = run.STATE / "reference-work"
    shutil.rmtree(work, ignore_errors=True)
    try:
        model_dir = workloads.setup(cli_main, work / "setup")
        for name in names:
            wl = workloads.WORKLOADS[name]
            config = workloads.write_config(wl.config, work / f"{name}.json")
            out = work / name
            seed = workloads.op_seed(workloads.REFERENCE_SEED, 0)
            if cli_main(wl.argv(config, out, seed, model_dir)) != 0:
                raise RuntimeError(f"{name}: command failed")
            record = {"workload": name, "seed": seed,
                      "config_hash": checks.config_hash(wl.config),
                      "recorded_at": {
                          "git_commit": run.git_commit(run.ROOT),
                          "source_sha256": run.source_sha256(
                              run.ROOT / "src")}}
            if name == "build-dataset":
                with open(out / "manifest.json") as f:
                    manifest = json.load(f)
                rasters, targets = checks.read_records(out, manifest)
                record["raster_sha256"] = [hashlib.sha256(r).hexdigest()
                                           for r in rasters]
                record["targets"] = targets.tolist()
            else:
                record["tensors"] = checks.read_block_tensors(out).tolist()
            problems = wl.check(out, seed, None)
            if problems:
                raise RuntimeError(f"{name}: {problems}")
            with open(wl.reference_path, "w") as f:
                json.dump(record, f, indent=1)
                f.write("\n")
            print(f"recorded {wl.reference_path.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
