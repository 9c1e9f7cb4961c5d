import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dfm_upscale
from dfm_upscale import random_field
from dfm_upscale.bench import fine_model
from dfm_upscale.cli import main
from dfm_upscale.config import RunConfig
from dfm_upscale.surrogate import Architecture, SurrogateModel

SMALL_CONFIG = {
    "blocks": {"domain_side": 20.0, "block_size": 20.0},
    "srf": {"resolution": 16, "correlation_length": 0.0},
    "solver": {"resolution": 12},
    "raster": {"resolution": 16},
    "dfn": {"rho_2d": 2.0},
    "dataset": {"n_samples": 10, "srf_resolution": 16,
                "solver_resolution": 12, "lambdas": [0.0, 5.0]},
    "train": {"conv_channels": [2, 3], "dense_widths": [8, 8],
              "epochs": 2, "batch_size": 4},
    "seed": 5,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """A dataset of SMALL_CONFIG, built once; copy it before editing it."""
    root = tmp_path_factory.mktemp("small")
    (root / "config.json").write_text(json.dumps(SMALL_CONFIG))
    assert run(["build-dataset", "--config", str(root / "config.json"),
                "--out", str(root / "dataset")]) == 0
    return root / "dataset"


def single_error(capsys):
    """The one JSON error line on stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def unit_stats():
    """Preprocessing statistics that leave every channel as it is."""
    unit = {"avg": 0.0, "std": 1.0}
    return {part: {key: dict(unit) for key in ("log_kxx", "kxy", "log_kyy")}
            for part in ("input", "target")}


class TestErrorHandling:
    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"solvr": {}}))
        code = run(["generate-fine", "--config", str(bad),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "solvr" in err["message"]
        assert err["command"] == "generate-fine"

    def test_unknown_ratio_class_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dataset": {"ratio_class": "Z"}}))
        code = run(["build-dataset", "--config", str(bad),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "ratio_class" in err["message"]
        assert err["command"] == "build-dataset"

    @pytest.mark.parametrize("config, key", [
        ({"dataset": {"lambdas": 5}}, "dataset.lambdas"),
        ({"blocks": {"length_threshold": "5"}}, "blocks.length_threshold"),
        ({"solver": {"resolution": True}}, "solver.resolution"),
        ({"srf": {"mean_log": [1]}}, "srf.mean_log"),
        ({"srf": {"cov_log": [[0.25, 0.2], [0.2]]}}, "srf.cov_log"),
        ({"dataset": {"lambdas": ["0"]}}, "dataset.lambdas"),
        ({"train": {"conv_channels": [8.5]}}, "train.conv_channels"),
        ({"train": {"dense_widths": [True]}}, "train.dense_widths"),
        ({"blocks": {"block_size": 0}}, "blocks.block_size"),
        ({"blocks": {"coarse_resolution": 0}}, "blocks.coarse_resolution"),
        ({"srf": {"cov_log": [[0.25, 0.2], [0.1, 0.25]]}}, "srf.cov_log"),
        ({"srf": {"cov_log": [[0.25, 0.3], [0.3, 0.25]]}}, "srf.cov_log"),
        ({"train": {"batch_size": 0}}, "train.batch_size"),
        ({"train": {"batch_size": -1}}, "train.batch_size"),
        ({"train": {"epochs": -3}}, "train.epochs"),
        ({"train": {"conv_channels": []}}, "train.conv_channels"),
        ({"train": {"conv_channels": [4, 0]}}, "train.conv_channels"),
        ({"train": {"dense_widths": [0]}}, "train.dense_widths"),
    ])
    def test_mistyped_value_is_config_error(self, tmp_path, capsys, config,
                                            key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = run(["build-dataset", "--config", str(bad),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert key in err["message"]

    def test_too_few_samples_rejected_before_any_solve(self, tmp_path,
                                                      capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(
            SMALL_CONFIG, dataset=dict(SMALL_CONFIG["dataset"], n_samples=3))))
        out = tmp_path / "o"
        code = run(["build-dataset", "--config", str(bad), "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert "dataset.n_samples" in err["message"]
        assert not (out / "shards").exists()

    def test_failed_embedding_is_json_error(self, config_path, tmp_path,
                                            capsys, monkeypatch):
        def fail(*args):
            raise random_field.EmbeddingError("negative circulant spectrum")
        monkeypatch.setattr(random_field, "_circulant_amplitude", fail)
        cfg = dict(SMALL_CONFIG, srf=dict(SMALL_CONFIG["srf"],
                                          correlation_length=5.0))
        (tmp_path / "srf.json").write_text(json.dumps(cfg))
        out = tmp_path / "o"
        code = run(["generate-fine", "--config", str(tmp_path / "srf.json"),
                    "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "EmbeddingError"
        assert not (out / "field.bin").exists()
        assert not (out / "network.csv").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = run(["generate-fine", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == \
            "FileNotFoundError"

    def test_config_directory_is_json_error(self, tmp_path, capsys):
        code = run(["generate-fine", "--config", str(tmp_path),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "IsADirectoryError"

    def test_out_existing_file_is_json_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept")
        code = run(["generate-fine", "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "FileExistsError"
        assert out.read_text() == "kept"

    def test_train_on_empty_validation_split_is_json_error(self, tmp_path,
                                                           capsys):
        # 5 samples split into train 4, val 0 and test 1
        cfg = tmp_path / "five.json"
        cfg.write_text(json.dumps(dict(
            SMALL_CONFIG, dataset=dict(SMALL_CONFIG["dataset"], n_samples=5))))
        ds = tmp_path / "dataset"
        assert run(["build-dataset", "--config", str(cfg),
                    "--out", str(ds)]) == 0
        assert json.loads((ds / "manifest.json").read_text())["splits"][
            "val"] == []
        capsys.readouterr()
        code = run(["train", "--config", str(cfg), "--dataset", str(ds),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["message"] == "empty validation split"

    def test_train_with_one_test_sample_is_json_error(self, tmp_path,
                                                      capsys):
        # 6 samples split into train 4, val 1 and test 1
        cfg = tmp_path / "six.json"
        cfg.write_text(json.dumps(dict(
            SMALL_CONFIG, dataset=dict(SMALL_CONFIG["dataset"], n_samples=6))))
        ds = tmp_path / "dataset"
        assert run(["build-dataset", "--config", str(cfg),
                    "--out", str(ds)]) == 0
        splits = json.loads((ds / "manifest.json").read_text())["splits"]
        assert [len(splits[k]) for k in ("train", "val", "test")] == [4, 1, 1]
        capsys.readouterr()
        out = tmp_path / "o"
        code = run(["train", "--config", str(cfg), "--dataset", str(ds),
                    "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["message"] == ("the test split needs at least 2 samples "
                                  "(dataset.n_samples of at least 10), got 1")
        assert not (out / "model").exists()
        assert not (out / "history.csv").exists()

    @pytest.mark.parametrize("command", ["bench-aquifer", "bench-anisotropy"])
    @pytest.mark.parametrize("n_samples", ["0", "1"])
    def test_bench_too_few_samples_is_json_error(self, config_path, tmp_path,
                                                 capsys, command, n_samples):
        code = run([command, "--config", config_path, "--n-samples",
                    n_samples, "--out", str(tmp_path / "o")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert "at least 2 samples" in err["message"]

    def test_surrogate_backend_requires_model(self, config_path, tmp_path,
                                              capsys):
        code = run(["upscale", "--config", config_path,
                    "--backend", "surrogate",
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert "model" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("command, workers, artifact", [
        ("upscale", "2", "blocks.csv"),
        ("build-dataset", "0", "manifest.json"),
    ])
    def test_workers_out_of_range_is_json_error(self, config_path, tmp_path,
                                                capsys, command, workers,
                                                artifact):
        out = tmp_path / "o"
        code = run([command, "--config", config_path, "--workers", workers,
                    "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert "--workers" in err["message"]
        assert not (out / artifact).exists()

    def test_workers_only_where_accepted(self, config_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--config", config_path, "--param", "rho",
                 "--values", "2.0", "--workers", "1",
                 "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_tampered_model_stats_is_error(self, config_path, tmp_path,
                                           capsys):
        stats = unit_stats()
        model_dir = tmp_path / "model"
        arch = Architecture(resolution=16, conv_channels=(2,),
                            dense_widths=(4,))
        SurrogateModel(arch, stats=stats).save(model_dir)
        stats["input"]["kxy"]["std"] = 2.0
        (model_dir / "stats.json").write_text(json.dumps(stats))
        code = run(["upscale", "--config", config_path,
                    "--backend", "surrogate", "--model", str(model_dir),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert "statistics" in err["message"]

    @pytest.mark.parametrize("key, tamper", [
        ("param/output.bias", lambda blobs: blobs.pop("param/output.bias")),
        # one output channel instead of two: fold would broadcast it
        ("param/conv0.kernel", lambda blobs: blobs.update(
            {"param/conv0.kernel": blobs["param/conv0.kernel"][..., :1]})),
        ("param/conv1.kernel", lambda blobs: blobs.update(
            {"param/conv1.kernel": np.zeros((3, 3, 2, 2), "<f4")})),
    ], ids=["missing", "shape", "extra"])
    def test_tampered_model_weights_is_error(self, config_path, tmp_path,
                                             capsys, key, tamper):
        model_dir = tmp_path / "model"
        arch = Architecture(resolution=16, conv_channels=(2,),
                            dense_widths=(4,))
        SurrogateModel(arch, stats=unit_stats()).save(model_dir)
        with np.load(model_dir / "weights.npz") as npz:
            blobs = dict(npz)
        tamper(blobs)
        np.savez(model_dir / "weights.npz", **blobs)
        code = run(["upscale", "--config", config_path,
                    "--backend", "surrogate", "--model", str(model_dir),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert f"weights.npz: {key}:" in err["message"]


    def test_numeric_backend_rejects_model(self, config_path, tmp_path,
                                           capsys):
        # a model directory that does not exist, which the numeric backend
        # would never read
        out = tmp_path / "o"
        code = run(["upscale", "--config", config_path, "--backend", "numeric",
                    "--model", str(tmp_path / "no-model"), "--out", str(out)])
        assert code == 1
        err = single_error(capsys)
        assert err["error"] == "ValueError"
        assert "--model" in err["message"]
        assert not (out / "blocks.csv").exists()

    @pytest.mark.parametrize("part, edit, message", [
        ("training_state", lambda d: d.update(momentum=0.9),
         "unknown keys ['momentum']"),
        ("architecture", lambda d: d.pop("dense_widths"),
         "missing keys ['dense_widths']"),
    ], ids=["unknown-state-key", "missing-architecture-key"])
    def test_malformed_model_json_is_json_error(self, config_path, tmp_path,
                                                small_dataset, capsys, part,
                                                edit, message):
        model_dir = tmp_path / "model"
        arch = Architecture(resolution=16, conv_channels=(2,),
                            dense_widths=(4,))
        SurrogateModel(arch, stats=unit_stats()).save(model_dir)
        header = json.loads((model_dir / "model.json").read_text())
        edit(header[part])
        (model_dir / "model.json").write_text(json.dumps(header))
        capsys.readouterr()
        code = run(["evaluate", "--config", config_path,
                    "--dataset", str(small_dataset), "--model", str(model_dir),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        err = single_error(capsys)
        assert err["error"] == "ValueError"
        assert err["message"] == \
            f"{model_dir / 'model.json'}: {part}: {message}"

    @pytest.mark.parametrize("part, key, value, expected", [
        ("architecture", "dense_widths", 5, "list[int]"),
        ("architecture", "conv_channels", [2.5], "list[int]"),
        ("architecture", "resolution", "16", "int"),
        ("architecture", "out_features", True, "int"),
        ("training_state", "epoch", 1.5, "int"),
        ("training_state", "learning_rate", "fast", "float | None"),
    ], ids=["dense-widths", "conv-channels", "resolution", "out-features",
            "epoch", "learning-rate"])
    def test_model_json_value_of_wrong_type_is_json_error(
            self, config_path, tmp_path, capsys, part, key, value, expected):
        model_dir = tmp_path / "model"
        arch = Architecture(resolution=16, conv_channels=(2,),
                            dense_widths=(4,))
        SurrogateModel(arch, stats=unit_stats()).save(model_dir)
        header = json.loads((model_dir / "model.json").read_text())
        header[part][key] = value
        (model_dir / "model.json").write_text(json.dumps(header))
        capsys.readouterr()
        code = run(["upscale", "--config", config_path,
                    "--backend", "surrogate", "--model", str(model_dir),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        err = single_error(capsys)
        assert err["error"] == "ValueError"
        assert err["message"] == (
            f"{model_dir / 'model.json'}: {part}.{key}: expected {expected}, "
            f"got {type(value).__name__} {value!r}")

    @pytest.mark.parametrize("key", ["file", "records"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_manifest_shard_missing_key_is_json_error(
            self, config_path, tmp_path, small_dataset, capsys, command, key):
        ds = tmp_path / "dataset"
        shutil.copytree(small_dataset, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        del manifest["shards"][-1][key]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        argv = [command, "--config", config_path, "--dataset", str(ds),
                "--out", str(tmp_path / "o")]
        if command == "evaluate":  # the dataset is read before the model
            argv += ["--model", str(tmp_path / "model")]
        assert run(argv) == 1
        err = single_error(capsys)
        assert err["error"] == "ValueError"
        last = len(manifest["shards"]) - 1
        assert err["message"] == (f"{ds / 'manifest.json'}: shards[{last}]: "
                                  f"missing keys [{key!r}]")

    @pytest.mark.parametrize("key", ["raster_resolution", "shards", "splits"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_manifest_missing_key_is_json_error(self, config_path, tmp_path,
                                                small_dataset, capsys,
                                                command, key):
        ds = tmp_path / "dataset"
        shutil.copytree(small_dataset, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        del manifest[key]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        argv = [command, "--config", config_path, "--dataset", str(ds),
                "--out", str(tmp_path / "o")]
        if command == "evaluate":  # the dataset is read before the model
            argv += ["--model", str(tmp_path / "model")]
        assert run(argv) == 1
        err = single_error(capsys)
        assert err["error"] == "ValueError"
        assert err["message"] == \
            f"{ds / 'manifest.json'}: missing keys [{key!r}]"


class TestBasicCommands:
    def test_generate_fine_artifacts(self, config_path, tmp_path):
        out = tmp_path / "fine"
        assert run(["generate-fine", "--config", config_path,
                    "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "field.bin", "field.bin.json", "network.csv",
            "resolved_config.json", "run_log.jsonl"]
        entry = json.loads((out / "run_log.jsonl").read_text().splitlines()[-1])
        assert entry["status"] == "ok"
        assert entry["seed"] == 5  # falls back to the config seed
        assert entry["artifacts"] == ["network.csv", "field.bin",
                                      "field.bin.json"]
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["config_hash"] == entry["config_hash"]

    def test_generate_fine_writes_the_upscaled_model(self, config_path,
                                                     tmp_path):
        # the fine model upscale homogenizes at the same seed: every
        # network float parses back bit for bit, the field as float32
        out = tmp_path / "fine"
        assert run(["generate-fine", "--config", config_path, "--seed", "7",
                    "--out", str(out)]) == 0
        field, network, _ = fine_model(RunConfig.from_file(config_path), 7)
        assert len(network) > 0
        with open(out / "network.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["id", "cx", "cy", "length", "angle", "aperture",
                          "conductivity"]
        assert [int(row[0]) for row in rows] == network.id.tolist()
        columns = np.array([[float(v) for v in row[1:]] for row in rows]).T
        assert np.array_equal(columns, np.vstack([
            network.center.T, network.length, network.angle,
            network.aperture, network.conductivity]))
        header = json.loads((out / "field.bin.json").read_text())
        assert (header["nx"], header["ny"]) == field.grid.shape
        assert header["origin"] == list(field.grid.origin)
        planes = np.fromfile(out / "field.bin", "<f4").reshape(
            3, *field.grid.shape)
        assert np.array_equal(planes, np.stack(
            [field.k[..., 0], field.k[..., 1], field.k[..., 2]]).astype("<f4"))

    def test_upscale_deterministic(self, config_path, tmp_path):
        out1 = tmp_path / "h1"
        out2 = tmp_path / "h2"
        assert run(["upscale", "--config", config_path,
                    "--out", str(out1)]) == 0
        assert run(["upscale", "--config", config_path,
                    "--out", str(out2)]) == 0
        assert (out1 / "blocks.csv").read_bytes() == \
            (out2 / "blocks.csv").read_bytes()
        assert (out1 / "coarse_field.bin").read_bytes() == \
            (out2 / "coarse_field.bin").read_bytes()

    def test_seed_flag_overrides_config(self, config_path, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        run(["upscale", "--config", config_path, "--out", str(out1)])
        run(["upscale", "--config", config_path, "--seed", "99",
             "--out", str(out2)])
        assert (out1 / "blocks.csv").read_bytes() != \
            (out2 / "blocks.csv").read_bytes()


class TestPipelineChain:
    def test_dataset_train_evaluate_upscale(self, config_path, tmp_path):
        ds = tmp_path / "dataset"
        assert run(["build-dataset", "--config", config_path,
                    "--out", str(ds)]) == 0
        manifest = json.loads((ds / "manifest.json").read_text())
        assert manifest["n_samples"] == 10
        assert (ds / "shards" / "shard_00000.bin").exists()

        tr = tmp_path / "train"
        assert run(["train", "--config", config_path, "--dataset", str(ds),
                    "--out", str(tr)]) == 0
        assert (tr / "model" / "model.json").exists()
        assert (tr / "model" / "stats.json").exists()
        assert (tr / "history.csv").exists()
        metrics = json.loads((tr / "metrics.json").read_text())
        assert set(metrics) >= {"r2", "nrmse", "mse", "r2_mean"}

        ev = tmp_path / "eval"
        assert run(["evaluate", "--config", config_path, "--dataset", str(ds),
                    "--model", str(tr / "model"), "--out", str(ev)]) == 0
        ev_metrics = json.loads((ev / "metrics.json").read_text())
        assert ev_metrics["mse"] == pytest.approx(metrics["mse"], rel=1e-6)

        up = tmp_path / "upscale"
        assert run(["upscale", "--config", config_path,
                    "--backend", "surrogate", "--model", str(tr / "model"),
                    "--out", str(up)]) == 0
        assert (up / "blocks.csv").exists()
        assert (up / "coarse_field.bin").exists()

        bs = tmp_path / "speedup"
        assert run(["bench-speedup", "--config", config_path, "--blocks", "4",
                    "--model", str(tr / "model"), "--out", str(bs)]) == 0
        report = json.loads((bs / "report.json").read_text())
        assert report["inference_included"]
        assert report["n_blocks"] == 4


class TestBenchCommands:
    def test_bench_aquifer_numeric_pair(self, config_path, tmp_path):
        out = tmp_path / "ba"
        assert run(["bench-aquifer", "--config", config_path,
                    "--n-samples", "2", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["backends"] == ["numeric", "numeric-2"]
        assert report["r2"] == [1.0]

    def test_bench_speedup_rejects_zero_blocks(self, config_path, tmp_path,
                                               capsys):
        code = run(["bench-speedup", "--config", config_path,
                    "--blocks", "0", "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert "at least 1 block" in err["message"]

    def test_sweep_csv(self, config_path, tmp_path):
        import csv
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", config_path, "--param", "rho",
                    "--values", "0.5,2.0", "--out", str(out)]) == 0
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert float(rows[0]["value"]) == 0.5


# Prints the scipy modules a fresh interpreter holds after importing the CLI.
IMPORT_PROBE = """
import json, sys
import dfm_upscale.cli
names = sorted(n for n in sys.modules if n.split(".")[0] == "scipy")
packages = sorted({n.split(".")[1] for n in names if n.count(".") == 1
                   and not n.split(".")[1].startswith("_")
                   and hasattr(sys.modules[n], "__path__")})
print(json.dumps({"modules": names, "packages": packages}))
"""


class TestImportGraph:
    def test_cli_loads_only_sparse_and_linalg(self):
        src = str(Path(dfm_upscale.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        loaded = json.loads(out.stdout)
        assert not [n for n in loaded["modules"]
                    if n.startswith("scipy.optimize")]
        assert set(loaded["packages"]) <= {"sparse", "linalg"}
