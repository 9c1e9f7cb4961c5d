import json

import pytest

from dfm_upscale.cli import main

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


class TestErrorHandling:
    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"solvr": {}}))
        code = run(["generate-dfn", "--config", str(bad),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "solvr" in err["message"]
        assert err["command"] == "generate-dfn"

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

    def test_missing_config_file(self, tmp_path, capsys):
        code = run(["generate-srf", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == \
            "FileNotFoundError"

    def test_surrogate_backend_requires_model(self, config_path, tmp_path,
                                              capsys):
        code = run(["upscale", "--config", config_path,
                    "--backend", "surrogate",
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert "model" in json.loads(capsys.readouterr().err)["message"]


class TestBasicCommands:
    def test_generate_dfn_artifacts(self, config_path, tmp_path):
        out = tmp_path / "dfn"
        assert run(["generate-dfn", "--config", config_path,
                    "--out", str(out)]) == 0
        assert (out / "network.csv").exists()
        assert (out / "resolved_config.json").exists()
        entry = json.loads((out / "run_log.jsonl").read_text().splitlines()[-1])
        assert entry["status"] == "ok"
        assert entry["seed"] == 5  # falls back to the config seed
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["config_hash"] == entry["config_hash"]

    def test_generate_srf(self, config_path, tmp_path):
        out = tmp_path / "srf"
        assert run(["generate-srf", "--config", config_path,
                    "--out", str(out)]) == 0
        assert (out / "field.bin").exists()

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

    def test_sweep_csv(self, config_path, tmp_path):
        import csv
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", config_path, "--param", "rho",
                    "--values", "0.5,2.0", "--out", str(out)]) == 0
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert float(rows[0]["value"]) == 0.5
