import json

import pytest

from dfm_upscale.cli import main
from dfm_upscale.config import ConfigError, RunConfig, fingerprint


class TestDefaults:
    def test_reference_defaults(self):
        cfg = RunConfig()
        assert cfg.dfn.alpha == 2.5
        assert cfg.dfn.r_min == 4.325
        assert cfg.dfn.r_max == 100.0
        assert cfg.dfn.rho_2d == 10.0
        assert cfg.dfn.aperture_ratio == 1e-4
        assert cfg.srf.mean_log == [-6.0, -5.8]
        assert cfg.srf.cov_log == [[0.25, 0.2], [0.2, 0.25]]
        assert cfg.blocks.domain_side == 100.0
        assert cfg.blocks.block_size == pytest.approx(100.0 / 7.0)
        assert cfg.train.learning_rate == 0.0025
        assert cfg.train.conv_channels == [24, 48, 96, 192, 256]
        assert cfg.train.dense_widths == [2048, 2048, 1024]
        assert cfg.seed == 0


class TestFromDict:
    def test_nested_override(self):
        cfg = RunConfig.from_dict({"dfn": {"alpha": 2.2},
                                   "solver": {"resolution": 64},
                                   "seed": 7})
        assert cfg.dfn.alpha == 2.2
        assert cfg.dfn.r_min == 4.325  # untouched default
        assert cfg.solver.resolution == 64
        assert cfg.seed == 7

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            RunConfig.from_dict({"dfm": {}})

    def test_unknown_nested_key_names_path(self):
        with pytest.raises(ConfigError, match="dfn"):
            RunConfig.from_dict({"dfn": {"alpha": 2.0, "betta": 1.0}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="expected an object"):
            RunConfig.from_dict({"dfn": 3})

    def test_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 11}))
        assert RunConfig.from_file(path).seed == 11


class TestHashAndResolved:
    def test_hash_stable_and_sensitive(self):
        a = RunConfig.from_dict({"seed": 1})
        b = RunConfig.from_dict({"seed": 1})
        c = RunConfig.from_dict({"seed": 2})
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()
        assert len(a.hash()) == 16
        assert RunConfig().hash() == fingerprint(RunConfig().to_dict())
        assert RunConfig().hash() == "aeb229ee3e1e9732"
        # the hash function itself is unchanged: the defaults plus the former
        # solver.rtol field hash to the value older resolved configs carry
        with_rtol = RunConfig().to_dict()
        with_rtol["solver"]["rtol"] = 1e-10
        assert fingerprint(with_rtol) == "71ed63038c00e13e"

    def test_artifact_hashes_are_fingerprints(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "srf": {"resolution": 16}, "raster": {"resolution": 16},
            "dfn": {"rho_2d": 2.0},
            "dataset": {"n_samples": 10, "srf_resolution": 16,
                        "solver_resolution": 12},
            "train": {"conv_channels": [2, 3], "dense_widths": [8],
                      "epochs": 1, "batch_size": 4}}))
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["build-dataset", "--config", str(config),
                     "--out", str(data)]) == 0
        assert main(["train", "--config", str(config), "--dataset", str(data),
                     "--out", str(run)]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["config_hash"] == fingerprint(manifest["config"])
        resolved = json.loads((data / "resolved_config.json").read_text())
        logged = json.loads((data / "run_log.jsonl").read_text()
                            .splitlines()[-1])
        assert manifest["config_hash"] == resolved["config_hash"] == \
            logged["config_hash"]
        stats = json.loads((data / "stats.json").read_text())
        header = json.loads((run / "model" / "model.json").read_text())
        assert header["stats_hash"] == fingerprint(stats)

    def test_write_resolved(self, tmp_path):
        cfg = RunConfig.from_dict({"dfn": {"alpha": 2.3}})
        cfg.write_resolved(tmp_path)
        with open(tmp_path / "resolved_config.json") as f:
            resolved = json.load(f)
        assert resolved["dfn"]["alpha"] == 2.3
        assert resolved["dfn"]["r_min"] == 4.325  # defaults echoed
        assert resolved["config_hash"] == cfg.hash()
