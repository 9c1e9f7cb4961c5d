import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


@pytest.fixture
def runs(tmp_path):
    """Two runs' artifacts as the matrix leaves them."""
    root = tmp_path / "runs"
    (root / "upscale" / "model").mkdir(parents=True)
    (root / "upscale" / "blocks.csv").write_text("block_id,k_xx\n0,1.5\n")
    (root / "upscale" / "model" / "weights.npz").write_bytes(bytes(range(16)))
    (root / "upscale" / "run_log.jsonl").write_text('{"time": "12:00"}\n')
    (root / "bench").mkdir()
    report = {"name": "aquifer", "r2": [0.5],
              "metadata": {"head": 1.0, "environment": {"cpu_count": 2}}}
    (root / "bench" / "report.json").write_text(json.dumps(report, indent=2))
    return root


class TestHashing:
    def test_every_artifact_but_the_run_log(self, runs):
        assert sorted(identity.hash_runs(runs)) == [
            "bench/report.json", "upscale/blocks.csv",
            "upscale/model/weights.npz"]

    def test_environment_and_run_log_ignored(self, runs):
        before = identity.hash_runs(runs)
        path = runs / "bench" / "report.json"
        report = json.loads(path.read_text())
        report["metadata"]["environment"] = {"cpu_count": 64}
        path.write_text(json.dumps(report, indent=2))
        (runs / "upscale" / "run_log.jsonl").write_text('{"time": "13:00"}\n')
        assert identity.hash_runs(runs) == before
        assert identity.compare(identity.hash_runs(runs), before) == []

    def test_report_outside_environment_counts(self, runs):
        before = identity.hash_runs(runs)
        path = runs / "bench" / "report.json"
        report = json.loads(path.read_text())
        report["metadata"]["head"] = 2.0
        path.write_text(json.dumps(report, indent=2))
        assert identity.compare(identity.hash_runs(runs), before) == [
            "differs: bench/report.json"]


class TestCompare:
    def test_one_flipped_byte_reported(self, runs):
        before = identity.hash_runs(runs)
        path = runs / "upscale" / "model" / "weights.npz"
        data = bytearray(path.read_bytes())
        data[7] ^= 1
        path.write_bytes(bytes(data))
        assert identity.compare(identity.hash_runs(runs), before) == [
            "differs: upscale/model/weights.npz"]

    def test_missing_artifact_reported(self, runs):
        before = identity.hash_runs(runs)
        (runs / "upscale" / "blocks.csv").unlink()
        after = identity.hash_runs(runs)
        assert identity.compare(after, before) == [
            "missing here: upscale/blocks.csv"]
        assert identity.compare(before, after) == [
            "missing in other: upscale/blocks.csv"]


class TestMain:
    def test_against_exits_1_on_a_difference(self, tmp_path, monkeypatch,
                                              capsys):
        def one_artifact(src, root):
            (root / "runs" / "run").mkdir(parents=True)
            (root / "runs" / "run" / "blocks.csv").write_text("0,1.5\n")

        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "2")
        monkeypatch.setattr(identity, "run_matrix", one_artifact)
        out = tmp_path / "h.json"
        assert identity.main([str(tmp_path), "--out", str(out)]) == 0
        assert identity.main([str(tmp_path), "--out", str(tmp_path / "h2"),
                              "--against", str(out)]) == 0
        hashes = json.loads(out.read_text())
        hashes["run/blocks.csv"] = "0" * 64
        out.write_text(json.dumps(hashes))
        assert identity.main([str(tmp_path), "--out", str(tmp_path / "h2"),
                              "--against", str(out)]) == 1
        assert "differs: run/blocks.csv" in capsys.readouterr().out
