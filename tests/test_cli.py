"""End-to-end command line tests.

Everything here calls cli.main() in process so exit codes and streams are
observable without spawning an interpreter.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from lidar_anchor import cli
from lidar_anchor.raster import height_like, load_raster, save_raster


def _digests(out_dir: Path) -> dict:
    out = {}
    for p in sorted(out_dir.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(out_dir))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A synthesized scene plus one full pipeline run, shared by the module."""
    root = tmp_path_factory.mktemp("cliws")
    scene = root / "scene"

    synth_cfg = {
        "scene": {"size": 128, "seed": 77},
        "tracks": {"n_tracks": 6, "cross_spacing": 12.0, "seed": 77},
        "corruption": {"beta": 2.5, "seed": 77},
    }
    synth_path = root / "synth.json"
    synth_path.write_text(json.dumps(synth_cfg))
    assert cli.main(["synth", "--config", str(synth_path), "--out", str(scene)]) == 0

    pipe_cfg = {
        "mode": "metric",
        "features": "hrf",
        "pred": str(scene / "pred"),
        "optical": str(scene / "optical"),
        "landcover": str(scene / "landcover"),
        "dtm": str(scene / "dtm"),
        "photons": str(scene / "photons.csv"),
        "reference": str(scene / "truth"),
        "out": str(root / "run"),
        "trees": 8,
        "patch": 32,
        "seed": 123,
    }
    pipe_path = root / "pipeline.json"
    pipe_path.write_text(json.dumps(pipe_cfg))
    assert cli.main(["pipeline", "--config", str(pipe_path)]) == 0

    return {
        "root": root,
        "scene": scene,
        "synth_cfg": synth_path,
        "pipe_cfg": pipe_path,
        "run": root / "run",
    }


class TestSynthCommand:
    def test_artifacts_exist(self, ws):
        names = [
            "truth.bin", "truth.json", "optical.bin", "landcover.bin",
            "dtm.bin", "pred.bin", "photons.csv", "scene_manifest.json",
        ]
        for name in names:
            assert (ws["scene"] / name).exists(), name

    def test_manifest_round_trips_config(self, ws):
        doc = json.loads((ws["scene"] / "scene_manifest.json").read_text())
        assert doc["scene"]["size"] == 128
        assert doc["corruption"]["beta"] == 2.5
        assert doc["n_photons"] > 0

    def test_seed_flag_overrides_sections(self, ws, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["synth", "--config", str(ws["synth_cfg"])]
        assert cli.main(argv + ["--out", str(a), "--seed", "5"]) == 0
        assert cli.main(argv + ["--out", str(b), "--seed", "5"]) == 0
        assert _digests(a) == _digests(b)
        doc = json.loads((a / "scene_manifest.json").read_text())
        assert doc["scene"]["seed"] == 5
        assert doc["tracks"]["seed"] == 5

    def test_unknown_section_rejected(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scene": {"size": 128}, "weather": {}}))
        rc = cli.main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "unknown sections" in capsys.readouterr().err

    def test_unknown_key_in_section_rejected(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"scene": {"sizee": 128}}))
        rc = cli.main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "sizee" in capsys.readouterr().err


class TestPipelineCommand:
    def test_artifacts_exist(self, ws):
        names = [
            "clean_photons.csv", "preprocess_report.json", "model.json",
            "importance.csv", "train_report.json", "residual.bin",
            "corrected.bin", "metrics.json", "metrics_baseline.json",
            "metrics_per_class.csv", "summary.json",
        ]
        for name in names:
            assert (ws["run"] / name).exists(), name

    def test_summary_shows_improvement(self, ws):
        doc = json.loads((ws["run"] / "summary.json").read_text())
        assert doc["mode"] == "metric_height"
        assert doc["affine"] is None
        assert doc["corrected_metrics"]["mae"] < doc["baseline_metrics"]["mae"]

    def test_prints_corrected_line(self, ws, capsys, tmp_path):
        out = tmp_path / "run2"
        rc = cli.main(["pipeline", "--config", str(ws["pipe_cfg"]), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("corrected: mae=")

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["pipeline", "--config", str(ws["pipe_cfg"])]
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert _digests(a) == _digests(b)

    def test_thread_count_does_not_change_outputs(self, ws, tmp_path):
        out = tmp_path / "t4"
        argv = ["pipeline", "--config", str(ws["pipe_cfg"]), "--out", str(out), "--threads", "4"]
        assert cli.main(argv) == 0
        assert _digests(out) == _digests(ws["run"])

    def test_flag_overrides_config_value(self, ws, tmp_path):
        out = tmp_path / "five"
        argv = ["pipeline", "--config", str(ws["pipe_cfg"]), "--out", str(out), "--trees", "5"]
        assert cli.main(argv) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["params"]["n_trees"] == 5
        base = json.loads((ws["run"] / "model.json").read_text())
        assert base["params"]["n_trees"] == 8

    def test_missing_dtm_fails_before_any_output(self, ws, tmp_path, capsys):
        cfg = json.loads(ws["pipe_cfg"].read_text())
        del cfg["dtm"]
        cfg["out"] = str(tmp_path / "never")
        p = tmp_path / "no_dtm.json"
        p.write_text(json.dumps(cfg))
        rc = cli.main(["pipeline", "--config", str(p)])
        assert rc == 1
        assert "dtm" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_unknown_config_key_rejected(self, ws, tmp_path, capsys):
        cfg = json.loads(ws["pipe_cfg"].read_text())
        cfg["tree_count"] = 9
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        rc = cli.main(["pipeline", "--config", str(p)])
        assert rc == 1
        assert "tree_count" in capsys.readouterr().err


class TestStagewiseEquivalence:
    def test_stage_sequence_matches_single_run(self, ws, tmp_path):
        """preprocess/train/correct/evaluate run one by one reproduce the
        pipeline command's artifacts bit for bit."""
        out = tmp_path / "staged"
        base = ["--config", str(ws["pipe_cfg"]), "--out", str(out)]
        assert cli.main(["preprocess"] + base) == 0
        assert cli.main(["train"] + base) == 0
        assert cli.main(["correct"] + base) == 0
        assert cli.main(["evaluate"] + base[:2] + ["--pred", str(out / "corrected"), "--out", str(out)]) == 0
        run = ws["run"]
        shared = [
            "clean_photons.csv", "preprocess_report.json", "model.json",
            "importance.csv", "train_report.json",
            "residual.bin", "residual.json", "corrected.bin", "corrected.json",
            "metrics.json", "metrics_per_class.csv",
        ]
        for name in shared:
            assert (out / name).read_bytes() == (run / name).read_bytes(), name


class TestEvaluateCommand:
    def test_prints_metrics_json(self, ws, tmp_path, capsys):
        argv = [
            "evaluate",
            "--pred", str(ws["run"] / "corrected"),
            "--reference", str(ws["scene"] / "truth"),
            "--landcover", str(ws["scene"] / "landcover"),
            "--out", str(tmp_path / "ev"),
        ]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = json.loads((ws["run"] / "summary.json").read_text())["corrected_metrics"]
        assert doc["mae"] == expected["mae"]
        assert doc["rmse"] == expected["rmse"]

    def test_identity_is_perfect(self, ws, tmp_path, capsys):
        truth = str(ws["scene"] / "truth")
        argv = ["evaluate", "--pred", truth, "--reference", truth,
                "--out", str(tmp_path / "self")]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mae"] == 0.0
        assert doc["ssim"] == 1.0


class TestRelativeMode:
    def test_pipeline_runs_with_depth_input(self, ws, tmp_path, capsys):
        truth = load_raster(ws["scene"] / "truth")
        depth = height_like(truth.header, (truth.values.astype(np.float64) + 10.0) / 40.0)
        save_raster(depth, tmp_path / "depth")
        cfg = json.loads(ws["pipe_cfg"].read_text())
        cfg["mode"] = "relative"
        cfg["pred"] = str(tmp_path / "depth")
        cfg["out"] = str(tmp_path / "rel")
        p = tmp_path / "rel.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["pipeline", "--config", str(p)]) == 0
        assert (tmp_path / "rel" / "affine.json").exists()
        assert (tmp_path / "rel" / "pred_abs.bin").exists()
        doc = json.loads((tmp_path / "rel" / "summary.json").read_text())
        assert doc["affine"]["a"] > 0


class TestLogging:
    def test_bad_log_level_warns_on_stderr(self, ws, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LIDAR_ANCHOR_LOG", "chatty")
        truth = str(ws["scene"] / "truth")
        argv = ["evaluate", "--pred", truth, "--reference", truth,
                "--out", str(tmp_path / "lg")]
        assert cli.main(argv) == 0
        assert "LIDAR_ANCHOR_LOG" in capsys.readouterr().err
