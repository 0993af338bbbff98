"""End-to-end command line tests.

Everything here calls cli.main() in process so exit codes and streams are
observable without spawning an interpreter.
"""

import csv
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from lidar_anchor import cli, pipeline
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

    @pytest.mark.parametrize("doc, message", [
        ({"scene": {"size": 128.0}}, "size must be an integer, got 128.0"),
        ({"tracks": {"n_tracks": 2.5}}, "n_tracks must be an integer, got 2.5"),
        ({"scene": {"seed": 1.5}}, "seed must be an integer, got 1.5"),
        ({"corruption": {"seed": 1.5}}, "seed must be an integer, got 1.5"),
        ({"scene": {"crs_code": 32654.0}}, "crs_code must be an integer, got 32654.0"),
        ({"scene": {"tree_height_range": [4, float("inf")]}}, "bad tree height range"),
        ({"scene": {"base_elevation": float("nan")}}, "base_elevation must be finite"),
        ({"tracks": {"conf_profile": [-0.1, 0.13, 0.05, 0.32, 0.6]}}, "conf_profile"),
    ])
    def test_bad_field_value_fails_before_any_output(self, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = cli.main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: synth: ") and message in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc", [
        {"scene": {"gsd": "0.5"}},
        {"scene": {"building_density": "0.1"}},
        {"scene": {"tree_height_range": ["a", "b"]}},
        {"scene": {"tree_height_range": 5}},
        {"scene": {"terrain_amplitude": "1"}},
        {"scene": {"building_height_sigma_log": None}},
        {"scene": {"size": True}},
        {"tracks": {"dropout": "0.1"}},
        {"tracks": {"noise_sigma": "1"}},
        {"tracks": {"along_spacing": None}},
        {"tracks": {"conf_profile": ["a", 1, 1, 1, 1]}},
        {"tracks": {"conf_profile": 5}},
        {"tracks": {"track_azimuth": True}},
        {"corruption": {"class_bias": [1, 2]}},
        {"corruption": {"class_bias": {"x": 1}}},
        {"corruption": {"class_bias": {"4": "a"}}},
        {"corruption": {"alpha": "1"}},
        {"corruption": {"noise_corr": None}},
        {"scene": []},
        [],
    ])
    def test_value_of_the_wrong_type_fails_before_any_output(self, tmp_path, capsys, doc):
        # each of these ended in a traceback or was taken as another value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = cli.main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: synth: ")
        assert not (tmp_path / "o").exists()


class TestPipelineCommand:
    def test_artifacts_exist(self, ws):
        names = [
            "clean_photons.csv", "preprocess_report.json", "model.json",
            "importance.csv", "train_report.json", "residual.bin",
            "corrected.bin", "correct_report.json", "metrics.json", "metrics_baseline.json",
            "metrics_per_class.csv", "summary.json",
        ]
        for name in names:
            assert (ws["run"] / name).exists(), name

    def test_summary_shows_improvement(self, ws):
        doc = json.loads((ws["run"] / "summary.json").read_text())
        assert doc["mode"] == "metric_height"
        assert doc["affine"] is None
        assert doc["corrected_metrics"]["mae"] < doc["baseline_metrics"]["mae"]

    def test_summary_holds_per_class_mae_and_bias(self, ws):
        doc = json.loads((ws["run"] / "summary.json").read_text())
        for key, name in (("baseline", "metrics_baseline"), ("corrected", "metrics")):
            with open(ws["run"] / f"{name}_per_class.csv", encoding="utf-8") as f:
                rows = list(csv.DictReader(f))
            assert doc[f"{key}_per_class"] == {
                row["class_name"]: {"mae": float(row["mae"]), "bias": float(row["bias"])}
                for row in rows
            }

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
        with open(out / "model.json", encoding="utf-8") as f:
            doc = json.loads(f.readline())
        assert doc["params"]["n_trees"] == 5
        with open(ws["run"] / "model.json", encoding="utf-8") as f:
            base = json.loads(f.readline())
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

    def test_bad_flag_value_fails_before_any_output(self, ws, tmp_path, capsys):
        for flag in ("--patch", "--stride", "--trees"):
            for command in ("preprocess", "pipeline"):
                out = tmp_path / "never"
                argv = [command, "--config", str(ws["pipe_cfg"]), "--out", str(out), flag, "0"]
                assert cli.main(argv) == 1
                assert f"{flag[2:]} must be >= 1, got 0" in capsys.readouterr().err
                assert not out.exists()

    def test_stride_above_patch_fails_before_any_output(self, ws, tmp_path, capsys):
        out = tmp_path / "never"
        argv = ["pipeline", "--config", str(ws["pipe_cfg"]), "--out", str(out),
                "--patch", "8", "--stride", "20"]
        assert cli.main(argv) == 1
        assert "stride must be <= patch (8), got 20" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, ws, tmp_path, capsys):
        # idw_radius was once a pipeline key; cleaning uses its library default
        for key in ("tree_count", "idw_radius"):
            cfg = json.loads(ws["pipe_cfg"].read_text())
            cfg[key] = 9
            p = tmp_path / "bad.json"
            p.write_text(json.dumps(cfg))
            rc = cli.main(["pipeline", "--config", str(p)])
            assert rc == 1
            err = capsys.readouterr().err
            assert "unknown config keys" in err and key in err

    @pytest.mark.parametrize("doc", [[], "x"])
    def test_config_that_is_not_an_object_is_an_error(self, tmp_path, capsys, doc):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "never"
        assert cli.main(["pipeline", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pipeline: ") and "must be a JSON object" in err, err
        assert not out.exists()

    def test_config_value_of_the_wrong_type_is_an_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"patch": "16"}))
        assert cli.main(["preprocess", "--config", str(p)]) == 1
        assert "error: preprocess: patch must be an integer, got '16'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"mode": ["metric"]}, "mode must be a string, got ['metric']"),
        ({"features": 3}, "features must be a string, got 3"),
        ({"out": 5}, "out must be a string, got 5"),
        ({"out": None}, "out must be a string, got None"),
        ({"dtm": 1.5}, "dtm must be a string, got 1.5"),
        ({"embeddings": {"path": "e"}},
         "embeddings must be a string, got {'path': 'e'}"),
    ])
    def test_config_key_of_the_wrong_type_is_named(self, tmp_path, capsys, doc, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["preprocess", "--config", str(p)]) == 1
        assert f"error: preprocess: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, missing", [
        ("preprocess", "photons, dtm, landcover"),
        ("fit-scale", "pred"),
        ("train", "pred, optical, landcover"),
        ("correct", "pred, optical, landcover"),
        ("evaluate", "pred, reference"),
    ])
    def test_stage_command_with_an_input_unset_fails_before_any_output(
        self, tmp_path, monkeypatch, capsys, command, missing
    ):
        # each stage command checks the inputs it reads before it opens any
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "bare.json"
        p.write_text(json.dumps({"out": "o1"}))
        assert cli.main([command, "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command}: "), err
        assert f"requires: {missing}\n" in err, err
        assert not (tmp_path / "o1").exists()


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
            "correct_report.json", "metrics.json", "metrics_per_class.csv",
        ]
        for name in shared:
            assert (out / name).read_bytes() == (run / name).read_bytes(), name

    def test_relative_stage_sequence_matches_single_run(self, ws, tmp_path):
        """In relative mode, fit-scale run between preprocess and train makes
        train and correct read its calibrated pred_abs, as the pipeline
        command's run does."""
        truth = load_raster(ws["scene"] / "truth")
        depth = height_like(truth.header, (truth.values.astype(np.float64) + 10.0) / 40.0)
        save_raster(depth, tmp_path / "depth")
        cfg = json.loads(ws["pipe_cfg"].read_text())
        cfg.update(mode="relative", pred=str(tmp_path / "depth"), footprint=0.5)
        p = tmp_path / "rel.json"
        p.write_text(json.dumps(cfg))
        run, out = tmp_path / "single", tmp_path / "staged"
        assert cli.main(["pipeline", "--config", str(p), "--out", str(run)]) == 0
        base = ["--config", str(p), "--out", str(out)]
        for command in ("preprocess", "fit-scale", "train", "correct"):
            assert cli.main([command] + base) == 0, command
        assert cli.main(["evaluate"] + base + ["--pred", str(out / "corrected")]) == 0
        shared = [
            "clean_photons.csv", "affine.json", "pred_abs.bin", "pred_abs.json", "model.json",
            "importance.csv", "train_report.json", "residual.bin", "residual.json",
            "corrected.bin", "corrected.json", "correct_report.json", "metrics.json",
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

    def test_fit_scale_rejects_a_non_finite_photon_height(self, ws, tmp_path, capsys):
        # one nan h_ag in clean_photons.csv would fit an affine of NaNs
        truth = load_raster(ws["scene"] / "truth")
        save_raster(height_like(truth.header, truth.values / 40.0), tmp_path / "depth")
        out = tmp_path / "nan"
        out.mkdir()
        lines = (ws["run"] / "clean_photons.csv").read_bytes().split(b"\r\n")
        x, y, _, rest = lines[1].split(b",", 3)
        lines[1] = b",".join([x, y, b"nan", rest])
        (out / "clean_photons.csv").write_bytes(b"\r\n".join(lines))
        argv = ["fit-scale", "--pred", str(tmp_path / "depth"), "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == (f"error: fit-scale: {out / 'clean_photons.csv'}: "
                       "1 malformed rows: row 2: h_ag=nan is not finite\n")
        assert not (out / "affine.json").exists()


class TestLogging:
    def test_bad_log_level_warns_on_stderr(self, ws, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LIDAR_ANCHOR_LOG", "chatty")
        truth = str(ws["scene"] / "truth")
        argv = ["evaluate", "--pred", truth, "--reference", truth,
                "--out", str(tmp_path / "lg")]
        assert cli.main(argv) == 0
        assert "LIDAR_ANCHOR_LOG" in capsys.readouterr().err


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Pipeline configuration keys", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(f.name for f in dataclasses.fields(pipeline.PipelineConfig))
