import hashlib

from lidar_anchor import pipeline
from lidar_anchor.synth import CorruptionConfig, SceneConfig, TrackConfig


def test_run_artifacts_are_pinned(tmp_path):
    # SHA-256 of a small metric-mode hrf run's artifacts, as the residual
    # learning path has always made them
    want = {
        "model.json":
            "6cb07191fee582cea8d9ad199771b4b882da49de59efc1ba1e96881a9057f814",
        "importance.csv":
            "009c665b3c52dfa65d1ac8fe9a54a5019a4c73d46fd50e038fd5c4bd0b00df41",
        "train_report.json":
            "68752dc0fd8b612aee32bc17f217673ceba083a643463c4e64f0a3c3565854ca",
        "residual.bin":
            "7c732aa08121c5661c6e5fb131113aa6d65ad8f34a929d1f9e67f2f4af677567",
        "corrected.bin":
            "2f1a8b6cac0a5537001f9672c11c2c44937f4d0da0b20745e03e250da6444289",
        "clean_photons.csv":
            "fb0a7e4b70d93b06b2f7b8d5e4cbe679b41e0a95542365008a2243e096a5f2cb",
        "metrics.json":
            "7c078ecbee6632f21d8b89163215ba127eac24472d03a5031d5c69578d627836",
    }
    scene = tmp_path / "scene"
    pipeline.run_synth(
        SceneConfig(size=256, seed=42),
        TrackConfig(seed=42),
        CorruptionConfig(class_bias={4: 5.0, 7: -4.0}, noise_sigma=1.0, seed=42),
        scene,
    )
    run = tmp_path / "run"
    pipeline.run_pipeline(pipeline.PipelineConfig(
        mode="metric", features="hrf",
        pred=str(scene / "pred"), optical=str(scene / "optical"),
        landcover=str(scene / "landcover"), dtm=str(scene / "dtm"),
        photons=str(scene / "photons.csv"), reference=str(scene / "truth"),
        out=str(run), trees=10, stride=16, seed=42,
    ))
    got = {name: hashlib.sha256((run / name).read_bytes()).hexdigest() for name in want}
    assert got == want
