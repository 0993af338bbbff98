"""Correct dense monocular height rasters with sparse satellite LiDAR.

The library takes a per-pixel height (or relative depth) prediction plus a
sparse set of LiDAR photons, learns the prediction's local residual with a
random forest, and applies the learned residual across the full raster.
Modules are importable on their own; this package re-exports the pieces a
typical caller needs.
"""

from .correction import (
    ResidualField,
    apply_correction,
    build_training_set,
    infer_residual_field,
)
from .features import (
    HRF_DIM,
    HRF_FEATURE_NAMES,
    SCHEMA_HRF,
    SCHEMA_NRF,
    FeatureVector,
    hrf_features,
    nrf_features,
)
from .forest import (
    ForestParams,
    RandomForest,
    SplitMix64,
    feature_importance,
    load_model,
    predict,
    predict_batch,
    save_model,
    train_forest,
)
from .metrics import MetricsReport, evaluate, f1_he, mae, per_class_breakdown, rmse, ssim
from .photons import (
    ClusterParams,
    PreprocessParams,
    clean_photon_table,
    dbscan_cluster,
    load_photons,
    read_clean_csv,
    write_clean_csv,
)
from .pipeline import PipelineConfig, load_config, run_pipeline
from .raster import (
    EmbeddingGrid,
    GeometryError,
    HeightRaster,
    LandCoverRaster,
    LC_CLASSES,
    OpticalRaster,
    Raster,
    RasterFormatError,
    RasterHeader,
    footprint_mean,
    load_raster,
    sample_bilinear,
    save_raster,
)
from .scaling import AffineFit, apply_affine, fit_affine
from .synth import (
    CorruptionConfig,
    SceneConfig,
    TrackConfig,
    corrupt_prediction,
    generate_scene,
    simulate_tracks,
)

__version__ = "0.1.0"

__all__ = [
    "AffineFit",
    "ClusterParams",
    "CorruptionConfig",
    "EmbeddingGrid",
    "FeatureVector",
    "ForestParams",
    "GeometryError",
    "HRF_DIM",
    "HRF_FEATURE_NAMES",
    "HeightRaster",
    "LC_CLASSES",
    "LandCoverRaster",
    "MetricsReport",
    "OpticalRaster",
    "PipelineConfig",
    "PreprocessParams",
    "RandomForest",
    "Raster",
    "RasterFormatError",
    "RasterHeader",
    "ResidualField",
    "SCHEMA_HRF",
    "SCHEMA_NRF",
    "SceneConfig",
    "SplitMix64",
    "TrackConfig",
    "apply_affine",
    "apply_correction",
    "build_training_set",
    "clean_photon_table",
    "corrupt_prediction",
    "dbscan_cluster",
    "evaluate",
    "f1_he",
    "feature_importance",
    "fit_affine",
    "footprint_mean",
    "generate_scene",
    "hrf_features",
    "infer_residual_field",
    "load_config",
    "load_model",
    "load_photons",
    "load_raster",
    "mae",
    "nrf_features",
    "per_class_breakdown",
    "predict",
    "predict_batch",
    "read_clean_csv",
    "rmse",
    "run_pipeline",
    "sample_bilinear",
    "save_model",
    "save_raster",
    "simulate_tracks",
    "ssim",
    "train_forest",
    "write_clean_csv",
    "__version__",
]
