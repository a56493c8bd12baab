"""Anomaly detection over authentication behavior.

Feature extraction from auth records, a Gaussian baseline scored by
Mahalanobis distance, an isolation forest, threshold calibration, and
batch detection against a versioned model artifact.
"""

from .features import FeatureRow, MANDATORY_FEATURES, StreamingFeatureExtractor, extract_features
from .geo import GeoTable, haversine_km
from .gaussian import (
    GaussianModel,
    NormalizationStats,
    TrainingError,
    calibrate_tau,
    fit_gaussian,
    mahalanobis_score,
)
from .iforest import IsolationForestModel, avg_path_length, build_iforest, iforest_score
from .detector import (
    ModelArtifact, detect_batch, score_batch, score_event, train_model,
)

__all__ = [
    "FeatureRow", "MANDATORY_FEATURES", "StreamingFeatureExtractor", "extract_features",
    "GeoTable", "haversine_km",
    "GaussianModel", "NormalizationStats", "TrainingError",
    "calibrate_tau", "fit_gaussian", "mahalanobis_score",
    "IsolationForestModel", "avg_path_length", "build_iforest", "iforest_score",
    "ModelArtifact", "detect_batch", "score_batch", "score_event", "train_model",
]
