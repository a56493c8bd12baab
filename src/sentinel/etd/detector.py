"""The versioned anomaly model artifact and batch detection.

An artifact bundles normalization stats, the Gaussian baseline, the
isolation forest and the calibrated threshold tau.  A row is anomalous
when the Mahalanobis score exceeds tau or the forest score exceeds its
own threshold; mahalanobis wins ties when naming the trigger.  Rows are
scored in batches; a single row is a batch of one.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..events import EmergentThreat, IpAddress, Timestamp
from .features import MANDATORY_FEATURES, FeatureRow
from .gaussian import (
    GaussianModel,
    NormalizationStats,
    TrainingError,
    fit_gaussian,
    mahalanobis_scores,
)
from .iforest import IsolationForestModel, build_iforest, iforest_scores

DEFAULT_IFOREST_THRESHOLD = 0.7


@dataclass
class ScoreResult:
    mahalanobis: float
    iforest: float
    is_anomalous: bool
    detector: Optional[str]  # "mahalanobis" | "isolation_forest" | None

    @property
    def anomaly_score(self) -> float:
        return self.mahalanobis if self.detector != "isolation_forest" else self.iforest


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(*body) -> str:
    """A version's hash part: the head of the SHA-256 of the artifact
    body, given as one str or as bytes-like pieces of its UTF-8 text."""
    digest = hashlib.sha256()
    for piece in body:
        digest.update(piece.encode() if isinstance(piece, str) else piece)
    return digest.hexdigest()[:16]


@dataclass
class ModelArtifact:
    version: str
    trained_at: Timestamp
    feature_names: List[str]
    stats: NormalizationStats
    gaussian: GaussianModel
    iforest: IsolationForestModel
    training_window_days: int
    iforest_threshold: float = DEFAULT_IFOREST_THRESHOLD

    def __post_init__(self):
        # Where each feature sits in a row; one no row holds is refused here.
        unknown = sorted(set(self.feature_names) - set(MANDATORY_FEATURES))
        if unknown:
            raise ValueError(f"unknown feature {', '.join(unknown)}: a row holds no such column")
        self.columns = [MANDATORY_FEATURES.index(n) for n in self.feature_names]

    @functools.cached_property
    def body(self) -> str:
        """Everything but ``version`` as canonical JSON: the text the
        version hashes and the artifact file holds.  Fields are never
        changed in place; ``dataclasses.replace`` makes a new body."""
        text = canonical_json({
            "trained_at": self.trained_at.isoformat(),
            "feature_names": list(self.feature_names),
            "training_window_days": self.training_window_days,
            "iforest_threshold": self.iforest_threshold,
            "stats": {
                "feature_names": list(self.stats.feature_names),
                "mean": self.stats.mean.tolist(),
                "std": self.stats.std.tolist(),
                "dropped": list(self.stats.dropped),
            },
            "gaussian": {
                "cov": self.gaussian.cov.reshape(-1).tolist(),  # row-major
                "cov_inv": self.gaussian.cov_inv.reshape(-1).tolist(),
                "regularization": self.gaussian.regularization,
                "tau": self.gaussian.tau,
                "dim": self.gaussian.dim,
            },
            "iforest": None,
        })
        # A quote inside a string is escaped, so only the key matches.
        head, tail = text.split('"iforest":null')
        return f'{head}"iforest":{self.iforest.to_json()}{tail}'

    @classmethod
    def from_payload(cls, obj: dict) -> "ModelArtifact":
        stats = NormalizationStats(
            feature_names=list(obj["stats"]["feature_names"]),
            mean=np.array(obj["stats"]["mean"], dtype=float),
            std=np.array(obj["stats"]["std"], dtype=float),
            dropped=list(obj["stats"]["dropped"]),
        )
        g = obj["gaussian"]
        d = int(g["dim"])
        gaussian = GaussianModel(
            mean=np.zeros(d),
            cov=np.array(g["cov"], dtype=float).reshape(d, d),
            cov_inv=np.array(g["cov_inv"], dtype=float).reshape(d, d),
            regularization=float(g["regularization"]),
            tau=float(g["tau"]),
            dim=d,
        )
        return cls(
            version=obj["version"],
            trained_at=Timestamp.parse(obj["trained_at"]),
            feature_names=list(obj["feature_names"]),
            stats=stats,
            gaussian=gaussian,
            iforest=IsolationForestModel.from_obj(obj["iforest"]),
            training_window_days=int(obj["training_window_days"]),
            iforest_threshold=float(obj.get("iforest_threshold", DEFAULT_IFOREST_THRESHOLD)),
        )


def train_model(
    rows: Sequence[FeatureRow],
    q: float = 0.99,
    tree_count: int = 100,
    subsample: int = 256,
    seed: int = 0,
    training_window_days: int = 30,
    trained_at: Optional[Timestamp] = None,
) -> ModelArtifact:
    """Fit normalization, Gaussian baseline (with tau) and isolation forest."""
    if not rows:
        raise TrainingError("no training rows")
    X = np.array(rows, dtype=float)
    stats, gaussian = fit_gaussian(X, MANDATORY_FEATURES, q=q)
    keep = [MANDATORY_FEATURES.index(n) for n in stats.feature_names]
    Z = stats.normalize(X[:, keep])
    forest = build_iforest(Z, tree_count=tree_count, subsample=subsample, seed=seed)

    trained_at = trained_at or Timestamp.now()
    artifact = ModelArtifact(
        version="",
        trained_at=trained_at,
        feature_names=stats.feature_names,
        stats=stats,
        gaussian=gaussian,
        iforest=forest,
        training_window_days=training_window_days,
    )
    artifact.version = f"{content_hash(artifact.body)}-{trained_at.epoch():.0f}"
    return artifact


def score_batch(artifact: ModelArtifact, rows: Sequence[FeatureRow]) -> List[ScoreResult]:
    """Score feature rows against the artifact in one pass.

    Both thresholds are strict: a score exactly at the threshold is not
    anomalous.
    """
    if not rows:
        return []
    X = np.array(rows, dtype=float)[:, artifact.columns]
    Z = artifact.stats.normalize(X)
    mahal = mahalanobis_scores(artifact.gaussian, Z).tolist()
    forest = iforest_scores(artifact.iforest, Z).tolist()
    tau, forest_threshold = artifact.gaussian.tau, artifact.iforest_threshold
    results = []
    for s_mahal, s_forest in zip(mahal, forest):
        detector = None
        if s_mahal > tau:
            detector = "mahalanobis"
        elif s_forest > forest_threshold:
            detector = "isolation_forest"
        results.append(ScoreResult(mahalanobis=s_mahal, iforest=s_forest,
                                   is_anomalous=detector is not None, detector=detector))
    return results


def score_event(artifact: ModelArtifact, row: FeatureRow) -> ScoreResult:
    """Score one feature row: a batch of one."""
    return score_batch(artifact, [row])[0]


def detect_batch(
    artifact: ModelArtifact,
    rows: Sequence[FeatureRow],
    timestamps: Sequence[Timestamp],
) -> List[EmergentThreat]:
    """Score ``rows`` as one batch; one EmergentThreat per anomalous row,
    stamped with its row's entry in ``timestamps``."""
    return [
        EmergentThreat(
            timestamp=ts,
            ip=IpAddress.from_numeric(int(row.ip_numeric)),
            anomaly_score=result.anomaly_score,
            features=row._asdict(),
            detector=result.detector,
            model_version=artifact.version,
        )
        for ts, row, result in zip(timestamps, rows, score_batch(artifact, rows), strict=True)
        if result.is_anomalous
    ]
