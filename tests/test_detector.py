import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import artifact_score_oracle
from sentinel.etd.detector import (
    ModelArtifact,
    content_hash,
    detect_batch,
    score_batch,
    score_event,
    train_model,
)
from sentinel.etd.features import FeatureRow
from sentinel.events import Timestamp
from sentinel.harness import Scenario, gen_etd_stream, gen_normal_rows
from sentinel.retraining import load_artifact

STORED_ARTIFACT = Path(__file__).parent / "data" / "etd_model_nested.json"
LEVELWISE_ARTIFACT = Path(__file__).parent / "data" / "etd_model_levelwise.json"
FAR_OFF = FeatureRow(hour=23, ip_numeric=4.0e9, status=0, failed_attempts=50,
                     freq=40, geo_distance=9000)


@pytest.fixture(scope="module")
def artifact():
    return train_model(gen_normal_rows(2000, seed=10), q=0.99, seed=0,
                       trained_at=Timestamp.parse("2025-02-01T00:00:00Z"))


def _mean_row(artifact):
    values = dict(zip(artifact.stats.feature_names, artifact.stats.mean))
    return FeatureRow(**{name: values[name] for name in artifact.feature_names})


class TestScoreEvent:
    def test_training_mean_not_anomalous(self, artifact):
        result = score_event(artifact, _mean_row(artifact))
        assert result.mahalanobis == 0.0
        assert not result.is_anomalous

    def test_strict_threshold_boundary(self, artifact):
        # a score exactly at tau or at the forest threshold must not flag
        hit = score_event(artifact, FAR_OFF)

        def with_thresholds(tau, forest):
            gaussian = dataclasses.replace(artifact.gaussian, tau=tau)
            return dataclasses.replace(artifact, gaussian=gaussian, iforest_threshold=forest)

        at_both = score_event(with_thresholds(hit.mahalanobis, hit.iforest), FAR_OFF)
        assert (at_both.is_anomalous, at_both.detector) == (False, None)
        below_tau = with_thresholds(np.nextafter(hit.mahalanobis, -np.inf), hit.iforest)
        assert score_event(below_tau, FAR_OFF).detector == "mahalanobis"
        below_forest = with_thresholds(hit.mahalanobis, np.nextafter(hit.iforest, -np.inf))
        assert score_event(below_forest, FAR_OFF).detector == "isolation_forest"

    def test_far_off_row_is_anomalous(self, artifact):
        result = score_event(artifact, FAR_OFF)
        assert result.is_anomalous
        assert result.detector == "mahalanobis"  # mahalanobis wins ties


class TestDetectStream:
    def test_all_normal_stream_empty(self, artifact):
        rows, _ = gen_etd_stream(Scenario(seed=3, n_rows=300, anomaly_rate=0.0))
        events = detect_batch(artifact, rows, [Timestamp.now()] * len(rows))
        # calibrated ~1% false positives at most on in-distribution data
        assert len(events) <= 10

    def test_rows_and_stamps_must_pair_up(self, artifact):
        rows, _ = gen_etd_stream(Scenario(seed=1, n_rows=10, anomaly_rate=0.1))
        with pytest.raises(ValueError):
            detect_batch(artifact, rows, [Timestamp.now()] * 9)

    def test_injected_anomalies_detected(self, artifact):
        for seed in range(5):
            rows, labels = gen_etd_stream(Scenario(seed=seed, n_rows=1000, anomaly_rate=0.02))
            flagged = [score_event(artifact, r).is_anomalous for r in rows]
            k = sum(labels)
            hits = sum(1 for f, l in zip(flagged, labels) if f and l)
            assert hits >= 0.9 * k

    def test_events_carry_model_version_and_features(self, artifact):
        rows, labels = gen_etd_stream(Scenario(seed=4, n_rows=500, anomaly_rate=0.05))
        stamps = [Timestamp.parse("2025-02-02T00:00:00Z").add_seconds(i)
                  for i in range(len(rows))]
        events = detect_batch(artifact, rows, timestamps=stamps)
        assert events
        for event in events:
            assert event.model_version == artifact.version
            assert set(event.features) >= {"hour", "ip_numeric", "status",
                                           "failed_attempts", "freq", "geo_distance"}
            assert event.detector in ("mahalanobis", "isolation_forest")
            assert event.anomaly_score >= 0


class TestArtifactPayload:
    def test_roundtrip_scores_bit_equal(self, artifact):
        back = ModelArtifact.from_payload({"version": artifact.version, **json.loads(artifact.body)})
        rows, _ = gen_etd_stream(Scenario(seed=5, n_rows=100, anomaly_rate=0.1))
        for row in rows:
            a = score_event(artifact, row)
            b = score_event(back, row)
            assert a.mahalanobis == b.mahalanobis
            assert a.iforest == b.iforest

    def test_a_feature_no_row_holds_is_rejected(self, artifact):
        payload = json.loads(artifact.body.replace('"geo_distance"', '"url_risk"'))
        with pytest.raises(ValueError, match="url_risk"):
            ModelArtifact.from_payload({"version": artifact.version, **payload})

    def test_version_is_content_addressed(self):
        rows = gen_normal_rows(200, seed=1)
        t = Timestamp.parse("2025-02-01T00:00:00Z")
        a = train_model(rows, seed=0, trained_at=t)
        b = train_model(rows, seed=0, trained_at=t)
        c = train_model(rows, seed=1, trained_at=t)
        assert a.version == b.version
        assert a.version != c.version


def _same(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=1e-12)


def _assert_matches_oracle(artifact, rows):
    payload = json.loads(artifact.body)
    batch = score_batch(artifact, rows)
    assert len(batch) == len(rows)
    for row, got in zip(rows, batch):
        mahal, forest, flagged, detector = artifact_score_oracle(payload, row._asdict())
        single = score_event(artifact, row)
        for result in (got, single):
            assert _same(result.mahalanobis, mahal), (row, result, mahal)
            assert _same(result.iforest, forest), (row, result, forest)
            assert (result.is_anomalous, result.detector) == (flagged, detector), row


def _mixed_rows(n, seed):
    """Training-like rows with 10% shifted far enough to flag."""
    rows, _ = gen_etd_stream(Scenario(seed=seed, n_rows=n, anomaly_rate=0.1))
    return rows


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_feature_rows = st.builds(
    FeatureRow,
    hour=st.floats(min_value=0, max_value=23),
    ip_numeric=st.floats(min_value=0, max_value=2**32 - 1),
    status=st.sampled_from([0.0, 1.0]),
    failed_attempts=_finite,
    freq=_finite,
    geo_distance=_finite,
)


class TestScoreBatch:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(_feature_rows, min_size=1, max_size=30))
    def test_matches_oracle_and_single_rows(self, artifact, rows):
        _assert_matches_oracle(artifact, rows)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_batch_sizes_match_oracle(self, artifact, n):
        rows = _mixed_rows(n, seed=n)
        _assert_matches_oracle(artifact, rows)
        if n > 1:
            assert any(r.is_anomalous for r in score_batch(artifact, rows))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e12, -1e12, 1e100])
    def test_extreme_and_non_finite_values(self, artifact, value):
        base = _mixed_rows(1, seed=0)[0]
        rows = [base._replace(**{name: value}) for name in artifact.feature_names]
        _assert_matches_oracle(artifact, rows)

    def test_empty_batch(self, artifact):
        assert score_batch(artifact, []) == []


def _committed(path):
    """A committed artifact's version, and the rest as canonical JSON."""
    payload = json.loads(path.read_text())
    version = payload.pop("version")
    return version, json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestStoredArtifact:
    """``data/etd_model_nested.json`` was written by the node-object forest
    that the flat node table replaced, with ``json.dumps`` of the payload's
    dict (unsorted keys, default separators), from

        train_model(gen_normal_rows(64, seed=1), tree_count=3, seed=0,
                    trained_at=Timestamp.parse("2025-02-01T00:00:00Z"))
    """

    def test_loads_verifies_and_round_trips_byte_for_byte(self):
        artifact = load_artifact(STORED_ARTIFACT)  # checks the content hash
        version, body = _committed(STORED_ARTIFACT)
        assert artifact.body == body
        assert artifact.version == version
        assert content_hash(artifact.body) == version.split("-")[0]

    def test_scores_match_oracle(self):
        artifact = load_artifact(STORED_ARTIFACT)
        assert (artifact.version, artifact.body) == _committed(STORED_ARTIFACT)
        _assert_matches_oracle(artifact, _mixed_rows(300, seed=2))

    def test_fixed_seed_training_reproduces_it(self):
        # This call wrote data/etd_model_levelwise.json; the same seed must
        # give the same trees and content hash, byte for byte.  (The nested
        # file above pins the payload format, not the order of the draws.)
        artifact = train_model(gen_normal_rows(64, seed=1), tree_count=3, seed=0,
                               trained_at=Timestamp.parse("2025-02-01T00:00:00Z"))
        assert (artifact.version, artifact.body) == _committed(LEVELWISE_ARTIFACT)
        assert load_artifact(LEVELWISE_ARTIFACT).version == artifact.version  # hash checks
