import copy
import functools
import hashlib
import json
import threading
import time
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sentinel.retraining as retraining
from sentinel.etd.detector import score_event, train_model
from sentinel.etd.features import FeatureRow
from sentinel.etd.gaussian import TrainingError
from sentinel.events import Timestamp
from sentinel.harness import Scenario, gen_etd_stream, gen_normal_rows
from sentinel.retraining import (
    CorruptArtifactError,
    ModelRegistry,
    NoModelError,
    RetrainConfig,
    ScheduleError,
    ScheduleSpec,
    load_artifact,
    load_current,
    persist_artifact,
    retrain,
    schedule_retrain,
    select_window,
)

T0 = Timestamp.parse("2025-06-01T00:00:00Z")


def _timed(rows, start=T0, spacing=60.0):
    return [(start.add_seconds(i * spacing), row) for i, row in enumerate(rows)]


def _arrays(timed):
    """(timestamp, row) pairs as the (epochs, rows) arrays the buffer holds."""
    return (np.array([ts.epoch() for ts, _ in timed], dtype=float).reshape(-1),
            np.array([row for _, row in timed], dtype=float).reshape(-1, 6))


def _pairs(epochs, rows):
    return [(Timestamp(datetime.fromtimestamp(e, timezone.utc)), FeatureRow(*row))
            for e, row in zip(epochs.tolist(), rows.tolist())]


class TestSelectWindow:
    def test_all_too_old_aborts(self):
        rows = _timed(gen_normal_rows(10, 0), start=T0.add_seconds(-90 * 86400))
        with pytest.raises(TrainingError):
            select_window(*_arrays(rows), T0, 30)

    def test_boundary_included(self):
        row = gen_normal_rows(1, 0)[0]
        boundary = T0.add_seconds(-30 * 86400)
        assert _pairs(*select_window(*_arrays([(boundary, row)]), T0, 30)) == [(boundary, row)]

    def test_matches_filter_oracle(self):
        rows = _timed(gen_normal_rows(2160, 1), start=T0.add_seconds(-90 * 86400),
                      spacing=3600.0)
        got = _pairs(*select_window(*_arrays(rows), T0, 30))
        start = T0.add_seconds(-30 * 86400)
        want = sorted([p for p in rows if start <= p[0] <= T0], key=lambda p: p[0])
        assert got == want


class TestRowBuffer:
    def test_costs_at_most_64_bytes_a_row(self):
        import tracemalloc

        from sentinel.agent import Agent

        block = np.ones((1000, 7))
        tracemalloc.start()
        try:
            buffer = retraining.RowBuffer(Agent.ROW_BUFFER_LIMIT)
            for _ in range(3):
                buffer.extend(block)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 64 * Agent.ROW_BUFFER_LIMIT
        assert len(buffer) == 3000

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 50), st.lists(st.integers(0, 80), max_size=8))
    def test_keeps_exactly_the_newest_rows(self, limit, sizes):
        buffer = retraining.RowBuffer(limit)
        written = np.zeros((0, 7))
        for size in sizes:
            block = np.arange(len(written), len(written) + size, dtype=float)[:, None] * np.ones(7)
            block[:, 1:] += np.arange(1, 7)
            buffer.extend(block)
            written = np.concatenate((written, block))
            epochs, rows = buffer.arrays()
            assert len(buffer) == len(epochs) == min(limit, len(written))
            assert epochs.tolist() == written[-limit:, 0].tolist()
            assert rows.tolist() == written[-limit:, 1:].tolist()


class TestSelectWindowOrder:
    def test_rows_of_one_epoch_keep_their_order(self):
        epochs = np.array([5.0, 3.0, 5.0, 4.0, 3.0, 9.0])
        rows = np.arange(36, dtype=float).reshape(6, 6)
        now = Timestamp(datetime.fromtimestamp(8, timezone.utc))
        got_epochs, got_rows = select_window(epochs, rows, now, 1)
        assert got_epochs.tolist() == [3.0, 3.0, 4.0, 5.0, 5.0]
        assert got_rows[:, 0].tolist() == [6.0, 24.0, 18.0, 0.0, 12.0]


class TestRetrain:
    def test_stationary_data_accepted(self):
        rows = _timed(gen_normal_rows(3000, seed=2))
        artifact, report = retrain(*_arrays(rows), RetrainConfig(quantile=0.99), trained_at=T0)
        assert report.accepted
        assert report.holdout_flag_rate <= 0.02
        assert report.train_size == 2400 and report.holdout_size == 600

    def test_drifted_holdout_rejected(self):
        normal = gen_normal_rows(2400, seed=3)
        drifted, _ = gen_etd_stream(Scenario(seed=4, n_rows=600, anomaly_rate=0.0,
                                             drift_shift_sigma=6.0))
        # drift applies to the second half of that stream; keep only drifted rows
        drifted = drifted[300:]
        rows = _timed(normal + drifted)
        cfg = RetrainConfig(quantile=0.99, holdout_fraction=0.1)
        artifact, report = retrain(*_arrays(rows), cfg, trained_at=T0)
        assert not report.accepted
        assert report.holdout_flag_rate > cfg.max_holdout_flag_rate

    def test_non_finite_value_is_error(self):
        rows = gen_normal_rows(400, seed=6)
        rows[7] = rows[7]._replace(hour=float("nan"))
        with pytest.raises(TrainingError, match="hour"):
            train_model(rows, trained_at=T0)
        with pytest.raises(TrainingError, match="hour"):
            retrain(*_arrays(_timed(rows)), RetrainConfig(), trained_at=T0)

    def test_empty_holdout_is_error(self):
        rows = _timed(gen_normal_rows(3, seed=5))
        with pytest.raises(TrainingError):
            retrain(*_arrays(rows), RetrainConfig(holdout_fraction=0.01))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["n", "f", "v", "l", "r", "dim"]), inner, max_size=3)),
    max_leaves=6)


@functools.lru_cache(maxsize=None)
def _small_payload():
    """A two-tree artifact's fields other than ``version``."""
    artifact = train_model(gen_normal_rows(40, 8), tree_count=2, trained_at=T0)
    return json.loads(artifact.body)


def _digest(payload):
    """The version's hash part for these fields, computed apart from the package."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPersistence:
    def test_roundtrip_bit_equal_scores(self, tmp_path):
        artifact = train_model(gen_normal_rows(500, 6), trained_at=T0)
        path = persist_artifact(artifact, tmp_path)
        back = load_artifact(path)
        probe, _ = gen_etd_stream(Scenario(seed=7, n_rows=100, anomaly_rate=0.05))
        for row in probe:
            assert score_event(back, row).mahalanobis == score_event(artifact, row).mahalanobis
            assert score_event(back, row).iforest == score_event(artifact, row).iforest

    def test_corrupted_file_rejected(self, tmp_path):
        artifact = train_model(gen_normal_rows(200, 8), trained_at=T0)
        path = persist_artifact(artifact, tmp_path)
        data = path.read_text().replace(artifact.version, "deadbeefdeadbeef-0")
        path.write_text(data)
        with pytest.raises(CorruptArtifactError):
            load_artifact(path)

    def test_persisted_file_is_checked_on_its_own_bytes(self, tmp_path, monkeypatch):
        artifact = train_model(gen_normal_rows(200, 8), trained_at=T0)
        path = persist_artifact(artifact, tmp_path)
        monkeypatch.setattr(retraining, "canonical_json", lambda obj: pytest.fail("re-dumped"))
        assert load_artifact(path).body == artifact.body

    def test_one_byte_body_edit_rejected(self, tmp_path):
        artifact = train_model(gen_normal_rows(200, 8), trained_at=T0)
        path = persist_artifact(artifact, tmp_path)
        data = path.read_bytes()
        at = data.index(b'"training_window_days":') + len(b'"training_window_days":')
        path.write_bytes(data[:at] + (b"8" if data[at:at + 1] != b"8" else b"9") + data[at + 1:])
        with pytest.raises(CorruptArtifactError, match="hash mismatch"):
            load_artifact(path)

    def test_respaced_copy_still_loads(self, tmp_path):
        artifact = train_model(gen_normal_rows(200, 8), trained_at=T0)
        path = persist_artifact(artifact, tmp_path)
        payload = json.loads(path.read_text())
        head = '{"version":%s,' % json.dumps(artifact.version)
        body = json.dumps({k: v for k, v in payload.items() if k != "version"}, indent=1)
        for text in (json.dumps(payload, indent=2), head + body[1:]):
            path.write_text(text)
            assert load_artifact(path).body == artifact.body

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "etd_model_x.json"
        path.write_bytes(b'{"version": "\xff-0"}')
        with pytest.raises(CorruptArtifactError, match="cannot read"):
            load_artifact(path)

    @pytest.mark.parametrize("text", ["[]", "null", '"etd"', '{"version": 5}', "{}"])
    def test_json_that_is_not_an_artifact_rejected(self, tmp_path, text):
        path = tmp_path / "etd_model_x.json"
        path.write_text(text)
        with pytest.raises(CorruptArtifactError):
            load_artifact(path)

    @pytest.mark.parametrize("edit", [
        lambda payload: payload.pop("stats"),
        lambda payload: payload.pop("gaussian"),
        lambda payload: payload.pop("iforest"),
        lambda payload: payload.pop("trained_at"),
        lambda payload: payload.update(trained_at=5),
        lambda payload: payload["iforest"].update(trees=[]),
        lambda payload: payload["iforest"]["trees"].__setitem__(0, {"n": 2**70}),
    ], ids=["no stats", "no gaussian", "no iforest", "no trained_at", "trained_at a number",
            "no trees", "leaf size overflows"])
    def test_hash_matching_payload_of_the_wrong_shape_rejected(self, tmp_path, edit):
        payload = copy.deepcopy(_small_payload())
        edit(payload)
        path = tmp_path / "etd_model_x.json"
        path.write_text(json.dumps({"version": f"{_digest(payload)}-0", **payload}))
        with pytest.raises(CorruptArtifactError):
            load_artifact(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_hash_matching_edit_loads_or_is_rejected(self, tmp_path_factory, data):
        payload = copy.deepcopy(_small_payload())
        fields = []  # (container, key) of every value in the payload

        def collect(node):
            for key in (sorted(node) if isinstance(node, dict) else range(len(node))):
                fields.append((node, key))
                if isinstance(node[key], (dict, list)):
                    collect(node[key])

        collect(payload)
        node, key = data.draw(st.sampled_from(fields))
        if data.draw(st.booleans()):
            node[key] = data.draw(_JSON_VALUES)
        else:
            del node[key]
        path = tmp_path_factory.mktemp("edit") / "etd_model_x.json"
        path.write_text(json.dumps({"version": f"{_digest(payload)}-0", **payload}))
        try:
            load_artifact(path)
        except CorruptArtifactError:
            pass

    def test_current_points_at_newest(self, tmp_path):
        a = train_model(gen_normal_rows(200, 9), trained_at=T0)
        b = train_model(gen_normal_rows(200, 10), trained_at=T0.add_seconds(60))
        persist_artifact(a, tmp_path)
        persist_artifact(b, tmp_path)
        assert (tmp_path / "current").read_text() == b.version
        assert load_current(tmp_path).version == b.version


class TestRegistry:
    def test_empty_registry_errors(self):
        with pytest.raises(NoModelError):
            ModelRegistry().get()

    def test_swap_idempotent(self):
        artifact = train_model(gen_normal_rows(200, 11), trained_at=T0)
        reg = ModelRegistry(artifact)
        reg.swap(artifact)
        assert reg.get() is artifact

    def test_concurrent_scoring_never_sees_mixed_state(self):
        old = train_model(gen_normal_rows(300, 12), trained_at=T0)
        new = train_model(gen_normal_rows(300, 13), trained_at=T0.add_seconds(60))
        reg = ModelRegistry(old)
        row = gen_normal_rows(1, 14)[0]
        versions = []
        errors = []
        barrier = threading.Barrier(9)

        def score_many():
            barrier.wait()
            for _ in range(1250):
                try:
                    artifact = reg.get()
                    score_event(artifact, row)
                    versions.append(artifact.version)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        def swapper():
            barrier.wait()
            reg.swap(new)

        threads = [threading.Thread(target=score_many) for _ in range(8)]
        threads.append(threading.Thread(target=swapper))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(versions) == 10_000
        assert set(versions) <= {old.version, new.version}
        assert reg.get().version == new.version


class FakeClock:
    def __init__(self, start):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, secs):
        self.now = self.now.add_seconds(secs)


class TestSchedule:
    def test_weekly_three_triggers_in_three_weeks(self):
        clock = FakeClock(Timestamp.parse("2025-06-01T00:00:00Z"))  # a Sunday
        end = Timestamp.parse("2025-06-22T00:00:00Z")
        gen = schedule_retrain("0 3 * * 1", clock=clock,
                               stop=lambda: clock() >= end,
                               sleep=lambda s: clock.advance(s))
        fired = list(gen)
        assert [f.isoformat() for f in fired] == [
            "2025-06-02T03:00:00Z", "2025-06-09T03:00:00Z", "2025-06-16T03:00:00Z"]
        assert all(f.instant.weekday() == 0 and f.instant.hour == 3 for f in fired)

    def test_missed_ticks_coalesce(self):
        clock = FakeClock(Timestamp.parse("2025-06-01T00:00:00Z"))
        gen = schedule_retrain("every 3600s", clock=clock,
                               sleep=lambda s: clock.advance(s))
        first = next(gen)
        assert first == Timestamp.parse("2025-06-01T01:00:00Z")
        clock.advance(5 * 3600)  # process asleep across several ticks
        second = next(gen)  # exactly one catch-up trigger
        # the backlog never accumulates: the next fire is rescheduled from
        # the wake time, so the third trigger lands at 07:00, not 03:00
        third = next(gen)
        assert third == Timestamp.parse("2025-06-01T07:00:00Z")

    @pytest.mark.parametrize("spec", ["61 * * * *", "* * *", "a b c d e", "every -5s",
                                      "every 5x", "every s"])
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(ScheduleError):
            ScheduleSpec.parse(spec)

    def test_both_day_fields_restricted_fire_on_either(self):
        # cron's rule: with day of month and day of week both restricted,
        # a day that matches either one fires.
        spec = ScheduleSpec.parse("0 12 1 * 5")  # the 1st, or a Friday
        fired, t = [], Timestamp.parse("2025-08-25T00:00:00Z")  # a Monday
        for _ in range(4):
            t = spec.next_fire(t)
            fired.append(t.isoformat())
        assert fired == ["2025-08-29T12:00:00Z", "2025-09-01T12:00:00Z",
                         "2025-09-05T12:00:00Z", "2025-09-12T12:00:00Z"]

    def test_leap_day_or_monday_fires_in_the_next_february(self):
        start = time.process_time()
        fire = ScheduleSpec.parse("0 0 29 2 1").next_fire(Timestamp.parse("2026-10-19T00:00:00Z"))
        assert fire == Timestamp.parse("2027-02-01T00:00:00Z")  # a Monday in February
        assert time.process_time() - start < 0.5

    def test_interval_parse_units(self):
        assert ScheduleSpec.parse("every 2h").interval_secs == 7200
        assert ScheduleSpec.parse("every 1d").interval_secs == 86400
        assert ScheduleSpec.parse("every 5").interval_secs == 5
        assert ScheduleSpec.parse("every 1.5m").interval_secs == 90
