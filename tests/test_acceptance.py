"""End-to-end acceptance checks, one test per criterion.

Each test registers a PASS/FAIL line that the terminal summary prints,
so a full run ends with one line per criterion.  Tolerances are pinned
here and must not be loosened to make a failing criterion pass.
"""

import contextlib
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import conftest
from oracles import gauss_jordan_inverse, window_recount_events
from sentinel.cli import EXIT_OK, main as cli_main
from sentinel.etd.detector import score_event, train_model
from sentinel.etd.gaussian import fit_gaussian, mahalanobis_score, mahalanobis_scores
from sentinel.events import IpAddress, Timestamp
from sentinel.harness import Burst, Scenario, bench, gen_etd_stream, gen_normal_rows, gen_ssh_logs
from sentinel.phishing import Blacklist, UrlEvaluator
from sentinel.retraining import (
    ModelRegistry,
    RetrainConfig,
    load_current,
    persist_artifact,
    retrain,
)
from sentinel.ssh_monitor import (
    BruteForceConfig,
    BruteForceDetector,
    ParseStats,
    SshAuthRecord,
    parse_ssh_line,
    scan_batch,
)

DATA = Path(__file__).parent / "data"


@contextlib.contextmanager
def criterion(number, label):
    passed = False
    try:
        yield
        passed = True
    finally:
        conftest.ACCEPTANCE_RESULTS.append((number, label, passed))


def _golden(name):
    return json.loads((DATA / name).read_text())


def test_criterion_1_event_json_fidelity():
    with criterion(1, "event JSON fidelity"):
        # brute force: ten failures, alert on the tenth
        detector = BruteForceDetector(BruteForceConfig(threshold=10))
        t0 = Timestamp.parse("2025-02-12T15:22:52Z")
        ip = IpAddress.parse("192.168.1.12")
        events = []
        for i in range(10):
            rec = SshAuthRecord(t0.add_seconds(i), "admin", ip, 51000 + i,
                                "failed", True, raw="")
            event = detector.ingest(rec)
            if event:
                events.append(event)
        assert len(events) == 1
        assert events[0].to_dict() == _golden("golden_brute_force.json")

        _, alert = UrlEvaluator().evaluate(
            "http://secure-updates-login.com",
            clock=lambda: Timestamp.parse("2025-02-13T09:11:45Z"))
        assert alert is not None
        assert alert.to_dict() == _golden("golden_phishing_heuristic.json")

        _, alert = UrlEvaluator(blacklist=Blacklist(["fake-bank-login.com"])).evaluate(
            "http://fake-bank-login.com",
            clock=lambda: Timestamp.parse("2025-02-12T16:45:10Z"))
        assert alert is not None
        assert alert.to_dict() == _golden("golden_phishing_blacklist.json")


def test_criterion_2_phishing_calibration(capsys, tmp_path):
    with criterion(2, "phishing score calibration"):
        assert cli_main(["score-url", "http://secure-updates-login.com"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["score"] == 85
        assert result["detection_method"] == "HeuristicAnalysis"

        blacklist = tmp_path / "black.txt"
        blacklist.write_text("fake-bank-login.com\n")
        assert cli_main(["score-url", "http://fake-bank-login.com",
                         "--blacklist", str(blacklist)]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["score"] == 100
        assert result["detection_method"] == "Blacklist"


def test_criterion_3_mahalanobis_oracle_and_invariance():
    with criterion(3, "mahalanobis oracle + affine invariance"):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((500, 4)) @ rng.standard_normal((4, 4)) + 3.0
        names = ["a", "b", "c", "d"]
        stats, model = fit_gaussian(X, names, q=0.99)

        reg = model.cov + model.regularization * np.eye(4)
        oracle_inv = gauss_jordan_inverse(reg)
        for x in rng.standard_normal((100, 4)):
            expected = float(x @ oracle_inv @ x)
            assert abs(mahalanobis_score(model, x) - expected) < 1e-8

        assert mahalanobis_score(model, model.mean) == 0.0

        A = np.array([[2.0, 0.3, 0.0, 0.1],
                      [0.0, 1.5, -0.2, 0.0],
                      [0.1, 0.0, 0.9, 0.2],
                      [0.0, 0.4, 0.0, 1.1]])
        stats2, model2 = fit_gaussian(X @ A.T, names, q=0.99)
        probe = rng.standard_normal((100, 4)) * X.std(axis=0) + X.mean(axis=0)
        s1 = mahalanobis_scores(model, stats.normalize(probe))
        s2 = mahalanobis_scores(model2, stats2.normalize(probe @ A.T))
        assert np.max(np.abs(s1 - s2)) < 1e-6


def test_criterion_4_tau_calibration():
    with criterion(4, "tau calibration"):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((10_000, 2))
        stats, model = fit_gaussian(X, ["a", "b"], q=0.99)
        assert abs(model.tau - 9.2103) < 0.05  # chi2 closed form -2 ln(1-q)
        scores = mahalanobis_scores(model, stats.normalize(X))
        assert float((scores > model.tau).mean()) <= 0.011


def test_criterion_5_detection_quality():
    with criterion(5, "detection quality"):
        artifact = train_model(gen_normal_rows(5000, seed=100), q=0.99, seed=0)
        for seed in range(5):
            rows, labels = gen_etd_stream(
                Scenario(seed=seed, n_rows=5000, anomaly_rate=0.02))
            flagged = [score_event(artifact, row).is_anomalous for row in rows]
            tp = sum(1 for f, l in zip(flagged, labels) if f and l)
            fp = sum(1 for f, l in zip(flagged, labels) if f and not l)
            positives = sum(labels)
            negatives = len(labels) - positives
            assert tp / positives >= 0.90
            assert fp / negatives <= 0.02


def test_criterion_6_brute_force_oracle():
    with criterion(6, "brute force oracle equivalence"):
        import random
        rng = random.Random(99)
        cfg = BruteForceConfig(threshold=5, window_secs=120, cooldown_secs=120)
        for _ in range(10):
            t = Timestamp.parse("2025-04-01T00:00:00Z")
            recs = []
            for _ in range(400):
                t = t.add_seconds(rng.uniform(0, 8))
                ip = IpAddress.parse(rng.choice(
                    ["9.9.9.9", "8.8.8.8", "7.7.7.7", "6.6.6.6"]))
                status = "failed" if rng.random() < 0.75 else "accepted"
                recs.append(SshAuthRecord(t, "u", ip, 22, status, False, ""))
            detector = BruteForceDetector(cfg)
            got = [(e.timestamp.isoformat(), str(e.ip), e.failed_attempts)
                   for r in recs if (e := detector.ingest(r))]
            want = window_recount_events(recs, 5, 120, 120)
            assert got == want


def test_criterion_7_throughput():
    with criterion(7, "throughput and latency"):
        ssh = bench("ssh_parse", n=100_000, seed=42)
        assert ssh.throughput_per_sec >= 10_000
        assert ssh.latency_p99_ms < 100

        phish = bench("phish_eval", n=20_000, seed=42)  # 100k-domain blacklist
        assert phish.throughput_per_sec >= 5_000
        assert phish.latency_p99_ms < 100


def test_criterion_8_zero_downtime_swap():
    with criterion(8, "zero-downtime model swap"):
        t = Timestamp.parse("2025-02-01T00:00:00Z")
        old = train_model(gen_normal_rows(400, seed=20), trained_at=t)
        new = train_model(gen_normal_rows(400, seed=21), trained_at=t.add_seconds(60))
        registry = ModelRegistry(old)
        row = gen_normal_rows(1, seed=22)[0]
        versions, errors = [], []
        barrier = threading.Barrier(9)

        def score_many():
            barrier.wait()
            for _ in range(1250):
                try:
                    artifact = registry.get()
                    score_event(artifact, row)
                    versions.append(artifact.version)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        def swapper():
            barrier.wait()
            registry.swap(new)

        threads = [threading.Thread(target=score_many) for _ in range(8)]
        threads.append(threading.Thread(target=swapper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(versions) == 10_000
        assert set(versions) <= {old.version, new.version}


def test_criterion_9_retrain_validation_gate(tmp_path):
    with criterion(9, "retrain validation gate"):
        t0 = Timestamp.parse("2025-06-01T00:00:00Z")
        stationary = gen_normal_rows(3000, seed=30)
        minutes = t0.epoch() + 60.0 * np.arange(len(stationary))
        accepted, report = retrain(minutes, stationary, RetrainConfig(quantile=0.99),
                                   trained_at=t0)
        assert report.accepted and report.holdout_flag_rate <= 0.02
        persist_artifact(accepted, tmp_path)

        normal = gen_normal_rows(2400, seed=31)
        drifted, _ = gen_etd_stream(Scenario(seed=32, n_rows=600, anomaly_rate=0.0,
                                             drift_shift_sigma=6.0))
        rows = normal + drifted[300:]
        minutes = t0.epoch() + 60.0 * np.arange(len(rows))
        rejected, report = retrain(minutes, rows, RetrainConfig(quantile=0.99,
                                                                holdout_fraction=0.1),
                                   trained_at=t0)
        assert not report.accepted
        # a rejected candidate is never persisted, so `current` is unchanged
        assert load_current(tmp_path).version == accepted.version
        assert (tmp_path / "current").read_text() != rejected.version


def test_criterion_10_robustness(tmp_path):
    with criterion(10, "parser fuzz + agent restart"):
        import random
        rng = random.Random(1234)
        stats = ParseStats()
        parsed = 0
        for _ in range(100_000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            if parse_ssh_line(blob.decode("latin-1"), stats=stats) is not None:
                parsed += 1  # pragma: no cover - random bytes never match
        assert parsed + stats.skipped == 100_000

        # fault injection: a monitor crash must not lose already-sunk events
        from test_sinks_agent import _agent_config, _burst_lines, _wait_for
        from sentinel.agent import Agent

        log = tmp_path / "auth.log"
        log.write_text("\n".join(_burst_lines("203.0.113.7")) + "\n")
        agent = Agent(_agent_config(tmp_path, log))
        state = {"raised": False}
        quiet = agent._url_feed_loop

        def flaky():
            if not state["raised"]:
                state["raised"] = True
                raise RuntimeError("injected fault")
            quiet()

        agent._url_feed_loop = flaky
        agent.start()
        sink = tmp_path / "alerts.ndjson"
        assert _wait_for(lambda: sink.exists() and sink.read_text().strip())
        assert _wait_for(lambda: agent._restart_log)
        agent.stop()
        events = [json.loads(l) for l in sink.read_text().splitlines()]
        assert any(e["event_type"] == "BruteForce"
                   and e["ip"] == "203.0.113.7" for e in events)
