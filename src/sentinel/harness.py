"""Synthetic data generation, detection-quality metrics and benchmarks.

Generators are pure functions of (scenario, seed): the same inputs
produce byte-identical output.  Ground-truth labels come straight from
the generation process, so precision/recall/F1 can be computed exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .events import IpAddress
from .etd.features import FeatureRow
from .phishing import Blacklist, UrlEvaluator
from .ssh_monitor import parse_ssh_line

BASE_EPOCH = datetime(2025, 2, 1, tzinfo=timezone.utc).timestamp()

# Fixed generating distribution for the six mandatory features.
ETD_BASE_MEAN = np.array([12.0, 2.0e9, 0.8, 0.5, 3.0, 50.0])
ETD_BASE_STD = np.array([4.0, 5.0e8, 0.3, 0.8, 1.5, 20.0])


@dataclass(frozen=True)
class Burst:
    ip: str
    start_secs: float  # offset from scenario start
    count: int
    spacing_secs: float = 1.0


@dataclass
class Scenario:
    seed: int = 42
    duration_hours: float = 1.0
    normal_login_rate: float = 60.0  # events per hour
    attacker_bursts: Tuple[Burst, ...] = ()
    anomaly_rate: float = 0.0
    anomaly_shift_sigma: float = 4.0
    drift_shift_sigma: float = 0.0  # applied to the second half when nonzero
    n_rows: Optional[int] = None  # explicit row count for feature streams


_USERS = ["alice", "bob", "carol", "dave", "erin"]


def _stamp(epoch: float) -> str:
    dt = datetime.fromtimestamp(epoch, timezone.utc)
    return f"{dt.strftime('%b')} {dt.day:2d} {dt.strftime('%H:%M:%S')}"


def gen_ssh_logs(scenario: Scenario) -> Tuple[List[str], List[Burst]]:
    """Generate syslog-format sshd lines plus the injected burst list.

    Normal traffic is mostly-successful logins from a stable pool of
    IPs; each burst contributes `count` failed passwords at fixed
    spacing.  Lines come out time-ordered.
    """
    rng = random.Random(scenario.seed)
    entries: List[Tuple[float, str]] = []
    total = int(scenario.duration_hours * scenario.normal_login_rate)
    pool = [f"10.0.{rng.randrange(256)}.{rng.randrange(1, 255)}" for _ in range(20)]
    horizon = scenario.duration_hours * 3600.0

    for _ in range(total):
        at = BASE_EPOCH + rng.uniform(0, horizon)
        ip = rng.choice(pool)
        user = rng.choice(_USERS)
        port = rng.randrange(1024, 65535)
        if rng.random() < 0.9:
            line = (f"{_stamp(at)} host1 sshd[{rng.randrange(100, 9999)}]: "
                    f"Accepted publickey for {user} from {ip} port {port} ssh2")
        else:
            line = (f"{_stamp(at)} host1 sshd[{rng.randrange(100, 9999)}]: "
                    f"Failed password for {user} from {ip} port {port} ssh2")
        entries.append((at, line))

    for burst in scenario.attacker_bursts:
        for i in range(burst.count):
            at = BASE_EPOCH + burst.start_secs + i * burst.spacing_secs
            port = 40000 + i
            line = (f"{_stamp(at)} host1 sshd[666]: "
                    f"Failed password for invalid user admin from {burst.ip} "
                    f"port {port} ssh2")
            entries.append((at, line))

    entries.sort(key=lambda pair: pair[0])
    return [line for _, line in entries], list(scenario.attacker_bursts)


def gen_urls(scenario: Scenario, n: int = 100) -> Tuple[List[str], List[bool]]:
    """Benign and suspicious URLs with labels (True = should be flagged)."""
    rng = random.Random(scenario.seed)
    urls, labels = [], []
    for _ in range(n):
        if rng.random() < 0.2:
            word = rng.choice(["login", "verify", "update"])
            urls.append(f"http://secure-{word}-portal-{rng.randrange(100)}.com/{word}")
            labels.append(True)
        else:
            urls.append(f"https://site{rng.randrange(10000)}.org/page/{rng.randrange(100)}")
            labels.append(False)
    return urls, labels


def gen_normal_rows(n: int, seed: int) -> List[FeatureRow]:
    """Rows from the fixed normal Gaussian; used to train baselines."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 6)) * ETD_BASE_STD + ETD_BASE_MEAN
    return _rows_from_matrix(X)


def _rows_from_matrix(X: np.ndarray) -> List[FeatureRow]:
    # Keep values inside their domains (ip in [0, 2^32), etc.); status is as drawn.
    low = [0.0, 0.0, -np.inf, 0.0, 0.0, 0.0]
    high = [23.0, 2.0**32 - 1, np.inf, np.inf, np.inf, np.inf]
    return [FeatureRow(*raw) for raw in np.clip(X, low, high).tolist()]


def gen_etd_stream(scenario: Scenario) -> Tuple[List[FeatureRow], List[bool]]:
    """Feature rows with exact anomaly labels.

    Normal rows come from the fixed Gaussian; anomalies are mean-shifted
    by ``anomaly_shift_sigma`` normalized units per coordinate.  An
    optional drift shift moves the second half of the normal rows.
    """
    if not 0.0 <= scenario.anomaly_rate < 1.0:
        raise ValueError("anomaly_rate must be in [0,1)")
    n = scenario.n_rows or int(scenario.duration_hours * scenario.normal_login_rate)
    rng = np.random.default_rng(scenario.seed)
    is_anomaly = rng.random(n) < scenario.anomaly_rate
    X = rng.standard_normal((n, 6))
    X[is_anomaly] += scenario.anomaly_shift_sigma
    if scenario.drift_shift_sigma:
        drift_start = n // 2
        normal_late = ~is_anomaly
        normal_late[:drift_start] = False
        X[normal_late] += scenario.drift_shift_sigma
    X = X * ETD_BASE_STD + ETD_BASE_MEAN
    return _rows_from_matrix(X), [bool(b) for b in is_anomaly]


@dataclass
class EvalReport:
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    precision: Optional[float] = None
    recall: Optional[float] = None
    f1: Optional[float] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


class TimingReport(NamedTuple):
    throughput_per_sec: float
    latency_p50_ms: float
    latency_p99_ms: float


def evaluate(detections: Sequence[bool], labels: Sequence[bool]) -> EvalReport:
    """Confusion counts and precision/recall/F1 by index-aligned matching.

    Undefined metrics (zero denominators) stay absent rather than being
    reported as 0.
    """
    if len(detections) != len(labels):
        raise ValueError(f"length mismatch: {len(detections)} detections, {len(labels)} labels")
    tp = sum(1 for d, l in zip(detections, labels) if d and l)
    fp = sum(1 for d, l in zip(detections, labels) if d and not l)
    fn = sum(1 for d, l in zip(detections, labels) if not d and l)
    report = EvalReport(true_positives=tp, false_positives=fp, false_negatives=fn)
    if tp + fp > 0:
        report.precision = tp / (tp + fp)
    if tp + fn > 0:
        report.recall = tp / (tp + fn)
    if report.precision is not None and report.recall is not None \
            and (report.precision + report.recall) > 0:
        report.f1 = 2 * report.precision * report.recall / (report.precision + report.recall)
    return report


def _time_items(fn, items) -> TimingReport:
    warmup = max(1, len(items) // 10)
    for item in items[:warmup]:
        fn(item)
    latencies = np.empty(len(items))
    start = time.perf_counter()
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        fn(item)
        latencies[i] = time.perf_counter() - t0
    elapsed = time.perf_counter() - start
    return TimingReport(
        throughput_per_sec=len(items) / elapsed,
        latency_p50_ms=float(np.percentile(latencies, 50) * 1e3),
        latency_p99_ms=float(np.percentile(latencies, 99) * 1e3),
    )


def bench(target: str, n: int, seed: int = 42) -> TimingReport:
    """Throughput/latency benchmark for one hot path.

    Targets: ``ssh_parse``, ``phish_eval``, ``etd_score``.
    """
    if target == "ssh_parse":
        scenario = Scenario(seed=seed, duration_hours=1.0, normal_login_rate=n)
        lines, _ = gen_ssh_logs(scenario)
        return _time_items(lambda line: parse_ssh_line(line, year=2025), lines)
    if target == "phish_eval":
        blacklist = Blacklist(f"bad{i}.com" for i in range(100_000))
        evaluator = UrlEvaluator(blacklist=blacklist)
        urls, _ = gen_urls(Scenario(seed=seed), n=n)
        return _time_items(evaluator.evaluate, urls)
    if target == "etd_score":
        from .etd.detector import score_event, train_model
        train = gen_normal_rows(2000, seed)
        artifact = train_model(train, seed=seed)
        rows, _ = gen_etd_stream(Scenario(seed=seed + 1, n_rows=n, anomaly_rate=0.01))
        return _time_items(lambda row: score_event(artifact, row), rows)
    raise ValueError(f"unknown bench target {target!r}")
