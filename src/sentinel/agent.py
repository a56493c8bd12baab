"""The single-agent daemon: concurrent monitors, one dispatch pipeline.

Each monitor runs in its own supervised thread and pushes events onto a
bounded queue; the dispatcher serializes them to the configured sinks
and applies the mitigation policy.  A crashed monitor is restarted with
exponential backoff.
"""

from __future__ import annotations

import json
import logging
import queue
import threading
import time
from collections import deque
from typing import Callable, List, Optional, Tuple

import numpy as np

from .config import AgentConfig
from .events import BruteForce, SecurityEvent, Timestamp, serialize_event
from .etd.detector import detect_batch
from .etd.features import StreamingFeatureExtractor
from .etd.geo import GeoTable
from .mitigation import mitigate
from .phishing import Blacklist, InvalidUrlError, UrlEvaluator
from .etd.gaussian import TrainingError
from .retraining import (
    ModelRegistry,
    NoModelError,
    RowBuffer,
    load_current,
    persist_artifact,
    retrain,
    schedule_retrain,
    select_window,
)
from .sinks import DeadLetterLog, build_sink, dispatch_alert
from .ssh_monitor import BruteForceDetector, TailSource, auth_match

log = logging.getLogger(__name__)

QUEUE_CAPACITY = 10000
SHUTDOWN_GRACE_SECS = 5.0
# Most parsed sshd records scored in one batch.  Scoring a row of a
# 100-tree model cost 20, 13 and 11 us in batches of 16, 64 and 256 on a
# 2-core x86 VM, and no less in larger ones; a larger slice only holds its
# anomaly alerts back for longer.
SCORE_SLICE = 256
# A URL-feed line whose check raises this many times in a row is
# dead-lettered, so that one bad line cannot stall the feed for good.
URL_LINE_ATTEMPTS = 3
# Seconds each monitor waits between polls of its source.
POLL_SECS = 0.2
# Most recent mitigation actions and monitor restarts the agent keeps, so
# that neither record grows with the daemon's uptime.
MITIGATIONS_KEPT = 1000
RESTARTS_KEPT = 100


def scan_slice(
    lines: deque,
    limit: int,
    detector: BruteForceDetector,
    extractor: StreamingFeatureExtractor,
    events: List[BruteForce],
    year: Optional[int] = None,
    clock: Optional[Callable[[], Timestamp]] = None,
) -> Tuple[List[Timestamp], np.ndarray]:
    """Take lines off the front of ``lines`` until ``limit`` auth records
    are read or none is left, in one pass: each record is parsed, windowed
    and featurized as ``parse_ssh_line``, ``BruteForceDetector.ingest`` and
    ``StreamingFeatureExtractor.extract`` do it, with no object per record
    but its timestamp.  Appends each BruteForce event to ``events`` as it
    is raised, so a caller keeps those raised before an exception.
    Returns the records' timestamps and an (n, 7) float64 array of each
    record's epoch and six feature values."""
    stats = detector.stats
    stamps, values = [], []
    while lines and len(stamps) < limit:
        fields = auth_match(lines.popleft(), year, stats, clock)
        if fields is None:
            continue
        m, (ts, now, hour), (ip, key) = fields
        failed = m["failed"] is not None
        event = detector.observe(ts, now, ip, key, failed)
        if event is not None:
            events.append(event)
        stamps.append(ts)
        values.append(now)
        values.extend(extractor.observe(now, hour, ip, key, failed))
    return stamps, np.array(values, dtype=float).reshape(-1, 7)


class _Supervised(threading.Thread):
    """Runs a loop body repeatedly; restarts it after a crash with backoff."""

    def __init__(self, name: str, body: Callable[[], None], stop_event: threading.Event,
                 on_restart: Optional[Callable[[str, BaseException], None]] = None):
        super().__init__(name=name, daemon=True)
        self.body = body
        self.stop_event = stop_event
        self.on_restart = on_restart
        self.restarts = 0

    def run(self):
        backoff = 0.1
        while not self.stop_event.is_set():
            try:
                self.body()
                backoff = 0.1
            except Exception as exc:
                self.restarts += 1
                log.exception("task %s crashed; restarting in %.1fs", self.name, backoff)
                if self.on_restart:
                    self.on_restart(self.name, exc)
                self.stop_event.wait(backoff)
                backoff = min(backoff * 2, 30.0)


class Agent:
    """Wires monitors, the model registry, sinks and mitigation together."""

    ROW_BUFFER_LIMIT = 500_000

    def __init__(self, cfg: AgentConfig, clock=Timestamp.now):
        self.cfg = cfg
        self.clock = clock
        self._rows = RowBuffer(self.ROW_BUFFER_LIMIT)  # (epoch, features) for retraining
        self.stop_event = threading.Event()
        self.queue: "queue.Queue" = queue.Queue(maxsize=QUEUE_CAPACITY)
        self.dead_letter = DeadLetterLog(cfg.dead_letter_path)
        self.overflow_count = 0
        self.sinks = [build_sink(sc) for sc in cfg.sinks]
        self.registry = ModelRegistry()
        self.mitigations: deque = deque(maxlen=MITIGATIONS_KEPT)
        self._threads: List[_Supervised] = []
        self._restart_log: deque = deque(maxlen=RESTARTS_KEPT)

        blacklist = Blacklist()
        if cfg.phishing.blacklist_path:
            blacklist = Blacklist.load(cfg.phishing.blacklist_path)
        self.url_evaluator = UrlEvaluator(
            blacklist=blacklist,
            brands=cfg.phishing.brands,
            keywords=cfg.phishing.keywords,
            threshold=cfg.phishing.threshold,
        )

        # Built once, so that a monitor restarted after a crash resumes where
        # it stopped; the deques hold lines polled but not yet processed.
        self.ssh_source = None
        if cfg.ssh_source_path or cfg.ssh_source_command:
            self.ssh_source = TailSource(cfg.ssh_source_path, cfg.ssh_source_command)
        self.brute_force = BruteForceDetector(cfg.ssh)
        self._ssh_lines: deque = deque()
        self.url_source = TailSource(path=cfg.url_feed) if cfg.url_feed else None
        self._url_lines: deque = deque()
        self._url_head_failures = 0  # consecutive crashes on _url_lines[0]

        geo = None
        if cfg.etd.geo_table_path:
            geo = GeoTable.load(cfg.etd.geo_table_path, centroid=cfg.etd.centroid)
        self.feature_extractor = StreamingFeatureExtractor(
            geo=geo, freq_window_secs=cfg.etd.freq_window_secs)

        try:
            self.registry.swap(load_current(cfg.etd.model_dir))
            log.info("loaded model %s", self.registry.get().version)
        except NoModelError:
            log.warning("no anomaly model available; emergent detection idle")

    # -- event plumbing ----------------------------------------------------

    def emit(self, event: SecurityEvent) -> None:
        while True:
            try:
                self.queue.put_nowait(event)
                return
            except queue.Full:
                try:
                    oldest = self.queue.get_nowait()
                except queue.Empty:
                    continue
                self.overflow_count += 1
                self.dead_letter.record(serialize_event(oldest), "queue overflow")

    def _dispatch_loop(self):
        while not self.stop_event.is_set() or not self.queue.empty():
            try:
                event = self.queue.get(timeout=0.2)
            except queue.Empty:
                if self.stop_event.is_set():
                    return
                continue
            self._handle(event)

    def _handle(self, event: SecurityEvent) -> None:
        dispatch_alert(event, self.sinks, self.dead_letter)
        action = mitigate(event, self.cfg.mitigation)
        if action is not None:
            self.mitigations.append(action.to_dict())

    # -- monitors ----------------------------------------------------------

    def _ssh_loop(self):
        if self.ssh_source is None:
            self.stop_event.wait()
            return
        while not self.stop_event.is_set():
            self._ssh_lines.extend(self.ssh_source.poll())
            self._ingest(self._ssh_lines)
            self.stop_event.wait(POLL_SECS)

    def _ingest(self, lines: deque) -> None:
        """Take every line off ``lines``, in slices of at most SCORE_SLICE
        auth records: emit each slice's BruteForce events, then score it."""
        while lines:
            events: List[BruteForce] = []
            try:
                stamps, block = scan_slice(lines, SCORE_SLICE, self.brute_force,
                                           self.feature_extractor, events, self.cfg.ssh_year,
                                           self.clock)
            finally:  # a slice that raises still alerts on what it windowed
                for event in events:
                    self.emit(event)
            if stamps:
                self._score_slice(stamps, block)

    def _score_slice(self, stamps: List[Timestamp], block: np.ndarray) -> None:
        """Buffer a slice's (epoch, features) rows for retraining and emit an
        EmergentThreat for each row the live model flags."""
        self._rows.extend(block)
        try:
            events = detect_batch(self.registry.get(), block[:, 1:], stamps)
        except NoModelError:
            return
        for event in events:
            self.emit(event)

    def _url_feed_loop(self):
        if self.url_source is None:
            self.stop_event.wait()
            return
        lines = self._url_lines
        while not self.stop_event.is_set():
            lines.extend(self.url_source.poll())
            while lines:
                # A line leaves the queue once checked, so a restart retries it,
                # until it has failed URL_LINE_ATTEMPTS times in a row.
                try:
                    self._check_url(lines[0])
                except Exception as exc:
                    self._url_head_failures += 1
                    if self._url_head_failures < URL_LINE_ATTEMPTS:
                        raise
                    log.exception("dead-lettering a url feed line that failed %d times",
                                  URL_LINE_ATTEMPTS)
                    self.dead_letter.record(json.dumps(lines[0]), type(exc).__name__)
                self._url_head_failures = 0
                lines.popleft()
            self.stop_event.wait(POLL_SECS)

    def _check_url(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            url = json.loads(line)["url"]
        except (json.JSONDecodeError, KeyError, TypeError):
            url = None
        if not isinstance(url, str):
            self.dead_letter.record(json.dumps(line), "malformed url feed line")
            return
        try:
            _, event = self.url_evaluator.evaluate(url, clock=self.clock)
        except InvalidUrlError as exc:
            self.dead_letter.record(json.dumps(line), str(exc))
            return
        if event is not None:
            self.emit(event)

    def _retrain_loop(self):
        triggers = schedule_retrain(
            self.cfg.retrain.schedule,
            clock=self.clock,
            stop=self.stop_event.is_set,
            sleep=lambda secs: self.stop_event.wait(min(secs, 1.0)),
        )
        for fired_at in triggers:
            log.info("retrain trigger at %s", fired_at)
            self.retrain_now(fired_at)

    def retrain_now(self, now: Optional[Timestamp] = None) -> bool:
        """Retrain from buffered feature rows; swap in the candidate if it
        passes validation.  Returns True when a new model went live."""
        now = now or self.clock()
        try:
            epochs, rows = select_window(*self._rows.arrays(), now, self.cfg.retrain.window_days)
            artifact, report = retrain(epochs, rows, self.cfg.retrain, trained_at=now)
        except TrainingError as exc:
            log.warning("retrain aborted: %s", exc)
            return False
        if not report.accepted:
            log.warning("retrain candidate rejected: %s", report.reason)
            return False
        persist_artifact(artifact, self.cfg.etd.model_dir)
        self.registry.swap(artifact)
        log.info("swapped in model %s (holdout flag rate %.4f)",
                 artifact.version, report.holdout_flag_rate)
        return True

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        def note_restart(name, exc):
            self._restart_log.append(f"{name}: {exc!r}")

        specs = [
            ("dispatcher", self._dispatch_loop),
            ("ssh-monitor", self._ssh_loop),
            ("url-feed", self._url_feed_loop),
            ("retrain-scheduler", self._retrain_loop),
        ]
        for name, body in specs:
            thread = _Supervised(name, body, self.stop_event, on_restart=note_restart)
            self._threads.append(thread)
            thread.start()

    def stop(self, timeout: float = SHUTDOWN_GRACE_SECS) -> None:
        """Signal shutdown and drain the queue within the grace period."""
        self.stop_event.set()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        # Flush anything a monitor managed to enqueue after the dispatcher quit.
        while True:
            try:
                event = self.queue.get_nowait()
            except queue.Empty:
                break
            self._handle(event)

    def run_forever(self) -> int:
        self.start()
        try:
            while not self.stop_event.is_set():
                time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        self.stop()
        return 0
