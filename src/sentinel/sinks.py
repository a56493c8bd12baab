"""Alert delivery: stdout, append-to-file NDJSON and webhook sinks.

Each event is serialized once and offered to every sink; a failing sink
never blocks the others.  Undeliverable events land in the dead-letter
log with the failure reason.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from .events import SecurityEvent, serialize_event

log = logging.getLogger(__name__)


@dataclass
class SinkConfig:
    kind: str  # "stdout" | "file" | "webhook"
    target: str = ""
    timeout_secs: float = 5.0
    retry: int = 2

    def __post_init__(self):
        if self.kind not in ("stdout", "file", "webhook"):
            raise ValueError(f"unknown sink kind {self.kind!r}")
        if self.kind == "file" and not self.target:
            raise ValueError("a file sink needs a path")
        if self.kind == "webhook" and not self.target.startswith(("http://", "https://")):
            raise ValueError(f"webhook target must be an http(s) URL: {self.target!r}")
        if self.timeout_secs <= 0:
            raise ValueError("timeout_secs must be > 0")
        if self.retry < 0:
            raise ValueError("retry must be >= 0")


@dataclass
class DeliveryResult:
    sink: str
    ok: bool
    retries: int = 0
    error: str = ""


class DeadLetterLog:
    """NDJSON file of events that could not be delivered anywhere."""

    def __init__(self, path):
        self.path = Path(path)
        self.count = 0
        self._lock = threading.Lock()

    def record(self, payload: str, reason: str) -> None:
        with self._lock:
            self.count += 1
            with open(self.path, "a") as fh:
                fh.write('{"reason": %s, "event": %s}\n'
                         % (json.dumps(reason), payload))


class StdoutSink:
    name = "stdout"

    def __init__(self, cfg: Optional[SinkConfig] = None, stream=None):
        self.stream = stream or sys.stdout

    def deliver(self, payload: str) -> DeliveryResult:
        print(payload, file=self.stream, flush=True)
        return DeliveryResult(self.name, ok=True)


class FileSink:
    name = "file"

    def __init__(self, cfg: SinkConfig):
        self.path = Path(cfg.target)
        self._lock = threading.Lock()

    def deliver(self, payload: str) -> DeliveryResult:
        try:
            with self._lock, open(self.path, "a") as fh:
                fh.write(payload + "\n")
            return DeliveryResult(self.name, ok=True)
        except OSError as exc:
            return DeliveryResult(self.name, ok=False, error=str(exc))


class WebhookSink:
    """POSTs the event JSON, retrying on 5xx and transport errors."""

    name = "webhook"

    def __init__(self, cfg: SinkConfig, session=None):
        import requests  # imported here: only a webhook uses it, and it is slow to load

        self.url = cfg.target
        self.timeout = cfg.timeout_secs
        self.retry = cfg.retry
        self.session = session or requests.Session()
        self._transport_error = requests.RequestException

    def deliver(self, payload: str) -> DeliveryResult:
        attempts = self.retry + 1
        last_error = ""
        for attempt in range(attempts):
            try:
                resp = self.session.post(
                    self.url, data=payload,
                    headers={"Content-Type": "application/json"},
                    timeout=self.timeout,
                )
            except self._transport_error as exc:
                last_error = str(exc)
                continue
            if resp.status_code < 500:
                ok = resp.status_code < 400
                return DeliveryResult(self.name, ok=ok, retries=attempt,
                                      error="" if ok else f"HTTP {resp.status_code}")
            last_error = f"HTTP {resp.status_code}"
        return DeliveryResult(self.name, ok=False, retries=attempts - 1, error=last_error)


def build_sink(cfg: SinkConfig):
    if cfg.kind == "stdout":
        return StdoutSink(cfg)
    if cfg.kind == "file":
        return FileSink(cfg)
    return WebhookSink(cfg)


def dispatch_alert(event: SecurityEvent, sinks: Sequence, dead_letter: Optional[DeadLetterLog] = None) -> List[DeliveryResult]:
    """Serialize once, deliver everywhere; dead-letter on total failure."""
    payload = serialize_event(event)
    results = []
    for sink in sinks:
        try:
            result = sink.deliver(payload)
        except Exception as exc:  # a sink bug must not take down dispatch
            result = DeliveryResult(getattr(sink, "name", "?"), ok=False, error=repr(exc))
        if not result.ok:
            log.warning("sink %s failed: %s", result.sink, result.error)
        results.append(result)
    if dead_letter is not None and results and not any(r.ok for r in results):
        dead_letter.record(payload, "; ".join(f"{r.sink}: {r.error}" for r in results))
    return results
