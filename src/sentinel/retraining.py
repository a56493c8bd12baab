"""Rolling-window retraining, validation gating, versioned persistence
and zero-downtime model swap.

A retrain fits on the earliest portion of the window and validates on
the most recent hold-out slice; candidates whose hold-out flag rate
exceeds the acceptance bound are rejected and never become ``current``.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

from .events import Timestamp
from .etd.detector import ModelArtifact, canonical_json, content_hash, score_batch, train_model
from .etd.features import FeatureRow
from .etd.gaussian import TrainingError

log = logging.getLogger(__name__)

TimedRow = Tuple[Timestamp, FeatureRow]


class CorruptArtifactError(RuntimeError):
    pass


class NoModelError(RuntimeError):
    pass


class ScheduleError(ValueError):
    pass


@dataclass
class RetrainConfig:
    window_days: int = 30
    holdout_fraction: float = 0.2
    quantile: float = 0.99
    max_holdout_flag_rate: Optional[float] = None  # None -> 2*(1-q)
    schedule: str = "0 3 * * 1"  # weekly, 03:00 Monday

    def __post_init__(self):
        if self.window_days < 1:
            raise ValueError("window_days must be >= 1")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0,1)")
        if self.max_holdout_flag_rate is None:
            self.max_holdout_flag_rate = 2.0 * (1.0 - self.quantile)
        ScheduleSpec.parse(self.schedule)  # fail fast on a bad spec


@dataclass
class ValidationReport:
    accepted: bool
    holdout_flag_rate: float
    holdout_size: int
    train_size: int
    max_flag_rate: float
    reason: str = ""


def select_window(rows: Sequence[TimedRow], now: Timestamp, window_days: int) -> List[TimedRow]:
    """Rows with timestamp in the closed interval [now - window_days, now]."""
    start = now.add_seconds(-window_days * 86400)
    selected = [(ts, row) for ts, row in rows if start <= ts <= now]
    selected.sort(key=lambda pair: pair[0])
    if not selected:
        raise TrainingError(f"no rows inside the {window_days}-day training window")
    return selected


def retrain(rows: Sequence[TimedRow], cfg: RetrainConfig,
            trained_at: Optional[Timestamp] = None) -> Tuple[ModelArtifact, ValidationReport]:
    """Fit a candidate on the older slice and validate on the recent hold-out."""
    rows = sorted(rows, key=lambda pair: pair[0])
    split = int(round(len(rows) * (1.0 - cfg.holdout_fraction)))
    train_rows = [row for _, row in rows[:split]]
    holdout_rows = [row for _, row in rows[split:]]
    if not holdout_rows:
        raise TrainingError("hold-out slice is empty; not enough rows")

    artifact = train_model(
        train_rows,
        q=cfg.quantile,
        training_window_days=cfg.window_days,
        trained_at=trained_at,
    )
    flagged = sum(1 for result in score_batch(artifact, holdout_rows) if result.is_anomalous)
    rate = flagged / len(holdout_rows)
    accepted = rate <= cfg.max_holdout_flag_rate
    report = ValidationReport(
        accepted=accepted,
        holdout_flag_rate=rate,
        holdout_size=len(holdout_rows),
        train_size=len(train_rows),
        max_flag_rate=cfg.max_holdout_flag_rate,
        reason="" if accepted else
        f"hold-out flag rate {rate:.4f} exceeds bound {cfg.max_holdout_flag_rate:.4f}",
    )
    return artifact, report


def _atomic_write(path: Path, data: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def persist_artifact(artifact: ModelArtifact, directory) -> Path:
    """Write the artifact atomically and point ``current`` at it."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"etd_model_{artifact.version}.json"
    _atomic_write(path, f'{{"version":{json.dumps(artifact.version)},{artifact.body[1:]}')
    _atomic_write(directory / "current", artifact.version)
    return path


def load_artifact(path) -> ModelArtifact:
    """Load an artifact, verifying the version content hash."""
    try:
        data = Path(path).read_bytes()
        payload = json.loads(data)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise CorruptArtifactError(f"cannot read artifact {path}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("version"), str):
        raise CorruptArtifactError(f"artifact {path} is not an object with a version string")
    expected = payload["version"].split("-", 1)[0]
    # persist_artifact writes '{"version":"<v>",' and then the rest of the
    # body the version hashes, so such a file is checked on its own bytes.
    head = b'{"version":%s,' % json.dumps(payload["version"]).encode()
    verified = (data.startswith(head)
                and content_hash(b"{", memoryview(data)[len(head):]) == expected)
    # Neither the file's bytes nor a canonical text is kept: held while the
    # payload is unpacked, the text raised the peak RSS of a daemon that
    # never retrains by 0.37 MB.
    del data
    if not verified:  # another layout: hash the payload re-dumped canonically
        body = {k: v for k, v in payload.items() if k != "version"}
        if content_hash(canonical_json(body)) != expected:
            raise CorruptArtifactError(f"artifact {path} content hash mismatch")
    try:
        return ModelArtifact.from_payload(payload)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise CorruptArtifactError(f"artifact {path} is malformed: {exc!r}") from exc


def load_current(directory) -> ModelArtifact:
    directory = Path(directory)
    pointer = directory / "current"
    if not pointer.exists():
        raise NoModelError(f"no current model in {directory}")
    version = pointer.read_text().strip()
    return load_artifact(directory / f"etd_model_{version}.json")


class ModelRegistry:
    """Atomic holder for the active artifact: one writer, many readers.

    Readers never observe a partial state; a swap replaces the whole
    artifact reference at once.
    """

    def __init__(self, artifact: Optional[ModelArtifact] = None):
        self._artifact = artifact
        self._lock = threading.Lock()

    def get(self) -> ModelArtifact:
        artifact = self._artifact  # single attribute read is atomic
        if artifact is None:
            raise NoModelError("no model loaded")
        return artifact

    def swap(self, candidate: ModelArtifact) -> None:
        with self._lock:
            current = self._artifact
            if current is not None and current.version == candidate.version:
                return  # already active
            self._artifact = candidate


# --- scheduling -----------------------------------------------------------

_CRON_RANGES = ((0, 59), (0, 23), (1, 31), (1, 12), (0, 6))
_LONGEST_MONTH = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_INTERVAL_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400}  # seconds per "every" suffix


@dataclass
class ScheduleSpec:
    """Either a fixed interval in seconds or a 5-field cron expression
    (numbers and ``*`` only)."""

    interval_secs: Optional[float] = None
    cron_fields: Optional[tuple] = None

    @classmethod
    def parse(cls, text: str) -> "ScheduleSpec":
        text = text.strip()
        if text.startswith("every "):
            tail = text[len("every "):].strip()
            scale = _INTERVAL_UNITS.get(tail[-1:])  # None: a bare number of seconds
            try:
                secs = float(tail[:-1]) * scale if scale else float(tail)
            except ValueError:
                raise ScheduleError(f"bad interval spec: {text!r}")
            if secs <= 0:
                raise ScheduleError(f"interval must be positive: {text!r}")
            return cls(interval_secs=secs)
        fields = text.split()
        if len(fields) != 5:
            raise ScheduleError(f"cron spec needs 5 fields: {text!r}")
        parsed = []
        for value, (lo, hi) in zip(fields, _CRON_RANGES):
            if value == "*":
                parsed.append(None)
                continue
            if not value.lstrip("-").isdigit():
                raise ScheduleError(f"bad cron field {value!r} in {text!r}")
            number = int(value)
            if not lo <= number <= hi:
                raise ScheduleError(f"cron field {value!r} out of range [{lo},{hi}]")
            parsed.append(number)
        _, _, dom, month, dow = parsed
        # With a day of week too, cron fires on that weekday instead.
        if dow is None and dom is not None and month is not None and dom > _LONGEST_MONTH[month - 1]:
            raise ScheduleError(f"cron spec never fires, month {month} has no day {dom}: {text!r}")
        return cls(cron_fields=tuple(parsed))

    def next_fire(self, after: Timestamp) -> Timestamp:
        if self.interval_secs is not None:
            return after.add_seconds(self.interval_secs)
        minute, hour, dom, month, dow = self.cron_fields
        # cron day-of-week counts 0=Sunday; datetime.weekday() counts 0=Monday
        weekday = None if dow is None else (dow - 1) % 7

        def day_matches(dt):
            if month is not None and dt.month != month:
                return False
            if dom is None or weekday is None:
                return (dom is None or dt.day == dom) and (weekday is None or dt.weekday() == weekday)
            return dt.day == dom or dt.weekday() == weekday  # cron: both restricted, either fires

        dt = after.instant.replace(second=0) + timedelta(minutes=1)
        horizon = dt + timedelta(days=366 * 4)
        # Skip a day, then an hour, that cannot match: a few thousand steps.
        while dt < horizon:
            if not day_matches(dt):
                dt = dt.replace(hour=0, minute=0) + timedelta(days=1)
            elif hour is not None and dt.hour != hour:
                dt = dt.replace(minute=0) + timedelta(hours=1)
            elif minute is not None and dt.minute != minute:
                dt += timedelta(minutes=1)
            else:
                return Timestamp(dt)
        raise ScheduleError("cron spec never fires")


def schedule_retrain(spec: str, clock, stop=None, sleep=None) -> Iterator[Timestamp]:
    """Yield one trigger per schedule tick.

    ``clock`` returns the current Timestamp; ticks missed while the
    process slept coalesce into a single trigger on wake.
    """
    parsed = ScheduleSpec.parse(spec)
    next_fire = parsed.next_fire(clock())
    while stop is None or not stop():
        now = clock()
        if now >= next_fire:
            yield next_fire
            # Coalesce any further missed ticks.
            next_fire = parsed.next_fire(now)
        elif sleep is not None:
            sleep(min(next_fire.epoch() - now.epoch(), 60.0))
        # With no sleep function the caller's clock must advance (tests).
