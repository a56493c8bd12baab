"""Shared domain types and the JSON alert schema.

Every detection module emits one of three event variants (BruteForce,
PhishingAlert, EmergentThreat).  Events serialize to a fixed-field-order
JSON object and round-trip losslessly; when streamed they are written as
NDJSON, one event per line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Mapping, Optional, Union

_SYSLOG_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}


class ParseError(ValueError):
    """Raised when textual input cannot be parsed into a domain type."""


@dataclass(frozen=True, order=True)
class Timestamp:
    """UTC wall-clock time with second precision.

    Serializes as ISO-8601 with a trailing ``Z`` and no fractional
    seconds, e.g. ``2025-02-12T15:23:01Z``.
    """

    instant: datetime

    def __post_init__(self):
        dt = self.instant
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        else:
            dt = dt.astimezone(timezone.utc)
        dt = dt.replace(microsecond=0)
        object.__setattr__(self, "instant", dt)

    @classmethod
    def now(cls) -> "Timestamp":
        return cls(datetime.now(timezone.utc))

    @classmethod
    def parse(cls, text: str, default_year: Optional[int] = None) -> "Timestamp":
        """Parse ISO-8601 UTC text or a syslog-style ``Mon DD HH:MM:SS``.

        Syslog timestamps carry no year; ``default_year`` supplies it
        (falling back to the current year).
        """
        text = text.strip()
        try:
            return cls(datetime.fromisoformat(text.replace("Z", "+00:00")))
        except ValueError:
            pass
        parts = text.split()
        if len(parts) == 3 and parts[0] in _SYSLOG_MONTHS:
            try:
                month = _SYSLOG_MONTHS[parts[0]]
                day = int(parts[1])
                hh, mm, ss = (int(p) for p in parts[2].split(":"))
                year = default_year or datetime.now(timezone.utc).year
                return cls(datetime(year, month, day, hh, mm, ss, tzinfo=timezone.utc))
            except ValueError:
                pass
        raise ParseError(f"unparseable timestamp: {text!r}")

    def isoformat(self) -> str:
        return self.instant.strftime("%Y-%m-%dT%H:%M:%SZ")

    def hour(self) -> int:
        return self.instant.hour

    def epoch(self) -> float:
        return self.instant.timestamp()

    def add_seconds(self, secs: float) -> "Timestamp":
        return Timestamp(datetime.fromtimestamp(self.instant.timestamp() + secs, timezone.utc))

    def __str__(self) -> str:
        return self.isoformat()


@dataclass(frozen=True, order=True)
class IpAddress:
    """An IPv4 address; canonical form is dot-decimal without leading zeros."""

    octets: tuple

    def __post_init__(self):
        if len(self.octets) != 4 or not all(
            isinstance(o, int) and 0 <= o <= 255 for o in self.octets
        ):
            raise ParseError(f"invalid IPv4 octets: {self.octets!r}")
        object.__setattr__(self, "octets", tuple(self.octets))

    @classmethod
    def parse(cls, text: str) -> "IpAddress":
        pieces = text.strip().split(".")
        if len(pieces) != 4:
            raise ParseError(f"not an IPv4 address: {text!r}")
        octets = []
        for piece in pieces:
            if not piece.isdigit() or (len(piece) > 1 and piece[0] == "0"):
                raise ParseError(f"bad IPv4 octet {piece!r} in {text!r}")
            value = int(piece)
            if value > 255:
                raise ParseError(f"bad IPv4 octet {piece!r} in {text!r}")
            octets.append(value)
        return cls(tuple(octets))

    @classmethod
    def from_numeric(cls, value: int) -> "IpAddress":
        if not 0 <= value < 2**32:
            raise ParseError(f"IPv4 numeric out of range: {value}")
        return cls(((value >> 24) & 0xFF, (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF))

    def to_numeric(self) -> int:
        a, b, c, d = self.octets
        return (a << 24) | (b << 16) | (c << 8) | d

    def __str__(self) -> str:
        return ".".join(str(o) for o in self.octets)


class DetectionMethod(str, Enum):
    BLACKLIST = "Blacklist"
    HEURISTIC = "HeuristicAnalysis"


@dataclass(frozen=True)
class BruteForce:
    """Excessive failed SSH logins from one IP inside the sliding window."""

    timestamp: Timestamp
    ip: IpAddress
    failed_attempts: int

    event_type = "BruteForce"

    def to_dict(self) -> dict:
        return {
            "timestamp": self.timestamp.isoformat(),
            "event_type": self.event_type,
            "ip": str(self.ip),
            "failed_attempts": self.failed_attempts,
        }


@dataclass(frozen=True)
class PhishingAlert:
    """A URL flagged by the blacklist or by heuristic scoring."""

    timestamp: Timestamp
    url: str
    score: int
    detection_method: DetectionMethod

    event_type = "PhishingAlert"

    def to_dict(self) -> dict:
        return {
            "timestamp": self.timestamp.isoformat(),
            "event_type": self.event_type,
            "url": self.url,
            "score": self.score,
            "detection_method": self.detection_method.value,
        }


@dataclass(frozen=True)
class EmergentThreat:
    """An authentication event whose anomaly score exceeded threshold."""

    timestamp: Timestamp
    ip: IpAddress
    anomaly_score: float
    features: Mapping[str, float]
    detector: str  # "mahalanobis" or "isolation_forest"
    model_version: str

    event_type = "EmergentThreat"

    def to_dict(self) -> dict:
        return {
            "timestamp": self.timestamp.isoformat(),
            "event_type": self.event_type,
            "ip": str(self.ip),
            "anomaly_score": self.anomaly_score,
            "features": dict(self.features),
            "detector": self.detector,
            "model_version": self.model_version,
        }


SecurityEvent = Union[BruteForce, PhishingAlert, EmergentThreat]


def serialize_event(event: SecurityEvent) -> str:
    return json.dumps(event.to_dict())


def deserialize_event(text: str) -> SecurityEvent:
    """Inverse of :func:`serialize_event`; accepts fields in any order."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid event JSON: {exc}") from exc
    if not isinstance(obj, dict) or "event_type" not in obj:
        raise ParseError("event JSON missing event_type")
    kind = obj["event_type"]
    ts = Timestamp.parse(obj["timestamp"])
    if kind == "BruteForce":
        return BruteForce(ts, IpAddress.parse(obj["ip"]), int(obj["failed_attempts"]))
    if kind == "PhishingAlert":
        return PhishingAlert(ts, obj["url"], int(obj["score"]),
                             DetectionMethod(obj["detection_method"]))
    if kind == "EmergentThreat":
        return EmergentThreat(ts, IpAddress.parse(obj["ip"]), float(obj["anomaly_score"]),
                              dict(obj["features"]), obj["detector"], obj["model_version"])
    raise ParseError(f"unknown event_type: {kind!r}")
