"""Numeric feature rows derived from authentication records.

Six mandatory columns (hour, ip_numeric, status, failed_attempts, freq,
geo_distance) plus two optional externally supplied columns
(repo_event_count, url_risk).  A dataset uses the optional columns for
all rows or for none.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..events import Timestamp
from ..ssh_monitor import SshAuthRecord
from .geo import GeoTable

MANDATORY_FEATURES = ("hour", "ip_numeric", "status", "failed_attempts", "freq", "geo_distance")
OPTIONAL_FEATURES = ("repo_event_count", "url_risk")


@dataclass(frozen=True)
class FeatureRow:
    hour: float
    ip_numeric: float
    status: float  # 1 success, 0 failure
    failed_attempts: float
    freq: float
    geo_distance: float
    repo_event_count: Optional[float] = None
    url_risk: Optional[float] = None

    def feature_names(self):
        names = list(MANDATORY_FEATURES)
        if self.repo_event_count is not None:
            names.append("repo_event_count")
        if self.url_risk is not None:
            names.append("url_risk")
        return names

    def as_dict(self) -> dict:
        d = {name: getattr(self, name) for name in MANDATORY_FEATURES}
        for name in OPTIONAL_FEATURES:
            value = getattr(self, name)
            if value is not None:
                d[name] = value
        return d

    def to_vector(self, names: Sequence[str]) -> List[float]:
        values = []
        for name in names:
            value = getattr(self, name, None)
            if value is None:
                raise KeyError(name)
            values.append(float(value))
        return values

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureRow":
        kwargs = {name: float(d[name]) for name in MANDATORY_FEATURES}
        for name in OPTIONAL_FEATURES:
            if name in d and d[name] not in (None, ""):
                kwargs[name] = float(d[name])
        return cls(**kwargs)


class StreamingFeatureExtractor:
    """Incremental feature extraction over a time-ordered record stream.

    Tracks, per IP, the trailing activity window (for ``freq``) and the
    run of consecutive failures (for ``failed_attempts``).
    """

    def __init__(self, geo: Optional[GeoTable] = None, freq_window_secs: float = 300.0,
                 unknown_geo_distance: float = 0.0):
        self.geo = geo
        self.freq_window_secs = freq_window_secs
        self.unknown_geo_distance = unknown_geo_distance
        self._activity: dict = {}  # numeric ip -> deque of epochs
        self._fail_run: dict = {}  # numeric ip -> consecutive failure count

    def extract(self, rec: SshAuthRecord) -> FeatureRow:
        key = rec.ip.to_numeric()
        now = rec.timestamp.epoch()
        window = self._activity.setdefault(key, deque())
        window.append(now)
        cutoff = now - self.freq_window_secs
        while window and window[0] < cutoff:
            window.popleft()

        if rec.failed:
            run = self._fail_run.get(key, 0) + 1
            self._fail_run[key] = run
        else:
            run = 0
            self._fail_run[key] = 0

        distance = None
        if self.geo is not None:
            distance = self.geo.distance_km(str(rec.ip))
        if distance is None:
            distance = self.unknown_geo_distance

        return FeatureRow(
            hour=float(rec.timestamp.hour()),
            ip_numeric=float(key),
            status=0.0 if rec.failed else 1.0,
            failed_attempts=float(run),
            freq=float(len(window)),
            geo_distance=float(distance),
        )


def extract_features(
    records: Iterable[SshAuthRecord],
    geo: Optional[GeoTable] = None,
    freq_window_secs: float = 300.0,
    unknown_geo_distance: float = 0.0,
) -> List[FeatureRow]:
    """One feature row per record, in input order (records must be time-ordered)."""
    extractor = StreamingFeatureExtractor(geo, freq_window_secs, unknown_geo_distance)
    return [extractor.extract(rec) for rec in records]


def load_feature_csv(path: str) -> List[FeatureRow]:
    """Read training rows from CSV with the standard feature header."""
    rows = []
    with open(path, newline="") as fh:
        for record in csv.DictReader(fh):
            rows.append(FeatureRow.from_dict(record))
    return rows


def save_feature_csv(path: str, rows: Sequence[FeatureRow]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    names = rows[0].feature_names()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow(row.to_vector(names))
