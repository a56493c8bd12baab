"""Numeric feature rows derived from authentication records.

A row is the six columns the streaming extractor fills: hour,
ip_numeric, status, failed_attempts, freq and geo_distance.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from typing import List, NamedTuple, Optional, Sequence

from ..ssh_monitor import SshAuthRecord
from .geo import GeoTable


class FeatureRow(NamedTuple):
    hour: float
    ip_numeric: float
    status: float  # 1 success, 0 failure
    failed_attempts: float
    freq: float
    geo_distance: float


MANDATORY_FEATURES = FeatureRow._fields


class StreamingFeatureExtractor:
    """Incremental feature extraction over a time-ordered record stream.

    Tracks, per IP, the trailing activity window (for ``freq``) and the
    run of consecutive failures (for ``failed_attempts``).
    """

    def __init__(self, geo: Optional[GeoTable] = None, freq_window_secs: float = 300.0):
        self.geo = geo
        self.freq_window_secs = freq_window_secs
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

        distance = 0.0  # also for an IP the geo table does not place
        if self.geo is not None:
            distance = self.geo.distance_km(str(rec.ip)) or 0.0

        return FeatureRow(
            hour=float(rec.timestamp.hour()),
            ip_numeric=float(key),
            status=0.0 if rec.failed else 1.0,
            failed_attempts=float(run),
            freq=float(len(window)),
            geo_distance=distance,
        )


def load_feature_csv(path: str) -> List[FeatureRow]:
    """Read training rows from a CSV whose header is exactly
    MANDATORY_FEATURES, in order.  Raises ValueError naming a column that
    is missing or unknown, or a row that is not six finite numbers: a NaN
    column has no spread, so training would drop it as constant."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != MANDATORY_FEATURES:
            unknown = [n for n in header if n not in MANDATORY_FEATURES]
            missing = [n for n in MANDATORY_FEATURES if n not in header]
            raise ValueError(f"{path}: header must be {','.join(MANDATORY_FEATURES)}; "
                             f"unknown columns {unknown}, missing columns {missing}")
        rows = []
        for record in filter(None, reader):  # a blank line is no row
            try:
                rows.append(FeatureRow(*map(float, record)))
                if not all(map(math.isfinite, rows[-1])):
                    raise ValueError(f"a cell is not a finite number: {record}")
            except (TypeError, ValueError) as exc:  # TypeError: not six cells
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        return rows


def save_feature_csv(path: str, rows: Sequence[FeatureRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANDATORY_FEATURES)
        writer.writerows(rows)
