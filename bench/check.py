"""Checks of the daemon's alert stream against the reference.

Each alert is identified by a key that does not involve the checked
fields (see ``reference.alert_key``); the checked fields are then
compared one by one.  No check compares against a stored copy of
earlier output.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from reference import REL_TOL, ArtifactReference, alert_key, iso

ALERT_FIELDS = {
    "BruteForce": ("failed_attempts",),
    "PhishingAlert": ("score", "detection_method"),
    "EmergentThreat": ("detector", "model_version"),
}


def field_errors(alert: dict, want: dict) -> List[str]:
    errors = [f"{name} is {alert.get(name)!r}, reference says {want[name]!r}"
              for name in ALERT_FIELDS.get(want["event_type"], ()) if alert.get(name) != want[name]]
    if want["event_type"] == "EmergentThreat":
        got = alert.get("anomaly_score")
        if not isinstance(got, (int, float)) or not math.isclose(
                got, want["anomaly_score"], rel_tol=REL_TOL):
            errors.append(f"anomaly_score is {got!r}, reference says {want['anomaly_score']!r}")
    return errors


def check_alerts(
    alerts: Iterable[dict],
    expected: Dict[tuple, dict],
    ties: Iterable[tuple] = (),
    judge_unexpected: Optional[Callable[[dict], Optional[str]]] = None,
    wall_window: Optional[Tuple[float, float]] = None,
) -> List[str]:
    """Errors found in ``alerts``; an empty list means the stream is right.

    ``expected`` maps each key the reference requires to its alert.
    Keys in ``ties`` may appear at most once or not at all.  An alert
    the reference did not require is passed to ``judge_unexpected``,
    which returns None to accept it (the live workload's anomaly alerts)
    or the reason to reject it.  ``wall_window`` bounds the timestamps of
    alerts stamped at detection time (phishing).
    """
    ties = set(ties)
    errors: List[str] = []
    counts = Counter()
    for alert in alerts:
        key = alert_key(alert)
        counts[key] += 1
        if counts[key] == 2:
            errors.append(f"duplicate alert {key}")
        if counts[key] > 1:
            continue
        want = expected.get(key)
        if want is not None:
            errors.extend(f"{key}: {e}" for e in field_errors(alert, want))
        elif key in ties:
            continue
        elif judge_unexpected is not None:
            reason = judge_unexpected(alert)
            if reason:
                errors.append(f"{key}: {reason}")
        else:
            errors.append(f"alert the reference does not raise: {key}")
        if wall_window is not None and alert.get("event_type") == "PhishingAlert":
            lo, hi = iso(int(wall_window[0]) - 1), iso(int(wall_window[1]) + 1)
            if not lo <= alert.get("timestamp", "") <= hi:
                errors.append(f"{key}: timestamp {alert.get('timestamp')} outside the run")
    missing = [key for key in expected if key not in counts]
    errors.extend(f"missing alert {key}" for key in missing)
    return errors


def live_anomaly_judge(line_rows: Dict[tuple, tuple], models: Path
                       ) -> Callable[[dict], Optional[str]]:
    """Judge for anomaly alerts whose model is not known in advance: an
    alert is right when it comes from a written line and the model it
    names, as persisted in ``models``, flags that line's features."""
    loaded: Dict[str, ArtifactReference] = {}

    def judge(alert: dict) -> Optional[str]:
        if alert.get("event_type") != "EmergentThreat":
            return "alert the reference does not raise"
        row = line_rows.get(alert_key(alert))
        if row is None:
            return "no written line has this address, time and features"
        version = str(alert.get("model_version"))
        path = models / f"etd_model_{version}.json"
        if not path.is_file():
            return f"model {version} was never persisted"
        if version not in loaded:
            loaded[version] = ArtifactReference(json.loads(path.read_text()))
        verdict, detector, score = loaded[version].verdicts([row])[0]
        if verdict == "tie":
            return None
        if verdict != "flag":
            return f"model {version} scores this row below both thresholds"
        errors = field_errors(alert, {"event_type": "EmergentThreat", "detector": detector,
                                      "model_version": version, "anomaly_score": score})
        return "; ".join(errors) or None

    return judge
