"""Self-test of the benchmark's output checkers.

    python3 bench/selftest.py

Builds the reference alerts of a small seeded input, renders them the
way the daemon's file sink writes alerts, and shows that the checker
accepts that stream and rejects it with one alert dropped, duplicated,
invented or carrying a wrong score.  Needs neither the daemon nor the
program's sources.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from check import check_alerts, live_anomaly_judge
from reference import FEATURES, ArtifactReference, ExpectedAlerts, iso


def tiny_payload() -> dict:
    """A hand-made artifact: identity covariance over four standardized
    features and a two-tree forest, in the program's nested tree format."""
    leaf = {"n": 1}
    tree = {"f": 0, "v": 0.0, "l": {"f": 3, "v": 1.0, "l": {"n": 2}, "r": leaf}, "r": leaf}
    names = ["ip_numeric", "status", "failed_attempts", "freq"]
    return {
        "version": "selftest-1",
        "trained_at": "2025-03-01T00:00:00Z",
        "feature_names": names,
        "training_window_days": 30,
        "iforest_threshold": 0.7,
        "stats": {"feature_names": names, "mean": [1.7e8, 0.95, 0.05, 2.0],
                  "std": [5.0e6, 0.2, 0.3, 1.5], "dropped": ["hour", "geo_distance"]},
        "gaussian": {"cov": [1.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0],
                     "cov_inv": [1.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0],
                     "regularization": 0.0, "tau": 30.0, "dim": 4},
        "iforest": {"subsample": 4, "tree_count": 2, "c_psi": 2.1666666666666665, "seed": 0,
                    "dim": 4, "trees": [tree, tree]},
    }


def render(key: tuple, want: dict, now: str) -> dict:
    """The alert as the daemon's file sink writes it."""
    kind = key[0]
    if kind == "BruteForce":
        return {"timestamp": key[2], "event_type": kind, "ip": key[1],
                "failed_attempts": want["failed_attempts"]}
    if kind == "PhishingAlert":
        return {"timestamp": now, "event_type": kind, "url": key[1], "score": want["score"],
                "detection_method": want["detection_method"]}
    return {"timestamp": key[2], "event_type": kind, "ip": key[1],
            "anomaly_score": want["anomaly_score"],
            "features": dict(zip(FEATURES, key[3])),
            "detector": want["detector"], "model_version": want["model_version"]}


def main() -> int:
    payload = tiny_payload()
    model = ArtifactReference(payload)
    blacklist = wl.blacklist_domains(0, n=50)
    ref = ExpectedAlerts(model, set(blacklist), freq_window_secs=10)
    events = wl.auth_events(random.Random(0), wl.ip_pool(0), 400, attack_share=0.2)
    ref.commit(ref.auth_batch([(wl.BASE_EPOCH + int(e.offset), e) for e in events],
                              with_anomalies=True))
    ref.commit(ref.url_batch(wl.url_specs(random.Random(0), blacklist, 300, "t", 0.55)))
    now = time.time()
    stream = [render(k, w, iso(int(now))) for k, w in ref.expected.items()]
    kinds = {a["event_type"] for a in stream}
    if kinds != {"BruteForce", "PhishingAlert", "EmergentThreat"}:
        print(f"FAIL: the test input raises only {sorted(kinds)}")
        return 1
    window = (now, now)

    def errors(alerts):
        return check_alerts(alerts, ref.expected, ref.ties, wall_window=window)

    by_kind = {k: next(i for i, a in enumerate(stream) if a["event_type"] == k) for k in kinds}
    ph, et = by_kind["PhishingAlert"], by_kind["EmergentThreat"]
    clean = next(s for s in wl.url_specs(random.Random(1), blacklist, 50, "u", 0.55)
                 if ("PhishingAlert", s.url) not in ref.expected)
    wrong_ph = dict(stream[ph], score=stream[ph]["score"] - 1)
    wrong_et = dict(stream[et], anomaly_score=stream[et]["anomaly_score"] * 1.001)
    cases = [
        ("faithful stream", stream, None),
        ("one alert dropped", stream[:ph] + stream[ph + 1:], "missing alert"),
        ("one alert duplicated", stream + [stream[et]], "duplicate alert"),
        ("one alert invented", stream + [render(("PhishingAlert", clean.url),
                                                {"score": 85, "detection_method": "HeuristicAnalysis"},
                                                iso(int(now)))],
         "does not raise"),
        ("phishing score wrong", stream[:ph] + [wrong_ph] + stream[ph + 1:], "score is"),
        ("anomaly score wrong", stream[:et] + [wrong_et] + stream[et + 1:], "anomaly_score is"),
        ("stale phishing timestamp",
         stream[:ph] + [dict(stream[ph], timestamp=iso(int(now) - 3600))] + stream[ph + 1:],
         "outside the run"),
    ]
    failures = 0
    for name, alerts, must in cases:
        found = errors(alerts)
        ok = not found if must is None else any(must in e for e in found)
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}: {name}: {len(found)} errors"
              + (f" (first: {found[0]})" if found else ""))

    # The live workload's anomaly alerts are judged against the persisted model.
    with tempfile.TemporaryDirectory() as models:
        (Path(models) / "etd_model_selftest-1.json").write_text(json.dumps(payload))
        judge = live_anomaly_judge(ref.line_rows, Path(models))
        good = stream[et]
        cases = [
            ("live anomaly alert from a persisted model", good, None),
            ("live anomaly alert naming an unknown model",
             dict(good, model_version="never-persisted"), "never persisted"),
            ("live anomaly alert for no written line",
             dict(good, features=dict(good["features"], freq=1e6)), "no written line"),
        ]
        clean_row = next((k for k, r in ref.line_rows.items()
                          if k not in ref.expected and k not in ref.ties), None)
        if clean_row is not None:
            cases.append(("live anomaly alert for a row below both thresholds",
                          render(clean_row, {"anomaly_score": 1.0, "detector": "mahalanobis",
                                             "model_version": "selftest-1"}, ""),
                          "below both thresholds"))
        for name, alert, must in cases:
            reason = judge(alert)
            ok = reason is None if must is None else must in (reason or "")
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'}: {name}: {reason}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
