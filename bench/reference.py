"""Reference computations made apart from the program.

The expected alerts are computed here from the documented rules alone:
a brute-force count by full recount of the sliding window, feature rows
by recount of each address's history, URL scores from the parts each URL
was built from (no URL parser), and anomaly scores from an artifact's
stored JSON payload by an array tree walk and a quadratic form.  Nothing
is imported from the program.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from workloads import BRANDS, KEYWORDS, AuthEvent, UrlSpec, feed_line

# Daemon defaults that the documented rules depend on.
BF_THRESHOLD = 5
BF_WINDOW_SECS = 300.0
BF_COOLDOWN_SECS = 300.0  # defaults to the window
PHISH_THRESHOLD = 70
DEFAULT_IFOREST_THRESHOLD = 0.7
FEATURES = ("hour", "ip_numeric", "status", "failed_attempts", "freq", "geo_distance")
# Relative tolerance of anomaly scores: a reported score must agree with
# the reference this closely, and a row this close to a threshold counts
# neither as flagged nor as clean.
REL_TOL = 1e-9


def iso(epoch: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


def ip_numeric(ip: str) -> int:
    a, b, c, d = (int(x) for x in ip.split("."))
    return a * 16777216 + b * 65536 + c * 256 + d


class AuthReference:
    """Brute-force alerts and feature rows for an auth stream, fed in order."""

    def __init__(self, freq_window_secs: float):
        self.freq_window = freq_window_secs
        self._fail_epochs: Dict[str, List[int]] = {}
        self._all_epochs: Dict[str, List[int]] = {}
        self._fail_run: Dict[str, int] = {}
        self._last_alert: Dict[str, int] = {}
        self._last_epoch: Optional[int] = None

    def feed(self, epoch: int, ip: str, failed: bool):
        """Returns (feature tuple, brute-force alert or None)."""
        if self._last_epoch is not None and epoch < self._last_epoch:
            raise ValueError("reference stream must be time-ordered")
        self._last_epoch = epoch
        history = self._all_epochs.setdefault(ip, [])
        history.append(epoch)
        freq = len(history) - bisect.bisect_left(history, epoch - self.freq_window)
        run = self._fail_run.get(ip, 0) + 1 if failed else 0
        self._fail_run[ip] = run
        row = (float(time.gmtime(epoch).tm_hour), float(ip_numeric(ip)),
               0.0 if failed else 1.0, float(run), float(freq), 0.0)
        alert = None
        if failed:
            fails = self._fail_epochs.setdefault(ip, [])
            fails.append(epoch)
            count = len(fails) - bisect.bisect_left(fails, epoch - BF_WINDOW_SECS)
            last = self._last_alert.get(ip)
            if count >= BF_THRESHOLD and (last is None or epoch - last >= BF_COOLDOWN_SECS):
                self._last_alert[ip] = epoch
                alert = {"event_type": "BruteForce", "timestamp": iso(epoch), "ip": ip,
                         "failed_attempts": count}
        return row, alert


def bf_key(ip: str, timestamp: str) -> tuple:
    return ("BruteForce", ip, timestamp)


def et_key(ip: str, timestamp: str, features: Sequence[float]) -> tuple:
    return ("EmergentThreat", ip, timestamp, tuple(features))


def ph_key(url: str) -> tuple:
    return ("PhishingAlert", url)


def alert_key(alert: dict) -> tuple:
    """Identity of an alert, from fields the checks do not compare."""
    kind = alert.get("event_type")
    if kind == "BruteForce":
        return bf_key(alert.get("ip"), alert.get("timestamp"))
    if kind == "PhishingAlert":
        return ph_key(alert.get("url"))
    if kind == "EmergentThreat":
        feats = alert.get("features")
        feats = feats if isinstance(feats, dict) else {}
        return et_key(alert.get("ip"), alert.get("timestamp"),
                      [feats.get(n, math.nan) for n in FEATURES])
    return ("unknown", repr(alert))


# --- phishing ---------------------------------------------------------------

def within_two_edits(a: str, b: str) -> int:
    """Edit distance when it is at most 2, else 3: Ukkonen's banded DP
    with his cut-off once a whole row exceeds the bound."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 2:
        return 3
    prev = [min(j, 3) for j in range(lb + 1)]
    for i in range(1, la + 1):
        cur = [3] * (lb + 1)
        cur[0] = min(i, 3)
        ca = a[i - 1]
        for j in range(max(1, i - 2), min(lb, i + 2) + 1):
            cur[j] = min(prev[j - 1] + (ca != b[j - 1]), prev[j] + 1, cur[j - 1] + 1, 3)
        if min(cur) >= 3:
            return 3
        prev = cur
    return prev[lb]


def count_percent_escapes(text: str) -> int:
    """Non-overlapping ``%XX`` escapes, scanning left to right."""
    hexdigits = set("0123456789abcdefABCDEF")
    count = i = 0
    while i + 2 < len(text):
        if text[i] == "%" and text[i + 1] in hexdigits and text[i + 2] in hexdigits:
            count += 1
            i += 3
        else:
            i += 1
    return count


def phish_score(spec: UrlSpec, blacklist: set) -> Tuple[int, str]:
    """Score and method by the documented rules (README, phishing.py docs)."""
    labels = spec.host.split(".")
    registered = ".".join(labels[-2:]) if len(labels) >= 2 else spec.host
    if registered in blacklist:
        return 100, "Blacklist"
    score = 0
    if any(within_two_edits(registered, brand) in (1, 2) for brand in BRANDS):
        score += 40
    host_hits = sum(1 for kw in KEYWORDS if kw in spec.host)
    if host_hits:
        score += min(30 + 15 * (host_hits - 1), 45)
    if any(kw in spec.path.lower() for kw in KEYWORDS):
        score += 10
    if spec.scheme == "http":
        score += 15
    if registered.split(".")[0].count("-") >= 2:
        score += 25
    if len(labels) - 2 >= 3:
        score += 20
    if count_percent_escapes(spec.path + spec.query) >= 2:
        score += 15
    return min(score, 100), "HeuristicAnalysis"


def phish_alert(spec: UrlSpec, blacklist: set) -> Optional[dict]:
    score, method = phish_score(spec, blacklist)
    if method == "Blacklist" or score >= PHISH_THRESHOLD:
        return {"event_type": "PhishingAlert", "url": spec.url, "score": score,
                "detection_method": method}
    return None


# --- anomaly model ----------------------------------------------------------

def _harmonic(n: int) -> float:
    if n < 4096:
        return math.fsum(1.0 / k for k in range(1, n + 1))
    return math.log(n) + 0.5772156649015329 + 1.0 / (2 * n)


def bst_unsuccessful_search(n: int) -> float:
    """c(n) of Liu, Ting & Zhou (2008): 2 H(n-1) - 2 (n-1) / n."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * _harmonic(n - 1) - 2.0 * (n - 1) / n


class _FlatTree:
    def __init__(self, root: dict):
        feature, value, left, right, leaf = [], [], [], [], []
        stack = [(root, 0, None, None)]
        while stack:
            node, depth, parent, side = stack.pop()
            idx = len(feature)
            if parent is not None:
                (left if side == "l" else right)[parent] = idx
            if "n" in node:
                feature.append(-1)
                value.append(0.0)
                left.append(idx)
                right.append(idx)
                leaf.append(float(depth) + bst_unsuccessful_search(int(node["n"])))
            else:
                feature.append(int(node["f"]))
                value.append(float(node["v"]))
                left.append(-1)
                right.append(-1)
                leaf.append(0.0)
                stack.append((node["r"], depth + 1, idx, "r"))
                stack.append((node["l"], depth + 1, idx, "l"))
        self.feature = np.array(feature)
        self.value = np.array(value)
        self.left = np.array(left)
        self.right = np.array(right)
        self.leaf = np.array(leaf)

    def path_lengths(self, Z: np.ndarray) -> np.ndarray:
        node = np.zeros(Z.shape[0], dtype=np.int64)
        rows = np.arange(Z.shape[0])
        while True:
            feat = self.feature[node]
            inner = feat >= 0
            if not inner.any():
                return self.leaf[node]
            go_left = Z[rows, np.where(inner, feat, 0)] < self.value[node]
            nxt = np.where(go_left, self.left[node], self.right[node])
            node = np.where(inner, nxt, node)


class ArtifactReference:
    """Scores feature rows from an artifact's stored payload."""

    def __init__(self, payload: dict):
        self.version = payload["version"]
        stats = payload["stats"]
        self.columns = [FEATURES.index(n) for n in stats["feature_names"]]
        self.mean = np.array(stats["mean"], dtype=float)
        self.std = np.array(stats["std"], dtype=float)
        g = payload["gaussian"]
        d = int(g["dim"])
        self.cov_inv = np.array(g["cov_inv"], dtype=float).reshape(d, d)
        self.tau = float(g["tau"])
        forest = payload["iforest"]
        self.c_psi = bst_unsuccessful_search(int(forest["subsample"]))
        if not math.isclose(self.c_psi, float(forest["c_psi"]), rel_tol=1e-12):
            raise ValueError("stored c(psi) disagrees with the subsample size")
        self.trees = [_FlatTree(t) for t in forest["trees"]]
        self.iforest_threshold = float(payload.get("iforest_threshold",
                                                   DEFAULT_IFOREST_THRESHOLD))

    def score(self, rows: Sequence[Sequence[float]]) -> Tuple[np.ndarray, np.ndarray]:
        """(Mahalanobis, isolation-forest) score of each row."""
        X = np.array(rows, dtype=float).reshape(-1, len(FEATURES))[:, self.columns]
        Z = (X - self.mean) / self.std
        mahal = ((Z @ self.cov_inv) * Z).sum(axis=1)
        total = np.zeros(Z.shape[0])
        for tree in self.trees:
            total = total + tree.path_lengths(Z)
        forest = 2.0 ** (-(total / len(self.trees)) / self.c_psi)
        return mahal, forest

    def verdicts(self, rows) -> List[Tuple[str, Optional[str], float]]:
        """Per row: ("flag" | "clean" | "tie", detector, anomaly score)."""
        out = []
        mahal, forest = self.score(rows)
        for m, f in zip(mahal.tolist(), forest.tolist()):
            m_tie = abs(m - self.tau) <= REL_TOL * abs(self.tau)
            f_tie = abs(f - self.iforest_threshold) <= REL_TOL * self.iforest_threshold
            if m > self.tau and not m_tie:
                out.append(("flag", "mahalanobis", m))
            elif m_tie:
                out.append(("tie", None, m))
            elif f > self.iforest_threshold and not f_tie:
                out.append(("flag", "isolation_forest", f))
            elif f_tie:
                out.append(("tie", None, f))
            else:
                out.append(("clean", None, 0.0))
        return out


# --- expected alerts of a whole stream --------------------------------------

@dataclass
class Batch:
    """Lines for one input file plus the alerts they must raise."""

    file: str  # "auth" | "urls"
    lines: List[str]
    expected: Dict[tuple, dict] = field(default_factory=dict)
    ties: Set[tuple] = field(default_factory=set)
    raises: List[List[tuple]] = field(default_factory=list)  # per line, keys it may raise


class ExpectedAlerts:
    """The alerts a daemon's inputs must raise, built up batch by batch in
    the order the batches are written."""

    def __init__(self, model: Optional[ArtifactReference], blacklist: set,
                 freq_window_secs: float):
        self.model = model
        self.blacklist = blacklist
        self.auth = AuthReference(freq_window_secs)
        self.expected: Dict[tuple, dict] = {}
        self.ties: Set[tuple] = set()
        self.line_rows: Dict[tuple, tuple] = {}  # anomaly-alert key -> feature row

    def auth_batch(self, pairs: Sequence[Tuple[int, AuthEvent]], with_anomalies: bool) -> Batch:
        """Lines of (epoch, event) pairs.  ``with_anomalies`` also expects
        the anomaly alerts of ``model``; without it they are judged later
        against whichever model the daemon names."""
        batch = Batch("auth", [e.line(epoch) for epoch, e in pairs])
        keyed_rows = []
        for epoch, e in pairs:
            row, alert = self.auth.feed(epoch, e.ip, e.failed)
            key = et_key(e.ip, iso(epoch), row)
            self.line_rows[key] = row
            keyed_rows.append((key, row))
            batch.raises.append([key])
            if alert is not None:
                batch.expected[bf_key(alert["ip"], alert["timestamp"])] = alert
                batch.raises[-1].append(bf_key(alert["ip"], alert["timestamp"]))
        if with_anomalies and keyed_rows:
            verdicts = self.model.verdicts([row for _, row in keyed_rows])
            for (key, _), (verdict, detector, score) in zip(keyed_rows, verdicts):
                if verdict == "flag":
                    batch.expected[key] = {
                        "event_type": "EmergentThreat", "detector": detector,
                        "model_version": self.model.version, "anomaly_score": score}
                elif verdict == "tie":
                    batch.ties.add(key)
        return batch

    def url_batch(self, specs: Sequence[UrlSpec]) -> Batch:
        batch = Batch("urls", [feed_line(s) for s in specs])
        for spec in specs:
            alert = phish_alert(spec, self.blacklist)
            if alert is not None:
                batch.expected[ph_key(spec.url)] = alert
            batch.raises.append([ph_key(spec.url)])
        return batch

    def commit(self, batch: Batch) -> None:
        """Call when the batch is written."""
        self.expected.update(batch.expected)
        self.ties |= batch.ties
