"""Independent reference implementations used to cross-check the
production code paths.  These deliberately use the most direct method
available (full recounts, explicit elimination, naive recursion, per-node
tree walks) and share no code with the package."""

import json
import re
from functools import lru_cache
from urllib.parse import urlsplit

import numpy as np


def window_recount_events(records, threshold, window_secs, cooldown_secs, whitelist=()):
    """Replay brute-force semantics by brute recounting.

    For each failed record, count failures from the same IP inside the
    trailing closed window; emit (timestamp, ip, count) respecting the
    per-IP cooldown.  Records must be time-ordered.
    """
    events = []
    last_alert = {}
    for i, rec in enumerate(records):
        if not rec.failed:
            continue
        ip = str(rec.ip)
        now = rec.timestamp.epoch()
        count = sum(
            1
            for other in records[: i + 1]
            if other.failed
            and str(other.ip) == ip
            and now - window_secs <= other.timestamp.epoch() <= now
        )
        if count < threshold or ip in whitelist:
            continue
        last = last_alert.get(ip)
        if last is not None and now - last < cooldown_secs:
            continue
        last_alert[ip] = now
        events.append((rec.timestamp.isoformat(), ip, count))
    return events


def freq_recount(records, window_secs):
    """Trailing-window activity count per record, by full rescan."""
    out = []
    for i, rec in enumerate(records):
        now = rec.timestamp.epoch()
        count = sum(
            1
            for other in records[: i + 1]
            if str(other.ip) == str(rec.ip)
            and now - window_secs <= other.timestamp.epoch() <= now
        )
        out.append(count)
    return out


def levenshtein_recursive(a, b):
    """Memoized textbook recursion; only for short strings."""

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
            go(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return go(len(a), len(b))


def urlsplit_url_parts(text):
    """The URL fields by RFC 3986, as ``urlsplit`` and ``.hostname`` read
    them: (scheme, host, registered domain, subdomain depth, path, query,
    percent escapes).  Raises ValueError when no host can be read.  A
    browser reads an http(s) URL with a backslash, a percent-encoded or
    non-ASCII host, an "@" or a numeric last label otherwise."""
    text = text.strip()
    if not text:
        raise ValueError("empty URL")
    split = urlsplit(text)
    host = (split.hostname or "").lower()
    if host.endswith("."):
        host = host[:-1]
    if not host or not re.fullmatch(r"[a-z0-9._\-]+", host):
        raise ValueError(f"no valid host in {text!r}")
    scheme = split.scheme.lower()
    labels = host.split(".")
    depth = max(len(labels) - 2, 0)
    escapes = len(re.findall(r"%[0-9A-Fa-f]{2}", split.path + split.query))
    return (scheme if scheme in ("http", "https") else "other", host,
            ".".join(labels[-2:]), depth, split.path, split.query, escapes)


def blacklist_entries(path):
    """A blacklist file's entries, read line by line: the text before any
    ``#``, stripped, lower case, one trailing dot removed."""
    entries = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            name = line.split("#", 1)[0].strip().lower()
            name = name[:-1] if name.endswith(".") else name
            if name:
                entries.add(name)
    return entries


def two_pass_covariance(X):
    """Textbook two-pass sample covariance (ddof=1)."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    mean = X.sum(axis=0) / n
    cov = np.zeros((d, d))
    for row in X:
        diff = row - mean
        cov += np.outer(diff, diff)
    return cov / (n - 1)


def gauss_jordan_inverse(A):
    """Explicit Gauss-Jordan elimination with partial pivoting."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    aug = np.hstack([A.copy(), np.eye(n)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < 1e-300:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def _bst_unsuccessful_search(n):
    """c(n): mean unsuccessful-search path length of a BST on n keys."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = sum(1.0 / k for k in range(1, n))
    return 2.0 * harmonic - 2.0 * (n - 1) / n


def artifact_score_oracle(payload, values):
    """Score one raw feature mapping against a stored artifact payload.

    Standardizes with the stored stats, sums the quadratic form term by
    term, and walks each nested ``{"f","v","l","r"}`` / ``{"n"}`` tree
    node by node.  Returns (mahalanobis, iforest, is_anomalous, detector)
    with the strict thresholds and the Mahalanobis-first trigger.
    """
    stats = payload["stats"]
    z = [(float(values[name]) - mean) / std
         for name, mean, std in zip(stats["feature_names"], stats["mean"], stats["std"])]
    gaussian = payload["gaussian"]
    d, inv = gaussian["dim"], gaussian["cov_inv"]
    mahal = 0.0
    for i in range(d):
        for j in range(d):
            mahal += z[i] * inv[i * d + j] * z[j]

    forest = payload["iforest"]
    total = 0.0
    for node in forest["trees"]:
        depth = 0
        while "n" not in node:
            node = node["l"] if z[node["f"]] < node["v"] else node["r"]
            depth += 1
        total += depth + _bst_unsuccessful_search(node["n"])
    mean_path = total / len(forest["trees"])
    iforest = 2.0 ** (-mean_path / _bst_unsuccessful_search(forest["subsample"]))

    detector = None
    if mahal > gaussian["tau"]:
        detector = "mahalanobis"
    elif iforest > payload["iforest_threshold"]:
        detector = "isolation_forest"
    return mahal, iforest, detector is not None, detector


def iforest_tree_violations(tree, rows, cap):
    """Recount one nested ``{"f","v","l","r"}`` / ``{"n"}`` isolation tree
    against the sample rows it was built from, node by node.

    Sends every row down the tree by hand and returns a list of what is
    wrong (empty if nothing is):
    - a leaf's ``n`` differs from the number of rows that reach it, or
      the leaves' sizes do not sum to the number of rows;
    - a split's feature is constant over the rows that reach it, or its
      value lies outside their range;
    - a leaf above depth ``cap`` holds rows that differ (it could split);
    - a node lies deeper than ``cap``.
    """
    problems, leaf_total = [], 0

    def walk(node, members, depth, path):
        nonlocal leaf_total
        if depth > cap:
            problems.append(f"{path}: depth {depth} > cap {cap}")
        if "n" in node:
            leaf_total += node["n"]
            if node["n"] != len(members):
                problems.append(f"{path}: leaf size {node['n']}, {len(members)} rows reach it")
            if depth < cap and any(row != members[0] for row in members):
                problems.append(f"{path}: leaf at depth {depth} holds rows that differ")
            return
        feature, value = node["f"], node["v"]
        column = [row[feature] for row in members]
        if len(set(column)) < 2:
            problems.append(f"{path}: split on feature {feature}, constant over {len(members)} rows")
        elif not min(column) <= value <= max(column):
            problems.append(f"{path}: threshold {value} outside [{min(column)}, {max(column)}]")
        walk(node["l"], [row for row in members if row[feature] < value], depth + 1, path + "l")
        walk(node["r"], [row for row in members if not row[feature] < value], depth + 1, path + "r")

    walk(tree, [tuple(float(v) for v in row) for row in rows], 0, "root ")
    if leaf_total != len(rows):
        problems.append(f"leaf sizes sum to {leaf_total}, not {len(rows)}")
    return problems


def nested_forest_json(model):
    """An isolation forest's artifact form, built as nested dicts by
    recursing from each root over the model's node table and written by
    ``json.dumps(sort_keys=True, separators=(",", ":"))``."""

    def nest(node):
        left, right = (int(child) for child in model.children[node])
        if left == node:
            return {"n": int(model.size[node])}
        return {"f": int(model.feature[node]), "v": float(model.threshold[node]),
                "l": nest(left), "r": nest(right)}

    forest = {
        "subsample": model.subsample,
        "tree_count": model.tree_count,
        "c_psi": model.c_psi,
        "seed": model.seed,
        "dim": model.dim,
        "trees": [nest(root) for root in range(0, model.feature.size, model.stride)],
    }
    return json.dumps(forest, sort_keys=True, separators=(",", ":"))
