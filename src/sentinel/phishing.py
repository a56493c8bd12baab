"""URL risk scoring: blacklist lookup plus lexical heuristics.

Scoring is stateless; a verdict depends only on the URL, the blacklist
and the configured weights.  Scores run 0 (benign) to 100 (certain);
a blacklist hit pins the score at 100.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple
from urllib.parse import urlsplit

from .events import DetectionMethod, PhishingAlert, Timestamp

DEFAULT_BRANDS = ["google.com", "microsoft.com", "apple.com", "paypal.com"]
DEFAULT_KEYWORDS = ["login", "verify", "update"]

_PCT_RE = re.compile(r"%[0-9A-Fa-f]{2}")
_HOST_RE = re.compile(r"[a-z0-9._\-]+")


class InvalidUrlError(ValueError):
    pass


@dataclass(frozen=True)
class UrlParts:
    scheme: str  # "http" | "https" | "other"
    host: str
    registered_domain: str
    subdomain_depth: int
    path: str
    query: str
    percent_encoded_count: int


@dataclass
class HeuristicWeights:
    brand_similarity: int = 40
    first_host_keyword: int = 30
    extra_host_keyword: int = 15
    host_keyword_cap: int = 45
    path_keyword: int = 10
    plain_http: int = 15
    multi_hyphen_domain: int = 25
    deep_subdomain: int = 20
    percent_encoding: int = 15
    flag_threshold: int = 70

    def __post_init__(self):
        if not 1 <= self.flag_threshold <= 100:  # a score runs 0-100
            raise ValueError("flag_threshold must be in 1..100")


@dataclass(frozen=True)
class PhishVerdict:
    url: str
    score: int
    method: DetectionMethod
    triggered: Tuple[str, ...]


class Blacklist:
    """Set of known-bad domains; lookup is case-insensitive."""

    def __init__(self, domains: Iterable[str] = ()):
        # As in parse_url, the fully qualified "evil.example." is "evil.example".
        names = (d.strip().lower().removesuffix(".") for d in domains)
        self._domains: Set[str] = {name for name in names if name}

    @classmethod
    def load(cls, path: str) -> "Blacklist":
        """Load one-domain-per-line UTF-8 text; `#` starts a comment."""
        domains = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    domains.append(line)
        return cls(domains)

    def __contains__(self, domain: str) -> bool:
        return domain.lower() in self._domains

    def __len__(self) -> int:
        return len(self._domains)


def parse_url(text: str) -> UrlParts:
    if not text or not text.strip():
        raise InvalidUrlError("empty URL")
    text = text.strip()
    try:
        split = urlsplit(text)
        host = (split.hostname or "").lower()
    except ValueError as exc:  # e.g. an unclosed IPv6 bracket
        raise InvalidUrlError(f"unparseable URL ({exc}): {text!r}")
    # The fully qualified form names the same host: "evil.example." is "evil.example".
    if host.endswith("."):
        host = host[:-1]
    if not host:
        raise InvalidUrlError(f"no host in URL: {text!r}")
    if not _HOST_RE.fullmatch(host):
        raise InvalidUrlError(f"invalid host in URL: {text!r}")
    scheme = split.scheme.lower()
    if scheme not in ("http", "https"):
        scheme = "other"
    labels = host.split(".")
    if len(labels) >= 2:
        registered = ".".join(labels[-2:])
        depth = len(labels) - 2
    else:
        registered = host
        depth = 0
    pq = split.path + split.query
    return UrlParts(
        scheme=scheme,
        host=host,
        registered_domain=registered,
        subdomain_depth=depth,
        path=split.path,
        query=split.query,
        percent_encoded_count=len(_PCT_RE.findall(pq)),
    )


def levenshtein(a: str, b: str, limit: int) -> int:
    """Edit distance with unit insert/delete/substitute costs when it is at
    most `limit`, else `limit + 1`.

    Ukkonen's banded DP (Inf. & Control 1985): after the common prefix and
    suffix are stripped, only cells within `limit` of the diagonal are
    filled, and the scan stops once a whole row exceeds `limit`.  A
    `limit` of at least max(len(a), len(b)) gives the exact distance.
    """
    if a == b:
        return 0
    over = limit + 1
    if len(a) > len(b):
        a, b = b, a
    if len(b) - len(a) > limit:
        return over
    start, end = 0, len(a)
    while start < end and a[start] == b[start]:
        start += 1
    gap = len(b) - end
    while end > start and a[end - 1] == b[end - 1 + gap]:
        end -= 1
    a, b = a[start:end], b[start:end + gap]
    la, lb = len(a), len(b)
    if not la:
        return lb  # the gap, already known to be at most `limit`
    prev = [j if j <= limit else over for j in range(lb + 1)]
    for i in range(1, la + 1):
        ca = a[i - 1]
        lo = i - limit if i > limit else 1
        hi = i + limit if i + limit < lb else lb
        cur = [over] * (lb + 1)
        if lo == 1:
            cur[0] = i
        left = best = cur[lo - 1]
        for j in range(lo, hi + 1):
            cost = prev[j - 1] + (ca != b[j - 1])  # substitute or match
            if prev[j] + 1 < cost:  # delete
                cost = prev[j] + 1
            if left + 1 < cost:  # insert
                cost = left + 1
            cur[j] = left = cost
            if cost < best:
                best = cost
        if best > limit:
            return over
        prev = cur
    return min(prev[lb], over)


def check_blacklist(parts: UrlParts, blacklist: Blacklist) -> bool:
    """True when the host or one of its parent domains, down to the
    registered domain, is listed."""
    name = parts.host
    for _ in range(parts.subdomain_depth):
        if name in blacklist:
            return True
        name = name[name.index(".") + 1:]
    return name in blacklist


def heuristic_score(
    parts: UrlParts,
    weights: Optional[HeuristicWeights] = None,
    brands: Optional[Sequence[str]] = None,
    keywords: Optional[Sequence[str]] = None,
) -> Tuple[int, List[str]]:
    """Score a URL by its lexical indicators; `brands` and `keywords`
    are lower case.

    Returns (score, names of triggered heuristics); score is capped
    at 100.
    """
    w = weights or HeuristicWeights()
    brands = DEFAULT_BRANDS if brands is None else brands
    keywords = DEFAULT_KEYWORDS if keywords is None else keywords
    score = 0
    triggered: List[str] = []

    registered = parts.registered_domain
    for brand in brands:
        # Length gap bounds the edit distance from below; skip the DP.
        if abs(len(registered) - len(brand)) > 2:
            continue
        # Partition filter (Wu & Manber, CACM 1992): two edits change at
        # most two of three disjoint pieces of the brand, so a domain within
        # two edits holds the third unchanged.  The cuts fall in the label,
        # so the TLD stays on the last piece; an empty piece always matches.
        n = brand.rfind(".")
        if n < 0:
            n = len(brand)
        a, b = n // 3, 2 * n // 3
        if not (brand[:a] in registered or brand[a:b] in registered
                or brand[b:] in registered):
            continue
        if 1 <= levenshtein(registered, brand, 2) <= 2:
            score += w.brand_similarity
            triggered.append("brand_similarity")
            break

    host_hits = [kw for kw in keywords if kw in parts.host]
    if host_hits:
        kw_score = w.first_host_keyword + w.extra_host_keyword * (len(host_hits) - 1)
        score += min(kw_score, w.host_keyword_cap)
        triggered.append("host_keyword")

    path = parts.path.lower()
    if any(kw in path for kw in keywords):
        score += w.path_keyword
        triggered.append("path_keyword")

    if parts.scheme == "http":
        score += w.plain_http
        triggered.append("plain_http")

    leftmost = parts.registered_domain.split(".")[0]
    if leftmost.count("-") >= 2:
        score += w.multi_hyphen_domain
        triggered.append("multi_hyphen_domain")

    if parts.subdomain_depth >= 3:
        score += w.deep_subdomain
        triggered.append("deep_subdomain")

    if parts.percent_encoded_count >= 2:
        score += w.percent_encoding
        triggered.append("percent_encoding")

    return min(score, 100), triggered


def evaluate_url(
    url: str,
    blacklist: Optional[Blacklist] = None,
    weights: Optional[HeuristicWeights] = None,
    brands: Optional[Sequence[str]] = None,
    keywords: Optional[Sequence[str]] = None,
    clock: Callable[[], Timestamp] = Timestamp.now,
) -> Tuple[PhishVerdict, Optional[PhishingAlert]]:
    """Evaluate one URL; returns the verdict and, if flagged, the alert event.
    `brands` and `keywords` are lower case; `clock` is read only to stamp
    an alert.

    Raises InvalidUrlError when no host can be extracted.
    """
    w = weights or HeuristicWeights()
    parts = parse_url(url)
    if blacklist is not None and check_blacklist(parts, blacklist):
        verdict = PhishVerdict(url, 100, DetectionMethod.BLACKLIST, ("blacklist",))
        return verdict, PhishingAlert(clock(), url, 100, DetectionMethod.BLACKLIST)
    score, triggered = heuristic_score(parts, w, brands, keywords)
    verdict = PhishVerdict(url, score, DetectionMethod.HEURISTIC, tuple(triggered))
    event = None
    if score >= w.flag_threshold:
        event = PhishingAlert(clock(), url, score, DetectionMethod.HEURISTIC)
    return verdict, event


class UrlEvaluator:
    """Convenience wrapper bundling the blacklist and heuristic config."""

    def __init__(
        self,
        blacklist: Optional[Blacklist] = None,
        weights: Optional[HeuristicWeights] = None,
        brands: Optional[Sequence[str]] = None,
        keywords: Optional[Sequence[str]] = None,
    ):
        self.blacklist = blacklist or Blacklist()
        self.weights = weights or HeuristicWeights()
        self.brands = [b.lower() for b in (DEFAULT_BRANDS if brands is None else brands)]
        self.keywords = [k.lower() for k in (DEFAULT_KEYWORDS if keywords is None else keywords)]

    def evaluate(self, url: str, clock: Callable[[], Timestamp] = Timestamp.now):
        return evaluate_url(url, self.blacklist, self.weights,
                            self.brands, self.keywords, clock=clock)
