"""URL risk scoring: blacklist lookup plus lexical heuristics.

Scoring is stateless; a verdict depends only on the URL, the blacklist,
the brands and keywords, and the fixed weights below.  Scores run 0
(benign) to 100 (certain); a blacklist hit pins the score at 100.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple
from urllib.parse import unquote_to_bytes, urlsplit

from .events import DetectionMethod, PhishingAlert, Timestamp

DEFAULT_BRANDS = ["google.com", "microsoft.com", "apple.com", "paypal.com"]
DEFAULT_KEYWORDS = ["login", "verify", "update"]
DEFAULT_THRESHOLD = 70  # a URL scoring at least this raises an alert

# Points each heuristic adds to a score.
BRAND_SIMILARITY = 40
FIRST_HOST_KEYWORD = 30
EXTRA_HOST_KEYWORD = 15
HOST_KEYWORD_CAP = 45
PATH_KEYWORD = 10
PLAIN_HTTP = 15
MULTI_HYPHEN_DOMAIN = 25
DEEP_SUBDOMAIN = 20
PERCENT_ENCODING = 15

_PCT_RE = re.compile(r"%[0-9A-Fa-f]{2}")
_HOST_RE = re.compile(r"[a-z0-9._\-]+")
_C0_SPACE = "".join(map(chr, range(0x21)))
# A URL of a special scheme other than file (http, https, ws, wss, ftp) as
# a browser splits it (WHATWG URL Standard, section 4.4): any run of "/" and
# "\" after the scheme, then the authority up to the first "/", "\", "?" or
# "#", the path, and the query; the fragment is dropped.  Group 1 holds an
# http(s) scheme; the others are scored as "other".
_SPECIAL_URL_RE = re.compile(r"(?:(https?)|wss?|ftp):[/\\]*([^/\\?#]*)([^?#]*)\??([^#]*)",
                          re.IGNORECASE)
# A last label that is a number makes the host an IPv4 address.
_NUMBER_RE = re.compile(r"[0-9]+|0x[0-9a-f]*")
_IPV4_PART_RE = re.compile(r"0x([0-9a-f]*)|(0[0-7]*)|([1-9][0-9]*)")


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


@dataclass(frozen=True)
class PhishVerdict:
    url: str
    score: int
    method: DetectionMethod
    triggered: Tuple[str, ...]


class Blacklist:
    """Set of known-bad hosts; lookup is case-insensitive.

    Entries are read as a blacklist file holds them: `#` starts a
    comment.  An entry is held in the form `parse_url` gives a host
    (`_ascii_host`, or `_ipv6` for a bracketed one), so "Bücher.de."
    matches the host "xn--bcher-kva.de" and "[2001:DB8:0::1]" the host
    "[2001:db8::1]"; an entry that names no host is dropped.
    """

    def __init__(self, domains: Iterable[str] = ()):
        hosts: Set[str] = set()
        # `_ascii_host` inline for an ASCII name, the common case of 100k.
        for name in map(str.lower, map(str.strip, domains)):
            if "#" in name:
                name = name.split("#", 1)[0].rstrip()
            name = name.removesuffix(".")
            if "[" in name:
                try:
                    name = _ipv6(name)
                except ValueError:
                    continue
            elif not name.isascii():
                try:
                    name = _ascii_host(name)
                except UnicodeError:
                    continue
            hosts.add(name)
        hosts.discard("")
        self._domains = hosts

    @classmethod
    def load(cls, path: str) -> "Blacklist":
        """Load one-domain-per-line UTF-8 text.  The file is streamed line
        by line: read whole, a 100k-domain list left the daemon's peak RSS
        about 1.5 MB higher."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls(fh)

    def __contains__(self, domain: str) -> bool:
        return domain.lower() in self._domains

    def __len__(self) -> int:
        return len(self._domains)


def _ascii_host(name: str) -> str:
    """The host rule shared by URLs and blacklist entries: a non-ASCII
    name in its IDNA (RFC 3490) form, lower case, and one trailing dot
    removed, as the fully qualified "evil.example." names "evil.example".
    Raises UnicodeError when IDNA cannot encode the name."""
    if not name.isascii():
        name = name.encode("idna").decode("ascii")
    name = name.lower()
    return name[:-1] if name.endswith(".") else name


def _ipv6(host: str) -> str:
    """A bracketed IPv6 literal, with any port after it dropped, in its
    compressed form: "[2001:DB8:0::1]:8443" is "[2001:db8::1]".  Raises
    ValueError when the brackets hold no IPv6 address (a zone ID is none)."""
    literal, bracket, port = host[1:].partition("]")
    if host[0] != "[" or not bracket or port[:1] not in ("", ":") or "%" in literal:
        raise ValueError(f"invalid IPv6 host: {host!r}")
    return f"[{ipaddress.IPv6Address(literal).compressed}]"


def _ipv4(host: str) -> str:
    """The WHATWG IPv4 parser: 1-4 parts, each decimal, octal (a leading
    0) or hex (0x), the last filling the bytes left; written as a dotted
    quad, so "0x7f.1" and "2130706433" are both "127.0.0.1"."""
    parts = host.split(".")
    if len(parts) > 4:
        raise InvalidUrlError(f"invalid IPv4 host: {host!r}")
    numbers = []
    for part in parts:
        m = _IPV4_PART_RE.fullmatch(part)
        if m is None:
            raise InvalidUrlError(f"invalid IPv4 host: {host!r}")
        numbers.append(int(m[m.lastindex] or "0", (16, 8, 10)[m.lastindex - 1]))
    *head, address = numbers
    if any(n > 255 for n in head) or address >= 1 << 8 * (4 - len(head)):
        raise InvalidUrlError(f"IPv4 host out of range: {host!r}")
    for i, n in enumerate(head):
        address += n << 8 * (3 - i)
    return ".".join(str(address >> shift & 255) for shift in (24, 16, 8, 0))


def parse_url(text: str) -> UrlParts:
    """Split a URL into the parts the scorer reads.

    An http, https, ws, wss or ftp URL is read as a browser reads it
    (WHATWG URL Standard, sections 3.5 and 4.4): "\\" is "/", the userinfo
    runs to the last "@", the port is dropped, and the host is
    percent-decoded; a bracketed host is an IPv6 address (`_ipv6`).  Other
    schemes go through `urlsplit`.  Either host then follows `_ascii_host`,
    and a host whose last label is a number is an IPv4 address.  An IP
    address has no parent domains.  Raises InvalidUrlError when no host
    can be read.
    """
    # Unicode whitespace as before, then the C0 controls a browser strips.
    url = text.strip().strip(_C0_SPACE)
    if not url:
        raise InvalidUrlError("empty URL")
    if "\t" in url or "\n" in url or "\r" in url:
        url = url.replace("\t", "").replace("\n", "").replace("\r", "")
    m = _SPECIAL_URL_RE.match(url)
    registered = ""  # set here only for an IPv6 host
    try:
        if m is not None:
            scheme, authority, path, query = m.groups()
            scheme = scheme.lower() if scheme else "other"
            path = path.replace("\\", "/")
            host = authority.rpartition("@")[2]
            if host.startswith("["):
                host = registered = _ipv6(host)
            else:
                host = host.partition(":")[0]
                if "%" in host:
                    host = unquote_to_bytes(host).decode("utf-8")
                host = _ascii_host(host)
        else:  # another scheme: the regex matches any of its schemes then ":"
            split = urlsplit(url)
            scheme, path, query = "other", split.path, split.query
            host = _ascii_host(split.hostname or "")
    except ValueError as exc:  # a bad IPv6 literal; UnicodeError
        raise InvalidUrlError(f"unparseable URL ({exc}): {text!r}")
    if not host:
        raise InvalidUrlError(f"no host in URL: {text!r}")
    if registered:
        depth = 0
    elif _NUMBER_RE.fullmatch(host, host.rfind(".") + 1):
        host = _ipv4(host)
        registered, depth = host, 0
    elif not _HOST_RE.fullmatch(host):
        raise InvalidUrlError(f"invalid host in URL: {text!r}")
    else:
        depth = host.count(".") - 1
        if depth > 0:
            registered = host[host.rfind(".", 0, host.rfind(".")) + 1:]
        else:
            registered, depth = host, 0
    pq = path + query
    return UrlParts(
        scheme=scheme,
        host=host,
        registered_domain=registered,
        subdomain_depth=depth,
        path=path,
        query=query,
        percent_encoded_count=len(_PCT_RE.findall(pq)) if "%" in pq else 0,
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


def heuristic_score(parts: UrlParts, brands: Sequence[str],
                    keywords: Sequence[str]) -> Tuple[int, List[str]]:
    """Score a URL by its lexical indicators; `brands` and `keywords`
    are lower case.

    Returns (score, names of triggered heuristics); score is capped
    at 100.
    """
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
            score += BRAND_SIMILARITY
            triggered.append("brand_similarity")
            break

    host_hits = [kw for kw in keywords if kw in parts.host]
    if host_hits:
        kw_score = FIRST_HOST_KEYWORD + EXTRA_HOST_KEYWORD * (len(host_hits) - 1)
        score += min(kw_score, HOST_KEYWORD_CAP)
        triggered.append("host_keyword")

    path = parts.path.lower()
    if any(kw in path for kw in keywords):
        score += PATH_KEYWORD
        triggered.append("path_keyword")

    if parts.scheme == "http":
        score += PLAIN_HTTP
        triggered.append("plain_http")

    leftmost = parts.registered_domain.split(".")[0]
    if leftmost.count("-") >= 2:
        score += MULTI_HYPHEN_DOMAIN
        triggered.append("multi_hyphen_domain")

    if parts.subdomain_depth >= 3:
        score += DEEP_SUBDOMAIN
        triggered.append("deep_subdomain")

    if parts.percent_encoded_count >= 2:
        score += PERCENT_ENCODING
        triggered.append("percent_encoding")

    return min(score, 100), triggered


class UrlEvaluator:
    """Scores URLs against a blacklist, brands, keywords and an alert
    threshold; brands and keywords match in any case."""

    def __init__(
        self,
        blacklist: Optional[Blacklist] = None,
        brands: Sequence[str] = DEFAULT_BRANDS,
        keywords: Sequence[str] = DEFAULT_KEYWORDS,
        threshold: int = DEFAULT_THRESHOLD,
    ):
        self.blacklist = blacklist or Blacklist()
        self.brands = [b.lower() for b in brands]
        self.keywords = [k.lower() for k in keywords]
        self.threshold = threshold

    def evaluate(
        self, url: str, clock: Callable[[], Timestamp] = Timestamp.now,
    ) -> Tuple[PhishVerdict, Optional[PhishingAlert]]:
        """Evaluate one URL; returns the verdict and, if flagged, the alert
        event.  `clock` is read only to stamp an alert.

        Raises InvalidUrlError when no host can be extracted.
        """
        parts = parse_url(url)
        if check_blacklist(parts, self.blacklist):
            verdict = PhishVerdict(url, 100, DetectionMethod.BLACKLIST, ("blacklist",))
            return verdict, PhishingAlert(clock(), url, 100, DetectionMethod.BLACKLIST)
        score, triggered = heuristic_score(parts, self.brands, self.keywords)
        verdict = PhishVerdict(url, score, DetectionMethod.HEURISTIC, tuple(triggered))
        event = None
        if score >= self.threshold:
            event = PhishingAlert(clock(), url, score, DetectionMethod.HEURISTIC)
        return verdict, event
