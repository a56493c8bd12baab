"""Seeded input generators for the benchmark's workloads.

Everything here is a pure function of the seed: the same seed gives the
same lines, URLs, blacklist and training rows.  Nothing is imported from
the program, so a change to the program's own synthetic data cannot
change a workload.
"""

from __future__ import annotations

import calendar
import random
import string
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

# Log time of the backlog workloads and of the training stream.
YEAR = 2025
BASE_EPOCH = calendar.timegm((YEAR, 3, 1, 0, 0, 0))
MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

# Normal sshd traffic: a fixed pool of internal addresses, at the same
# density (lines per second of log time) in every workload, so that the
# live model's training rows and the scored rows share one distribution.
AUTH_LINES_PER_SEC = 200.0
POOL_SIZE = 1000
NORMAL_FAIL_SHARE = 0.02
USERS = ("alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi")
INVALID_USERS = ("admin", "root", "test", "oracle", "ubuntu", "git", "postgres", "pi")
OUTSIDE_FIRST_OCTETS = (23, 45, 61, 77, 89, 103, 121, 145, 176, 185, 193, 203)

BRANDS = ("google.com", "microsoft.com", "apple.com", "paypal.com")
KEYWORDS = ("login", "verify", "update")
TLDS = ("com", "net", "org", "info", "biz", "io")
PATH_WORDS = ("home", "news", "docs", "blog", "shop", "cart", "about", "help",
              "media", "img", "static", "account", "profile", "search")
SUBDOMAINS = ("www", "mail", "portal", "secure", "app", "cdn")


@dataclass(frozen=True)
class AuthEvent:
    """One sshd authentication line, placed at an offset in log time."""

    offset: float  # seconds from the start of its stream
    ip: str
    user: str
    failed: bool
    invalid: bool
    method: str  # "password" | "publickey"
    port: int
    pid: int

    def line(self, epoch: int) -> str:
        t = time.gmtime(epoch)
        stamp = f"{MONTHS[t.tm_mon - 1]} {t.tm_mday:2d} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d}"
        if self.failed:
            who = f"invalid user {self.user}" if self.invalid else self.user
            body = f"Failed password for {who} from {self.ip} port {self.port} ssh2"
        else:
            body = f"Accepted {self.method} for {self.user} from {self.ip} port {self.port} ssh2"
        return f"{stamp} host1 sshd[{self.pid}]: {body}"


def ip_pool(seed: int) -> List[str]:
    rng = random.Random(f"pool-{seed}")
    pool = set()
    while len(pool) < POOL_SIZE:
        pool.add(f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}")
    return sorted(pool)


def _outside_ip(rng: random.Random) -> str:
    return (f"{rng.choice(OUTSIDE_FIRST_OCTETS)}.{rng.randrange(256)}."
            f"{rng.randrange(256)}.{rng.randrange(1, 255)}")


def auth_events(rng: random.Random, pool: Sequence[str], n: int,
                attack_share: float) -> List[AuthEvent]:
    """``n`` auth events in offset order: normal logins from ``pool`` plus
    brute-force bursts (6-16 failures, 1-4 s apart, closer when the stream
    is shorter) from outside addresses."""
    bursts = []
    attack = 0
    while attack < int(n * attack_share):
        count = rng.randint(6, 16)
        bursts.append((count, rng.uniform(1.0, 4.0), _outside_ip(rng)))
        attack += count
    attack = min(attack, n)
    normal: List[AuthEvent] = []
    at = 0.0
    for _ in range(n - attack):
        at += rng.expovariate(AUTH_LINES_PER_SEC)
        failed = rng.random() < NORMAL_FAIL_SHARE
        normal.append(AuthEvent(
            offset=at, ip=rng.choice(pool), user=rng.choice(USERS), failed=failed,
            invalid=False, method="password" if failed or rng.random() < 0.3 else "publickey",
            port=rng.randrange(1024, 65535), pid=rng.randrange(100, 9999)))
    span = at
    events = normal
    for count, spacing, ip in bursts:
        spacing = min(spacing, span / count)  # every burst lies inside the stream
        start = max(0.0, rng.uniform(0.0, span - count * spacing))
        user = rng.choice(INVALID_USERS)
        pid = rng.randrange(100, 9999)
        for j in range(count):
            events.append(AuthEvent(
                offset=start + j * spacing, ip=ip, user=user, failed=True, invalid=True,
                method="password", port=rng.randrange(1024, 65535), pid=pid))
    events.sort(key=lambda e: e.offset)
    return events


def training_events(seed: int, pool: Sequence[str], seconds: float = 60.0) -> List[AuthEvent]:
    """Normal traffic only, from the same generator, for the initial model."""
    rng = random.Random(f"train-{seed}")
    return auth_events(rng, pool, int(seconds * AUTH_LINES_PER_SEC), attack_share=0.0)


# --- URLs -------------------------------------------------------------------

@dataclass(frozen=True)
class UrlSpec:
    """A URL kept as the parts it was built from, so the reference needs no
    URL parser."""

    scheme: str
    host: str
    path: str
    query: str

    @property
    def url(self) -> str:
        return f"{self.scheme}://{self.host}{self.path}" + (f"?{self.query}" if self.query else "")


def _label(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=rng.randint(lo, hi)))


def blacklist_domains(seed: int, n: int = 100_000) -> List[str]:
    """Two-label registered domains only (see FOUND in CHANGES.md: entries
    with more labels never match)."""
    rng = random.Random(f"blacklist-{seed}")
    out = set()
    while len(out) < n:
        out.add(f"{_label(rng, 6, 12)}.{rng.choice(TLDS)}")
    return sorted(out)


def _mutate(rng: random.Random, label: str) -> str:
    chars = list(label)
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(3)
        pos = rng.randrange(len(chars))
        new = rng.choice(string.ascii_lowercase + "0123456789")
        if op == 0:
            chars[pos] = new
        elif op == 1:
            chars.insert(pos, new)
        elif len(chars) > 3:
            del chars[pos]
    return "".join(chars)


def _path(rng: random.Random, token: str, keyword: bool, encoded: bool) -> str:
    parts = [rng.choice(PATH_WORDS) for _ in range(rng.randint(0, 2))]
    if keyword:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(KEYWORDS))
    if encoded:
        parts.append("q%2F%3D" + "%20" * rng.randint(0, 2))
    parts.append(token)
    return "/" + "/".join(parts)


def url_specs(rng: random.Random, blacklist: Sequence[str], n: int, tag: str,
              phish_share: float) -> List[UrlSpec]:
    """``n`` distinct URLs.  A ``phish_share`` of them is split 3:4:4 into
    blacklisted hosts, brand look-alikes within edit distance 2 and
    keyword phishing; the rest are benign hosts whose registered domain
    is within two characters of a brand's length."""
    blacklisted, lookalike = phish_share * 3 / 11, phish_share * 7 / 11
    out = []
    for i in range(n):
        token = f"{tag}{i:x}"  # makes the URL unique; cannot spell a keyword
        r = rng.random()
        scheme = "http" if rng.random() < 0.5 else "https"
        if r < blacklisted:
            host = rng.choice(blacklist)
            if rng.random() < 0.3:
                host = f"{rng.choice(SUBDOMAINS)}.{host}"
            out.append(UrlSpec(scheme, host, _path(rng, token, rng.random() < 0.3, False), ""))
        elif r < lookalike:
            brand_label, tld = rng.choice(BRANDS).split(".")
            host = f"{_mutate(rng, brand_label)}.{tld}"
            if rng.random() < 0.5:
                host = f"{rng.choice(KEYWORDS)}.{host}"
            out.append(UrlSpec(scheme, host, _path(rng, token, rng.random() < 0.3, False), ""))
        elif r < phish_share:
            words = [rng.choice(KEYWORDS)] + [_label(rng, 3, 7) for _ in range(rng.randint(1, 3))]
            rng.shuffle(words)
            host = "-".join(words) + "." + rng.choice(TLDS)
            if rng.random() < 0.4:
                host = ".".join(_label(rng, 2, 5) for _ in range(rng.randint(1, 4))) + "." + host
            query = "id=%3C%3E" if rng.random() < 0.3 else ""
            out.append(UrlSpec(scheme, host, _path(rng, token, rng.random() < 0.5,
                                                   rng.random() < 0.3), query))
        else:
            brand_len = len(rng.choice(BRANDS))
            label_len = max(2, brand_len - 4 + rng.randint(-2, 2))  # ".com" is 4
            host = "".join(rng.choices(string.ascii_lowercase, k=label_len)) + ".com"
            if rng.random() < 0.5:
                host = "www." + host
            out.append(UrlSpec("https" if rng.random() < 0.9 else "http", host,
                               _path(rng, token, rng.random() < 0.1, False), ""))
    return out


def live_url_specs(seed: int, blacklist: Sequence[str], n: int,
                   phish_share: float) -> List[UrlSpec]:
    return url_specs(random.Random(f"live-urls-{seed}"), blacklist, n, "l", phish_share)


def backlog_url_round(seed: int, blacklist: Sequence[str], k: int, n: int,
                      phish_share: float) -> List[UrlSpec]:
    return url_specs(random.Random(f"url-round-{seed}-{k}"), blacklist, n, f"r{k}x",
                     phish_share)


def backlog_auth_round(seed: int, pool: Sequence[str], k: int, n: int,
                       attack_share: float) -> List[AuthEvent]:
    return auth_events(random.Random(f"auth-round-{seed}-{k}"), pool, n, attack_share)


def live_auth_events(seed: int, pool: Sequence[str], n: int,
                     attack_share: float) -> List[AuthEvent]:
    return auth_events(random.Random(f"live-auth-{seed}"), pool, n, attack_share)


def probe_auth_events() -> List[AuthEvent]:
    """Five failures from a documentation address: enough for one
    BruteForce alert, which shows that the ssh monitor runs."""
    return [AuthEvent(offset=0.0, ip="198.51.100.7", user="probe", failed=True,
                      invalid=True, method="password", port=40000 + j, pid=4242)
            for j in range(5)]


def probe_url(blacklist: Sequence[str], tag: str) -> UrlSpec:
    """A blacklisted URL, which shows that the URL-feed monitor runs."""
    return UrlSpec("http", blacklist[0], f"/probe/{tag}", "")


def feed_line(spec: UrlSpec) -> str:
    return '{"url": "%s"}' % spec.url


def split_ticks(events: Sequence[Tuple[float, object]], tick: float) -> List[List[object]]:
    """Group (offset, item) pairs into consecutive ticks of ``tick`` seconds."""
    if not events:
        return []
    last = int(events[-1][0] // tick)
    out: List[List[object]] = [[] for _ in range(last + 1)]
    for offset, item in events:
        out[int(offset // tick)].append(item)
    return out
