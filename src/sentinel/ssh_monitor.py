"""sshd auth-log parsing and sliding-window brute-force detection.

A regex parser pulls timestamp/user/IP/port/status out of OpenSSH log
lines; a per-IP sliding window of failure timestamps raises a BruteForce
event once the count inside the window reaches the configured threshold.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import re
import subprocess
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Set, Tuple

from .events import BruteForce, IpAddress, ParseError, Timestamp

log = logging.getLogger(__name__)

# Optional syslog prefix: "Feb 12 15:23:01 host1 sshd[812]: "
_PREFIX = r"(?:(?P<ts>[A-Z][a-z]{2}\s+\d{1,2}\s+\d{2}:\d{2}:\d{2})\s+\S+\s+sshd\[\d+\]:\s+)?"
_IPV4 = r"(?P<ip>\d{1,3}(?:\.\d{1,3}){3})"

# One pass over the auth grammar; the ``failed`` group gives the status.
_AUTH_RE = re.compile(
    _PREFIX
    + r"(?:(?P<failed>Failed) password for (?P<invalid>invalid user )?"
    + r"|Accepted (?:password|publickey) for )"
    + r"(?P<user>\S+) from "
    + _IPV4
    + r" port (?P<port>\d+) ssh2\s*$"
)
# Loose shape of an auth line whose address is not IPv4 (e.g. IPv6) so we
# can count those skips separately.
_AUTH_SHAPE_RE = re.compile(
    _PREFIX + r"(?:Failed password|Accepted (?:password|publickey)) for .* from (?P<addr>\S+) port \d+ ssh2\s*$"
)

# Tolerated clock skew for out-of-order records.
OUT_OF_ORDER_TOLERANCE_SECS = 5.0
# Longest unterminated last line a TailSource holds between polls.
MAX_PARTIAL_BYTES = 64 * 1024


@dataclass(frozen=True)
class SshAuthRecord:
    """One parsed sshd authentication line."""

    timestamp: Timestamp
    user: str
    ip: IpAddress
    port: int
    status: str  # "failed" | "accepted"
    invalid_user: bool
    raw: str

    @property
    def failed(self) -> bool:
        return self.status == "failed"


@dataclass
class BruteForceConfig:
    threshold: int = 5
    window_secs: float = 300.0
    cooldown_secs: Optional[float] = None  # None -> same as window
    whitelist: Set[str] = field(default_factory=set)

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.window_secs <= 0:
            raise ValueError("window_secs must be > 0")
        if self.cooldown_secs is None:
            self.cooldown_secs = self.window_secs
        if self.cooldown_secs < 0:
            raise ValueError("cooldown_secs must be >= 0")
        for entry in self.whitelist:  # ingest() can match only the canonical form
            if str(IpAddress.parse(entry)) != entry:
                raise ValueError(f"ssh.whitelist entry {entry!r} is not canonical IPv4")


@dataclass
class ParseStats:
    skipped: int = 0
    ipv6_skipped: int = 0
    dropped_out_of_order: int = 0


@functools.lru_cache(maxsize=1)
def _stamp(text: str, year: Optional[int]) -> Tuple[Timestamp, float, int]:
    """Timestamp.parse with the stamp's epoch and hour, cached for one
    stamp: the cache pays while consecutive lines share their stamp (over
    one line per log second)."""
    ts = Timestamp.parse(text, default_year=year)
    return ts, ts.epoch(), ts.hour()


@functools.lru_cache(maxsize=4096)
def _address(text: str) -> Tuple[IpAddress, int]:
    """IpAddress.parse with the numeric form, cached for the addresses of
    recent lines: a parse took about 4 us on a 2-core x86 VM, most of the
    cost of a line's one pass, while a log's active addresses repeat."""
    ip = IpAddress.parse(text)
    return ip, ip.to_numeric()


def auth_match(line: str, year: Optional[int], stats: Optional[ParseStats],
               clock: Optional[Callable[[], Timestamp]]):
    """The one auth grammar: ``(match, (timestamp, epoch, hour), (ip,
    numeric ip))`` for an auth line, or None after counting in ``stats``
    why the line is skipped."""
    m = _AUTH_RE.match(line)
    if m is None:
        if stats:
            stats.ipv6_skipped += _AUTH_SHAPE_RE.match(line) is not None
            stats.skipped += 1
        return None
    stamp_text, ip_text = m.group("ts", "ip")
    if stamp_text:
        try:
            stamp = _stamp(stamp_text, year)
        except ParseError:
            if stats:
                stats.skipped += 1
            return None
    elif clock is not None:
        ts = clock()
        stamp = ts, ts.epoch(), ts.hour()
    else:
        if stats:
            stats.skipped += 1
        return None
    try:
        ip = _address(ip_text)
    except ParseError:
        if stats:
            stats.ipv6_skipped += 1
            stats.skipped += 1
        return None
    return m, stamp, ip


def parse_ssh_line(
    line: str,
    year: Optional[int] = None,
    stats: Optional[ParseStats] = None,
    clock: Optional[Callable[[], Timestamp]] = None,
) -> Optional[SshAuthRecord]:
    """Parse one log line; returns None for lines outside the auth grammar.

    Non-matching lines are never an error.  Lines shaped like auth entries
    but carrying a non-IPv4 address (IPv6) are skipped and counted as
    ``ipv6_skipped``.  Lines without a syslog prefix are stamped ``clock()``
    when a clock is given, otherwise they are skipped, as is a stamp that
    names no real date (``Feb 30``).  A stamp is parsed once while it
    repeats, so with ``year=None`` it keeps the year of its first line.
    """
    fields = auth_match(line, year, stats, clock)
    if fields is None:
        return None
    m, (ts, _, _), (ip, _) = fields
    failed, invalid, user, port = m.group("failed", "invalid", "user", "port")
    return SshAuthRecord(
        timestamp=ts,
        user=user,
        ip=ip,
        port=int(port),
        status="failed" if failed else "accepted",
        invalid_user=invalid is not None,
        raw=line.rstrip("\n"),
    )


class BruteForceDetector:
    """Per-IP sliding-window failure counter with alert cooldown.

    Records must arrive in nondecreasing timestamp order per source; up to
    5 seconds of skew is tolerated, older records are dropped with a
    warning.  Accepted logins do not reset failure counts.
    """

    def __init__(self, cfg: BruteForceConfig):
        self.cfg = cfg
        self._failures: dict = {}  # numeric ip -> deque of epoch floats
        self._last_alert: dict = {}  # numeric ip -> epoch float
        self._max_seen: Optional[float] = None
        self.stats = ParseStats()

    def ingest(self, rec: SshAuthRecord) -> Optional[BruteForce]:
        return self.observe(rec.timestamp, rec.timestamp.epoch(), rec.ip, rec.ip.to_numeric(),
                            rec.failed)

    def observe(self, ts: Timestamp, now: float, ip: IpAddress, key: int,
                failed: bool) -> Optional[BruteForce]:
        """``ingest`` of a record given as its fields: ``now`` is the
        epoch of ``ts``, ``key`` the numeric form of ``ip``."""
        if self._max_seen is not None and now < self._max_seen - OUT_OF_ORDER_TOLERANCE_SECS:
            self.stats.dropped_out_of_order += 1
            log.warning("dropping out-of-order record at %s (watermark %s)", ts, self._max_seen)
            return None
        self._max_seen = max(self._max_seen or now, now)

        if failed:
            window = self._failures.setdefault(key, deque())
            window.append(now)
        else:
            window = self._failures.get(key)
            if window is None:
                return None

        cutoff = now - self.cfg.window_secs
        while window and window[0] < cutoff:
            window.popleft()

        if not failed:
            return None
        if len(window) < self.cfg.threshold:
            return None
        if str(ip) in self.cfg.whitelist:
            return None
        last = self._last_alert.get(key)
        if last is not None and now - last < self.cfg.cooldown_secs:
            return None
        self._last_alert[key] = now
        return BruteForce(timestamp=ts, ip=ip, failed_attempts=len(window))


def scan_batch(
    lines: Iterable[str],
    cfg: Optional[BruteForceConfig] = None,
    year: Optional[int] = None,
) -> Tuple[List[SshAuthRecord], List[BruteForce], int]:
    """Fold parse + ingest over a batch of lines.

    Returns (records, events, skipped_count).
    """
    cfg = cfg or BruteForceConfig()
    detector = BruteForceDetector(cfg)
    records: List[SshAuthRecord] = []
    events: List[BruteForce] = []
    for line in lines:
        rec = parse_ssh_line(line, year=year, stats=detector.stats)
        if rec is None:
            continue
        records.append(rec)
        event = detector.ingest(rec)
        if event is not None:
            events.append(event)
    return records, events, detector.stats.skipped


class TailSource:
    """Poll a log file (or a shell command's stdout) for new lines.

    File sources resume from the stored offset; truncation (rotation)
    restarts from offset 0.  Lines end only at ``\n``: an unterminated
    last line is held back until a later poll completes it, unless it
    grows past ``MAX_PARTIAL_BYTES``; then it is dropped up to its end
    and counted in ``overlong_lines``.  A command is re-run on each
    poll; when its output starts with the output of the last run, byte
    for byte, only the lines after it are new.  A missing source
    degrades health rather than raising.
    """

    def __init__(self, path: Optional[str] = None, command: Optional[str] = None):
        if (path is None) == (command is None):
            raise ValueError("exactly one of path or command is required")
        self.path = path
        self.command = command
        self.healthy = True
        self._offset = 0
        self._partial = b""  # bytes after the last newline read so far
        self._overlong = False  # inside a line being dropped
        self.overlong_lines = 0
        # Length and SHA-256 of the command output already returned.
        self._returned = (0, hashlib.sha256().digest())

    def poll(self) -> List[str]:
        """One polling pass; returns any new complete lines."""
        if self.command is not None:
            return self._poll_command()
        return self._poll_file()

    def _poll_file(self) -> List[str]:
        try:
            with open(self.path, "rb") as fh:
                if os.fstat(fh.fileno()).st_size < self._offset:  # truncated / rotated
                    self._offset, self._partial, self._overlong = 0, b"", False
                fh.seek(self._offset)
                chunk = fh.read()
        except OSError as exc:
            if self.healthy:
                log.warning("log source %s unavailable: %s", self.path, exc)
            self.healthy = False
            return []
        self.healthy = True
        self._offset += len(chunk)
        data = self._partial + chunk
        if self._overlong:  # drop up to the end of the overlong line
            cut = data.find(b"\n") + 1
            data, self._overlong = (data[cut:], False) if cut else (b"", True)
        end = data.rfind(b"\n") + 1
        self._partial = data[end:]
        if len(self._partial) > MAX_PARTIAL_BYTES:
            log.warning("dropping a line of %s longer than %d bytes", self.path, MAX_PARTIAL_BYTES)
            self._partial, self._overlong = b"", True
            self.overlong_lines += 1
        return data[:end].decode("utf-8", errors="replace").split("\n")[:-1]

    def _poll_command(self) -> List[str]:
        try:
            out = subprocess.run(self.command, shell=True, capture_output=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log.warning("log command failed: %s", exc)
            self.healthy = False
            return []
        if out.returncode != 0:
            self.healthy = False
            return []
        self.healthy = True
        data = out.stdout
        n, returned = self._returned
        digest = hashlib.sha256(memoryview(data)[:n])
        if len(data) >= n and digest.digest() == returned:
            new = data[n:]
            if n and data[n - 1] != 0x0A:  # the rest of a line already returned
                cut = new.find(b"\n")
                new = new[cut + 1:] if cut >= 0 else b""
        else:  # not a continuation: all of it is new
            new = data
        digest.update(memoryview(data)[n:])
        self._returned = (len(data), digest.digest())
        # Lines end only at "\n", as in a file (see _poll_file); the
        # output is complete, so an unterminated last line counts.
        lines = new.decode("utf-8", errors="replace").split("\n")
        return lines[:-1] if lines[-1] == "" else lines
