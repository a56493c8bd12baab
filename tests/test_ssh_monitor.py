import json
import os
import random
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import window_recount_events
from sentinel.events import IpAddress, Timestamp
from sentinel.harness import Burst, Scenario, gen_ssh_logs
from sentinel.ssh_monitor import (
    BruteForceConfig,
    BruteForceDetector,
    MAX_PARTIAL_BYTES,
    ParseStats,
    SshAuthRecord,
    TailSource,
    parse_ssh_line,
    scan_batch,
)

FAILED = ("Feb 12 15:23:01 host1 sshd[812]: Failed password for invalid user admin "
          "from 203.0.113.7 port 52344 ssh2")
ACCEPTED = ("Feb 12 15:24:10 host1 sshd[812]: Accepted publickey for alice "
            "from 198.51.100.3 port 40022 ssh2")

# Written by scan_batch of the two-regex parser (commit 20200bc) from
# golden_parse_lines(); the one-pass parser must reproduce it byte for byte.
GOLDEN_PARSE = Path(__file__).parent / "data" / "golden_ssh_parse.json"
PARSE_EDGE_LINES = [
    "Failed password for root from 203.0.113.9 port 22 ssh2",  # no syslog stamp
    "Feb  1 01:00:01 host1 sshd[9]: Failed password for root from 2001:db8::1 port 2222 ssh2",
    "Feb  1 01:00:01 host1 sshd[9]: Failed password for root from 10.0.0.01 port 22 ssh2",
    "Feb  1 01:00:02 host1 sshd[9]: Failed password for root from 10.0.0.256 port 22 ssh2",
    "Feb  1 01:00:02 host1 sshd[9]: Accepted password for alice from 10.0.0.1 port 22 ssh2 \t ",
    "Feb  1 01:00:02 host1 sshd[9]: Failed password for invalid from 203.0.113.9 port 22 ssh2",
    "Feb  1 01:00:03 host1 sshd[9]: pam_unix(sshd:session): session opened for user alice",
] + [
    f"Feb  1 01:00:03 host1 sshd[9]: Failed password for invalid user oracle "
    f"from 203.0.113.9 port {50000 + i} ssh2\n"
    for i in range(5)
]


def golden_parse_lines():
    lines, _ = gen_ssh_logs(Scenario(
        seed=11, duration_hours=1.0, normal_login_rate=240.0,
        attacker_bursts=(Burst("198.51.100.9", 900.0, 12), Burst("203.0.113.50", 2400.0, 6, 3.0))))
    return lines + PARSE_EDGE_LINES


def parse_golden(lines, year=2025):
    """Each record's and event's repr, the skip count and the ParseStats
    of parsing every line."""
    records, events, skipped = scan_batch(lines, year=year)
    stats = ParseStats()
    for line in lines:
        parse_ssh_line(line, year=year, stats=stats)
    return {"records": [repr(r) for r in records], "events": [repr(e) for e in events],
            "skipped": skipped, "stats": repr(stats)}


class TestParse:
    def test_failed_line(self):
        rec = parse_ssh_line(FAILED, year=2025)
        assert rec.status == "failed"
        assert rec.user == "admin"
        assert rec.invalid_user is True
        assert str(rec.ip) == "203.0.113.7"
        assert rec.port == 52344
        assert rec.timestamp == Timestamp.parse("2025-02-12T15:23:01Z")

    def test_accepted_line(self):
        rec = parse_ssh_line(ACCEPTED, year=2025)
        assert rec.status == "accepted"
        assert rec.user == "alice"
        assert str(rec.ip) == "198.51.100.3"
        assert rec.invalid_user is False

    def test_non_auth_line_skipped(self):
        stats = ParseStats()
        line = "Feb 12 15:24:11 host1 sshd[812]: pam_unix(sshd:session): session opened"
        assert parse_ssh_line(line, stats=stats) is None
        assert stats.skipped == 1

    def test_ipv6_line_counted(self):
        stats = ParseStats()
        line = ("Feb 12 15:25:00 host1 sshd[9]: Failed password for root "
                "from 2001:db8::1 port 2222 ssh2")
        assert parse_ssh_line(line, stats=stats) is None
        assert stats.ipv6_skipped == 1

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_never_raises_on_arbitrary_bytes(self, blob):
        parse_ssh_line(blob.decode("latin-1"))

    def test_impossible_stamp_skipped(self):
        stats = ParseStats()
        assert parse_ssh_line(FAILED.replace("Feb 12", "Feb 30"), year=2025, stats=stats) is None
        assert parse_ssh_line(FAILED.replace("Feb 12", "Fub 12"), year=2025, stats=stats) is None
        assert stats == ParseStats(skipped=2)

    def test_matches_golden_of_two_regex_parser(self):
        golden = json.loads(GOLDEN_PARSE.read_text())
        assert golden["lines"] == golden_parse_lines()
        assert parse_golden(golden["lines"]) == golden["expected"]

    def test_clock_read_only_for_unstamped_lines(self):
        calls = []

        def clock():
            calls.append(1)
            return Timestamp.parse("2025-02-12T15:30:00Z")

        unstamped = FAILED.split(": ", 1)[1]
        recs = [parse_ssh_line(line, year=2025, clock=clock)
                for line in (FAILED, unstamped, ACCEPTED, ACCEPTED, unstamped, FAILED)]
        assert len(calls) == 2
        assert [r.timestamp.isoformat() for r in recs] == [
            "2025-02-12T15:23:01Z", "2025-02-12T15:30:00Z", "2025-02-12T15:24:10Z",
            "2025-02-12T15:24:10Z", "2025-02-12T15:30:00Z", "2025-02-12T15:23:01Z"]

    def test_repeated_stamp_takes_each_lines_year(self):
        first = parse_ssh_line(FAILED, year=2024)
        second = parse_ssh_line(FAILED, year=2025)
        assert first.timestamp.isoformat() == "2024-02-12T15:23:01Z"
        assert second.timestamp.isoformat() == "2025-02-12T15:23:01Z"


def _failures(ip, start_iso, count, spacing=1.0, year=2025):
    t0 = Timestamp.parse(start_iso)
    recs = []
    for i in range(count):
        ts = t0.add_seconds(i * spacing)
        recs.append(SshAuthRecord(ts, "root", IpAddress.parse(ip), 22, "failed", False, raw=""))
    return recs


class TestDetector:
    def test_ten_failures_alerts_with_window_count(self):
        cfg = BruteForceConfig(threshold=5)
        det = BruteForceDetector(cfg)
        events = [e for rec in _failures("192.168.1.12", "2025-02-12T15:22:52Z", 10)
                  if (e := det.ingest(rec))]
        assert events  # first alert at the 5th failure
        assert events[0].failed_attempts == 5
        assert str(events[0].ip) == "192.168.1.12"

    def test_below_threshold_silent(self):
        det = BruteForceDetector(BruteForceConfig(threshold=5))
        assert all(det.ingest(r) is None
                   for r in _failures("1.2.3.4", "2025-02-12T00:00:00Z", 4))

    def test_spread_over_two_windows_silent(self):
        # 5 failures spaced so no window of W seconds ever holds 5
        cfg = BruteForceConfig(threshold=5, window_secs=300)
        det = BruteForceDetector(cfg)
        recs = _failures("1.2.3.4", "2025-02-12T00:00:00Z", 5, spacing=150)
        assert all(det.ingest(r) is None for r in recs)
        oracle = window_recount_events(recs, 5, 300, 300)
        assert oracle == []

    def test_accepted_does_not_reset(self):
        from sentinel.events import IpAddress
        cfg = BruteForceConfig(threshold=5)
        det = BruteForceDetector(cfg)
        recs = _failures("1.2.3.4", "2025-02-12T00:00:00Z", 4)
        for r in recs:
            assert det.ingest(r) is None
        ok = SshAuthRecord(recs[-1].timestamp.add_seconds(1), "u",
                           IpAddress.parse("1.2.3.4"), 22, "accepted", False, "")
        assert det.ingest(ok) is None
        fifth = SshAuthRecord(recs[-1].timestamp.add_seconds(2), "u",
                              IpAddress.parse("1.2.3.4"), 22, "failed", False, "")
        event = det.ingest(fifth)
        assert event is not None and event.failed_attempts == 5

    def test_whitelist_suppresses(self):
        cfg = BruteForceConfig(threshold=5, whitelist={"1.2.3.4"})
        det = BruteForceDetector(cfg)
        assert all(det.ingest(r) is None
                   for r in _failures("1.2.3.4", "2025-02-12T00:00:00Z", 50))

    def test_cooldown_dedupe(self):
        cfg = BruteForceConfig(threshold=2, window_secs=300, cooldown_secs=300)
        det = BruteForceDetector(cfg)
        recs = _failures("1.2.3.4", "2025-02-12T00:00:00Z", 20, spacing=1)
        events = [e for r in recs if (e := det.ingest(r))]
        assert len(events) == 1  # all inside one cooldown period

    def test_out_of_order_beyond_tolerance_dropped(self):
        from sentinel.events import IpAddress
        det = BruteForceDetector(BruteForceConfig(threshold=1))
        first = _failures("1.2.3.4", "2025-02-12T00:10:00Z", 1)[0]
        det.ingest(first)
        stale = SshAuthRecord(first.timestamp.add_seconds(-10), "u",
                              IpAddress.parse("1.2.3.4"), 22, "failed", False, "")
        assert det.ingest(stale) is None
        assert det.stats.dropped_out_of_order == 1

    def test_matches_recount_oracle_random(self):
        from sentinel.events import IpAddress
        rng = random.Random(5)
        cfg = BruteForceConfig(threshold=4, window_secs=60, cooldown_secs=60)
        for trial in range(10):
            recs = []
            t = Timestamp.parse("2025-03-01T00:00:00Z")
            for _ in range(300):
                t = t.add_seconds(rng.uniform(0, 10))
                ip = IpAddress.parse(rng.choice(["9.9.9.9", "8.8.8.8", "7.7.7.7"]))
                status = "failed" if rng.random() < 0.7 else "accepted"
                recs.append(SshAuthRecord(t, "u", ip, 22, status, False, ""))
            det = BruteForceDetector(cfg)
            got = [(e.timestamp.isoformat(), str(e.ip), e.failed_attempts)
                   for r in recs if (e := det.ingest(r))]
            want = window_recount_events(recs, 4, 60, 60)
            assert got == want


class TestScanBatch:
    def test_empty(self):
        assert scan_batch([]) == ([], [], 0)

    def test_single_burst_single_event(self):
        lines = [
            f"Feb 12 15:23:{i:02d} host1 sshd[1]: Failed password for root "
            f"from 192.168.1.12 port 5{i:04d} ssh2"
            for i in range(10)
        ]
        records, events, skipped = scan_batch(lines, year=2025)
        assert len(records) == 10 and skipped == 0
        assert len(events) == 1

    def test_equivalent_to_fold(self):
        lines = ["garbage", FAILED, ACCEPTED, FAILED]
        records, events, skipped = scan_batch(lines, year=2025)
        assert len(records) == 3
        assert skipped == 1


class TestTailSource:
    def test_yields_appended_lines(self, tmp_path):
        path = tmp_path / "auth.log"
        path.write_text("one\n")
        src = TailSource(path=str(path))
        assert src.poll() == ["one"]
        with open(path, "a") as fh:
            fh.write("two\nthree\nfour\n")
        assert src.poll() == ["two", "three", "four"]

    def test_truncation_restarts_from_zero(self, tmp_path):
        path = tmp_path / "auth.log"
        path.write_text("aaaa\nbbbb\n")
        src = TailSource(path=str(path))
        src.poll()
        path.write_text("cc\n")  # shorter: rotation
        assert src.poll() == ["cc"]

    def test_missing_path_degrades_health(self, tmp_path):
        src = TailSource(path=str(tmp_path / "nope.log"))
        assert src.poll() == []
        assert src.healthy is False

    def test_partial_line_waits_for_its_end(self, tmp_path):
        path = tmp_path / "auth.log"
        line = ("Feb 12 15:23:01 host1 sshd[812]: Failed password for root "
                "from 203.0.113.9 port 22 ssh2")
        path.write_text(line[:-9])  # "... po", no newline yet
        src = TailSource(path=str(path))
        assert src.poll() == []
        with open(path, "a") as fh:
            fh.write(line[-9:] + "\n")
        lines = src.poll()
        assert lines == [line]
        assert parse_ssh_line(lines[0], year=2025).port == 22

    def test_only_newline_ends_a_line(self, tmp_path):
        path = tmp_path / "feed.log"
        data = "a\x85b\u2028c\x1cd\n".encode()
        path.write_bytes(data[:2])  # "a" and half of the two-byte U+0085
        src = TailSource(path=str(path))
        assert src.poll() == []
        with open(path, "ab") as fh:
            fh.write(data[2:])
        assert src.poll() == ["a\x85b\u2028c\x1cd"]

    def test_unterminated_run_is_capped_and_dropped_to_its_end(self, tmp_path):
        path = tmp_path / "feed.log"
        path.write_bytes(b"")
        src = TailSource(path=str(path))
        piece = b"x" * (MAX_PARTIAL_BYTES // 2)
        long_line = piece + b"y" * 100
        with open(path, "ab") as fh:  # a line under the cap, split across polls
            fh.write(piece)
        assert src.poll() == []
        with open(path, "ab") as fh:
            fh.write(long_line[len(piece):] + b"\n")
        assert src.poll() == [long_line.decode()]
        for _ in range(4):  # a writer that never ends its line
            with open(path, "ab") as fh:
                fh.write(piece)
            assert src.poll() == []
            assert len(src._partial) <= MAX_PARTIAL_BYTES
        assert src.overlong_lines == 1
        with open(path, "ab") as fh:
            fh.write(b"rest of it\nnext\n")
        assert src.poll() == ["next"]
        assert src.overlong_lines == 1

    def test_command_source(self):
        src = TailSource(command="printf 'x\\ny\\n'")
        assert src.poll() == ["x", "y"]

    def test_command_source_rerun_invents_no_failures(self):
        # The same one-line output on five polls is one failed login.
        src = TailSource(command="printf '%s\\n' " + shlex.quote(FAILED))
        det = BruteForceDetector(BruteForceConfig())
        events = []
        for _ in range(5):
            for line in src.poll():
                events.append(det.ingest(parse_ssh_line(line, year=2025)))
        assert len(events) == 1 and events[0] is None

    def test_command_source_yields_only_what_its_output_gained(self, tmp_path):
        out = tmp_path / "out.txt"
        out.write_text("a\nb\n")
        src = TailSource(command="cat " + shlex.quote(str(out)))
        assert src.poll() == ["a", "b"]
        assert src.poll() == []
        out.write_text("a\nb\nc\n")
        assert src.poll() == ["c"]
        out.write_text("a\nb\nc\nd")  # an unterminated last line counts
        assert src.poll() == ["d"]
        out.write_text("a\nb\nc\nde\nf\n")  # "de" was returned as "d"
        assert src.poll() == ["f"]
        out.write_text("x\nb\n")  # not a continuation: all of it is new
        assert src.poll() == ["x", "b"]

    @pytest.mark.parametrize("sep", ["\u2028", "\x85", "\x1c"])
    def test_command_source_line_ends_only_at_newline(self, sep):
        # A username the attacker chooses must not forge a line break.
        text = FAILED + sep + "tail"
        src = TailSource(command="printf '%s\\n' " + shlex.quote(text))
        assert src.poll() == [text]
