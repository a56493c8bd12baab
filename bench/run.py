"""Benchmark of the whole sentinel daemon, run as its own process.

    python3 bench/run.py --workload auth_backlog --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import workloads as wl
from check import check_alerts, live_anomaly_judge
from daemon import Appender, Daemon, SinkWatcher, daemon_env
from reference import (
    FEATURES,
    ArtifactReference,
    AuthReference,
    Batch,
    ExpectedAlerts,
    alert_key,
)

WORKLOADS = ("auth_backlog", "url_backlog", "live_retrain")
SETUP_TRIALS = 7          # set-ups per run; setup_s is their median
MIN_ALERTS = 1000         # timed alerts per run, so that at least ten lie beyond p99
MIN_ROUNDS = 2            # backlog rounds per run, however short --seconds is
MAX_ROUNDS = 20
AUTH_ROUND_LINES = 15000
URL_ROUND_LINES = 15000
# Close to the least shares with which the shortest run still times
# MIN_ALERTS alerts (README, "Why these shares").  On the auth log, normal
# traffic alone flags about 2% of its rows (the 0.98 quantile).
ATTACK_SHARE = 0.02
BACKLOG_PHISH_SHARE = 0.06
LIVE_PHISH_SHARE = 0.25
# At the default 0.99 the retrain gate's bound, 2(1-q), is about the
# hold-out flag rate of stationary traffic and most candidates are
# rejected (see CHANGES.md); at 0.98 the live workload swaps models.
QUANTILE = 0.98
LIVE_URLS_PER_SEC = 300.0
LIVE_MIN_SECS = 20.0      # enough for MIN_ALERTS, however short --seconds is
LIVE_TICK_SECS = 0.02     # the open-loop writer appends every 20 ms
LIVE_QUIET_SECS = 0.6
FREQ_WINDOW_SECS = 10     # short, so the freq feature is stationary within a run
LIVE_RETRAIN = "every 3s"
TRAIN_EPOCH = wl.BASE_EPOCH - 7200
WAIT_SECS = 60.0
RUN_DEADLINE_SECS = 160.0

perf = time.perf_counter


class BenchError(RuntimeError):
    pass


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Inputs:
    """What every daemon of one run shares: the address pool, the
    blacklist and the initial model, trained through ``sentinel train``."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.uses_auth = workload != "url_backlog"
        self.uses_urls = workload != "auth_backlog"
        self.pool = wl.ip_pool(seed)
        self.blacklist = wl.blacklist_domains(seed) if self.uses_urls else []
        self.blacklist_set = set(self.blacklist)
        self.blacklist_path = work / "blacklist.txt"
        if self.uses_urls:
            self.blacklist_path.write_text("\n".join(self.blacklist) + "\n")
        self.models = work / "models"
        self._train()
        version = (self.models / "current").read_text().strip()
        self.artifact_path = self.models / f"etd_model_{version}.json"
        self.model = ArtifactReference(json.loads(self.artifact_path.read_text()))

    def _train(self) -> None:
        ref = AuthReference(FREQ_WINDOW_SECS)
        rows = []
        for event in wl.training_events(self.seed, self.pool):
            row, _ = ref.feed(TRAIN_EPOCH + int(event.offset), event.ip, event.failed)
            if event.offset >= FREQ_WINDOW_SECS:  # skip the window's warm-up
                rows.append(row)
        csv = self.work / "train.csv"
        csv.write_text(",".join(FEATURES) + "\n"
                       + "".join(",".join(repr(v) for v in row) + "\n" for row in rows))
        out = subprocess.run(
            [sys.executable, "-m", "sentinel.cli", "train", "--data", str(csv),
             "--model-dir", str(self.models), "--seed", str(self.seed),
             "--quantile", str(QUANTILE)],
            cwd=str(self.work), env=daemon_env(self.root), capture_output=True, text=True,
            timeout=120)
        if out.returncode != 0:
            raise BenchError(f"sentinel train failed: {out.stderr.strip()[-2000:]}")


class Pass:
    """One daemon in a fresh directory, from spawn to its checked alerts."""

    def __init__(self, inputs: Inputs, directory: Path, traced: bool, live: bool):
        self.inputs = inputs
        self.live = live
        directory.mkdir(parents=True)
        self.auth_path = directory / "auth.log"
        self.url_path = directory / "urls.ndjson"
        self.sink_path = directory / "alerts.ndjson"
        self.dead_letter = directory / "dead_letter.ndjson"
        self.models = directory / "models"
        shutil.copytree(inputs.models, self.models)
        self.ref = ExpectedAlerts(inputs.model, inputs.blacklist_set, FREQ_WINDOW_SECS)
        self.next_epoch = wl.BASE_EPOCH
        self.wall_start = time.time()

        probe = []
        if inputs.uses_auth:
            epoch = int(time.time()) - 1 if live else wl.BASE_EPOCH - 60
            pairs = [(epoch, e) for e in wl.probe_auth_events()]
            probe.append(self.ref.auth_batch(pairs, with_anomalies=not live))
        if inputs.uses_urls:
            probe.append(self.ref.url_batch([wl.probe_url(inputs.blacklist, directory.name)]))
        self.auth_path.write_text("".join(line + "\n" for b in probe if b.file == "auth"
                                          for line in b.lines))
        self.url_path.write_text("".join(line + "\n" for b in probe if b.file == "urls"
                                         for line in b.lines))
        self.sink_path.write_text("")
        config = {
            "ssh.source": self.auth_path,
            "ssh.year": time.gmtime().tm_year if live else wl.YEAR,
            "url_feed": self.url_path,
            "etd.model_dir": self.models,
            "etd.freq_window_secs": FREQ_WINDOW_SECS,
            "etd.schedule": LIVE_RETRAIN if live else "every 30d",
            "etd.quantile": QUANTILE,
            "sink.file": self.sink_path,
            "dead_letter": self.dead_letter,
        }
        if inputs.uses_urls:
            config["phish.blacklist_path"] = inputs.blacklist_path
        (directory / "agent.conf").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))

        self.watcher = SinkWatcher(self.sink_path, alert_key)
        self.watcher.start()
        for batch in probe:
            self.ref.commit(batch)
        self.watcher.expect(0, [k for b in probe for k in b.expected
                                if k[0] != "EmergentThreat"])
        self.daemon = Daemon(inputs.root, directory, directory / "agent.conf", traced)
        self.appender: Optional[Appender] = None

    def backlog_round(self, k: int) -> Batch:
        if self.inputs.workload == "url_backlog":
            return self.ref.url_batch(wl.backlog_url_round(
                self.inputs.seed, self.inputs.blacklist, k, URL_ROUND_LINES, BACKLOG_PHISH_SHARE))
        events = wl.backlog_auth_round(self.inputs.seed, self.inputs.pool, k,
                                       AUTH_ROUND_LINES, ATTACK_SHARE)
        pairs = [(self.next_epoch + int(e.offset), e) for e in events]
        self.next_epoch = pairs[-1][0] + 1
        return self.ref.auth_batch(pairs, with_anomalies=True)

    # -- running -------------------------------------------------------------

    def wait_ready(self) -> float:
        """Seconds from spawn until every monitor in use answered its probe."""
        done = self.watcher.wait_group(0, WAIT_SECS)
        if done is None or not self.daemon.alive():
            raise BenchError("daemon never answered the set-up probe:\n"
                             + self.daemon.stderr_tail())
        self.appender = Appender(self.daemon, {"auth": self.auth_path, "urls": self.url_path})
        return done - self.daemon.started

    def run_backlog(self, seconds: float, deadline: float) -> dict:
        """Append one backlog round at a time, each after the last alert of
        the one before it has arrived, until ``seconds`` have passed.  Each
        round is one measurement window.  A round is built while the daemon
        is idle, so the benchmark takes no CPU from it inside a window."""
        windows, lags = [], []
        rss = None
        begin = perf()
        k = 1
        while True:
            batch = self.backlog_round(k)
            self.ref.commit(batch)
            self.watcher.expect(k, batch.expected)
            cpu0 = self.daemon.cpu_seconds()
            planned = perf()
            written = self.appender.append({batch.file: batch.lines})
            lags.append(written - planned)
            done = self.watcher.wait_group(k, max(1.0, min(WAIT_SECS, deadline - perf())))
            if done is None:
                raise BenchError(f"round {k}: {len(self.watcher.missing(k))} alerts never "
                                 f"arrived\n" + self.daemon.stderr_tail())
            windows.append({
                "lines": len(batch.lines),
                "secs": done - written,
                "cpu": self.daemon.cpu_seconds() - cpu0,
                "latencies": [self.watcher.first_seen[key] - written for key in batch.expected],
            })
            if k == MIN_ROUNDS:
                rss = self.daemon.peak_rss_mb()
            if k >= MIN_ROUNDS and (done - begin >= seconds or k >= MAX_ROUNDS):
                break
            k += 1
        return {"windows": windows, "peak_rss_mb": rss, "lags": lags}

    def run_live(self, seconds: float, deadline: float) -> dict:
        """Write both inputs on a fixed open-loop schedule, one batch per
        tick, and time each alert from the tick its line was due in."""
        inputs = self.inputs
        seconds = max(seconds, LIVE_MIN_SECS)
        events = wl.live_auth_events(inputs.seed, inputs.pool,
                                     int(seconds * wl.AUTH_LINES_PER_SEC), ATTACK_SHARE)
        specs = wl.live_url_specs(inputs.seed, inputs.blacklist, int(seconds * LIVE_URLS_PER_SEC),
                                  LIVE_PHISH_SHARE)
        auth_ticks = wl.split_ticks([(e.offset, e) for e in events], LIVE_TICK_SECS)
        url_ticks = wl.split_ticks([(i / LIVE_URLS_PER_SEC, s) for i, s in enumerate(specs)],
                                   LIVE_TICK_SECS)
        n_ticks = max(len(auth_ticks), len(url_ticks))
        auth_ticks += [[]] * (n_ticks - len(auth_ticks))
        url_ticks += [[]] * (n_ticks - len(url_ticks))

        written_auth: List[Tuple[int, wl.AuthEvent, float]] = []  # (epoch, event, due)
        written_urls: List[Tuple[wl.UrlSpec, float]] = []
        lags = []
        cpu0 = self.daemon.cpu_seconds()
        wall0 = time.time()
        t0 = perf()
        first = None
        for i in range(n_ticks):
            due = t0 + (i + 1) * LIVE_TICK_SECS
            delay = due - perf()
            if delay > 0:
                time.sleep(delay)
            epoch = int(wall0 + (i + 1) * LIVE_TICK_SECS)
            wrote = self.appender.append({
                "auth": [e.line(epoch) for e in auth_ticks[i]],
                "urls": [wl.feed_line(s) for s in url_ticks[i]],
            })
            first = wrote if first is None else first
            lags.append(wrote - due)
            written_auth.extend((epoch, e, due) for e in auth_ticks[i])
            written_urls.extend((s, due) for s in url_ticks[i])

        # The reference runs after the writes so that it cannot slow the writer.
        auth = self.ref.auth_batch([(epoch, e) for epoch, e, _ in written_auth],
                                   with_anomalies=False)
        urls = self.ref.url_batch([s for s, _ in written_urls])
        due_of: Dict[tuple, float] = {}
        for batch, dues in ((auth, [d for _, _, d in written_auth]),
                            (urls, [d for _, d in written_urls])):
            self.ref.commit(batch)
            for keys, due in zip(batch.raises, dues):
                for key in keys:
                    due_of.setdefault(key, due)
        self.watcher.expect(1, [*auth.expected, *urls.expected])
        done = self.watcher.wait_group(1, max(1.0, min(WAIT_SECS, deadline - perf())))
        if done is None:
            raise BenchError(f"{len(self.watcher.missing(1))} alerts never arrived\n"
                             + self.daemon.stderr_tail())
        cpu = self.daemon.cpu_seconds() - cpu0
        self._wait_quiet()
        window = {
            "lines": len(auth.lines) + len(urls.lines),
            "secs": done - first,
            "cpu": cpu,
            "latencies": [seen - due_of[key] for key, seen in self.watcher.first_seen.items()
                          if key in due_of],
        }
        return {"windows": [window], "peak_rss_mb": self.daemon.peak_rss_mb(), "lags": lags}

    def _wait_quiet(self) -> None:
        count, since = self.watcher.count, perf()
        limit = since + 10.0
        while perf() - since < LIVE_QUIET_SECS and perf() < limit:
            time.sleep(0.05)
            if self.watcher.count != count:
                count, since = self.watcher.count, perf()

    # -- checking ------------------------------------------------------------

    def finish(self) -> List[str]:
        """Stop the daemon and check everything it wrote to its sink."""
        code = self.daemon.stop(graceful=True)
        wall = (self.wall_start, time.time())
        self.watcher.stop()
        if self.appender is not None:
            self.appender.close()
        errors = []
        if code != 0:
            errors.append(f"daemon exited with {code}: {self.daemon.stderr_tail()}")
        alerts = []
        for line in self.sink_path.read_text().splitlines():
            try:
                alerts.append(json.loads(line))
            except ValueError:
                errors.append(f"unparseable sink line {line[:200]!r}")
        if self.dead_letter.exists() and self.dead_letter.stat().st_size:
            errors.append(f"dead-letter log is not empty: "
                          f"{self.dead_letter.read_text()[:500]}")
        judge = live_anomaly_judge(self.ref.line_rows, self.models) if self.live else None
        errors += check_alerts(alerts, self.ref.expected, self.ref.ties, judge, wall)
        return errors

    def abort(self) -> None:
        self.daemon.stop(graceful=False)
        self.watcher.stop()
        if self.appender is not None:
            self.appender.close()


# --- one run ------------------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s",
    "lines_per_s": "lines/s",
    "cpu_us_per_line": "us/line",
    "alert_latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def measured_pass(inputs: Inputs, work: Path, name: str, trials: int, traced: bool,
                  seconds: float, deadline: float):
    """Set up ``trials`` daemons, keep the last, and measure it.

    Returns (setup times, measurement, errors, the pass)."""
    live = inputs.workload == "live_retrain"
    setups = []
    for trial in range(trials):
        p = Pass(inputs, work / f"{name}-{trial}", traced, live)
        try:
            setups.append(p.wait_ready())
        except BaseException:
            p.abort()
            raise
        if trial < trials - 1:
            p.abort()
    try:
        result = (p.run_live if live else p.run_backlog)(seconds, deadline)
    except BaseException:
        p.abort()
        raise
    return setups, result, p.finish(), p


def lines_of(m: dict) -> int:
    return sum(w["lines"] for w in m["windows"])


def lines_per_s(m: dict) -> float:
    return lines_of(m) / sum(w["secs"] for w in m["windows"])


def e2e_metrics(setups: List[float], m: dict) -> Dict[str, float]:
    """Throughput, CPU cost and alert latency p99 over all of a run's
    windows (backlog rounds; the live workload has one)."""
    windows = m["windows"]
    latencies = [t for w in windows for t in w["latencies"]]
    if len(latencies) < MIN_ALERTS:
        raise BenchError(f"only {len(latencies)} timed alerts, fewer than {MIN_ALERTS}")
    return {
        "setup_s": statistics.median(setups),
        "lines_per_s": lines_per_s(m),
        "cpu_us_per_line": sum(w["cpu"] for w in windows) * 1e6 / lines_of(m),
        "alert_latency_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": m["peak_rss_mb"],
    }


# Per-layer metrics of the traced run: name -> (unit, span it comes from).
LAYER_UNITS = {
    "sentinel.import_s": ("s", None),
    "config.load_ms": ("ms", "config.load"),
    "retraining.load_current_ms": ("ms", "retraining.load_current"),
    "retraining.artifact_bytes": ("bytes", None),
    "phishing.blacklist_load_ms": ("ms", "phishing.blacklist_load"),
    "ssh_monitor.parse_us": ("us", "ssh_monitor.parse"),
    "ssh_monitor.ingest_us": ("us", "ssh_monitor.ingest"),
    "etd.features.extract_us": ("us", "etd.features.extract"),
    "etd.detector.score_us": ("us", "etd.detector.score"),
    "etd.gaussian.mahalanobis_us": ("us", "etd.gaussian.mahalanobis"),
    "etd.iforest.iforest_us": ("us", "etd.iforest.iforest"),
    "etd.detector.flagged_per_1k": ("count/1k", "etd.detector.score"),
    "phishing.evaluate_us": ("us", "phishing.evaluate"),
    "phishing.parse_url_us": ("us", "phishing.parse_url"),
    "phishing.levenshtein_us": ("us", "phishing.levenshtein"),
    "phishing.levenshtein_calls_per_url": ("calls/url", "phishing.levenshtein"),
    "ssh_monitor.poll_ms": ("ms", "ssh_monitor.poll"),
    "ssh_monitor.lines_per_poll": ("lines/poll", "ssh_monitor.poll"),
    "agent.queue_wait_ms_p50": ("ms", "agent.handle"),
    "agent.queue_wait_ms_p99": ("ms", "agent.handle"),
    "agent.queue_depth_max": ("count", "agent.emit"),
    "events.serialize_us": ("us", "events.serialize"),
    "sinks.dispatch_us": ("us", "sinks.dispatch"),
    "sinks.file_deliver_us": ("us", "sinks.file_deliver"),
    "mitigation.mitigate_us": ("us", "mitigation.mitigate"),
    "retraining.retrain_s": ("s", "retraining.retrain"),
    "etd.iforest.build_s": ("s", "etd.iforest.build"),
    "etd.gaussian.fit_ms": ("ms", "etd.gaussian.fit"),
    "retraining.persist_ms": ("ms", "retraining.persist"),
    "retraining.retrains": ("count", "retraining.retrain"),
    "retraining.swaps": ("count", "retraining.persist"),
    "generator.lag_p99_ms": ("ms", None),
    "trace.overhead_pct": ("%", None),
}


def layer_metrics(doc: dict, traced: dict, untraced: dict, artifact_bytes: int) -> dict:
    spans, extra = doc["spans"], doc["extra"]

    def durations(name):
        s = spans.get(name, [])
        return [s[i + 1] - s[i] for i in range(0, len(s), 2)]

    def mean(name, scale):
        d = durations(name)
        return scale * sum(d) / len(d) if d else 0.0

    polls = extra.get("ssh_monitor.poll", [])
    by_source: Dict[float, List[float]] = {}
    for i in range(0, len(polls), 3):
        by_source.setdefault(polls[i], []).append(polls[i + 2])
    periods = [b - a for starts in by_source.values() for a, b in zip(starts, starts[1:])]
    poll_lines = polls[1::3]
    waits = extra.get("agent.handle", [])
    flags = extra.get("etd.detector.score", [])
    evaluations = len(durations("phishing.evaluate"))
    values = {
        "sentinel.import_s": doc["import_s"],
        "config.load_ms": mean("config.load", 1e3),
        "retraining.load_current_ms": mean("retraining.load_current", 1e3),
        "retraining.artifact_bytes": artifact_bytes,
        "phishing.blacklist_load_ms": mean("phishing.blacklist_load", 1e3),
        "ssh_monitor.parse_us": mean("ssh_monitor.parse", 1e6),
        "ssh_monitor.ingest_us": mean("ssh_monitor.ingest", 1e6),
        "etd.features.extract_us": mean("etd.features.extract", 1e6),
        "etd.detector.score_us": mean("etd.detector.score", 1e6),
        "etd.gaussian.mahalanobis_us": mean("etd.gaussian.mahalanobis", 1e6),
        "etd.iforest.iforest_us": mean("etd.iforest.iforest", 1e6),
        "etd.detector.flagged_per_1k": 1e3 * sum(flags) / len(flags) if flags else 0.0,
        "phishing.evaluate_us": mean("phishing.evaluate", 1e6),
        "phishing.parse_url_us": mean("phishing.parse_url", 1e6),
        "phishing.levenshtein_us": mean("phishing.levenshtein", 1e6),
        "phishing.levenshtein_calls_per_url":
            len(durations("phishing.levenshtein")) / evaluations if evaluations else 0.0,
        "ssh_monitor.poll_ms": 1e3 * statistics.fmean(periods) if periods else 0.0,
        "ssh_monitor.lines_per_poll": statistics.fmean(poll_lines) if poll_lines else 0.0,
        "agent.queue_wait_ms_p50": 1e3 * percentile(waits, 50) if waits else 0.0,
        "agent.queue_wait_ms_p99": 1e3 * percentile(waits, 99) if waits else 0.0,
        "agent.queue_depth_max": max(extra.get("agent.emit", []), default=0),
        "events.serialize_us": mean("events.serialize", 1e6),
        "sinks.dispatch_us": mean("sinks.dispatch", 1e6),
        "sinks.file_deliver_us": mean("sinks.file_deliver", 1e6),
        "mitigation.mitigate_us": mean("mitigation.mitigate", 1e6),
        "retraining.retrain_s": mean("retraining.retrain", 1.0),
        "etd.iforest.build_s": mean("etd.iforest.build", 1.0),
        "etd.gaussian.fit_ms": mean("etd.gaussian.fit", 1e3),
        "retraining.persist_ms": mean("retraining.persist", 1e3),
        "retraining.retrains": len(durations("retraining.retrain")),
        "retraining.swaps": len(durations("retraining.persist")),
        "generator.lag_p99_ms": 1e3 * percentile(traced["lags"], 99),
        "trace.overhead_pct":
            100.0 * (lines_per_s(untraced) - lines_per_s(traced)) / lines_per_s(untraced),
    }
    absent = set(doc.get("absent", []))
    out = {}
    for name, (unit, span) in LAYER_UNITS.items():
        if span in absent:
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf() + RUN_DEADLINE_SECS
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        inputs = Inputs(root, work, workload, seed)
        if not trace:
            setups, m, errors, _ = measured_pass(inputs, work, "run", SETUP_TRIALS, False,
                                                 seconds, deadline)
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                       for k, v in e2e_metrics(setups, m).items()}
            attempted = lines_of(m)
        else:
            _, plain, errors, _ = measured_pass(inputs, work, "plain", 1, False, seconds, deadline)
            _, traced, more, p = measured_pass(inputs, work, "traced", 1, True, seconds, deadline)
            errors += more
            doc = json.loads(p.daemon.spans_path.read_text())
            metrics = layer_metrics(doc, traced, plain, inputs.artifact_path.stat().st_size)
            attempted = lines_of(plain) + lines_of(traced)
        for e in errors[:50]:
            print(f"check failed: {e}", file=sys.stderr)
        if len(errors) > 50:
            print(f"... and {len(errors) - 50} more", file=sys.stderr)
        return {"correct": not errors, "attempted": attempted, "failed": 0, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sentinel" / "cli.py").is_file():
        print("no sentinel sources under ./src: run this from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.setswitchinterval(0.0005)  # the sink watcher must not wait long for the GIL
    # A shell that starts this in the background may leave SIGINT ignored,
    # and the daemon would inherit that; its graceful stop needs SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
