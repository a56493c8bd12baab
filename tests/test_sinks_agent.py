import dataclasses
import io
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from sentinel.config import AgentConfig, ConfigError, parse_flat_config
from sentinel.events import (
    BruteForce,
    EmergentThreat,
    IpAddress,
    PhishingAlert,
    DetectionMethod,
    Timestamp,
    serialize_event,
)
from sentinel.mitigation import MitigationPolicy, mitigate
from sentinel.sinks import (
    DeadLetterLog,
    DeliveryResult,
    FileSink,
    SinkConfig,
    StdoutSink,
    WebhookSink,
    dispatch_alert,
)

T0 = Timestamp.parse("2025-02-12T15:23:01Z")
BRUTE = BruteForce(T0, IpAddress.parse("192.168.1.12"), 10)


class _StubHandler(BaseHTTPRequestHandler):
    statuses = []
    received = []

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        code = self.statuses.pop(0) if self.statuses else 200
        if code == 200:
            self.received.append(body.decode())
        self.send_response(code)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    _StubHandler.statuses = []
    _StubHandler.received = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/hook", _StubHandler
    server.shutdown()


class TestSinks:
    def test_stdout_and_file_write_identical_lines(self, tmp_path):
        stream = io.StringIO()
        stdout = StdoutSink(stream=stream)
        fsink = FileSink(SinkConfig(kind="file", target=str(tmp_path / "alerts.ndjson")))
        results = dispatch_alert(BRUTE, [stdout, fsink])
        assert all(r.ok for r in results)
        line = (tmp_path / "alerts.ndjson").read_text().strip()
        assert stream.getvalue().strip() == line
        assert json.loads(line)["event_type"] == "BruteForce"

    def test_webhook_retries_5xx_then_succeeds(self, stub_server):
        url, handler = stub_server
        handler.statuses = [500, 500]
        sink = WebhookSink(SinkConfig(kind="webhook", target=url, retry=2))
        result = sink.deliver(serialize_event(BRUTE))
        assert result.ok and result.retries == 2
        assert json.loads(handler.received[0])["ip"] == "192.168.1.12"

    def test_webhook_gives_up_after_retries(self, stub_server):
        url, handler = stub_server
        handler.statuses = [500, 500, 500]
        sink = WebhookSink(SinkConfig(kind="webhook", target=url, retry=2))
        result = sink.deliver(serialize_event(BRUTE))
        assert not result.ok and "500" in result.error

    def test_4xx_not_retried(self, stub_server):
        url, handler = stub_server
        handler.statuses = [404]
        sink = WebhookSink(SinkConfig(kind="webhook", target=url, retry=2))
        result = sink.deliver(serialize_event(BRUTE))
        assert not result.ok and result.retries == 0

    def test_unreachable_webhook_does_not_block_file_sink(self, tmp_path):
        fsink = FileSink(SinkConfig(kind="file", target=str(tmp_path / "a.ndjson")))
        bad = WebhookSink(SinkConfig(kind="webhook", target="http://127.0.0.1:1/x",
                                     timeout_secs=0.2, retry=0))
        results = dispatch_alert(BRUTE, [bad, fsink])
        assert [r.ok for r in results] == [False, True]
        assert (tmp_path / "a.ndjson").read_text().count("\n") == 1

    def test_total_failure_goes_to_dead_letter(self, tmp_path):
        dead = DeadLetterLog(tmp_path / "dead.ndjson")
        bad = WebhookSink(SinkConfig(kind="webhook", target="http://127.0.0.1:1/x",
                                     timeout_secs=0.2, retry=0))
        dispatch_alert(BRUTE, [bad], dead_letter=dead)
        assert dead.count == 1
        entry = json.loads((tmp_path / "dead.ndjson").read_text())
        assert entry["event"]["event_type"] == "BruteForce"
        assert "webhook" in entry["reason"]

    def test_sink_exception_is_contained(self, tmp_path):
        class Broken:
            name = "broken"

            def deliver(self, payload):
                raise RuntimeError("boom")

        fsink = FileSink(SinkConfig(kind="file", target=str(tmp_path / "a.ndjson")))
        results = dispatch_alert(BRUTE, [Broken(), fsink])
        assert [r.ok for r in results] == [False, True]

    def test_invalid_sink_config(self):
        with pytest.raises(ValueError):
            SinkConfig(kind="smoke-signal")
        with pytest.raises(ValueError):
            SinkConfig(kind="webhook", target="ftp://x")


class TestMitigation:
    def test_dry_run_renders_but_never_executes(self):
        calls = []
        action = mitigate(BRUTE, MitigationPolicy(enabled=False), runner=calls.append)
        assert action.kind == "would_execute"
        assert action.command == "ufw deny from 192.168.1.12 to any"
        assert not action.executed and calls == []

    def test_enabled_runs_command(self):
        calls = []

        def runner(cmd):
            calls.append(cmd)
            return 0

        action = mitigate(BRUTE, MitigationPolicy(enabled=True), runner=runner)
        assert action.executed and action.exit_status == 0
        assert calls == ["ufw deny from 192.168.1.12 to any"]

    def test_emergent_threat_goes_to_review(self):
        event = EmergentThreat(T0, IpAddress.parse("10.0.0.9"), 12.5,
                               {"hour": 3.0}, "mahalanobis", "abc-0")
        action = mitigate(event, MitigationPolicy(enabled=True))
        assert action.kind == "manual_review" and not action.executed

    def test_phishing_alert_not_mitigated(self):
        event = PhishingAlert(T0, "http://x.com", 85, DetectionMethod.HEURISTIC)
        assert mitigate(event, MitigationPolicy(enabled=True)) is None

    def test_template_must_have_ip_slot(self):
        with pytest.raises(ValueError):
            MitigationPolicy(command_template="ufw deny all")


def _agent_config(tmp_path, log_path=None):
    from sentinel.config import EtdConfig, PhishingConfig
    from sentinel.retraining import RetrainConfig
    from sentinel.ssh_monitor import BruteForceConfig

    return AgentConfig(
        ssh=BruteForceConfig(threshold=5, window_secs=300),
        ssh_source_path=str(log_path) if log_path else None,
        ssh_year=2025,
        etd=EtdConfig(model_dir=str(tmp_path / "models")),
        retrain=RetrainConfig(schedule="every 1d"),
        sinks=[SinkConfig(kind="file", target=str(tmp_path / "alerts.ndjson"))],
        mitigation=MitigationPolicy(enabled=False),
        dead_letter_path=str(tmp_path / "dead.ndjson"),
    )


def _burst_lines(ip, n=6, start="15:23:00"):
    h, m, s = (int(x) for x in start.split(":"))
    lines = []
    for i in range(n):
        total = h * 3600 + m * 60 + s + i
        lines.append(
            f"Feb 12 {total // 3600:02d}:{total % 3600 // 60:02d}:{total % 60:02d} "
            f"host1 sshd[7]: Failed password for invalid user admin from {ip} "
            f"port {40000 + i} ssh2")
    return lines


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestAgent:
    def test_end_to_end_brute_force_to_file_sink(self, tmp_path):
        from sentinel.agent import Agent

        log = tmp_path / "auth.log"
        log.write_text("\n".join(_burst_lines("203.0.113.7")) + "\n")
        agent = Agent(_agent_config(tmp_path, log))
        agent.start()
        sink = tmp_path / "alerts.ndjson"
        assert _wait_for(lambda: sink.exists() and sink.read_text().strip())
        agent.stop()
        events = [json.loads(l) for l in sink.read_text().splitlines()]
        brute = [e for e in events if e["event_type"] == "BruteForce"]
        assert len(brute) == 1
        assert brute[0]["ip"] == "203.0.113.7"
        assert brute[0]["failed_attempts"] == 5
        # dry-run mitigation recorded, nothing executed
        assert agent.mitigations and agent.mitigations[0]["action"] == "would_execute"

    def test_mitigations_kept_are_capped(self, tmp_path):
        from sentinel.agent import MITIGATIONS_KEPT, Agent

        cfg = _agent_config(tmp_path)
        cfg.sinks = []
        agent = Agent(cfg)
        for i in range(20_000):
            agent._handle(BruteForce(T0.add_seconds(i), IpAddress.parse("1.2.3.4"), 5))
        assert len(agent.mitigations) == MITIGATIONS_KEPT
        assert agent.mitigations[-1]["ip"] == "1.2.3.4"

    def test_url_clock_read_only_for_an_alert(self, tmp_path):
        from sentinel.agent import Agent

        blacklist = tmp_path / "blacklist.txt"
        blacklist.write_text("fake-bank.com\n")
        cfg = _agent_config(tmp_path)
        cfg.phishing.blacklist_path = str(blacklist)
        reads = []

        def clock():
            reads.append(1)
            return T0

        agent = Agent(cfg, clock=clock)
        for url in ["https://example.com/", "https://site12.org/page/3",
                    "https://docs.example.net/a", "http://secure-updates-login.com",
                    "https://fake-bank.com/"]:
            agent._check_url(json.dumps({"url": url}))
        assert len(reads) == 2
        alerts = []
        while not agent.queue.empty():
            alerts.append(agent.queue.get_nowait())
        assert [(a.detection_method, a.timestamp) for a in alerts] == [
            (DetectionMethod.HEURISTIC, T0), (DetectionMethod.BLACKLIST, T0)]

    def test_fault_injection_restart_keeps_prior_events(self, tmp_path):
        from sentinel.agent import Agent

        log = tmp_path / "auth.log"
        log.write_text("\n".join(_burst_lines("203.0.113.7")) + "\n")
        agent = Agent(_agent_config(tmp_path, log))
        state = {"raised": False}
        quiet = agent._url_feed_loop

        def flaky():
            if not state["raised"]:
                state["raised"] = True
                raise RuntimeError("injected fault")
            quiet()

        agent._url_feed_loop = flaky
        agent.start()
        sink = tmp_path / "alerts.ndjson"
        assert _wait_for(lambda: sink.exists() and sink.read_text().strip())
        assert _wait_for(lambda: agent._restart_log)
        agent.stop()
        assert any("injected fault" in entry for entry in agent._restart_log)
        events = [json.loads(l) for l in sink.read_text().splitlines()]
        assert any(e["event_type"] == "BruteForce" for e in events)

    def test_queue_overflow_dead_letters_oldest(self, tmp_path):
        from sentinel import agent as agent_mod
        from sentinel.agent import Agent

        agent = Agent(_agent_config(tmp_path))
        n_extra = 7
        for i in range(agent_mod.QUEUE_CAPACITY + n_extra):
            agent.emit(BruteForce(T0.add_seconds(i), IpAddress.parse("1.2.3.4"), 5))
        assert agent.overflow_count == n_extra
        dead = (tmp_path / "dead.ndjson").read_text().splitlines()
        assert len(dead) == n_extra
        assert all(json.loads(l)["reason"] == "queue overflow" for l in dead)
        # the dropped events are the oldest ones
        first = json.loads(dead[0])["event"]
        assert first["timestamp"] == T0.isoformat()

    def test_stop_drains_pending_queue(self, tmp_path):
        from sentinel.agent import Agent

        agent = Agent(_agent_config(tmp_path))
        for i in range(50):
            agent.emit(BruteForce(T0.add_seconds(i), IpAddress.parse("1.2.3.4"), 5))
        started = time.monotonic()
        agent.stop(timeout=5.0)
        assert time.monotonic() - started < 5.0
        lines = (tmp_path / "alerts.ndjson").read_text().splitlines()
        assert len(lines) == 50

    def test_row_buffer_keeps_newest_rows_at_cap(self, tmp_path, monkeypatch):
        from sentinel.agent import Agent
        from sentinel.etd.features import StreamingFeatureExtractor
        from sentinel.harness import Burst, Scenario, gen_ssh_logs
        from sentinel.ssh_monitor import parse_ssh_line

        monkeypatch.setattr(Agent, "ROW_BUFFER_LIMIT", 300)
        lines, _ = gen_ssh_logs(Scenario(seed=3, duration_hours=10.0, normal_login_rate=60.0,
                                         attacker_bursts=(Burst("198.51.100.9", 600.0, 12),)))
        records = [parse_ssh_line(line, year=2025) for line in lines]
        assert len(records) > 2 * 300
        cfg = _agent_config(tmp_path)
        cfg.retrain.max_holdout_flag_rate = 1.0
        agent = Agent(cfg)
        for start in range(0, len(records), 97):
            agent._score_records(records[start:start + 97])

        extractor = StreamingFeatureExtractor(freq_window_secs=cfg.etd.freq_window_secs)
        rows = [extractor.extract(rec) for rec in records]
        newest = list(zip((rec.timestamp for rec in records), rows))[-300:]
        assert list(agent._timed_rows) == newest
        assert agent.retrain_now(records[-1].timestamp)
        assert agent.registry.get().trained_at == records[-1].timestamp

    def test_retrain_persists_the_body_its_version_hashes(self, tmp_path):
        import dataclasses
        import hashlib

        from sentinel.agent import Agent
        from sentinel.harness import Scenario, gen_ssh_logs
        from sentinel.retraining import load_current, persist_artifact
        from sentinel.ssh_monitor import parse_ssh_line

        lines, _ = gen_ssh_logs(Scenario(seed=3, duration_hours=10.0, normal_login_rate=60.0))
        records = [parse_ssh_line(line, year=2025) for line in lines]
        cfg = _agent_config(tmp_path)
        cfg.retrain.max_holdout_flag_rate = 1.0
        agent = Agent(cfg)
        agent._score_records(records)
        assert agent.retrain_now(records[-1].timestamp)
        artifact = agent.registry.get()
        models = tmp_path / "models"
        text = (models / f"etd_model_{artifact.version}.json").read_text()
        head = f'{{"version":"{artifact.version}",'
        assert text.startswith(head)
        body = "{" + text[len(head):]
        assert hashlib.sha256(body.encode()).hexdigest()[:16] == artifact.version.split("-")[0]
        assert load_current(models).version == artifact.version

        # The retrain hashed, so cached, the body; a replaced field must show.
        changed = dataclasses.replace(artifact, iforest_threshold=0.9)
        written = persist_artifact(changed, tmp_path / "changed").read_text()
        assert '"iforest_threshold":0.9,' in written
        assert json.loads(written)["iforest_threshold"] == 0.9

    def test_url_feed_flags_phishing(self, tmp_path):
        from sentinel.agent import Agent

        feed = tmp_path / "urls.ndjson"
        feed.write_text(json.dumps({"url": "http://secure-updates-login.com"}) + "\n"
                        + "not json\n")
        cfg = _agent_config(tmp_path)
        cfg.url_feed = str(feed)
        agent = Agent(cfg)
        agent.start()
        sink = tmp_path / "alerts.ndjson"
        assert _wait_for(lambda: sink.exists() and sink.read_text().strip())
        agent.stop()
        events = [json.loads(l) for l in sink.read_text().splitlines()]
        assert events[0]["event_type"] == "PhishingAlert"
        assert events[0]["score"] == 85


    def test_url_feed_dead_letters_unusable_lines(self, tmp_path):
        from sentinel.agent import Agent

        feed = tmp_path / "urls.ndjson"
        feed.write_text("not json\n"
                        + json.dumps({"url": "not a url"}) + "\n"
                        + json.dumps({"url": 5}) + "\n"
                        + json.dumps({"url": "http://secure-updates-login.com"}) + "\n")
        cfg = _agent_config(tmp_path)
        cfg.url_feed = str(feed)
        agent = Agent(cfg)
        agent.start()
        sink = tmp_path / "alerts.ndjson"
        # The feed is read in order, so the alert arrives after the dead letters.
        assert _wait_for(lambda: sink.exists() and sink.read_text().strip())
        agent.stop()
        dead = [json.loads(l) for l in (tmp_path / "dead.ndjson").read_text().splitlines()]
        assert [d["event"] for d in dead] == [
            "not json", json.dumps({"url": "not a url"}), json.dumps({"url": 5})]
        reasons = [d["reason"] for d in dead]
        assert reasons[0] == reasons[2] == "malformed url feed line"
        assert "no host" in reasons[1]
        assert agent.dead_letter.count == 3
        assert not agent._restart_log

    def _alerts(self, tmp_path, kind):
        sink = tmp_path / "alerts.ndjson"
        lines = sink.read_text().splitlines() if sink.exists() else []
        return [e for e in map(json.loads, lines) if e["event_type"] == kind]

    def test_ssh_monitor_restart_resumes_without_replay(self, tmp_path):
        from sentinel.agent import Agent

        log = tmp_path / "auth.log"
        log.write_text("\n".join(_burst_lines("203.0.113.7")) + "\n")
        agent = Agent(_agent_config(tmp_path, log))
        state = {"raised": False}
        score = agent._score_records

        def flaky(records):
            if not state["raised"]:
                state["raised"] = True
                raise RuntimeError("injected fault")
            score(records)

        agent._score_records = flaky
        agent.start()
        assert _wait_for(lambda: agent._restart_log)
        # A replay of the log would raise a second alert within a few polls.
        _wait_for(lambda: len(self._alerts(tmp_path, "BruteForce")) > 1, timeout=1.0)
        agent.stop()
        assert len(self._alerts(tmp_path, "BruteForce")) == 1
        # The slice in flight at the crash is skipped: it is neither scored
        # nor buffered for retraining.
        assert len(agent._timed_rows) == 0

    def test_model_naming_a_feature_no_row_holds_is_refused(self, tmp_path,
                                                             url_risk_model_dir):
        from sentinel.agent import Agent
        from sentinel.retraining import CorruptArtifactError

        # The streaming extractor never fills url_risk, so no slice could be scored.
        with pytest.raises(CorruptArtifactError, match="url_risk"):
            Agent(_agent_config(tmp_path))

    def test_url_feed_restart_retries_the_failed_line_only(self, tmp_path):
        from sentinel.agent import Agent

        urls = ["http://secure-updates-login.com", "http://verify-account-login.com/x",
                "http://secure-login-update.net/verify"]
        feed = tmp_path / "urls.ndjson"
        feed.write_text("".join(json.dumps({"url": url}) + "\n" for url in urls))
        cfg = _agent_config(tmp_path)
        cfg.url_feed = str(feed)
        agent = Agent(cfg)
        state = {"raised": False}
        evaluate = agent.url_evaluator.evaluate

        def flaky(url, **kwargs):
            if url == urls[2] and not state["raised"]:
                state["raised"] = True
                raise RuntimeError("injected fault")
            return evaluate(url, **kwargs)

        agent.url_evaluator.evaluate = flaky
        agent.start()
        assert _wait_for(lambda: len(self._alerts(tmp_path, "PhishingAlert")) >= 3)
        _wait_for(lambda: len(self._alerts(tmp_path, "PhishingAlert")) > 3, timeout=1.0)
        agent.stop()
        assert [e["url"] for e in self._alerts(tmp_path, "PhishingAlert")] == urls
        assert len(agent._restart_log) == 1

    def test_url_feed_line_that_always_fails_is_dead_lettered(self, tmp_path):
        from sentinel.agent import URL_LINE_ATTEMPTS, Agent

        urls = ["http://always-fails.example/", "http://secure-updates-login.com"]
        feed = tmp_path / "urls.ndjson"
        feed.write_text("".join(json.dumps({"url": url}) + "\n" for url in urls))
        cfg = _agent_config(tmp_path)
        cfg.url_feed = str(feed)
        agent = Agent(cfg)
        evaluate = agent.url_evaluator.evaluate

        def broken(url, **kwargs):
            if url == urls[0]:
                raise RuntimeError("injected fault")
            return evaluate(url, **kwargs)

        agent.url_evaluator.evaluate = broken
        agent.start()
        assert _wait_for(lambda: self._alerts(tmp_path, "PhishingAlert"))
        agent.stop()
        assert [e["url"] for e in self._alerts(tmp_path, "PhishingAlert")] == [urls[1]]
        dead = [json.loads(l) for l in (tmp_path / "dead.ndjson").read_text().splitlines()]
        assert dead == [{"reason": "RuntimeError", "event": json.dumps({"url": urls[0]})}]
        assert len(agent._restart_log) == URL_LINE_ATTEMPTS - 1


class TestConfig:
    def test_flat_file_parse(self):
        values = parse_flat_config("# comment\nssh.threshold = 7\nsink.stdout = true\n")
        assert values == {"ssh.threshold": "7", "sink.stdout": "true"}

    def test_full_load(self, tmp_path):
        log = tmp_path / "auth.log"
        log.write_text("")
        cfg_path = tmp_path / "agent.conf"
        cfg_path.write_text(
            f"ssh.source = {log}\n"
            "ssh.threshold = 10\n"
            "ssh.whitelist = 10.0.0.1, 10.0.0.2\n"
            "sink.stdout = true\n"
            f"sink.file = {tmp_path / 'alerts.ndjson'}\n"
            "etd.schedule = 0 3 * * 1\n"
            "mitigation.enabled = false\n")
        cfg = AgentConfig.load(str(cfg_path))
        assert cfg.ssh.threshold == 10
        assert cfg.ssh.whitelist == {"10.0.0.1", "10.0.0.2"}
        assert [s.kind for s in cfg.sinks] == ["stdout", "file"]

    def test_missing_referenced_file_is_named(self, tmp_path):
        with pytest.raises(ConfigError, match="ssh.source"):
            AgentConfig.from_values({"ssh.source": str(tmp_path / "nope.log"),
                                     "sink.stdout": "true"})

    def test_no_sink_rejected(self):
        with pytest.raises(ConfigError, match="sink"):
            AgentConfig.from_values({})

    @pytest.mark.parametrize("entry", ["10.0.0.01", "10.0.0.256", "host1.example"])
    def test_whitelist_entry_that_cannot_match_is_named(self, entry):
        with pytest.raises(ConfigError, match=entry):
            AgentConfig.from_values({"sink.stdout": "true",
                                     "ssh.whitelist": f"10.0.0.1, {entry}"})

    @pytest.mark.parametrize("spec", ["0 0 31 2 *", "0 0 30 2 *", "0 0 31 4 *"])
    def test_schedule_that_never_fires_rejected(self, spec):
        with pytest.raises(ConfigError, match="never fires"):
            AgentConfig.from_values({"sink.stdout": "true", "etd.schedule": spec})

    def test_leap_day_schedule_loads(self):
        cfg = AgentConfig.from_values({"sink.stdout": "true", "etd.schedule": "0 0 29 2 *"})
        assert cfg.retrain.schedule == "0 0 29 2 *"

    def test_bad_schedule_rejected(self):
        with pytest.raises(Exception):
            AgentConfig.from_values({"sink.stdout": "true",
                                     "etd.schedule": "61 * * * *"})

    # Each of these loaded, or crashed with a raw exception, before the
    # config was checked key by key.
    @pytest.mark.parametrize("values, named", [
        ({"etd.centroid": "a, b"}, "etd.centroid"),
        ({"etd.centroid": "1, 2, 3"}, "etd.centroid"),
        ({"ssh.year": "-1"}, "ssh.year"),
        ({"ssh.year": "99999"}, "ssh.year"),
        ({"sink.webhook": "https://siem.example/hook", "sink.webhook.retry": "-1"}, "retry"),
        ({"sink.webhook": "https://siem.example/hook",
          "sink.webhook.timeout_secs": "0"}, "timeout_secs"),
        ({"sink.webhook.retry": "3"}, "sink.webhook.retry"),
        ({"sink.file": ""}, "file sink"),
        ({"etd.freq_window_secs": "0"}, "freq_window_secs"),
        ({"etd.freq_window_secs": "-5"}, "freq_window_secs"),
        ({"phish.threshold": "101"}, "threshold"),
        ({"phish.threshold": "0"}, "threshold"),
        ({"ssh.source": __file__, "ssh.source_command": "cat"}, "ssh.source_command"),
        ({"ssh.threshold": "five"}, "ssh.threshold"),
        ({"mitigation.enabled": "maybe"}, "mitigation.enabled"),
        ({"mitigation.enable": "true"}, "mitigation.enable"),
        ({"ssh.treshold": "3"}, "ssh.treshold"),
        ({"ssh.poll_secs": "1"}, "ssh.poll_secs"),
        ({"etd.iforest_threshold": "0.7"}, "etd.iforest_threshold"),
    ], ids=lambda case: case if isinstance(case, str) else None)
    def test_config_that_cannot_work_is_rejected_by_key(self, values, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            AgentConfig.from_values({"sink.stdout": "true", **values})

    def test_misspelt_only_sink_is_named(self):
        with pytest.raises(ConfigError, match="sink.stdot"):
            AgentConfig.from_values({"sink.stdot": "true"})

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match=r"ssh\.whitelist.*line 1.*line 3"):
            parse_flat_config("ssh.whitelist = 10.0.0.1\nsink.stdout = true\n"
                              "ssh.whitelist = 10.0.0.2\n")

    def test_values_keep_their_meaning(self, tmp_path):
        values = {"sink.stdout": "false", "sink.file": str(tmp_path / "alerts.ndjson"),
                  "ssh.year": "0"}
        given = dict(values)
        cfg = AgentConfig.from_values(values)
        assert values == given  # the caller's dict is not consumed
        assert [s.kind for s in cfg.sinks] == ["file"]
        assert cfg.ssh_year is None  # 0 means "no year"
        assert cfg.ssh.cooldown_secs == cfg.ssh.window_secs

    def test_readme_configuration_loads(self, tmp_path):
        """Every key the README documents is one the daemon reads."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        blocks = [parse_flat_config(block.split("```", 1)[0])
                  for block in section.split("```ini\n")[1:]]
        assert len(blocks) == 2
        config, command_source = blocks
        for key in ("ssh.source", "phish.blacklist_path", "url_feed", "etd.geo_table"):
            path = tmp_path / Path(config[key]).name
            path.write_text("")
            config[key] = str(path)
        cfg = AgentConfig.from_values(config)
        assert [s.kind for s in cfg.sinks] == ["stdout", "file", "webhook"]
        # The values shown are the defaults, but for the files, sinks and whitelist.
        default = AgentConfig.from_values({"sink.stdout": "true"})
        assert dataclasses.replace(cfg.ssh, whitelist=set()) == default.ssh
        assert dataclasses.replace(cfg.etd, geo_table_path=None) == default.etd
        assert cfg.phishing.threshold == default.phishing.threshold
        assert (cfg.phishing.brands, cfg.phishing.keywords) == \
            (default.phishing.brands, default.phishing.keywords)
        assert (cfg.retrain, cfg.mitigation, cfg.ssh_year, cfg.dead_letter_path) == \
            (default.retrain, default.mitigation, default.ssh_year, default.dead_letter_path)
        assert cfg.sinks[2] == SinkConfig(kind="webhook", target=config["sink.webhook"])
        del config["ssh.source"]
        cfg = AgentConfig.from_values({**config, **command_source})
        assert cfg.ssh_source_command == command_source["ssh.source_command"]
