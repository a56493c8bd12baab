import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sentinel
from sentinel.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

SRC = str(Path(sentinel.__file__).resolve().parents[1])


def _python_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestScoreUrl:
    def test_heuristic_calibration_point(self, capsys):
        code, out = _run(capsys, "score-url", "http://secure-updates-login.com")
        assert code == EXIT_OK
        result = json.loads(out)
        assert result["score"] == 85
        assert result["detection_method"] == "HeuristicAnalysis"
        assert result["flagged"] is True

    def test_blacklisted_domain(self, capsys, tmp_path):
        blacklist = tmp_path / "black.txt"
        blacklist.write_text("# known bad\nfake-bank-login.com\n")
        code, out = _run(capsys, "score-url", "http://fake-bank-login.com/steal",
                         "--blacklist", str(blacklist))
        assert code == EXIT_OK
        result = json.loads(out)
        assert result["score"] == 100
        assert result["detection_method"] == "Blacklist"

    def test_invalid_url_is_runtime_error(self, capsys):
        code, out = _run(capsys, "score-url", "not a url")
        assert code == EXIT_RUNTIME
        assert "error" in json.loads(out)


class TestParse:
    def test_burst_log(self, capsys, tmp_path):
        log = tmp_path / "auth.log"
        lines = [
            f"Feb 12 15:23:{i:02d} host1 sshd[1]: Failed password for root "
            f"from 192.168.1.12 port 5{i:04d} ssh2"
            for i in range(10)
        ] + ["noise line"]
        log.write_text("\n".join(lines) + "\n")
        code, out = _run(capsys, "parse", str(log), "--year", "2025")
        assert code == EXIT_OK
        result = json.loads(out)
        assert result["records"] == 10 and result["skipped"] == 1
        assert len(result["events"]) == 1
        assert result["events"][0]["event_type"] == "BruteForce"


    def test_line_ends_only_at_newline(self, capsys, tmp_path):
        # U+2028, \x85 and \x1c end a line for str.splitlines, not for the daemon.
        log = tmp_path / "auth.log"
        line = ("Feb 12 15:23:01 host1 sshd[1]: Failed password for root "
                "from 192.168.1.12 port 22 ssh2")
        for sep in ("\u2028", "\x85", "\x1c"):
            log.write_bytes((line + sep + "tail\n").encode())
            code, out = _run(capsys, "parse", str(log), "--year", "2025")
            assert code == EXIT_OK
            assert json.loads(out)["records"] == 0
        log.write_bytes(line.encode())  # an unterminated last line still counts
        assert json.loads(_run(capsys, "parse", str(log), "--year", "2025")[1])["records"] == 1


class TestGenTrainValidate:
    def test_gen_train_validate_retrain_cycle(self, capsys, tmp_path):
        data = tmp_path / "rows.csv"
        models = tmp_path / "models"

        code, out = _run(capsys, "gen", "etd", "-n", "800", "--seed", "5",
                         "--out", str(data))
        assert code == EXIT_OK and json.loads(out)["rows"] == 800

        code, out = _run(capsys, "train", "--data", str(data),
                         "--model-dir", str(models))
        assert code == EXIT_OK
        trained = json.loads(out)
        assert trained["rows"] == 800 and trained["tau"] > 0
        assert (models / "current").read_text() == trained["version"]

        code, out = _run(capsys, "validate", "--model", trained["path"],
                         "--data", str(data))
        assert code == EXIT_OK
        validated = json.loads(out)
        assert validated["ok"] and validated["version"] == trained["version"]
        assert validated["flag_rate"] <= 0.02

        code, out = _run(capsys, "retrain", "--data", str(data),
                         "--model-dir", str(models))
        assert code == EXIT_OK
        retrained = json.loads(out)
        assert retrained["accepted"] is True
        assert retrained["holdout_flag_rate"] <= 0.02

    def test_validate_corrupt_artifact(self, capsys, tmp_path):
        data = tmp_path / "rows.csv"
        models = tmp_path / "models"
        _run(capsys, "gen", "etd", "-n", "300", "--out", str(data))
        code, out = _run(capsys, "train", "--data", str(data),
                         "--model-dir", str(models))
        path = json.loads(out)["path"]
        raw = json.loads(open(path).read())
        raw["tau"] = 0.0
        with open(path, "w") as fh:
            json.dump(raw, fh)
        code, out = _run(capsys, "validate", "--model", path)
        assert code == EXIT_RUNTIME
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("text", ["[]", '{"version": 5}'])
    def test_validate_json_that_is_not_an_artifact(self, capsys, tmp_path, text):
        path = tmp_path / "etd_model_x.json"
        path.write_text(text)
        code, out = _run(capsys, "validate", "--model", str(path))
        assert code == EXIT_RUNTIME
        assert json.loads(out)["ok"] is False

    def test_validate_refuses_a_model_naming_url_risk(self, capsys, url_risk_model_dir):
        version = (url_risk_model_dir / "current").read_text()
        path = url_risk_model_dir / f"etd_model_{version}.json"
        code, out = _run(capsys, "validate", "--model", str(path))
        assert code == EXIT_RUNTIME
        result = json.loads(out)
        assert result["ok"] is False and "url_risk" in result["error"]

    HEADER = "hour,ip_numeric,status,failed_attempts,freq,geo_distance\n"
    BAD_CSVS = {
        "missing-column": ("hour,ip_numeric,status,failed_attempts,freq\n1,2,1,0,3\n",
                           "geo_distance"),
        "non-numeric-cell": (HEADER + "1,2,1,0,3,4\n1,2,1,0,3,far\n", "far"),
        "nan-cell": (HEADER + "1,2,1,0,3,4\nnan,2,1,0,3,4\n", "finite"),
        "untrainable": (HEADER + "1,2,1,0,3,4\n" * 10, "constant"),  # a TrainingError
    }

    @pytest.mark.parametrize("command, case", [  # validate trains nothing
        pair for pair in itertools.product(["train", "retrain", "validate"], BAD_CSVS)
        if pair != ("validate", "untrainable")])
    def test_bad_training_csv_is_a_json_error(self, capsys, tmp_path, command, case):
        from sentinel.etd.detector import train_model
        from sentinel.harness import gen_normal_rows
        from sentinel.retraining import persist_artifact

        text, named = self.BAD_CSVS[case]
        data = tmp_path / "rows.csv"
        data.write_text(text)
        if command == "validate":
            model = persist_artifact(train_model(gen_normal_rows(300, seed=5), tree_count=10),
                                     tmp_path / "models")
            argv = ["validate", "--model", str(model), "--data", str(data)]
        else:
            argv = [command, "--data", str(data), "--model-dir", str(tmp_path / "models")]
        code, out = _run(capsys, *argv)
        assert code == EXIT_RUNTIME
        result = json.loads(out)
        assert result["ok"] is False and named in result["error"]

    def test_gen_urls_to_stdout(self, capsys):
        code, out = _run(capsys, "gen", "urls", "-n", "20")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 20
        assert all({"url", "label"} <= set(json.loads(l)) for l in lines)


class TestEval:
    def test_eval_files(self, capsys, tmp_path):
        det = tmp_path / "det.json"
        lab = tmp_path / "lab.json"
        det.write_text(json.dumps([1, 1, 0, 0]))
        lab.write_text(json.dumps([1, 0, 1, 0]))
        code, out = _run(capsys, "eval", "--detections", str(det), "--labels", str(lab))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["true_positives"] == 1
        assert report["precision"] == 0.5 and report["recall"] == 0.5


class TestBench:
    def test_timing_report_has_no_confusion_counts(self, capsys):
        code, out = _run(capsys, "bench", "etd_score", "-n", "200")
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report) == {"target", "n", "throughput_per_sec",
                               "latency_p50_ms", "latency_p99_ms"}


class TestRun:
    def test_missing_config_is_config_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("CYBERSENTINEL_CONFIG", raising=False)
        code = main(["run"])
        assert code == EXIT_CONFIG

    def test_unreadable_config_path(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.conf")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("sig, inherited", [
        (signal.SIGTERM, signal.SIG_DFL),
        # A shell that starts a job in the background leaves SIGINT ignored.
        (signal.SIGINT, signal.SIG_IGN),
    ], ids=["SIGTERM", "SIGINT-ignored-by-parent"])
    def test_signal_stops_gracefully(self, tmp_path, sig, inherited):
        log = tmp_path / "auth.log"
        log.write_text("".join(
            f"Feb 12 15:23:{i:02d} host1 sshd[1]: Failed password for root "
            f"from 192.168.1.12 port 5{i:04d} ssh2\n" for i in range(6)))
        sink = tmp_path / "alerts.ndjson"
        conf = tmp_path / "agent.conf"
        conf.write_text(f"ssh.source = {log}\nssh.year = 2025\n"
                        f"sink.file = {sink}\netd.model_dir = {tmp_path / 'models'}\n"
                        f"dead_letter = {tmp_path / 'dead.ndjson'}\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "sentinel.cli", "run", "--config", str(conf)],
            cwd=str(tmp_path), env=_python_env(), stderr=subprocess.DEVNULL,
            preexec_fn=lambda: signal.signal(signal.SIGINT, inherited))
        try:
            deadline = time.monotonic() + 20
            while not (sink.exists() and sink.read_text().strip()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            proc.send_signal(sig)
            assert proc.wait(timeout=10) == EXIT_OK
        finally:
            proc.kill()
            proc.wait()
        events = [json.loads(line) for line in sink.read_text().splitlines()]
        assert [e["event_type"] for e in events] == ["BruteForce"]


    def test_model_naming_url_risk_exits_at_start(self, tmp_path, url_risk_model_dir):
        conf = tmp_path / "agent.conf"
        conf.write_text(f"etd.model_dir = {url_risk_model_dir}\n"
                        f"sink.file = {tmp_path / 'alerts.ndjson'}\n"
                        f"dead_letter = {tmp_path / 'dead.ndjson'}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "sentinel.cli", "run", "--config", str(conf)],
            cwd=str(tmp_path), env=_python_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_RUNTIME
        assert "url_risk" in proc.stderr


def test_daemon_imports_only_what_it_runs():
    code = ("import json, sys, sentinel.cli, sentinel.agent; "
            "print(json.dumps([m for m in ('scipy', 'requests', 'sentinel.harness') "
            "if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], env=_python_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(out.stdout) == []
