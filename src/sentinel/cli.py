"""Command-line entry points.  Every subcommand emits JSON to stdout."""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

import numpy as np

from .config import AgentConfig, ConfigError
from .events import Timestamp
from .etd.detector import score_batch, train_model
from .etd.features import load_feature_csv, save_feature_csv
from .phishing import Blacklist, UrlEvaluator
from .retraining import (
    CorruptArtifactError,
    RetrainConfig,
    load_artifact,
    persist_artifact,
    retrain,
)
from .ssh_monitor import scan_batch

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _stop_on_signals(stop_event) -> None:
    """SIGTERM or SIGINT asks the agent to stop and drain its queue; a
    second one ends the process at once.  Installed whatever the parent
    left, so that a daemon started in the background, with SIGINT
    ignored, still stops gracefully."""
    def request_stop(signum, frame):
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, signal.SIG_DFL)
        stop_event.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, request_stop)


def cmd_run(args) -> int:
    from .agent import Agent
    try:
        cfg = AgentConfig.load(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        agent = Agent(cfg)
        _stop_on_signals(agent.stop_event)
        return agent.run_forever()
    except Exception as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def cmd_parse(args) -> int:
    # Only "\n" ends a line, as in the daemon's TailSource: str.splitlines
    # would also split at U+2028, \x85 or \x1c inside an attacker's username.
    lines = Path(args.logfile).read_bytes().decode("utf-8", errors="replace").split("\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the last line
    records, events, skipped = scan_batch(lines, year=args.year)
    _emit({
        "records": len(records),
        "skipped": skipped,
        "events": [e.to_dict() for e in events],
    })
    return EXIT_OK


def cmd_score_url(args) -> int:
    blacklist = Blacklist.load(args.blacklist) if args.blacklist else Blacklist()
    evaluator = UrlEvaluator(blacklist=blacklist)
    try:
        verdict, event = evaluator.evaluate(args.url)
    except ValueError as exc:
        _emit({"url": args.url, "error": str(exc)})
        return EXIT_RUNTIME
    _emit({
        "url": verdict.url,
        "score": verdict.score,
        "detection_method": verdict.method.value,
        "triggered": list(verdict.triggered),
        "flagged": event is not None,
    })
    return EXIT_OK


def cmd_train(args) -> int:
    rows = load_feature_csv(args.data)
    artifact = train_model(rows, q=args.quantile, seed=args.seed)
    path = persist_artifact(artifact, args.model_dir)
    _emit({
        "version": artifact.version,
        "rows": len(rows),
        "features": artifact.feature_names,
        "tau": artifact.gaussian.tau,
        "path": str(path),
    })
    return EXIT_OK


def cmd_retrain(args) -> int:
    rows = load_feature_csv(args.data)
    cfg = RetrainConfig(quantile=args.quantile, holdout_fraction=args.holdout)
    # The rows' order in the file is their time order.
    artifact, report = retrain(np.arange(len(rows)), rows, cfg, trained_at=Timestamp.now())
    result = {
        "version": artifact.version,
        "accepted": report.accepted,
        "holdout_flag_rate": report.holdout_flag_rate,
        "holdout_size": report.holdout_size,
        "train_size": report.train_size,
    }
    if report.accepted:
        result["path"] = str(persist_artifact(artifact, args.model_dir))
    else:
        result["reason"] = report.reason
    _emit(result)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        artifact = load_artifact(args.model)
    except CorruptArtifactError as exc:
        _emit({"ok": False, "error": str(exc)})
        return EXIT_RUNTIME
    result = {
        "ok": True,
        "version": artifact.version,
        "trained_at": artifact.trained_at.isoformat(),
        "features": artifact.feature_names,
        "tau": artifact.gaussian.tau,
    }
    if args.data:
        rows = load_feature_csv(args.data)
        flagged = sum(1 for result in score_batch(artifact, rows) if result.is_anomalous)
        result["rows"] = len(rows)
        result["flag_rate"] = flagged / len(rows) if rows else None
    _emit(result)
    return EXIT_OK


def cmd_gen(args) -> int:
    from . import harness
    scenario = harness.Scenario(
        seed=args.seed,
        duration_hours=args.hours,
        normal_login_rate=args.rate,
        anomaly_rate=args.anomaly_rate,
        n_rows=args.n,
    )
    if args.what == "ssh":
        lines, bursts = harness.gen_ssh_logs(scenario)
        if args.out:
            Path(args.out).write_text("\n".join(lines) + ("\n" if lines else ""))
            _emit({"lines": len(lines), "bursts": len(bursts), "out": args.out})
        else:
            for line in lines:
                print(line)
    elif args.what == "etd":
        rows, labels = harness.gen_etd_stream(scenario)
        if args.out:
            save_feature_csv(args.out, rows)
            _emit({"rows": len(rows), "anomalies": sum(labels), "out": args.out})
        else:
            for row, label in zip(rows, labels):
                print(json.dumps({**row._asdict(), "label": int(label)}))
    elif args.what == "urls":
        urls, labels = harness.gen_urls(scenario, n=args.n or 100)
        for url, label in zip(urls, labels):
            print(json.dumps({"url": url, "label": int(label)}))
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import harness
    report = harness.bench(args.target, args.count, seed=args.seed)
    _emit({"target": args.target, "n": args.count, **report._asdict()})
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import harness
    detections = json.loads(Path(args.detections).read_text())
    labels = json.loads(Path(args.labels).read_text())
    report = harness.evaluate([bool(d) for d in detections], [bool(l) for l in labels])
    _emit(report.to_dict())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sentinel",
                                     description="Security monitoring daemon and tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the monitoring agent")
    p.add_argument("--config", help="path to key=value config file")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("parse", help="scan an sshd log file for brute force")
    p.add_argument("logfile")
    p.add_argument("--year", type=int, default=None)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("score-url", help="score one URL")
    p.add_argument("url")
    p.add_argument("--blacklist", help="blacklist file path")
    p.set_defaults(fn=cmd_score_url)

    p = sub.add_parser("train", help="train the anomaly model from a feature CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model-dir", default="models")
    p.add_argument("--quantile", type=float, default=0.99)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("retrain", help="retrain with hold-out validation gate")
    p.add_argument("--data", required=True)
    p.add_argument("--model-dir", default="models")
    p.add_argument("--quantile", type=float, default=0.99)
    p.add_argument("--holdout", type=float, default=0.2)
    p.set_defaults(fn=cmd_retrain)

    p = sub.add_parser("validate", help="check an artifact (optionally on a dataset)")
    p.add_argument("--model", required=True)
    p.add_argument("--data")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("gen", help="generate synthetic data")
    p.add_argument("what", choices=["ssh", "etd", "urls"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--hours", type=float, default=1.0)
    p.add_argument("--rate", type=float, default=60.0)
    p.add_argument("--anomaly-rate", type=float, default=0.0)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="throughput/latency benchmark")
    p.add_argument("target", choices=["ssh_parse", "phish_eval", "etd_score"])
    p.add_argument("-n", "--count", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("eval", help="precision/recall/F1 from detection + label files")
    p.add_argument("--detections", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # ValueError: a bad CSV, or a TrainingError
        if not getattr(args, "data", None):  # train, retrain and validate --data
            raise
        _emit({"ok": False, "data": args.data, "error": str(exc)})
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
