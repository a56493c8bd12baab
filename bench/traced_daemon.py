"""Runs the daemon with spans recorded around the public entry points it
calls, then writes the spans out when the daemon stops.

    python3 bench/traced_daemon.py SPANS.json run --config agent.conf

Spans are kept in memory as (start, end) pairs per entry point and
written once, at exit.  An entry point the program no longer has is
listed as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from array import array
from typing import Callable, Dict, Optional

perf = time.perf_counter

# span name -> (module, attribute path) of the entry point it wraps.
TARGETS = {
    "config.load": ("sentinel.config", "AgentConfig.load"),
    "ssh_monitor.poll": ("sentinel.ssh_monitor", "TailSource.poll"),
    "ssh_monitor.parse": ("sentinel.ssh_monitor", "parse_ssh_line"),
    "ssh_monitor.ingest": ("sentinel.ssh_monitor", "BruteForceDetector.ingest"),
    "etd.features.extract": ("sentinel.etd.features", "StreamingFeatureExtractor.extract"),
    "etd.detector.score": ("sentinel.etd.detector", "score_event"),
    "etd.gaussian.mahalanobis": ("sentinel.etd.gaussian", "mahalanobis_score"),
    "etd.iforest.iforest": ("sentinel.etd.iforest", "iforest_score"),
    "phishing.evaluate": ("sentinel.phishing", "UrlEvaluator.evaluate"),
    "phishing.parse_url": ("sentinel.phishing", "parse_url"),
    "phishing.levenshtein": ("sentinel.phishing", "levenshtein"),
    "phishing.blacklist_load": ("sentinel.phishing", "Blacklist.load"),
    "agent.emit": ("sentinel.agent", "Agent.emit"),
    "agent.handle": ("sentinel.agent", "Agent._handle"),
    "events.serialize": ("sentinel.events", "serialize_event"),
    "sinks.dispatch": ("sentinel.sinks", "dispatch_alert"),
    "sinks.file_deliver": ("sentinel.sinks", "FileSink.deliver"),
    "mitigation.mitigate": ("sentinel.mitigation", "mitigate"),
    "retraining.retrain": ("sentinel.retraining", "retrain"),
    "etd.iforest.build": ("sentinel.etd.iforest", "build_iforest"),
    "etd.gaussian.fit": ("sentinel.etd.gaussian", "fit_gaussian"),
    "retraining.persist": ("sentinel.retraining", "persist_artifact"),
    "retraining.load_current": ("sentinel.retraining", "load_current"),
}
# retrain() scores its hold-out rows through these too; such calls are
# not recorded, so their spans stay per-line scoring.
LINE_SCORING = {"etd.detector.score", "etd.gaussian.mahalanobis", "etd.iforest.iforest"}


class Recorder:
    def __init__(self):
        # array.extend with a tuple appends both values under the GIL,
        # so pairs from concurrent threads never interleave.
        self.spans: Dict[str, array] = {name: array("d") for name in TARGETS}
        self.extra: Dict[str, array] = {name: array("d") for name in TARGETS}
        self.enqueued: Dict[int, float] = {}
        self.absent = []
        self.local = threading.local()  # .retraining: inside retrain() on this thread

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        spans = self.spans[name]
        local = self.local
        line_scoring = name in LINE_SCORING
        retraining = name == "retraining.retrain"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if line_scoring and getattr(local, "retraining", False):
                return fn(*args, **kwargs)
            if retraining:
                local.retraining = True
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.extend((start, perf()))
                if retraining:
                    local.retraining = False
            if after is not None:
                after(start, args, result)
            return result
        return traced

    # Values recorded beside a span, by entry point.
    def after_poll(self, start, args, result):
        self.extra["ssh_monitor.poll"].extend((id(args[0]), len(result), start))

    def after_score(self, start, args, result):
        self.extra["etd.detector.score"].append(1.0 if getattr(result, "is_anomalous", False) else 0.0)

    def before_emit(self, fn):
        depth = self.extra["agent.emit"]
        enqueued = self.enqueued

        @functools.wraps(fn)
        def emit(agent, event, *args, **kwargs):
            depth.append(agent.queue.qsize())
            enqueued[id(event)] = perf()
            return fn(agent, event, *args, **kwargs)
        return emit

    def before_handle(self, fn):
        waits = self.extra["agent.handle"]
        enqueued = self.enqueued

        @functools.wraps(fn)
        def handle(agent, event, *args, **kwargs):
            queued = enqueued.pop(id(event), None)
            if queued is not None:
                waits.append(perf() - queued)
            return fn(agent, event, *args, **kwargs)
        return handle


def install(rec: Recorder) -> None:
    import importlib

    special = {"ssh_monitor.poll": rec.after_poll, "etd.detector.score": rec.after_score}
    for name, (module_name, attr_path) in TARGETS.items():
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            rec.absent.append(name)
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(rec.wrap(name, raw.__func__)))
            continue
        wrapped = rec.wrap(name, raw, special.get(name))
        if name == "agent.emit":
            wrapped = rec.before_emit(wrapped)
        elif name == "agent.handle":
            wrapped = rec.before_handle(wrapped)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        # A function is called through every module that imported it by name.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("sentinel") \
                    and getattr(module, attr, None) is raw:
                setattr(module, attr, wrapped)


def main(argv) -> int:
    spans_path, daemon_args = argv[0], argv[1:]
    # Keep the benchmark's own modules off the daemon's import path.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    start = perf()
    import sentinel.agent  # noqa: F401  (imported lazily by `sentinel run`)
    import sentinel.cli
    import_s = perf() - start
    rec = Recorder()
    install(rec)
    try:
        return sentinel.cli.main(daemon_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({
                "import_s": import_s,
                "absent": rec.absent,
                "spans": {k: v.tolist() for k, v in rec.spans.items()},
                "extra": {k: v.tolist() for k, v in rec.extra.items()},
            }, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
