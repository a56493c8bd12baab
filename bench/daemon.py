"""Running the daemon as its own process and talking to it through files.

The daemon is started through ``python -m sentinel.cli run`` (the entry
behind ``sentinel run``) with the checkout's ``src`` on the path.  Input
reaches it only by appends to the files it tails, and alerts come back
only through its file sink.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent


def daemon_env(root: Path) -> dict:
    """The environment of a program process: the checkout's ``src`` first
    on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    return env


class Daemon:
    """One daemon process; ``traced`` runs it under the span recorder."""

    def __init__(self, root: Path, run_dir: Path, config: Path, traced: bool = False):
        self.run_dir = run_dir
        self.spans_path = run_dir / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_daemon.py"), str(self.spans_path),
                    "run", "--config", str(config)]
        else:
            argv = [sys.executable, "-m", "sentinel.cli", "run", "--config", str(config)]
        self._err = open(run_dir / "daemon.err", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=str(run_dir), env=daemon_env(root),
                                     stdin=subprocess.DEVNULL, stdout=self._err,
                                     stderr=subprocess.STDOUT)
        self.pid = self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def cpu_seconds(self) -> float:
        """CPU time the daemon's threads have run, with nanosecond
        resolution (the threads live as long as the daemon)."""
        total = 0
        for path in glob.glob(f"/proc/{self.pid}/task/*/schedstat"):
            try:
                with open(path) as fh:
                    total += int(fh.read().split()[0])
            except OSError:
                continue
        return total / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def freeze(self) -> None:
        """Stop the daemon and wait until no thread of it is running, so
        that no read of an input file can overlap the next append."""
        os.kill(self.pid, signal.SIGSTOP)
        deadline = time.monotonic() + 5.0
        while True:
            states = []
            for stat in glob.glob(f"/proc/{self.pid}/task/*/stat"):
                try:
                    with open(stat) as fh:
                        states.append(fh.read().rsplit(")", 1)[1].split()[0])
                except OSError:
                    continue  # the thread ended meanwhile
            if states and all(s in ("T", "t") for s in states):
                return
            if time.monotonic() > deadline:
                raise RuntimeError(f"daemon did not stop: thread states {states}")
            time.sleep(0.0001)

    def thaw(self) -> None:
        os.kill(self.pid, signal.SIGCONT)

    def stop(self, graceful: bool) -> int:
        """End the process and wait for it; graceful stops drain its queue."""
        if self.alive():
            try:
                os.kill(self.pid, signal.SIGCONT)
                if graceful:
                    self.proc.send_signal(signal.SIGINT)
                    self.proc.wait(timeout=20)
                else:
                    self.proc.kill()
            except subprocess.TimeoutExpired:
                self.proc.kill()
            except ProcessLookupError:
                pass
        code = self.proc.wait()
        self._err.close()
        return code

    def stderr_tail(self, n: int = 20) -> str:
        try:
            return "\n".join((self.run_dir / "daemon.err").read_text(errors="replace")
                             .splitlines()[-n:])
        except OSError:
            return ""


class Appender:
    """Appends whole lines to the daemon's input files.

    Each batch is written while the daemon is stopped, so the daemon
    can only ever see complete lines: a read that overlaps an append may
    otherwise end inside a line (see FOUND in CHANGES.md).
    """

    def __init__(self, daemon: Daemon, paths: Dict[str, Path]):
        self.daemon = daemon
        self._fds = {name: os.open(str(p), os.O_WRONLY | os.O_APPEND) for name, p in paths.items()}

    def append(self, batches: Dict[str, List[str]]) -> float:
        """Write every batch; returns the time the first byte was written."""
        data = {name: ("\n".join(lines) + "\n").encode() for name, lines in batches.items() if lines}
        self.daemon.freeze()
        try:
            first = time.perf_counter()
            for name, blob in data.items():
                view = memoryview(blob)
                while view:
                    view = view[os.write(self._fds[name], view):]
        finally:
            self.daemon.thaw()
        return first

    def close(self) -> None:
        for fd in self._fds.values():
            os.close(fd)


class SinkWatcher(threading.Thread):
    """Tails the file sink every millisecond and stamps each alert line
    with the time it was first seen.

    ``expect`` registers keys of alerts that must arrive; a group is done
    when all its keys have been seen.
    """

    def __init__(self, path: Path, key_fn):
        super().__init__(name="sink-watcher", daemon=True)
        self.path = path
        self.key_fn = key_fn
        self.count = 0  # alert lines seen
        self.first_seen: Dict[tuple, float] = {}
        self._pending: Dict[tuple, int] = {}
        self._remaining: Dict[int, int] = {}
        self.group_done: Dict[int, float] = {}
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._halt = threading.Event()

    def expect(self, group: int, keys) -> None:
        with self._lock:
            keys = [k for k in keys if k not in self.first_seen]
            for k in keys:
                self._pending[k] = group
            self._remaining[group] = len(keys)
            if not keys:
                self.group_done[group] = time.perf_counter()
                self._changed.notify_all()

    def wait_group(self, group: int, timeout: float) -> Optional[float]:
        with self._changed:
            self._changed.wait_for(lambda: group in self.group_done, timeout)
            return self.group_done.get(group)

    def missing(self, group: int) -> List[tuple]:
        with self._lock:
            return [k for k, g in self._pending.items() if g == group]

    def run(self) -> None:
        fd = os.open(str(self.path), os.O_RDONLY)
        rest = b""
        try:
            while not self._halt.is_set():
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    time.sleep(0.001)
                    continue
                now = time.perf_counter()
                data = rest + chunk
                *complete, rest = data.split(b"\n")
                self._take(now, complete)
        finally:
            os.close(fd)

    def _take(self, now: float, raw_lines: List[bytes]) -> None:
        with self._lock:
            for raw in raw_lines:
                self.count += 1
                try:
                    key = self.key_fn(json.loads(raw))
                except (ValueError, KeyError, TypeError, AttributeError):
                    continue
                if key in self.first_seen:
                    continue
                self.first_seen[key] = now
                group = self._pending.pop(key, None)
                if group is not None:
                    self._remaining[group] -= 1
                    if self._remaining[group] == 0:
                        self.group_done[group] = now
                        self._changed.notify_all()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5)
