"""Automated mitigation: render (and optionally run) a block command.

Only BruteForce events are eligible; emergent anomalies go to the
manual-review queue instead.  Dry-run is the default and never executes
anything.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
from dataclasses import dataclass, field
from typing import Callable, Optional

from .events import BruteForce, EmergentThreat, SecurityEvent

log = logging.getLogger(__name__)

DEFAULT_TEMPLATE = "ufw deny from {ip} to any"
# Seconds a block command may run before it is killed: it runs on the
# dispatcher thread, so a hung command would hold every sink.
BLOCK_TIMEOUT_SECS = 10.0


@dataclass
class MitigationPolicy:
    enabled: bool = False  # False = dry-run
    command_template: str = DEFAULT_TEMPLATE

    def __post_init__(self):
        if self.command_template.count("{ip}") != 1:
            raise ValueError("command_template must contain {ip} exactly once")


@dataclass
class MitigationAction:
    ip: str
    command: str
    executed: bool
    exit_status: Optional[int] = None
    kind: str = "block"  # "block" | "would_execute" | "manual_review"

    def to_dict(self) -> dict:
        return {
            "action": self.kind,
            "ip": self.ip,
            "command": self.command,
            "executed": self.executed,
            "exit_status": self.exit_status,
        }


def _run_shell(command: str) -> int:
    """Run ``command`` in a shell; its exit status.  A command still
    running after BLOCK_TIMEOUT_SECS is killed with its process group and
    reads as killed by SIGKILL."""
    with subprocess.Popen(command, shell=True, start_new_session=True) as proc:
        try:
            return proc.wait(timeout=BLOCK_TIMEOUT_SECS)
        except subprocess.TimeoutExpired:
            log.error("mitigation command timed out after %.1fs: %s", BLOCK_TIMEOUT_SECS, command)
            os.killpg(proc.pid, signal.SIGKILL)
            return proc.wait()


def mitigate(
    event: SecurityEvent,
    policy: MitigationPolicy,
    runner: Callable[[str], int] = _run_shell,
) -> Optional[MitigationAction]:
    """Apply the mitigation policy to one event.

    Returns None for events the policy does not apply to (e.g.
    PhishingAlert); EmergentThreat events get a review-queue entry.
    """
    if isinstance(event, EmergentThreat):
        action = MitigationAction(ip=str(event.ip), command="", executed=False,
                                  kind="manual_review")
        log.info("mitigation: %s", action.to_dict())
        return action
    if not isinstance(event, BruteForce):
        return None

    command = policy.command_template.format(ip=str(event.ip))
    if not policy.enabled:
        action = MitigationAction(ip=str(event.ip), command=command,
                                  executed=False, kind="would_execute")
        log.info("mitigation (dry-run): %s", action.to_dict())
        return action

    status = runner(command)
    action = MitigationAction(ip=str(event.ip), command=command,
                              executed=True, exit_status=status, kind="block")
    if status != 0:
        log.error("mitigation failed (exit %d): %s", status, command)
    else:
        log.info("mitigation: %s", action.to_dict())
    return action
