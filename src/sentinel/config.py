"""Agent configuration: flat ``key = value`` file format.

Lines starting with ``#`` are comments.  Every referenced file must
exist at startup; a missing one is a named startup error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .mitigation import DEFAULT_TEMPLATE, MitigationPolicy
from .phishing import DEFAULT_BRANDS, DEFAULT_KEYWORDS, HeuristicWeights
from .retraining import RetrainConfig, ScheduleSpec
from .sinks import SinkConfig
from .ssh_monitor import BruteForceConfig

ENV_CONFIG = "CYBERSENTINEL_CONFIG"


class ConfigError(ValueError):
    pass


def parse_flat_config(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _get_float(values, key, default):
    try:
        return float(values.get(key, default))
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {values[key]!r}")


def _get_int(values, key, default):
    try:
        return int(values.get(key, default))
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {values[key]!r}")


def _get_bool(values, key, default):
    raw = str(values.get(key, default)).strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


def _get_list(values, key, default):
    raw = values.get(key)
    if raw is None:
        return list(default)
    return [item.strip() for item in raw.split(",") if item.strip()]


@dataclass
class PhishingConfig:
    blacklist_path: Optional[str] = None
    weights: HeuristicWeights = field(default_factory=HeuristicWeights)
    brands: List[str] = field(default_factory=lambda: list(DEFAULT_BRANDS))
    keywords: List[str] = field(default_factory=lambda: list(DEFAULT_KEYWORDS))


@dataclass
class EtdConfig:
    model_dir: str = "models"
    geo_table_path: Optional[str] = None
    centroid: tuple = (0.0, 0.0)
    freq_window_secs: float = 300.0
    iforest_threshold: float = 0.7


@dataclass
class AgentConfig:
    ssh: BruteForceConfig = field(default_factory=BruteForceConfig)
    ssh_source_path: Optional[str] = None
    ssh_source_command: Optional[str] = None
    ssh_year: Optional[int] = None
    phishing: PhishingConfig = field(default_factory=PhishingConfig)
    etd: EtdConfig = field(default_factory=EtdConfig)
    retrain: RetrainConfig = field(default_factory=RetrainConfig)
    sinks: List[SinkConfig] = field(default_factory=list)
    mitigation: MitigationPolicy = field(default_factory=MitigationPolicy)
    url_feed: Optional[str] = None
    dead_letter_path: str = "dead_letter.ndjson"

    @classmethod
    def from_values(cls, values: dict) -> "AgentConfig":
        try:
            ssh = BruteForceConfig(
                threshold=_get_int(values, "ssh.threshold", 5),
                window_secs=_get_float(values, "ssh.window_secs", 300),
                poll_secs=_get_float(values, "ssh.poll_secs", 60),
                cooldown_secs=(
                    _get_float(values, "ssh.cooldown_secs", 0)
                    if "ssh.cooldown_secs" in values else None),
                whitelist=set(_get_list(values, "ssh.whitelist", [])),
            )
            retrain = RetrainConfig(
                window_days=_get_int(values, "etd.window_days", 30),
                holdout_fraction=_get_float(values, "etd.holdout_fraction", 0.2),
                quantile=_get_float(values, "etd.quantile", 0.99),
                schedule=values.get("etd.schedule", "0 3 * * 1"),
            )
            ScheduleSpec.parse(retrain.schedule)  # fail fast on a bad spec
        except ValueError as exc:
            raise ConfigError(str(exc))

        weights = HeuristicWeights()
        if "phish.threshold" in values:
            weights.flag_threshold = _get_int(values, "phish.threshold", 70)
        phishing = PhishingConfig(
            blacklist_path=values.get("phish.blacklist_path"),
            weights=weights,
            brands=_get_list(values, "phish.brands", DEFAULT_BRANDS),
            keywords=_get_list(values, "phish.keywords", DEFAULT_KEYWORDS),
        )

        centroid_raw = _get_list(values, "etd.centroid", ["0", "0"])
        if len(centroid_raw) != 2:
            raise ConfigError("etd.centroid must be 'lat, lon'")
        etd = EtdConfig(
            model_dir=values.get("etd.model_dir", "models"),
            geo_table_path=values.get("etd.geo_table"),
            centroid=(float(centroid_raw[0]), float(centroid_raw[1])),
            freq_window_secs=_get_float(values, "etd.freq_window_secs", 300),
            iforest_threshold=_get_float(values, "etd.iforest_threshold", 0.7),
        )

        sinks: List[SinkConfig] = []
        if _get_bool(values, "sink.stdout", False):
            sinks.append(SinkConfig(kind="stdout"))
        if "sink.file" in values:
            sinks.append(SinkConfig(kind="file", target=values["sink.file"]))
        if "sink.webhook" in values:
            try:
                sinks.append(SinkConfig(
                    kind="webhook",
                    target=values["sink.webhook"],
                    timeout_secs=_get_float(values, "sink.webhook.timeout_secs", 5),
                    retry=_get_int(values, "sink.webhook.retry", 2),
                ))
            except ValueError as exc:
                raise ConfigError(str(exc))
        if not sinks:
            raise ConfigError("at least one sink must be configured "
                              "(sink.stdout / sink.file / sink.webhook)")

        try:
            mitigation = MitigationPolicy(
                enabled=_get_bool(values, "mitigation.enabled", False),
                command_template=values.get("mitigation.command", DEFAULT_TEMPLATE),
            )
        except ValueError as exc:
            raise ConfigError(str(exc))

        cfg = cls(
            ssh=ssh,
            ssh_source_path=values.get("ssh.source"),
            ssh_source_command=values.get("ssh.source_command"),
            ssh_year=_get_int(values, "ssh.year", 0) or None,
            phishing=phishing,
            etd=etd,
            retrain=retrain,
            sinks=sinks,
            mitigation=mitigation,
            url_feed=values.get("url_feed"),
            dead_letter_path=values.get("dead_letter", "dead_letter.ndjson"),
        )
        cfg.validate_paths()
        return cfg

    @classmethod
    def load(cls, path: Optional[str] = None) -> "AgentConfig":
        path = path or os.environ.get(ENV_CONFIG)
        if not path:
            raise ConfigError(f"no config path given and {ENV_CONFIG} is unset")
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        return cls.from_values(parse_flat_config(text))

    def validate_paths(self) -> None:
        for label, candidate in (
            ("phish.blacklist_path", self.phishing.blacklist_path),
            ("etd.geo_table", self.etd.geo_table_path),
            ("ssh.source", self.ssh_source_path),
            ("url_feed", self.url_feed),
        ):
            if candidate and not Path(candidate).exists():
                raise ConfigError(f"{label} refers to a missing file: {candidate}")
