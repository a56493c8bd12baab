"""Agent configuration: flat ``key = value`` file format.

Lines starting with ``#`` are comments.  Every key is read once; an
unknown or repeated key, a value that cannot work and a referenced file
that does not exist are all named startup errors.  A key left out takes
the default of the dataclass field it sets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .mitigation import MitigationPolicy
from .phishing import DEFAULT_BRANDS, DEFAULT_KEYWORDS, DEFAULT_THRESHOLD
from .retraining import RetrainConfig, ScheduleSpec
from .sinks import SinkConfig
from .ssh_monitor import BruteForceConfig

ENV_CONFIG = "CYBERSENTINEL_CONFIG"


class ConfigError(ValueError):
    pass


def parse_flat_config(text: str) -> dict:
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"{key} is set twice, on line {lines[key]} and line {lineno}")
        values[key], lines[key] = value.strip(), lineno
    return values


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _list(raw: str) -> List[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _centroid(raw: str) -> tuple:
    lat, lon = map(float, raw.split(","))  # "lat, lon"; a wrong count is a ValueError
    return (lat, lon)


def _year(raw: str) -> Optional[int]:
    year = int(raw)
    if year == 0:
        return None  # no year: a stamp takes the current one
    if not 1 <= year <= 9999:
        raise ValueError(f"expected 0 (no year) or 1-9999, got {year}")
    return year


def _schedule(raw: str) -> str:
    ScheduleSpec.parse(raw)  # so that the error names the key
    return raw


def _given(**fields) -> dict:
    """The fields a config file set; the rest keep their dataclass defaults."""
    return {name: value for name, value in fields.items() if value is not None}


@dataclass
class PhishingConfig:
    blacklist_path: Optional[str] = None
    threshold: int = DEFAULT_THRESHOLD
    brands: List[str] = field(default_factory=lambda: list(DEFAULT_BRANDS))
    keywords: List[str] = field(default_factory=lambda: list(DEFAULT_KEYWORDS))

    def __post_init__(self):
        if not 1 <= self.threshold <= 100:  # a score runs 0-100
            raise ValueError("threshold must be in 1..100")


@dataclass
class EtdConfig:
    model_dir: str = "models"
    geo_table_path: Optional[str] = None
    centroid: tuple = (0.0, 0.0)
    freq_window_secs: float = 300.0

    def __post_init__(self):
        if self.freq_window_secs <= 0:
            raise ValueError("freq_window_secs must be > 0")


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

    def __post_init__(self):
        if self.ssh_source_path and self.ssh_source_command:
            raise ValueError("set ssh.source or ssh.source_command, not both")

    @classmethod
    def from_values(cls, values: dict) -> "AgentConfig":
        left = dict(values)

        def take(key, convert=str):
            raw = left.pop(key, None)
            try:
                return None if raw is None else convert(raw)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}")

        try:
            sinks = [SinkConfig(kind="stdout")] if take("sink.stdout", _bool) else []
            if (target := take("sink.file")) is not None:
                sinks.append(SinkConfig(kind="file", target=target))
            if (target := take("sink.webhook")) is not None:
                sinks.append(SinkConfig(kind="webhook", target=target, **_given(
                    timeout_secs=take("sink.webhook.timeout_secs", float),
                    retry=take("sink.webhook.retry", int))))
            cfg = cls(**_given(
                ssh=BruteForceConfig(**_given(
                    threshold=take("ssh.threshold", int),
                    window_secs=take("ssh.window_secs", float),
                    cooldown_secs=take("ssh.cooldown_secs", float),
                    whitelist=take("ssh.whitelist", lambda raw: set(_list(raw))))),
                ssh_source_path=take("ssh.source"),
                ssh_source_command=take("ssh.source_command"),
                ssh_year=take("ssh.year", _year),
                phishing=PhishingConfig(**_given(
                    blacklist_path=take("phish.blacklist_path"),
                    threshold=take("phish.threshold", int),
                    brands=take("phish.brands", _list),
                    keywords=take("phish.keywords", _list))),
                etd=EtdConfig(**_given(
                    model_dir=take("etd.model_dir"),
                    geo_table_path=take("etd.geo_table"),
                    centroid=take("etd.centroid", _centroid),
                    freq_window_secs=take("etd.freq_window_secs", float))),
                retrain=RetrainConfig(**_given(
                    window_days=take("etd.window_days", int),
                    holdout_fraction=take("etd.holdout_fraction", float),
                    quantile=take("etd.quantile", float),
                    schedule=take("etd.schedule", _schedule))),
                sinks=sinks,
                mitigation=MitigationPolicy(**_given(
                    enabled=take("mitigation.enabled", _bool),
                    command_template=take("mitigation.command"))),
                url_feed=take("url_feed"),
                dead_letter_path=take("dead_letter"),
            ))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if left:
            raise ConfigError("config keys that nothing reads: " + ", ".join(sorted(left)))
        if not cfg.sinks:  # after the key check, which names a misspelt sink key
            raise ConfigError("at least one sink must be configured "
                              "(sink.stdout / sink.file / sink.webhook)")
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
