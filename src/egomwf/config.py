"""Enhancement configuration: typed container plus JSON schema parsing.

Parsing collects every violation before failing so a bad config file is
reported in one pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .covariance import DEFAULT_LOADING
from .errors import EgomwfError
from .filters import METHODS, ChannelPartition, FilterError, is_channel
from .spp import SPP_MODES, SppError, SppParams, is_number
from .stft import StftError, StftParams


class ConfigError(EgomwfError):
    """Carries the full list of violations found in a config."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(violations))

    def __reduce__(self):
        # rebuild from the violations, not from the formatted message
        return type(self), (self.violations,)


@dataclass(frozen=True)
class EnhanceConfig:
    partition: ChannelPartition
    stft: StftParams = field(default_factory=StftParams)
    spp: SppParams = field(default_factory=SppParams)
    spp_mode: str = "internal"
    spp_channel: int | None = None
    method: str = "pk-mwf"
    delta: float = DEFAULT_LOADING

    def __post_init__(self):
        violations = []
        if self.method not in METHODS:
            violations.append(f"method must be one of {METHODS}, got {self.method!r}")
        if self.spp_mode not in SPP_MODES:
            violations.append(f"spp_mode must be one of {SPP_MODES}, got {self.spp_mode!r}")
        if not is_number(self.delta) or not 0 <= self.delta < math.inf:
            violations.append(f"delta must be a number >= 0 and finite, got {self.delta!r}")
        if self.spp_channel is not None and not is_channel(self.spp_channel):
            violations.append(f"spp_channel must be a non-negative integer, got {self.spp_channel!r}")
        if violations:
            raise ConfigError(violations)


def _parse_section(raw: dict, key: str, builder, errors: list[str], default):
    """builder(raw[key]); default() if the key is absent or fails (noted in errors)."""
    section = raw.get(key)
    try:
        if section is not None and not isinstance(section, dict):
            raise TypeError(f"expected an object, got {type(section).__name__}")
        return default() if section is None else builder(section)
    except (TypeError, ValueError, OverflowError, StftError, SppError, FilterError) as exc:
        errors.append(f"{key}: {exc}")
        return default()


def _known_keys(section: dict, allowed: set[str]) -> dict:
    """section itself; raises TypeError naming any key outside allowed."""
    unknown = set(section) - allowed
    if unknown:
        raise TypeError(f"unknown keys {sorted(unknown)}")
    return section


def _build_stft(section: dict) -> StftParams:
    return StftParams(**_known_keys(section, {"fft_size", "sample_rate_hz"}))


def _build_spp(section: dict) -> SppParams:
    section = dict(section)
    if "xi_h1_db" in section:
        if "xi_h1" in section:
            raise ValueError("set xi_h1 or xi_h1_db, not both")
        db = section.pop("xi_h1_db")
        if not is_number(db):
            raise TypeError(f"xi_h1_db must be a number, got {db!r}")
        section["xi_h1"] = 10.0 ** (float(db) / 10.0)
    allowed = {"xi_h1", "alpha_psd", "spp_cap", "init_frames", "threshold"}
    return SppParams(**_known_keys(section, allowed))


def _build_partition(section: dict) -> ChannelPartition:
    _known_keys(section, {"speech_noise_channels", "noise_only_channels", "ref_channel"})
    return ChannelPartition(
        speech_noise_channels=tuple(section.get("speech_noise_channels", ())),
        noise_only_channels=tuple(section.get("noise_only_channels", ())),
        ref_channel=section.get("ref_channel", 0),
    )


def parse_config(raw: dict, overrides: dict | None = None) -> EnhanceConfig:
    """Build an EnhanceConfig from a JSON-shaped dict, collecting all errors."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError([f"top level must be an object, got {type(raw).__name__}"])
    raw = dict(raw)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    stft = _parse_section(raw, "stft", _build_stft, errors, StftParams)
    spp = _parse_section(raw, "spp", _build_spp, errors, SppParams)
    partition = _parse_section(raw, "partition", _build_partition, errors, lambda: None)
    if "partition" not in raw:
        errors.append("partition: required section is missing")

    known = {"stft", "spp", "partition", "spp_mode", "spp_channel", "method", "delta"}
    unknown = set(raw) - known
    if unknown:
        errors.append(f"unknown top-level keys: {sorted(unknown)}")

    if errors or partition is None:
        raise ConfigError(errors or ["partition: could not be parsed"])
    # keys the file leaves out take EnhanceConfig's defaults
    settings = {k: raw[k] for k in ("spp_mode", "spp_channel", "method", "delta") if k in raw}
    try:
        if is_number(settings.get("delta")):  # ints as floats, so reports do not change
            settings["delta"] = float(settings["delta"])
        return EnhanceConfig(partition=partition, stft=stft, spp=spp, **settings)
    except (TypeError, ValueError) as exc:
        raise ConfigError([str(exc)]) from exc


def load_config(path: str | Path, overrides: dict | None = None) -> EnhanceConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    try:
        raw = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    return parse_config(raw, overrides)
