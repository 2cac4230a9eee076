"""Settings files and the field checks shared by every settings dataclass.

A pipeline config (the CLI's PipelineConfig) and an experiment plan (the
sweep's ExperimentPlan) are frozen dataclasses read from JSON. Both are
parsed, type-checked against their field annotations and range-checked
here, so a bad value raises ConfigError naming its field the same way
whichever file it came from.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

from .errors import ConfigError


def check_fields(*checks: tuple[str, bool, str]) -> None:
    """Raise ConfigError for the first (field, ok, message) check that fails."""
    for name, ok, message in checks:
        if not ok:
            raise ConfigError(f"config field {name}: {message}")


def check_shared_fields(
    sample_rate_hz: int, band_top_hz: float, anc_taps: int, kmeans_k: int
) -> None:
    """Checks common to ExperimentPlan and the CLI's PipelineConfig."""
    check_fields(
        ("sample_rate_hz", sample_rate_hz > 0, "must be positive"),
        (
            "band_top_hz",
            band_top_hz < sample_rate_hz / 2,
            f"must be below the Nyquist frequency ({sample_rate_hz / 2:g} Hz)",
        ),
        ("anc_taps", anc_taps >= 0, "must be >= 0"),
        ("kmeans_k", kmeans_k >= 1, "must be >= 1"),
    )


def read_settings(path):
    """Parse a JSON settings file (a pipeline config or an experiment plan)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def _json_matches(value, hint) -> bool:
    """Whether a parsed JSON value has the type a dataclass field annotates."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_json_matches(value, arg) for arg in args)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(_json_matches(v, args[0]) for v in value)
    if isinstance(value, bool):  # JSON true/false is not a number
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def settings_from_dict(cls, data, what: str):
    """Build settings dataclass `cls` from parsed JSON, checking each value's
    type against its field's annotation; a nested dataclass field takes an
    object built the same way. Raises ConfigError naming the field."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} field(s): {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        hint = hints[name]
        if is_dataclass(hint):
            kwargs[name] = settings_from_dict(hint, value, name)
        elif _json_matches(value, hint):
            # A JSON integer in a float field loads as a float, so equal
            # settings echo the same bytes however they were spelled.
            kwargs[name] = float(value) if hint is float else value
        else:
            type_name = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"{what} field {name}: expected {type_name}, got {value!r}")
    return cls(**kwargs)
