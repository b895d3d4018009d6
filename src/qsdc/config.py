"""Line-oriented ``key = value`` session config files.

Grammar: one assignment per line, ``#`` starts a comment, blank lines are
skipped.  Keys are flat and snake_case; unknown or duplicate keys are
rejected with the offending line number.  Values are parsed per key (int,
float, bool, enum name, or string) and then assembled into a validated
:class:`~qsdc.protocol.SessionConfig`.

Exactly one of ``message`` (a literal bit string) or ``message_random_bits``
(a length; bits derived deterministically from the seed) must be present.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

from .errors import ConfigParseError, ValidationError
from .protocol import SessionConfig
from .rng import random_bits


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise ValueError("NaN is not a valid config value")
    return value


def _parse_bits(text: str) -> str:
    cleaned = "".join(text.split())
    if not cleaned or set(cleaned) - {"0", "1"}:
        raise ValueError(f"not a bit string: {text!r}")
    return cleaned


def _enum_parser(enum_cls):
    def parse(text: str):
        try:
            return enum_cls(text.lower())
        except ValueError:
            options = ", ".join(member.value for member in enum_cls)
            raise ValueError(f"expected one of ({options}), got {text!r}") from None

    return parse


def _leaves(cls, prefix: str = ""):
    """Yield ``(key, default)`` per leaf of ``cls``; a nested spec gives ``<field>_<subfield>``."""
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        if dataclasses.is_dataclass(f.default):
            yield from _leaves(type(f.default), key + "_")
        else:
            yield key, f.default


def _parser_for(default):
    if isinstance(default, enum.Enum):
        return _enum_parser(type(default))
    return {bool: _parse_bool, int: int, float: _parse_float}[type(default)]


#: key -> value parser: each :class:`SessionConfig` leaf by the type of its
#: default, plus the run keys.  This table is the authority on which keys exist.
KEY_PARSERS = {
    **{key: _parser_for(default) for key, default in _leaves(SessionConfig)},
    "seed": int,
    "message": _parse_bits,
    "message_random_bits": int,
}

#: The numeric leaves, which a sweep may vary, with the caster applied to grid values.
SWEEP_KEYS = {
    k: KEY_PARSERS[k] for k, default in _leaves(SessionConfig) if type(default) in (int, float)
}


def parse_config_text(text: str) -> dict[str, object]:
    """Parse config text into a typed key -> value mapping.

    Raises:
        ConfigParseError: On malformed lines, unknown keys, duplicate keys,
            or unparsable values — always naming the line number.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if not key or not value_text:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in KEY_PARSERS:
            raise ConfigParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = KEY_PARSERS[key](value_text)
        except ValueError as exc:
            raise ConfigParseError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return values


def _from_keys(cls, values: dict[str, object], prefix: str = ""):
    """Build ``cls`` from the keys :func:`_leaves` names; absent keys keep their default."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        if dataclasses.is_dataclass(f.default):
            kwargs[f.name] = _from_keys(type(f.default), values, key + "_")
        elif key in values:
            kwargs[f.name] = values[key]
    return cls(**kwargs)


@dataclass(frozen=True)
class RunSettings:
    """A fully resolved run: validated config, seed, and message bits."""

    config: SessionConfig
    seed: int
    message: str


def build_settings(values: dict[str, object], seed_override: int | None = None) -> RunSettings:
    """Assemble parsed key/values into a validated, runnable setting.

    Args:
        values: Output of :func:`parse_config_text`.
        seed_override: Replaces the config seed when given (used for the
            environment override); the replacement also drives random
            message generation.

    Raises:
        ValidationError: On out-of-range values, or when the message is
            given neither or both ways.
    """
    seed = int(values.get("seed", 0))
    if seed_override is not None:
        seed = seed_override
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")

    config = _from_keys(SessionConfig, values)

    has_literal = "message" in values
    has_random = "message_random_bits" in values
    if has_literal == has_random:
        raise ValidationError(
            "config must set exactly one of 'message' or 'message_random_bits'"
        )
    if has_literal:
        message = str(values["message"])
    else:
        n_bits = int(values["message_random_bits"])
        if n_bits < 1:
            raise ValidationError(f"message_random_bits must be positive, got {n_bits}")
        message = random_bits(seed, n_bits)
    return RunSettings(config=config, seed=seed, message=message)
