"""Run configuration: sectioned key=value text, content hashing,
deterministic seed splitting, and logging setup.

Config text is line-oriented: `[section]` headers and `key=value` pairs,
with `#` comments. Config files and a checkpoint's stored train config are
read by the same strict reader, against a schema that the command line
derives from its flag declarations; unknown names are hard errors so typos
never pass silently.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import math
import os
from collections.abc import Iterable

import numpy as np

from .errors import ConfigError

# section -> key -> value type; callers derive it from their flag declarations
Schema = dict[str, dict[str, type]]


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def finite_float(text: str) -> float:
    """The value type of every float setting. NaN and the infinities are
    refused: they slip past range checks such as `sigma > 0` and end in a
    silent no-op or in non-finite parameters."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def check_finite(settings) -> None:
    """Refuse a NaN or infinite float field of the dataclass `settings`,
    naming the field. A config dataclass calls this first, so that its range
    checks, such as `sigma < 0`, see finite values only: NaN fails every
    comparison and would pass them silently."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


def parse_sections(lines: Iterable[str], schemas: Schema, source: str) -> dict[str, dict]:
    """Read `[section]` headers and key=value lines, each value as its key's
    type, rejecting unknown sections and keys, duplicate keys and values
    that do not read as their type, in every section; errors name `source`
    and the line."""
    sections: dict[str, dict] = {}
    current: str | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in schemas:
                raise ConfigError(f"{source}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in schemas[current]:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} in [{current}]")
        kind = schemas[current][key]
        try:
            sections[current][key] = _BOOLS[value.lower()] if kind is bool else kind(value)
        except (KeyError, ValueError) as e:
            raise ConfigError(
                f"{source}:{lineno}: [{current}] {key}: cannot read {value!r} as {kind.__name__}"
            ) from e
    return sections


def parse_config_file(path: str, schemas: Schema) -> dict[str, dict]:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return parse_sections(f, schemas, path)
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not valid UTF-8 ({e.reason})") from e


def canonical_text(section: str, values: dict) -> str:
    lines = [f"[{section}]"]
    for key in sorted(values):
        lines.append(f"{key}={values[key]}")
    return "\n".join(lines) + "\n"


def config_hash(section: str, values: dict) -> str:
    """Short content digest of the resolved configuration."""
    digest = hashlib.sha256(canonical_text(section, values).encode("utf-8")).hexdigest()
    return digest[:12]


def subsystem_seed(seed: int, label: str) -> int:
    """Deterministic per-subsystem seed derived from the top-level seed."""
    digest = hashlib.sha256(f"{label}:{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def subsystem_rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(subsystem_seed(seed, label))


def setup_logging() -> logging.Logger:
    """Honor XMAL_LOG={error,info,debug}; defaults to error."""
    level_name = os.environ.get("XMAL_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(f"XMAL_LOG must be one of {sorted(levels)}, got {level_name!r}")
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logger = logging.getLogger("xmal")
    logger.setLevel(levels[level_name])
    return logger
