"""Flat `key = value` config files with closed-world key checking, and the
text spelling of every config value.

One file per run kind; unknown keys are rejected so misspellings never fall
back to silent defaults. Blank lines and `#` comments are allowed.

Each config is a frozen dataclass whose field defaults are the only defaults.
It checks its values in `__post_init__`, which `dataclasses.replace` runs
too, so no invalid config exists. Its file keys are declared once, in a
table `key -> (field, parser, help)`. `from_kv` parses the keys a file gives
over a base config (the class defaults or a preset); `to_kv` spells a config
back as the values a manifest or checkpoint records (numbers and names as
they are, tuples comma-joined), and `from_kv` reads those back to an equal
config.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, ParseError


def read_kv(path) -> dict[str, str]:
    """Parse a key=value file into an ordered dict of raw strings."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def check_keys(values: dict[str, str], allowed, *, what: str) -> None:
    """Reject keys outside `allowed` (closed world)."""
    unknown = sorted(set(values) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown {what} key(s): {', '.join(unknown)}; accepted keys: "
            + ", ".join(sorted(allowed))
        )


def comma_list(text: str, kind) -> tuple:
    """Comma-separated values, each read by `kind`; an empty value is the
    empty tuple, and an empty entry is an error."""
    parts = text.split(",") if text.strip() else []
    if not all(part.strip() for part in parts):
        raise ValueError(f"empty entry in {text!r}")
    return tuple(kind(part) for part in parts)


def ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty value is the empty tuple."""
    return comma_list(text, int)


def from_kv(base, values: dict[str, str], keys: dict, *, what: str):
    """`base` with the keys given in `values` parsed into their fields."""
    check_keys(values, keys, what=what)
    changes = {}
    for key, text in values.items():
        name, parse, _ = keys[key]
        try:
            changes[name] = parse(text)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{what} key {key!r}: cannot read {text!r}: {exc}") from None
    return replace(base, **changes)


def spell(value):
    """A value as a manifest records it: numbers and strings as they are,
    tuples joined with commas."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return value


def to_kv(cfg, keys: dict) -> dict:
    """Each key's value in `cfg`, spelled."""
    return {key: spell(getattr(cfg, name)) for key, (name, _, _) in keys.items()}
