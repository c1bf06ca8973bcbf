"""Flat `key = value` config files with closed-world key checking.

One file per run kind; unknown keys are rejected so misspellings never fall
back to silent defaults. Blank lines and `#` comments are allowed.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError, ParseError


def read_kv(path) -> dict[str, str]:
    """Parse a key=value file into an ordered dict of raw strings."""
    out: dict[str, str] = {}
    text = Path(path).read_text()
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


def as_int(values: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in values:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(values[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected integer, got {values[key]!r}") from None


def as_float(values: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in values:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(values[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected number, got {values[key]!r}") from None


def as_str(values: dict[str, str], key: str, default: str | None = None) -> str:
    if key not in values:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    return values[key]


def as_bool(values: dict[str, str], key: str, default: bool) -> bool:
    if key not in values:
        return default
    raw = values[key].lower()
    if raw in ("on", "true", "1", "yes"):
        return True
    if raw in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"key {key!r}: expected on/off, got {values[key]!r}")
