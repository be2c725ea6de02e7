"""Scan shifts and the enumeration cap, overridable via config file or CLI flags.

Every other size (scan levels, partition and stopping depths) is fixed per
claim; a config key naming one is rejected with `ConfigError`, as is a
value that is not an int (shifts at least 1, the cap at least 0).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .fileformat import read_text


@dataclass(frozen=True)
class Config:
    shifts: int = 3
    max_candidates: int = 200_000

    def __post_init__(self):
        for name, least in (("shifts", 1), ("max_candidates", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")

    @classmethod
    def default(cls) -> "Config":
        cfg = cls()
        cap = os.environ.get("WTC_MAX_CANDIDATES")
        if cap:
            try:
                cap = int(cap)
            except ValueError:
                raise ConfigError(f"WTC_MAX_CANDIDATES must be an integer, got {cap!r}") from None
            cfg = replace(cfg, max_candidates=cap)
        return cfg

    def with_overrides(self, **kwargs) -> "Config":
        unknown = sorted(set(kwargs) - {f.name for f in fields(self)})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        live = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **live)


def parse_config_file(path: str) -> dict:
    """key=value lines; '#' comments; ints/floats coerced."""
    out = {}
    for raw in read_text(path, ConfigError).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out
