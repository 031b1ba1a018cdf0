"""Runtime configuration (threads) and the library's default budgets.

Values come from (highest precedence first): explicit function arguments /
CLI flags, the FRIABLE_THREADS environment variable (threads only), a plain
``key=value`` config file, and the built-in defaults below.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import ArgumentError

DEFAULT_SEGMENT_SIZE = 1 << 20   # entries per sieve segment
DEFAULT_MAX_TABLE = 1 << 26      # largest in-memory factor table
DEFAULT_MAX_SIEVE_N = 1 << 40    # largest supported sieve bound
DEFAULT_DICKMAN_TOL = 1e-10
DEFAULT_DICKMAN_UMAX = 20.0

THREADS_ENV = "FRIABLE_THREADS"


@dataclass(frozen=True)
class RuntimeConfig:
    threads: int = 1


def parse_config_file(path: str) -> dict:
    """Parse a ``key=value`` config file; blank lines and ``#`` comments allowed."""
    values: dict = {}
    known = {f.name for f in fields(RuntimeConfig)}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeError) as exc:
        raise ArgumentError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ArgumentError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in known:
            raise ArgumentError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = int(val)
        except ValueError as exc:
            raise ArgumentError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def resolve_config(config_path: str | None = None, **overrides) -> RuntimeConfig:
    """Build a RuntimeConfig from file < environment < explicit overrides."""
    cfg = RuntimeConfig()
    if config_path is not None:
        cfg = replace(cfg, **parse_config_file(config_path))
    env_threads = os.environ.get(THREADS_ENV)
    if env_threads is not None:
        try:
            cfg = replace(cfg, threads=int(env_threads))
        except ValueError as exc:
            raise ArgumentError(f"{THREADS_ENV} must be an integer, got {env_threads!r}") from exc
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        cfg = replace(cfg, **overrides)
    if cfg.threads < 1:
        raise ArgumentError("thread count must be >= 1")
    return cfg
