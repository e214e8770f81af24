"""Experiment configuration: a schema-versioned key-value format.

Configs round-trip losslessly through JSON. Validation is strict:
unknown keys are rejected with the offending key named, so typos fail
loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError

SCHEMA_VERSION = 1

COMMANDS = ("classify", "spectrum", "synth", "identify", "reconstruct")

#: Keys shared by every kernel block in params.
KERNEL_KEYS = {"kernel", "alpha", "width", "h", "v", "g",
               "basis", "pole", "count", "window", "eigenvalues"}

PARAM_KEYS: dict[str, set[str]] = {
    "classify": KERNEL_KEYS,
    "spectrum": KERNEL_KEYS | {"grid", "track"},
    "synth": {"basis", "pole", "count", "window", "eigenvalues", "bound"},
    "identify": {"alpha", "truth_coeffs", "truth_poles", "input", "n",
                 "sigma", "gamma", "gammas", "window", "orders"},
    "reconstruct": KERNEL_KEYS | {"d", "ranks"},
}

TOP_KEYS = {"schema_version", "command", "seed", "output_dir", "threads",
            "params"}


def as_number(value: Any, kind: type, what: str) -> Any:
    """value as a finite float or an int; anything else is a ConfigError.

    Bools and floats with a fractional part are not integers.
    """
    try:
        out = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if kind is int and isinstance(value, float) and out != value:
        out = None
    if out is None or (kind is float and not math.isfinite(out)):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{what} must be {noun}, got {value!r}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration of one CLI invocation."""

    command: str
    seed: int | None = None
    output_dir: str | None = None
    threads: int = 1
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        allowed = PARAM_KEYS[self.command]
        for key in self.params:
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in {self.command} "
                                  f"params")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "threads": self.threads,
            "params": dict(self.params),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def config_from_dict(raw: dict[str, Any]) -> ExperimentConfig:
    for key in raw:
        if key not in TOP_KEYS:
            raise ConfigError(f"unknown key {key!r} in config")
    if raw.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version "
                          f"{raw.get('schema_version')!r}, expected "
                          f"{SCHEMA_VERSION}")
    if "command" not in raw:
        raise ConfigError("config is missing the 'command' key")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    seed = raw.get("seed")
    if seed is not None:
        seed = as_number(seed, int, "seed")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
    return ExperimentConfig(
        command=raw["command"],
        seed=seed,
        output_dir=output_dir,
        threads=as_number(raw.get("threads", 1), int, "threads"),
        params=dict(params),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config_from_dict(raw)
