"""Experiment configuration: a schema-versioned key-value format.

Configs round-trip losslessly through JSON. Validation is strict:
unknown keys are rejected with the offending key named, so typos fail
loudly instead of silently running defaults. The kernel schema below is
the one table of kernel keys; the params keys, the CLI flags and the
kernel config round trip derive from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError, DomainError
from .generators import parse_generator

SCHEMA_VERSION = 1

# --------------------------------------------------------------------------
# The kernel schema: the one table of which keys describe each kernel
# design and of their types. Params validation, the CLI flags and the
# kernel config round trip are all derived from it.

#: Each kernel family's config keys and their types. A float or int value
#: is coerced by as_number; any other type is applied to the value as is
#: (parse_generator reads a sequence spec such as "power:-2"). A family
#: with a "basis" key also takes the keys of the basis kind it names.
KERNEL_SCHEMA: dict[str, dict[str, Any]] = {
    "stable-spline": {"alpha": float},
    "gaussian": {"width": float},
    "translation-invariant": {"h": parse_generator},
    "rank-one": {"v": parse_generator},
    "diagonal": {"g": parse_generator},
    "mercer": {"basis": str, "count": int, "window": int,
               "eigenvalues": parse_generator},
}

#: Each orthonormal basis kind's further keys and their types.
BASIS_SCHEMA: dict[str, dict[str, Any]] = {
    "canonical": {},
    "laguerre": {"pole": float},
    "random": {"seed": int},
}

#: Kernel keys a config may leave out, with the values they then take.
KERNEL_DEFAULTS = {"width": 1.0, "seed": 0}

#: The kernel the CLI builds when params name no family. When params name
#: this family, its keys here are their defaults (the library requires
#: them).
CLI_KERNEL = {"family": "stable-spline", "alpha": 0.95}

_ANY_FAMILY = tuple(KERNEL_SCHEMA)

#: Per command: the kernel families it builds (none for identify) and its
#: own params keys with their types. List-valued keys have no flag.
COMMAND_SCHEMA: dict[str, tuple[tuple[str, ...], dict[str, type]]] = {
    "classify": (_ANY_FAMILY, {}),
    "spectrum": (_ANY_FAMILY, {"grid": str, "track": str}),
    "synth": (("mercer",), {"bound": float}),
    "identify": ((), {"alpha": float, "input": str, "n": int,
                      "sigma": float, "gamma": float, "window": int,
                      "truth_coeffs": list, "truth_poles": list,
                      "gammas": list, "orders": list}),
    "reconstruct": (_ANY_FAMILY, {"d": int, "ranks": list}),
}

COMMANDS = tuple(COMMAND_SCHEMA)

#: The largest magnitude of a value that sizes an array: a count, an
#: order, a window or a grid bound. It is far above the paper's largest
#: order (2000) and is checked before anything is allocated.
MAX_SIZE = 2**15

#: The int keys whose values (or each of whose entries or bounds) size
#: arrays, so as_size checks them against MAX_SIZE.
SIZE_KEYS = frozenset({"count", "window", "d", "n", "ranks", "orders",
                       "grid", "track"})

TOP_KEYS = {"schema_version", "command", "seed", "output_dir", "threads",
            "params"}


def _param_keys(command: str) -> dict[str, Any]:
    families, own = COMMAND_SCHEMA[command]
    # With a choice of family, the "kernel" key makes it.
    keys: dict[str, Any] = {"kernel": str} if len(families) > 1 else {}
    for family in families:
        keys.update(KERNEL_SCHEMA[family])
        if "basis" in KERNEL_SCHEMA[family]:
            for extra in BASIS_SCHEMA.values():
                keys.update(extra)
    keys.update(own)
    return keys


#: Each command's params keys with their types.
PARAM_KEYS = {command: _param_keys(command) for command in COMMANDS}


def schema_entry(table: dict[str, Any], name: Any, what: str) -> Any:
    """table[name]; an unknown or non-string name is a DomainError."""
    if isinstance(name, str) and name in table:
        return table[name]
    raise DomainError(f"unknown {what} {name!r}")


def coerce_keys(config: dict[str, Any], keys: dict[str, Any],
                what: str) -> dict[str, Any]:
    """config's values coerced to the types keys gives them.

    A key outside keys is a DomainError naming it, and so is a key of
    keys that config leaves out and KERNEL_DEFAULTS does not fill.
    """
    for key in config:
        if key not in keys:
            raise DomainError(f"unknown key {key!r} in {what} config")
    out = {}
    for key, kind in keys.items():
        if key in config:
            value = config[key]
            if key in SIZE_KEYS:
                out[key] = as_size(value, repr(key))
            elif kind in (int, float):
                out[key] = as_number(value, kind, repr(key))
            else:
                out[key] = kind(value)
        elif key in KERNEL_DEFAULTS:
            out[key] = KERNEL_DEFAULTS[key]
        else:
            raise DomainError(f"{what} config requires {key!r}")
    return out


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


def as_size(value: Any, what: str) -> int:
    """value as an int of magnitude at most MAX_SIZE, else a ConfigError."""
    out = as_number(value, int, what)
    if abs(out) > MAX_SIZE:
        raise ConfigError(f"{what} must be at most {MAX_SIZE} in magnitude, "
                          f"got {value!r}")
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
