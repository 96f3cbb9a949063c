"""Run configuration: JSON parsing with strict validation.

Unknown keys are rejected and every constraint of AlmConfig/EngineConfig is
checked before any run starts. Runs are seed-free: the system is
deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .alm import AlmConfig
from .engine import EngineConfig
from .problems import make_builtin


class ConfigError(ValueError):
    """Configuration document violates the schema; names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    problem_name: str
    problem_params: dict = field(default_factory=dict)
    alm: AlmConfig = field(default_factory=AlmConfig)
    engine: EngineConfig | None = None
    workers: int = 1
    transport: str = "thread"
    output: str | None = None
    observable_index: int = 0


_ALM_KEYS = {f.name for f in fields(AlmConfig)}
_ENGINE_KEYS = {f.name for f in fields(EngineConfig)}
_TOP_KEYS = {"problem", "alm", "engine", "workers", "transport", "output",
             "observable_index"}
_PROBLEM_KEYS = {"name", "params"}


def _check_keys(section, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_numbers(section: dict, cls, where: str) -> None:
    """Integer fields of cls must hold integers and float fields finite
    numbers: 3.0, "0.1", true, NaN and a null where none is allowed are
    rejected."""
    for f in fields(cls):
        kind = f.type.split(" | ")[0]
        if f.name not in section or kind not in ("int", "float"):
            continue
        value = section[f.name]
        if value is None and f.type.endswith("| None"):
            continue
        if kind == "int" and not _is_int(value):
            raise ConfigError(f"'{where}.{f.name}' must be an integer")
        if kind == "float" and not ((_is_int(value)
                                     or isinstance(value, float))
                                    and math.isfinite(value)):
            raise ConfigError(f"'{where}.{f.name}' must be a finite number")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("top-level document must be an object")
    _check_keys(doc, _TOP_KEYS, "top level")
    if "problem" not in doc:
        raise ConfigError("missing required key 'problem'")
    if "engine" not in doc:
        raise ConfigError("missing required key 'engine'")
    prob = doc["problem"]
    if not isinstance(prob, dict) or "name" not in prob:
        raise ConfigError("'problem' must be an object with a 'name'")
    _check_keys(prob, _PROBLEM_KEYS, "problem")
    params = prob.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'problem.params' must be an object")
    alm_section = doc.get("alm", {})
    _check_keys(alm_section, _ALM_KEYS, "alm")
    _check_numbers(alm_section, AlmConfig, "alm")
    engine_section = doc["engine"]
    _check_keys(engine_section, _ENGINE_KEYS, "engine")
    _check_numbers(engine_section, EngineConfig, "engine")
    try:
        alm_cfg = AlmConfig(**alm_section)
        engine_cfg = EngineConfig(**engine_section)
        # built only to check the name and params; runs build their own
        n_dof = make_builtin(prob["name"], **params).n_dof
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    workers = doc.get("workers", 1)
    if not _is_int(workers) or workers < 1:
        raise ConfigError("'workers' must be a positive integer")
    transport = doc.get("transport", "thread")
    if transport not in ("thread", "process"):
        raise ConfigError("'transport' must be 'thread' or 'process'")
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("'output' must be a path string")
    obs = doc.get("observable_index", 0)
    if not _is_int(obs) or not 0 <= obs < n_dof:
        raise ConfigError(
            f"'observable_index' must be an integer in [0, {n_dof})")
    return RunConfig(
        problem_name=prob["name"],
        problem_params=params,
        alm=alm_cfg,
        engine=engine_cfg,
        workers=workers,
        transport=transport,
        output=output,
        observable_index=obs,
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
