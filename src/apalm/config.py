"""Run configuration: JSON parsing with strict validation.

Unknown keys are rejected and every constraint of AlmConfig/EngineConfig is
checked before any run starts. Runs are seed-free: the system is
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .alm import AlmConfig
from .engine import EngineConfig
from .problems import is_int, make_builtin
from .runtime import DEFAULT_TRANSPORT, PROCESS, THREAD


class ConfigError(ValueError):
    """Configuration document violates the schema; names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    problem_name: str
    engine: EngineConfig
    problem_params: dict = field(default_factory=dict)
    alm: AlmConfig = field(default_factory=AlmConfig)
    workers: int = 1
    transport: str = DEFAULT_TRANSPORT
    output: str | None = None
    observable_index: int = 0


_ALM_FIELDS = {f.name: f.type for f in fields(AlmConfig)}
_ENGINE_FIELDS = {f.name: f.type for f in fields(EngineConfig)}
_TOP_KEYS = {"problem", "alm", "engine", "workers", "transport", "output",
             "observable_index"}
_PROBLEM_KEYS = {"name", "params"}


def _check_keys(section, allowed, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


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
    _check_keys(alm_section, _ALM_FIELDS, "alm")
    engine_section = doc["engine"]
    _check_keys(engine_section, _ENGINE_FIELDS, "engine")
    try:
        alm_cfg = AlmConfig(**alm_section)
        engine_cfg = EngineConfig(**engine_section)
        # built only to check the name and params; runs build their own
        n_dof = make_builtin(prob["name"], **params).n_dof
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    workers = doc.get("workers", 1)
    if not is_int(workers) or workers < 1:
        raise ConfigError("'workers' must be a positive integer")
    transport = doc.get("transport", DEFAULT_TRANSPORT)
    if transport not in (THREAD, PROCESS):
        raise ConfigError("'transport' must be 'thread' or 'process'")
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("'output' must be a path string")
    obs = doc.get("observable_index", 0)
    if not is_int(obs) or not 0 <= obs < n_dof:
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: {exc}")
