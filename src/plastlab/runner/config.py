"""Experiment configuration: YAML parsing, per-protocol defaults, strict validation.

Unknown keys are rejected with their full dotted path; defaults come from the
published hyperparameter tables for each algo/scenario pairing, so a minimal
config like {algo: c51, scenario: standard} expands to the full C51 recipe.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields

import yaml

from ..envs import TARGET_SPEEDS, LEVEL_OFFSET
from ..envs.schedule import FAMILIES
from ..errors import ConfigError, MitigationError
from ..learners import C51Config, PPOConfig
from ..mitigations import REGISTRY, build_plan
from ..net import ACTIVATIONS

ALGOS = ("ppo", "c51", "regression")
MODES = ("standard", "level_shift", "task_chain")


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str = "standard"
    family: str = "gridworld"
    segment_length: int = 0
    n_segments: int = 1
    variants: tuple[str, ...] = ()
    horizon: int = 100
    level_seed_base: int = 0
    level_offset: int = LEVEL_OFFSET
    frame_stack: int = 1
    reward_normalization: bool = False


@dataclass(frozen=True)
class NetworkConfig:
    hidden: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    layer_norm: bool = False


@dataclass(frozen=True)
class LoggingConfig:
    out_dir: str = "runs"
    metric_interval: int = 2000
    probe_batch: int = 256


@dataclass(frozen=True)
class RegressionConfig:
    lr: float = 1e-3
    batch_size: int = 64


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    algo: str
    total_steps: int
    scenario: ScenarioConfig
    learner: "C51Config | PPOConfig | RegressionConfig"
    network: NetworkConfig
    mitigations: tuple[dict, ...]
    logging: LoggingConfig
    checkpoint_interval: int = 0


_TOP_KEYS = (
    "seed", "algo", "total_steps", "scenario", "learner", "network",
    "mitigations", "logging", "checkpoint_interval",
)
_MITIGATION_KEYS = ("method", "params", "trigger")

_LEARNER_CLS = {"ppo": PPOConfig, "c51": C51Config, "regression": RegressionConfig}

# table F.2 rows that differ from the continuous-control PPO defaults
_PPO_DISCRETE_OVERRIDES = {
    "lr": 1e-3,
    "ent_coef": 0.01,
    "n_minibatches": 8,
    "rollout_len": 1000,
}

# counts a zero would break: an empty split, epoch or batch, an unfilled
# rollout, an empty epsilon ramp (C51's total_steps), a modulo by zero
_POSITIVE_INTS = ("n_minibatches", "update_epochs", "rollout_len", "total_steps", "train_frequency",
                  "target_network_frequency", "batch_size", "metric_interval", "probe_batch")

_DEFAULT_TOTALS = {"c51": 10_000_000, "ppo": 200_000, "regression": 100_000}
_DEFAULT_SEGMENTS = {"level_shift": 2_000_000, "task_chain": 1_000_000}


def _check_keys(block: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = sorted(k for k in block if k not in allowed)
    if unknown:
        listed = ", ".join(f"'{path}{k}'" for k in unknown)
        raise ConfigError(f"unknown config key(s): {listed}")


def _as_block(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{path}' must be a mapping, got {type(value).__name__}")
    return dict(value)


def _require_int(value, path: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}' must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"'{path}' must be >= {minimum}, got {value}")
    return value


def _resolve_scenario(raw, algo: str, seed: int) -> tuple[ScenarioConfig, int | None]:
    """Expand the scenario block; returns (config, explicit segment_length)."""
    if isinstance(raw, str):
        raw = {"mode": raw}
    block = _as_block(raw, "scenario")
    allowed = tuple(f.name for f in fields(ScenarioConfig))
    _check_keys(block, allowed, "scenario.")

    mode = block.get("mode", "standard")
    if mode not in MODES:
        raise ConfigError(f"'scenario.mode' must be one of {MODES}, got {mode!r}")

    if "family" in block:
        family = block["family"]
    elif algo == "regression":
        family = "probe"
    elif algo == "ppo" and mode == "task_chain":
        family = "pointmass"
    else:
        family = "gridworld"
    if family not in FAMILIES:
        raise ConfigError(f"'scenario.family' must be one of {FAMILIES}, got {family!r}")

    variants = tuple(block.get("variants") or ())
    if not variants and mode == "task_chain":
        variants = ("stand", "walk", "run", "trot")
    if family == "pointmass":
        bad = sorted(set(v for v in variants) - set(TARGET_SPEEDS))
        if bad:
            raise ConfigError(f"'scenario.variants' has unknown pointmass variants {bad}")
    elif variants and mode == "task_chain":
        raise ConfigError(f"task_chain variants are only defined for pointmass, not {family!r}")

    horizon = block.get("horizon", {"gridworld": 100, "pointmass": 200}.get(family, 1))
    n_segments = block.get(
        "n_segments",
        1 if mode == "standard" else (len(variants) if mode == "task_chain" else 10),
    )
    scenario = ScenarioConfig(
        mode=mode,
        family=family,
        segment_length=0,
        n_segments=_require_int(n_segments, "scenario.n_segments", 1),
        variants=variants,
        horizon=_require_int(horizon, "scenario.horizon", 1),
        level_seed_base=_require_int(block.get("level_seed_base", seed), "scenario.level_seed_base"),
        level_offset=_require_int(block.get("level_offset", LEVEL_OFFSET), "scenario.level_offset", 1),
        frame_stack=_require_int(block.get("frame_stack", 1), "scenario.frame_stack", 1),
        reward_normalization=_coerce_field(
            "scenario.reward_normalization", block.get("reward_normalization", algo == "ppo"), False
        ),
    )
    explicit = block.get("segment_length")
    if explicit is not None:
        explicit = _require_int(explicit, "scenario.segment_length", 1)
    return scenario, explicit


def _coerce_field(path: str, value, default):
    """Type-check one config value against its default's type, so neither the
    YAML 1.1 gotcha 1.0e11 (parsed as a string) nor a quoted "false" (true to
    bool()) slips through; lr must be > 0 and gamma, gae_lambda in [0, 1]."""
    name = path.rsplit(".", 1)[-1]
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"'{path}' must be a boolean, got {value!r}")
        return value
    if isinstance(default, int):
        return _require_int(value, path, minimum=1 if name in _POSITIVE_INTS else 0)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"'{path}' must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"'{path}' must be finite, got {value!r}")
        if name == "lr" and number <= 0.0:
            raise ConfigError(f"'{path}' must be > 0, got {value!r}")
        if name in ("gamma", "gae_lambda") and not 0.0 <= number <= 1.0:
            raise ConfigError(f"'{path}' must be in [0, 1], got {value!r}")
        return number
    if not isinstance(value, str):
        raise ConfigError(f"'{path}' must be a string, got {value!r}")
    return value


def _resolve_learner(raw, algo: str, scenario: ScenarioConfig, total_steps: int):
    block = _as_block(raw, "learner")
    cls = _LEARNER_CLS[algo]
    defaults = {f.name: f.default for f in fields(cls)}
    _check_keys(block, tuple(defaults), "learner.")
    values: dict = {}
    if algo == "ppo" and scenario.family == "gridworld":
        values.update(_PPO_DISCRETE_OVERRIDES)
    if algo == "c51":
        values["total_steps"] = total_steps
    values.update({k: _coerce_field(f"learner.{k}", v, defaults[k]) for k, v in block.items()})
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid learner block: {exc}") from exc


def _resolve_mitigations(raw) -> tuple[dict, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, (list, tuple)):
        raise ConfigError("'mitigations' must be a list of entries")
    entries = []
    for i, item in enumerate(raw):
        if isinstance(item, str):
            item = {"method": item}
        entry = _as_block(item, f"mitigations[{i}]")
        if "name" in entry and "method" not in entry:
            entry["method"] = entry.pop("name")
        _check_keys(entry, _MITIGATION_KEYS, f"mitigations[{i}].")
        if "method" not in entry:
            raise ConfigError(f"'mitigations[{i}]' needs a 'method' key")
        entries.append(entry)
    try:
        build_plan(entries)
    except MitigationError as exc:
        raise ConfigError(f"invalid mitigation plan: {exc}") from exc
    return tuple(entries)


def _resolve_network(raw, mitigations: tuple[dict, ...]) -> NetworkConfig:
    block = _as_block(raw, "network")
    allowed = tuple(f.name for f in fields(NetworkConfig))
    _check_keys(block, allowed, "network.")

    hidden = tuple(block.get("hidden", (64, 64)))
    if not hidden or any(isinstance(h, bool) or not isinstance(h, int) or h < 1 for h in hidden):
        raise ConfigError(f"'network.hidden' must be positive integers, got {list(hidden)}")
    activation = block.get("activation", "relu")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"'network.activation' must be one of {ACTIVATIONS}, got {activation!r}")
    layer_norm = _coerce_field("network.layer_norm", block.get("layer_norm", False), False)

    # architecture-kind plan entries imply network settings; explicit
    # contradictions are configuration mistakes, not silent overrides
    methods = [e["method"] for e in mitigations if e["method"] in REGISTRY]
    acts = [m for m in methods if m in ("crelu", "fourier")]
    if len(set(acts)) > 1:
        raise ConfigError("mitigation plan requests both crelu and fourier activations")
    if acts:
        if "activation" in block and activation != acts[0]:
            raise ConfigError(
                f"mitigation '{acts[0]}' conflicts with network.activation {activation!r}"
            )
        activation = acts[0]
    if "layer_norm" in methods or "nap" in methods:
        if "layer_norm" in block and not layer_norm:
            raise ConfigError("layer_norm/nap mitigation conflicts with network.layer_norm false")
        layer_norm = True
    return NetworkConfig(hidden=hidden, activation=activation, layer_norm=layer_norm)


def _resolve_logging(raw) -> LoggingConfig:
    block = _as_block(raw, "logging")
    defaults = {f.name: f.default for f in fields(LoggingConfig)}
    _check_keys(block, tuple(defaults), "logging.")
    return LoggingConfig(**{k: _coerce_field(f"logging.{k}", v, defaults[k]) for k, v in block.items()})


def resolve_config(raw: dict) -> ExperimentConfig:
    """Fill defaults and cross-validate one parsed config tree."""
    block = _as_block(raw, "config")
    _check_keys(block, _TOP_KEYS, "")

    algo = block.get("algo")
    if algo is None:
        raise ConfigError("missing required key 'algo'")
    if algo not in ALGOS:
        raise ConfigError(f"'algo' must be one of {ALGOS}, got {algo!r}")
    seed = _require_int(block.get("seed", 0), "seed")

    scenario, explicit_segment = _resolve_scenario(block.get("scenario"), algo, seed)

    total_steps = block.get("total_steps")
    if total_steps is None:
        if scenario.mode == "standard":
            total_steps = _DEFAULT_TOTALS[algo]
        else:
            seg = explicit_segment or _DEFAULT_SEGMENTS[scenario.mode]
            total_steps = seg * scenario.n_segments
    total_steps = _require_int(total_steps, "total_steps", 1)

    if explicit_segment is not None:
        segment_length = explicit_segment
    elif scenario.mode == "standard":
        segment_length = total_steps
    else:
        segment_length = _DEFAULT_SEGMENTS[scenario.mode]
    scenario = dataclasses.replace(scenario, segment_length=segment_length)

    if algo == "c51" and scenario.family != "gridworld":
        raise ConfigError(
            f"c51 requires a discrete-action env (gridworld), got family {scenario.family!r}"
        )
    if scenario.family == "pointmass" and algo != "ppo":
        raise ConfigError(f"pointmass is continuous-action and requires ppo, got algo {algo!r}")
    if (scenario.family == "probe") != (algo == "regression"):
        raise ConfigError("the probe family and the regression algo require each other")
    if scenario.mode == "task_chain" and scenario.family != "pointmass":
        raise ConfigError(f"task_chain needs pointmass task variants, got family {scenario.family!r}")
    if scenario.reward_normalization and algo != "ppo":
        raise ConfigError(f"'scenario.reward_normalization' is a ppo setting, got algo {algo!r}")
    if scenario.frame_stack > 1 and scenario.family == "probe":
        raise ConfigError("'scenario.frame_stack' > 1 has no frames to stack on the probe family")

    mitigations = _resolve_mitigations(block.get("mitigations"))
    network = _resolve_network(block.get("network"), mitigations)
    learner = _resolve_learner(block.get("learner"), algo, scenario, total_steps)
    logging = _resolve_logging(block.get("logging"))
    checkpoint_interval = _require_int(block.get("checkpoint_interval", 0), "checkpoint_interval")

    return ExperimentConfig(
        seed=seed,
        algo=algo,
        total_steps=total_steps,
        scenario=scenario,
        learner=learner,
        network=network,
        mitigations=mitigations,
        logging=logging,
        checkpoint_interval=checkpoint_interval,
    )


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a YAML config file and resolve it; `overrides` replaces top-level
    keys (the CLI's --seed/--out plumbing) before resolution."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    for key, value in (overrides or {}).items():
        if key == "out_dir":
            logging_block = dict(raw.get("logging") or {})
            logging_block["out_dir"] = value
            raw["logging"] = logging_block
        else:
            raw[key] = value
    return resolve_config(raw)


def _plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return _plain(cfg)


def config_yaml(cfg: ExperimentConfig) -> str:
    """Canonical resolved-config document; byte-stable for identical configs."""
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True, default_flow_style=False)
