"""Experiment configuration: YAML parsing, per-protocol defaults, strict validation.

Each block resolves to its dataclass: a field takes its given value, else a
default derived from the algo/scenario pairing (the published hyperparameter
tables, so a minimal config like {algo: c51, scenario: standard} expands to
the full C51 recipe), else the field default. Every value, derived ones too,
is checked against its field default's type and then `_CHOICES` or `_BOUNDS`;
unknown keys are rejected with their full dotted path. A setting the run
never reads is an error unless it equals the value the run uses.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields

import yaml

from ..envs import TARGET_SPEEDS
from ..envs.schedule import FAMILIES, MODES, ScenarioConfig
from ..errors import ConfigError, MitigationError
from ..learners import C51Config, PPOConfig
from ..mitigations import REGISTRY, build_plan
from ..net import ACTIVATIONS

ALGOS = ("ppo", "c51", "regression")


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


_LEARNER_CLS = {"ppo": PPOConfig, "c51": C51Config, "regression": RegressionConfig}

# table F.2 rows that differ from the continuous-control PPO defaults
_PPO_DISCRETE_OVERRIDES = {
    "lr": 1e-3,
    "ent_coef": 0.01,
    "n_minibatches": 8,
    "rollout_len": 1000,
}

_DEFAULT_TOTALS = {"c51": 10_000_000, "ppo": 200_000, "regression": 100_000}
_DEFAULT_SEGMENTS = {"level_shift": 2_000_000, "task_chain": 1_000_000}

# fields, by name, whose null (or empty list) means "use the default"
_OPTIONAL = ("segment_length", "variants")

_CHOICES = {
    "algo": ALGOS,
    "mode": MODES,
    "family": FAMILIES,
    "variants": tuple(TARGET_SPEEDS),
    "activation": ACTIVATIONS,
    "action_selection": ("target", "online"),
    "method": tuple(REGISTRY),
    "scope": ("final", "all"),
}

# numeric bounds by field name, in interval notation; a bound may name an
# earlier field of the same block. An integer field not listed is a count a
# zero would break (an empty split, batch or ramp, a modulo by zero): [1, inf).
_BOUNDS = {
    "seed": "[0, inf)",
    "level_seed_base": "[0, inf)",
    "learning_starts": "[0, inf)",
    "checkpoint_interval": "[0, inf)",
    "n_atoms": "[2, inf)",
    "lr": "(0, inf)",
    "clip_eps": "(0, inf)",
    "init_std": "(0, inf)",
    "gamma": "[0, 1]",
    "gae_lambda": "[0, 1]",
    "vf_coef": "[0, inf)",
    "ent_coef": "[0, inf)",
    "value_clip": "[0, inf)",
    "max_grad_norm": "[0, inf)",
    "start_epsilon": "[0, 1]",
    "end_epsilon": "[0, 1]",
    "v_max": "(v_min, inf)",
    "exploration_fraction": "(0, 1]",
    "beta": "[0, 1]",
    "alpha": "[0, inf)",
    "s": "(0, inf)",
    "damping": "[0, inf)",
    "ema": "[0, 1]",
}

_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _block(raw, path: str, names) -> dict:
    """`raw` as a mapping with no key outside `names`; null is empty. `path`
    is the block's dotted prefix, '' at the top level."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"'{path[:-1] or 'config'}' must be a mapping, got {type(raw).__name__}")
    unknown = sorted(str(k) for k in raw if k not in names)
    if unknown:
        raise ConfigError("unknown config key(s): " + ", ".join(f"'{path}{k}'" for k in unknown))
    return dict(raw)


def _coerce_field(path: str, value, default, peers: dict | None = None, name: str | None = None):
    """Check one config value against its default's type (so neither YAML 1.1's
    1.0e11, parsed as a string, nor a quoted "false", true to bool(), slips
    through), then against its field's choices or bounds. An int where a float
    belongs becomes a float; a list becomes a tuple of checked items."""
    name = name or path.rsplit(".", 1)[-1]
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or (default and not value):
            raise ConfigError(f"'{path}' must be a {'non-empty ' if default else ''}list, got {value!r}")
        item = default[0] if default else ""
        return tuple(_coerce_field(f"{path}[{i}]", v, item, name=name) for i, v in enumerate(value))
    if isinstance(default, float) and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            value = math.inf
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, type(default)):
        raise ConfigError(f"'{path}' must be {_KINDS[type(default)]}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"'{path}' must be finite, got {value!r}")
    if name in _CHOICES and value not in _CHOICES[name]:
        raise ConfigError(f"'{path}' must be one of {_CHOICES[name]}, got {value!r}")
    text = _BOUNDS.get(name, "[1, inf)" if type(value) is int else None)
    if text is not None:
        low, high = text[1:-1].split(", ")
        lo, hi = (float((peers or {}).get(t, t)) for t in (low, high))
        if not ((lo <= value if text[0] == "[" else lo < value) and (value <= hi if text[-1] == "]" else value < hi)):
            want = f"{'>=' if text[0] == '[' else '>'} {low}" if high == "inf" else f"in {text}"
            raise ConfigError(f"'{path}' must be {want}, got {value!r}")
    return value


def _fill(cls, raw, path: str, derived: dict | None = None, fixed=lambda values: {}):
    """The block `raw` as a `cls`. A field not given takes its `derived` entry
    (a value, or a function of the fields before it), else its default.
    `fixed(values)` maps the fields the run never reads to why; a given value
    for one must equal what it would have taken."""
    block = _block(raw, path, [f.name for f in fields(cls)])
    values, auto = {}, {}
    for f in fields(cls):
        default = (derived or {}).get(f.name, f.default)
        auto[f.name] = default(values) if callable(default) else default
        given = block.get(f.name)
        if f.name not in block or (f.name in _OPTIONAL and given in (None, [])):
            given = auto[f.name]
        values[f.name] = _coerce_field(path + f.name, given, f.default, values)
    for name, why in fixed(values).items():
        if values[name] != auto[name]:
            raise ConfigError(f"'{path}{name}' {why}")
    return cls(**values)


def _resolve_scenario(raw, algo: str, seed: int, total: int | None) -> ScenarioConfig:
    """`total` is the given total_steps, or None; standard mode runs one
    segment of it."""
    derived = {
        "family": lambda v: "probe" if algo == "regression" else (
            "pointmass" if algo == "ppo" and v["mode"] == "task_chain" else "gridworld"),
        "segment_length": lambda v: (
            (total or _DEFAULT_TOTALS[algo]) if v["mode"] == "standard" else _DEFAULT_SEGMENTS[v["mode"]]),
        "variants": lambda v: tuple(TARGET_SPEEDS) if v["mode"] == "task_chain" else (),
        "n_segments": lambda v: {"standard": 1, "task_chain": len(v["variants"])}.get(v["mode"], 10),
        "horizon": lambda v: {"gridworld": 100, "pointmass": 200}.get(v["family"], 1),
        "level_seed_base": seed,
        "reward_normalization": algo == "ppo",
    }

    def fixed(v: dict) -> dict:
        mode, family = v["mode"], v["family"]
        rules = {
            "variants": (family != "pointmass", f"names pointmass tasks, got family {family!r}"),
            "n_segments": (mode == "standard", "has no effect in standard mode, which runs one segment"),
            "segment_length": (mode == "standard", "has no effect in standard mode; total_steps sets the run"),
            "level_offset": (mode != "level_shift", f"only spaces level_shift levels, got mode {mode!r}"),
            "horizon": (family == "probe", "has no effect on the probe family, which has no episodes"),
            "frame_stack": (family == "probe", "> 1 has no frames to stack on the probe family"),
            "reward_normalization": (algo != "ppo", f"is a ppo setting, got algo {algo!r}"),
        }
        return {name: why for name, (inert, why) in rules.items() if inert}

    scenario = _fill(ScenarioConfig, {"mode": raw} if isinstance(raw, str) else raw, "scenario.", derived, fixed)
    family = scenario.family
    if algo == "c51" and family != "gridworld":
        raise ConfigError(f"c51 requires a discrete-action env (gridworld), got family {family!r}")
    if family == "pointmass" and algo != "ppo":
        raise ConfigError(f"pointmass is continuous-action and requires ppo, got algo {algo!r}")
    if (family == "probe") != (algo == "regression"):
        raise ConfigError("the probe family and the regression algo require each other")
    if scenario.mode == "task_chain" and family != "pointmass":
        raise ConfigError(f"task_chain needs pointmass task variants, got family {family!r}")
    return scenario


def _resolve_mitigations(raw, total_steps: int) -> tuple[dict, ...]:
    """The entries as given, with a bare name or a `name:` key spelled as
    `method:`; each given param is checked against its registry default, and
    a given trigger must fire within the run's `total_steps`."""
    if raw is None:
        return ()
    if not isinstance(raw, (list, tuple)):
        raise ConfigError("'mitigations' must be a list of entries")
    entries = []
    for i, item in enumerate(raw):
        path = f"mitigations[{i}]"
        if isinstance(item, str):
            item = {"method": item}
        elif isinstance(item, dict) and "name" in item and "method" not in item:
            item = {("method" if k == "name" else k): v for k, v in item.items()}
        entry = _block(item, path + ".", ("method", "params", "trigger"))
        if "method" not in entry:
            raise ConfigError(f"'{path}' needs a 'method' key")
        _coerce_field(f"{path}.method", entry["method"], "")
        if not isinstance(entry.get("params") or {}, dict):
            raise ConfigError(f"'{path}.params' must be a mapping, got {entry['params']!r}")
        if entry.get("trigger") is not None:
            _coerce_field(f"{path}.trigger", entry["trigger"], "")
        entries.append(entry)
    try:
        plan = build_plan(entries)
    except MitigationError as exc:
        raise ConfigError(f"invalid mitigation plan: {exc}") from exc
    for i, (entry, planned) in enumerate(zip(entries, plan)):
        for key in entry.get("params") or {}:
            default = REGISTRY[planned.method].params[key]
            _coerce_field(f"mitigations[{i}].params.{key}", planned.params[key], default)
        if entry.get("trigger") is not None and (planned.trigger.arg or 0) >= total_steps:
            raise ConfigError(f"mitigations[{i}]: trigger {planned.trigger} never fires in a {total_steps}-step run")
    return tuple(entries)


def _resolve_network(raw, mitigations: tuple[dict, ...]) -> NetworkConfig:
    # a method's registry `network` needs become derived defaults; explicit
    # contradictions are configuration mistakes, not silent overrides
    implied: dict = {}
    for entry in mitigations:
        for name, value in REGISTRY[entry["method"]].network:
            if implied.setdefault(name, value) != value:
                raise ConfigError(f"mitigation plan requests both {implied[name]!r} and {value!r} as network.{name}")
    why = {k: f"conflicts with the mitigation plan, which sets {v!r}" for k, v in implied.items()}
    return _fill(NetworkConfig, raw, "network.", implied, lambda v: why)


def resolve_config(raw: dict) -> ExperimentConfig:
    """Fill defaults and cross-validate one parsed config tree."""
    block = _block(raw, "", [f.name for f in fields(ExperimentConfig)])
    if block.get("algo") is None:
        raise ConfigError("missing required key 'algo'")
    algo = _coerce_field("algo", block["algo"], "")
    seed = _coerce_field("seed", block.get("seed", 0), 0)
    total = block.get("total_steps")
    if total is not None:
        total = _coerce_field("total_steps", total, 0)
    scenario = _resolve_scenario(block.get("scenario"), algo, seed, total)
    total_steps = total or scenario.segment_length * scenario.n_segments

    mitigations = _resolve_mitigations(block.get("mitigations"), total_steps)
    network = _resolve_network(block.get("network"), mitigations)
    discrete_ppo = algo == "ppo" and scenario.family == "gridworld"
    learner = _fill(
        _LEARNER_CLS[algo], block.get("learner"), "learner.",
        _PPO_DISCRETE_OVERRIDES if discrete_ppo else {},
        lambda v: {"init_std": "sets the gaussian policy's std; gridworld ppo acts discretely"} if discrete_ppo else {},
    )
    return ExperimentConfig(
        seed=seed,
        algo=algo,
        total_steps=total_steps,
        scenario=scenario,
        learner=learner,
        network=network,
        mitigations=mitigations,
        logging=_fill(LoggingConfig, block.get("logging"), "logging."),
        checkpoint_interval=_coerce_field("checkpoint_interval", block.get("checkpoint_interval", 0), 0),
    )


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a YAML config file and resolve it; `overrides` replaces top-level
    keys (the CLI's --seed/--out plumbing) before resolution."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path!r} is not valid YAML: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    for key, value in (overrides or {}).items():
        if key != "out_dir":
            raw[key] = value
        elif isinstance(raw.get("logging") or {}, dict):  # else resolving rejects it
            raw["logging"] = {**(raw.get("logging") or {}), "out_dir": value}
    return resolve_config(raw)


def _plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def config_yaml(cfg: ExperimentConfig) -> str:
    """Canonical resolved-config document; byte-stable for identical configs."""
    return yaml.safe_dump(_plain(cfg), sort_keys=True, default_flow_style=False)
