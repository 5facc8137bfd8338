"""Config fuzzing: the golden configs with one value replaced by a wrong type,
a negative, NaN/inf, null, a huge int, trigger text or an unknown key. Every
example runs `plastlab run` in this process for at most 20 steps and must exit
0, 2 or 3; no exception may escape."""

import copy
import dataclasses
import os
import shutil

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_golden as golden
from plastlab.learners import C51Config, PPOConfig
from plastlab.mitigations import REGISTRY, Trigger
from plastlab.runner import LoggingConfig, NetworkConfig, RegressionConfig, ScenarioConfig, resolve_config, run_experiment
from plastlab.runner.cli import main

_TOTAL = 20

_BLOCKS = {
    "scenario": ScenarioConfig,
    "network": NetworkConfig,
    "logging": LoggingConfig,
    "learner": {"ppo": PPOConfig, "c51": C51Config, "regression": RegressionConfig},
}
_TOP = ("seed", "algo", "total_steps", "checkpoint_interval", "mitigations") + tuple(_BLOCKS)

_BAD = st.one_of(
    st.sampled_from(["x", "", "1.0e11", "false", -1, 0, 1, None, True, False, [], [1], ["x"], {"a": 1}, 2.5]),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 1e300]),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
)
# any field but total_steps may draw a huge int (hidden a one-layer list of
# one): a run sizes itself with footprint_bytes before it allocates, caps its
# replay ring and rollout at total_steps, and computes each segment's task
_HUGE = st.integers(10**9, 10**30)
# well-formed trigger text of every kind: args 0, 1 and 10**30, a missing
# arg and a spare one
_TRIGGERS = st.sampled_from([
    f"{kind}{arg}"
    for kind in ("every_k_steps", "once_at", "on_task_switch", "per_gradient_step")
    for arg in ("", "(0)", "(1)", f"({10**30})")
])


def _paths(cfg: dict) -> list[tuple]:
    """Every field of the config's blocks, given or not, plus its mitigation
    entries' keys and params."""
    paths = [(key,) for key in _TOP]
    for block, cls in _BLOCKS.items():
        cls = cls[cfg["algo"]] if isinstance(cls, dict) else cls
        paths += [(block, f.name) for f in dataclasses.fields(cls) if f.name != "out_dir"]
    for i, entry in enumerate(cfg.get("mitigations", [])):
        paths += [("mitigations", i, key) for key in ("method", "params", "trigger")]
        paths += [("mitigations", i, "params", p) for p in REGISTRY[entry["method"]].params]
    return paths


def _entries(cfg: dict) -> dict:
    cfg["mitigations"] = [{"method": e} if isinstance(e, str) else e for e in cfg.get("mitigations", [])]
    return cfg


def _set(cfg: dict, path: tuple, value) -> None:
    node = cfg
    for key in path[:-1]:
        if isinstance(node, dict) and not isinstance(node.get(key), (dict, list)):
            node[key] = {} if node.get(key) is None else {"mode": node[key]}
        node = node[key]
    node[path[-1]] = value


def _seed(name: str) -> dict:
    """A golden config cut to _TOTAL steps. Each given trigger's argument is
    clamped below _TOTAL: a trigger that cannot fire is a config error, and it
    would end every mutation of the seed before the blocks checked after it."""
    cfg = _entries(copy.deepcopy(golden.CONFIGS[name]))
    cfg["total_steps"] = _TOTAL
    for entry in cfg["mitigations"]:
        trigger = Trigger.parse(entry["trigger"]) if entry.get("trigger") else None
        if trigger is not None and trigger.arg is not None:
            entry["trigger"] = str(dataclasses.replace(trigger, arg=min(trigger.arg, _TOTAL - 1)))
    return cfg


@st.composite
def mutated_configs(draw):
    cfg = _seed(draw(st.sampled_from(sorted(golden.CONFIGS))))
    path = draw(st.sampled_from(_paths(cfg)))
    if draw(st.integers(0, 9)) == 0:  # an unknown key beside the field
        path = path[:-1] + (draw(st.sampled_from(["lrr", "extra", "name", "1"])),)
    huge = _HUGE.map(lambda n: [n]) if path[-1] == "hidden" else _HUGE
    value = draw(_BAD if path[-1] == "total_steps" else st.one_of(_BAD, huge))
    if path[-1] == "trigger" and draw(st.booleans()):
        value = draw(_TRIGGERS)
    if path == ("total_steps",) and (value is None or (type(value) is int and value > _TOTAL)):
        value = _TOTAL
    _set(cfg, path, value)
    return cfg


@pytest.mark.parametrize("name", sorted(golden.CONFIGS))
def test_seed_configs_resolve(name):
    """Every unmutated seed resolves, so a mutation reaches each block's check."""
    resolve_config(_seed(name))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=mutated_configs())
def test_mutated_golden_configs_exit_0_2_or_3(cfg, tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = main(["run", str(path), "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 2:  # a config error ends the run before its directory is made
        assert not os.path.exists(out)
    shutil.rmtree(out, ignore_errors=True)


@pytest.mark.parametrize("algo", ["regression", "ppo"])
def test_huge_schedule_runs(algo, tmp_path):
    """Segment i's task is computed from i, so a 10**12-segment schedule
    costs a 20-step run nothing."""
    raw = {"algo": algo, "total_steps": _TOTAL, "network": {"hidden": [8]},
           "scenario": {"mode": "level_shift", "segment_length": 5, "n_segments": 10**12},
           "logging": {"metric_interval": _TOTAL, "probe_batch": 8}}
    if algo == "ppo":
        raw["learner"] = {"rollout_len": 10, "n_minibatches": 2}
    art = run_experiment(resolve_config(raw), str(tmp_path / "r"))
    assert art.summary["status"] == "ok"
    assert art.summary["total_steps"] == _TOTAL
