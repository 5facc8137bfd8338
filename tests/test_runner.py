"""Runner tests: config resolution, deterministic artifacts, triggers, replay, CLI."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plastlab.envs import PROBE_DIM, PROBE_OUT
from plastlab.errors import CheckpointError, ConfigError, DivergenceError
from plastlab.learners import LEARNERS, ReplayBuffer, Rollout, network_specs
from plastlab.metrics import _params_l2
from plastlab.mitigations import REGISTRY
from plastlab.net import chain_slots, deserialize_network, serialize_network, shape_layers
from plastlab.numkit import DrawAhead, RngStream
from plastlab.runner import (
    config_yaml,
    load_config,
    probe_inputs,
    replay_metrics,
    resolve_config,
    run_experiment,
)
from plastlab import numkit
from plastlab.learners import c51, common, ppo, regression
from plastlab.net import forward as net_forward
from plastlab.runner import loop
from plastlab.runner.cli import main

import test_golden as golden
from helpers import build_network


def probe_cfg(**over):
    base = {
        "algo": "regression",
        "seed": 5,
        "total_steps": 200,
        "scenario": "standard",
        "network": {"hidden": [16, 16]},
        "logging": {"metric_interval": 100, "probe_batch": 32},
    }
    base.update(over)
    return resolve_config(base)


def c51_cfg(**over):
    base = {
        "algo": "c51",
        "seed": 2,
        "total_steps": 400,
        "scenario": {"mode": "standard", "horizon": 40},
        "network": {"hidden": [32]},
        "learner": {
            "buffer_size": 1000, "batch_size": 16, "learning_starts": 50,
            "train_frequency": 2, "target_network_frequency": 100, "n_atoms": 11,
        },
        "logging": {"metric_interval": 100, "probe_batch": 32},
    }
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            base[key] = {**base[key], **value}
        else:
            base[key] = value
    return resolve_config(base)


def read_metrics(path):
    return [json.loads(line) for line in open(path)]


def metric_series(rows, scope, metric):
    return {r["step"]: r["value"] for r in rows if r["scope"] == scope and r["metric"] == metric}


class TestLoadConfig:
    def test_minimal_c51_fills_the_table(self):
        cfg = resolve_config({"algo": "c51", "scenario": "standard"})
        assert cfg.learner.lr == 2.5e-4
        assert cfg.learner.gamma == 0.99
        assert cfg.learner.batch_size == 32
        assert cfg.learner.n_atoms == 51
        assert cfg.learner.v_min == -10.0
        assert cfg.learner.buffer_size == 1_000_000
        assert cfg.learner.target_network_frequency == 10_000
        assert cfg.scenario.family == "gridworld"
        assert cfg.total_steps == 10_000_000
        assert cfg.scenario.segment_length == cfg.total_steps

    def test_ppo_task_chain_fills_entropy(self):
        cfg = resolve_config({"algo": "ppo", "scenario": "task_chain"})
        assert cfg.learner.ent_coef == 0.0
        assert cfg.learner.lr == 3e-4
        assert cfg.learner.n_minibatches == 32
        assert cfg.learner.rollout_len == 2048
        assert cfg.scenario.family == "pointmass"
        assert cfg.scenario.variants == ("stand", "walk", "run", "trot")
        assert cfg.scenario.segment_length == 1_000_000
        assert cfg.total_steps == 4 * 1_000_000

    def test_ppo_gridworld_gets_discrete_rows(self):
        cfg = resolve_config({"algo": "ppo", "scenario": "level_shift"})
        assert cfg.learner.lr == 1e-3
        assert cfg.learner.ent_coef == 0.01
        assert cfg.learner.n_minibatches == 8
        assert cfg.learner.rollout_len == 1000
        assert cfg.scenario.n_segments == 10
        assert cfg.scenario.segment_length == 2_000_000
        assert cfg.total_steps == 20_000_000
        assert cfg.scenario.level_offset == 20

    def test_c51_with_pointmass_rejected(self):
        with pytest.raises(ConfigError, match="discrete"):
            resolve_config({"algo": "c51", "scenario": {"family": "pointmass"}})

    def test_probe_requires_regression_and_back(self):
        with pytest.raises(ConfigError, match="probe"):
            resolve_config({"algo": "ppo", "scenario": {"family": "probe"}})
        with pytest.raises(ConfigError, match="probe"):
            resolve_config({"algo": "regression", "scenario": {"family": "gridworld"}})
        cfg = resolve_config({"algo": "regression"})
        assert cfg.scenario.family == "probe"

    def test_task_chain_needs_pointmass(self):
        with pytest.raises(ConfigError, match="task_chain"):
            resolve_config({"algo": "ppo", "scenario": {"mode": "task_chain", "family": "gridworld"}})

    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(ConfigError, match="'lrr'"):
            resolve_config({"algo": "ppo", "lrr": 5})
        with pytest.raises(ConfigError, match="learner.lrr"):
            resolve_config({"algo": "ppo", "learner": {"lrr": 5}})
        with pytest.raises(ConfigError, match="scenario.granularity"):
            resolve_config({"algo": "ppo", "scenario": {"granularity": 3}})
        with pytest.raises(ConfigError, match=r"mitigations\[0\].when"):
            resolve_config({"algo": "ppo", "mitigations": [{"method": "l2_reg", "when": "now"}]})

    def test_learner_values_type_checked(self):
        with pytest.raises(ConfigError, match="learner.lr"):
            resolve_config({"algo": "regression", "learner": {"lr": "1.0e11"}})
        with pytest.raises(ConfigError, match="learner.batch_size"):
            resolve_config({"algo": "regression", "learner": {"batch_size": 2.5}})

    @pytest.mark.parametrize("block,field", [("network", "layer_norm"), ("scenario", "reward_normalization")])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_booleans_are_strict(self, block, field, value):
        with pytest.raises(ConfigError, match=rf"'{block}.{field}' must be a boolean"):
            resolve_config({"algo": "ppo", block: {field: value}})

    @pytest.mark.parametrize("text,expected", [("true", True), ("false", False), ("yes", True), ("no", False)])
    def test_yaml_booleans_still_parse(self, text, expected, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(f"algo: ppo\nnetwork: {{layer_norm: {text}}}\nscenario: {{reward_normalization: {text}}}\n")
        cfg = load_config(str(path))
        assert cfg.network.layer_norm is expected
        assert cfg.scenario.reward_normalization is expected

    @pytest.mark.parametrize("value", [5, None, ["runs"]])
    def test_out_dir_must_be_a_string(self, value):
        with pytest.raises(ConfigError, match="'logging.out_dir' must be a string"):
            resolve_config({"algo": "ppo", "logging": {"out_dir": value}})

    def test_c51_runs_one_length(self):
        cfg = resolve_config({"algo": "c51", "total_steps": 777})
        assert cfg.total_steps == 777 and not hasattr(cfg.learner, "total_steps")
        with pytest.raises(ConfigError, match=r"unknown config key\(s\): 'learner.total_steps'"):
            resolve_config({"algo": "c51", "total_steps": 777, "learner": {"total_steps": 50}})

    def test_yaml_loading_and_overrides(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("algo: regression\ntotal_steps: 50\n")
        cfg = load_config(str(path), {"seed": 9, "out_dir": str(tmp_path / "o")})
        assert cfg.seed == 9
        assert cfg.logging.out_dir == str(tmp_path / "o")
        assert cfg.total_steps == 50

    def test_plan_implies_network(self):
        cfg = resolve_config({"algo": "ppo", "mitigations": [{"method": "nap"}]})
        assert cfg.network.layer_norm is True
        cfg = resolve_config({"algo": "ppo", "mitigations": [{"method": "crelu"}]})
        assert cfg.network.activation == "crelu"

    def test_plan_network_conflicts(self):
        with pytest.raises(ConfigError, match="layer_norm"):
            resolve_config({
                "algo": "ppo",
                "network": {"layer_norm": False},
                "mitigations": [{"method": "nap"}],
            })
        with pytest.raises(ConfigError, match="crelu"):
            resolve_config({
                "algo": "ppo",
                "network": {"activation": "tanh"},
                "mitigations": [{"method": "crelu"}],
            })
        with pytest.raises(ConfigError, match="both"):
            resolve_config({"algo": "ppo", "mitigations": ["crelu", "fourier"]})

    def test_unknown_mitigation_rejected(self):
        with pytest.raises(ConfigError, match="warp"):
            resolve_config({"algo": "ppo", "mitigations": [{"method": "warp"}]})

    @pytest.mark.parametrize("raw,message", [
        ({"network": {"hidden": 64}}, "'network.hidden' must be a non-empty list, got 64"),
        ({"network": {"hidden": []}}, "'network.hidden' must be a non-empty list, got []"),
        ({"network": {"hidden": [16, 0]}}, "'network.hidden[1]' must be >= 1, got 0"),
        ({"network": {"hidden": [16, 2.5]}}, "'network.hidden[1]' must be an integer, got 2.5"),
        ({"network": {"activation": "gelu"}}, "'network.activation' must be one of"),
        ({"scenario": {"mode": ["standard"]}}, "'scenario.mode' must be a string"),
        ({"scenario": {"family": "maze"}}, "'scenario.family' must be one of"),
        ({"scenario": {"mode": "task_chain", "variants": "walk"}}, "'scenario.variants' must be a list"),
        ({"scenario": {"mode": "task_chain", "variants": ["walk", "fly"]}}, "'scenario.variants[1]' must be one of"),
        ({"algo": "c51", "learner": {"action_selection": "greedy"}}, "'learner.action_selection' must be one of"),
        ({"mitigations": [{"method": ["redo"]}]}, "'mitigations[0].method' must be a string"),
        ({"mitigations": ["redo", {"method": "redo", "trigger": 5}]}, "'mitigations[1].trigger' must be a string"),
        ({"mitigations": [{"method": "redo", "params": [1]}]}, "'mitigations[0].params' must be a mapping"),
        ({"mitigations": [{"method": "redo", "params": {"tau": "x"}}]}, "'mitigations[0].params.tau' must be a number"),
        ({"mitigations": [{"method": "redo", "params": {"rate": 1}}]}, "redo does not take parameter 'rate'"),
        ({"logging": {"probe_batch": True}}, "'logging.probe_batch' must be an integer, got True"),
    ])
    def test_every_value_is_checked_against_its_field(self, raw, message):
        with pytest.raises(ConfigError) as err:
            resolve_config({"algo": "ppo", **raw})
        assert message in str(err.value)

    # the values the learner and mitigation functions take without checking them again
    @pytest.mark.parametrize("raw,message", [
        ({"mitigations": [{"method": "shrink_perturb", "params": {"beta": 1.5}}]},
         "'mitigations[0].params.beta' must be in [0, 1], got 1.5"),
        ({"mitigations": [{"method": "reset_layers", "params": {"scope": "middle"}}]},
         "'mitigations[0].params.scope' must be one of ('final', 'all'), got 'middle'"),
        ({"mitigations": [{"method": "l2_reg", "params": {"alpha": -0.1}}]},
         "'mitigations[0].params.alpha' must be >= 0, got -0.1"),
        ({"mitigations": [{"method": "parseval_reg", "params": {"s": 0.0}}]},
         "'mitigations[0].params.s' must be > 0, got 0.0"),
        ({"algo": "c51", "learner": {"v_min": -1.0, "v_max": 1.0, "n_atoms": 1}},
         "'learner.n_atoms' must be >= 2, got 1"),
        ({"algo": "c51", "learner": {"v_min": 2.0, "v_max": 1.0}}, "'learner.v_max' must be > v_min, got 1.0"),
        ({"algo": "c51", "learner": {"exploration_fraction": 0.0}},
         "'learner.exploration_fraction' must be in (0, 1], got 0.0"),
        ({"algo": "c51", "learner": {"buffer_size": 0}}, "'learner.buffer_size' must be >= 1, got 0"),
        ({"learner": {"clip_eps": 0.0}}, "'learner.clip_eps' must be > 0, got 0.0"),
        ({"learner": {"gamma": 1.2}}, "'learner.gamma' must be in [0, 1], got 1.2"),
        ({"learner": {"gae_lambda": 1.2}}, "'learner.gae_lambda' must be in [0, 1], got 1.2"),
    ])
    def test_bounds_the_learners_and_methods_rely_on(self, raw, message):
        with pytest.raises(ConfigError) as err:
            resolve_config({"algo": "ppo", **raw})
        assert str(err.value) == message

    def test_null_optional_values_take_the_default(self):
        cfg = resolve_config({
            "algo": "ppo",
            "total_steps": None,
            "scenario": {"mode": "level_shift", "segment_length": None},
            "mitigations": [{"method": "redo", "trigger": None}],
        })
        assert (cfg.total_steps, cfg.scenario.segment_length) == (20_000_000, 2_000_000)
        assert cfg.mitigations == ({"method": "redo", "trigger": None},)

    def test_config_yaml_deterministic_and_resolved(self):
        a = config_yaml(probe_cfg())
        b = config_yaml(probe_cfg())
        assert a == b
        doc = yaml.safe_load(a)
        assert doc["learner"]["lr"] == 1e-3
        assert doc["scenario"]["family"] == "probe"


class TestRunArtifacts:
    def test_logs_byte_identical_across_runs(self, tmp_path):
        cfg = probe_cfg()
        a = run_experiment(cfg, str(tmp_path / "a"))
        b = run_experiment(cfg, str(tmp_path / "b"))
        for attr in ("metrics_path", "episodes_path", "summary_path"):
            with open(getattr(a, attr), "rb") as fa, open(getattr(b, attr), "rb") as fb:
                assert fa.read() == fb.read(), attr
        assert open(a.config_path, "rb").read() == open(b.config_path, "rb").read()

    def test_c51_run_byte_identical(self, tmp_path):
        cfg = c51_cfg()
        a = run_experiment(cfg, str(tmp_path / "a"))
        b = run_experiment(cfg, str(tmp_path / "b"))
        assert open(a.metrics_path, "rb").read() == open(b.metrics_path, "rb").read()
        assert open(a.episodes_path, "rb").read() == open(b.episodes_path, "rb").read()
        assert a.summary["episodes"] > 0

    def test_config_snapshot_matches_resolved_config(self, tmp_path):
        cfg = probe_cfg()
        art = run_experiment(cfg, str(tmp_path / "r"))
        assert open(art.config_path, encoding="utf-8").read() == config_yaml(cfg)

    def test_vanilla_logs_contain_full_metric_suite(self, tmp_path):
        art = run_experiment(probe_cfg(), str(tmp_path / "r"))
        rows = read_metrics(art.metrics_path)
        names = {r["metric"] for r in rows}
        for expected in ("rdu", "fau", "stable_rank", "effective_rank",
                         "weight_diff", "weight_diff_per_param"):
            assert expected in names
        scopes = {r["scope"] for r in rows}
        assert {"layer0", "layer1", "layer2", "all"} <= scopes
        assert art.summary["status"] == "ok"
        assert art.summary["trigger_fires"] == {}

    def test_reset_layers_once_at_drops_weight_diff(self, tmp_path):
        cfg = resolve_config({
            "algo": "regression", "seed": 5, "total_steps": 1200,
            "scenario": {"mode": "level_shift", "segment_length": 200, "n_segments": 6},
            "learner": {"lr": 0.05},
            "network": {"hidden": [32, 32]},
            "mitigations": [
                {"method": "reset_layers", "params": {"scope": "all"}, "trigger": "once_at(1000)"}
            ],
            "logging": {"metric_interval": 100, "probe_batch": 64},
        })
        art = run_experiment(cfg, str(tmp_path / "r"))
        wd = metric_series(read_metrics(art.metrics_path), "all", "weight_diff")
        assert wd[1000] < 0.8 * wd[900]
        # the post-reset level is the distance between two independent draws
        net_a = build_network(16, 4, (32, 32), "relu", False, RngStream(101, 0))
        net_b = build_network(16, 4, (32, 32), "relu", False, RngStream(202, 0))
        fresh, _ = _params_l2(net_a.params, net_b.params, list(net_a.param_order))
        assert 0.6 * fresh < wd[1000] < 1.4 * fresh
        assert art.summary["trigger_fires"]["0:reset_layers:once_at"] == 1

    def test_trigger_fire_counts(self, tmp_path):
        cfg = resolve_config({
            "algo": "regression", "seed": 1, "total_steps": 400,
            "scenario": {"mode": "level_shift", "segment_length": 100, "n_segments": 4},
            "network": {"hidden": [16]},
            "mitigations": [
                {"method": "shrink_perturb", "trigger": "every_k_steps(50)"},
                {"method": "reset_layers", "trigger": "once_at(120)"},
                {"method": "plasticity_injection", "trigger": "on_task_switch"},
            ],
            "logging": {"metric_interval": 200, "probe_batch": 32},
        })
        art = run_experiment(cfg, str(tmp_path / "r"))
        fires = art.summary["trigger_fires"]
        assert fires["0:shrink_perturb:every_k_steps"] == 7  # steps 50..350
        assert fires["1:reset_layers:once_at"] == 1
        assert fires["2:plasticity_injection:on_task_switch"] == 4  # incl. step 0
        events = [r for r in read_metrics(art.metrics_path) if r["scope"] == "event"]
        assert len(events) == 7 + 1 + 4

    def test_per_gradient_step_fires_every_update(self, tmp_path):
        cfg = probe_cfg(mitigations=[{"method": "shrink_perturb", "trigger": "per_gradient_step"}])
        art = run_experiment(cfg, str(tmp_path / "r"))
        assert art.summary["gradient_steps"] == cfg.total_steps
        assert art.summary["trigger_fires"]["0:shrink_perturb:per_gradient_step"] == cfg.total_steps

    def test_loss_and_optimizer_entries_count_as_updates(self, tmp_path):
        cfg = probe_cfg(mitigations=[{"method": "l2_reg"}, {"method": "trac"}])
        art = run_experiment(cfg, str(tmp_path / "r"))
        n = art.summary["gradient_steps"]
        assert n == cfg.total_steps
        assert art.summary["trigger_fires"]["0:l2_reg:per_gradient_step"] == n
        assert art.summary["trigger_fires"]["1:trac:per_gradient_step"] == n

    def test_spec_entries_fire_once_and_loss_entries_per_update(self, tmp_path):
        cfg = c51_cfg(mitigations=[
            "layer_norm", "l2_reg", {"method": "redo", "trigger": "every_k_steps(100)"}, "kron",
        ])
        art = run_experiment(cfg, str(tmp_path / "r"))
        n = art.summary["gradient_steps"]
        assert 0 < n < cfg.total_steps  # C51 learns on every train_frequency-th step only
        assert art.summary["trigger_fires"] == {
            "0:layer_norm:once_at": 1,
            "1:l2_reg:per_gradient_step": n,
            "2:redo:every_k_steps": 3,
            "3:kron:per_gradient_step": n,
        }

    def test_trac_with_plasticity_injection_runs(self, tmp_path):
        cfg = resolve_config({
            "algo": "regression", "seed": 1, "total_steps": 300,
            "scenario": {"mode": "level_shift", "segment_length": 100, "n_segments": 3},
            "network": {"hidden": [16]},
            "mitigations": ["trac", "plasticity_injection"],
            "logging": {"metric_interval": 100, "probe_batch": 32},
        })
        art = run_experiment(cfg, str(tmp_path / "r"))
        assert art.summary["status"] == "ok"
        assert art.summary["gradient_steps"] == 300
        assert art.summary["trigger_fires"]["1:plasticity_injection:on_task_switch"] == 3

    def test_mitigation_stream_isolated_from_env(self, tmp_path):
        vanilla = run_experiment(c51_cfg(), str(tmp_path / "v"))
        snp = run_experiment(
            c51_cfg(mitigations=[{"method": "shrink_perturb", "trigger": "once_at(100)"}]),
            str(tmp_path / "s"),
        )
        before = lambda path: [
            line for line in open(path).read().splitlines()[1:]
            if int(line.split(",")[0]) < 100
        ]
        assert before(vanilla.episodes_path) == before(snp.episodes_path)
        wd_v = metric_series(read_metrics(vanilla.metrics_path), "all", "weight_diff")
        wd_s = metric_series(read_metrics(snp.metrics_path), "all", "weight_diff")
        assert wd_v[100] != wd_s[100]

    def test_divergence_abort_diagnostic(self, tmp_path):
        cfg = probe_cfg(learner={"lr": 1e80}, total_steps=2000)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc_info:
            run_experiment(cfg, str(tmp_path / "r"))
        assert exc_info.value.step is not None
        summary = json.load(open(tmp_path / "r" / "summary.json"))
        assert summary["status"] == "diverged"
        assert summary["step"] == exc_info.value.step
        assert summary["last_metric_step"] == 0
        rows = read_metrics(tmp_path / "r" / "metrics.jsonl")
        assert any(r["step"] == 0 for r in rows)  # flushed through the last block
        assert (tmp_path / "r" / "config.yaml").exists()

    @pytest.mark.parametrize("algo", ["ppo", "c51", "regression", "ppo_at_episode_end", "c51_at_episode_end"])
    def test_non_finite_folded_loss_stops_before_the_step(self, algo, tmp_path, monkeypatch):
        algo, _, at_episode_end = algo.partition("_at_")
        module = {"ppo": ppo, "c51": c51, "regression": regression}[algo]
        monkeypatch.setattr(module, "reg_loss", lambda *args: (np.inf, {}))
        if at_episode_end:  # the first update falls on step 9, which ends the first 10-step episode
            learner = {"rollout_len": 10, "n_minibatches": 2} if algo == "ppo" else {
                "learning_starts": 10, "batch_size": 8, "train_frequency": 1}
            cfg = resolve_config({"algo": algo, "total_steps": 40, "scenario": {"mode": "standard", "horizon": 10},
                                  "network": {"hidden": [16]}, "learner": learner,
                                  "logging": {"probe_batch": 16}, "mitigations": ["l2_reg"]})
        elif algo == "ppo":
            cfg = resolve_config({"algo": "ppo", "total_steps": 64, "network": {"hidden": [16]},
                                  "learner": {"rollout_len": 32, "n_minibatches": 2},
                                  "logging": {"probe_batch": 16}, "mitigations": ["l2_reg"]})
        else:
            cfg = (c51_cfg if algo == "c51" else probe_cfg)(mitigations=["l2_reg"])
        with pytest.raises(DivergenceError):
            run_experiment(cfg, str(tmp_path / "r"))
        summary = json.load(open(tmp_path / "r" / "summary.json"))
        assert summary["error"] == "non-finite loss inf"
        assert summary["gradient_steps"] == 0
        if at_episode_end:  # the episode the diverged step ended is logged
            assert summary["step"] == 9 and summary["episodes"] == 1
            rows = open(tmp_path / "r" / "episodes.csv").read().splitlines()
            assert len(rows) == 2 and rows[1].startswith("9,0,") and rows[1].endswith(",10")

    def test_ppo_pointmass_chain_runs(self, tmp_path):
        cfg = resolve_config({
            "algo": "ppo", "seed": 3, "total_steps": 300,
            "scenario": {"mode": "task_chain", "segment_length": 100,
                         "n_segments": 3, "horizon": 50},
            "network": {"hidden": [16, 16], "activation": "tanh"},
            "learner": {"rollout_len": 64, "n_minibatches": 4},
            "logging": {"metric_interval": 150, "probe_batch": 32},
        })
        art = run_experiment(cfg, str(tmp_path / "r"))
        assert art.summary["status"] == "ok"
        assert art.summary["episodes"] >= 3
        assert art.summary["gradient_steps"] > 0


_MEMO_LOGGING = {"metric_interval": 100, "probe_batch": 16}

# Runs whose parameters change between gradient steps (every_k_steps(45)
# lands off the update cadence) as well as on them.
_MEMO_BASES = {
    "ppo_grid": {
        "algo": "ppo", "seed": 3, "total_steps": 300,
        "scenario": {"mode": "level_shift", "segment_length": 150, "n_segments": 2},
        "network": {"hidden": [16]},
        "learner": {"rollout_len": 64, "n_minibatches": 2, "update_epochs": 1},
        "logging": _MEMO_LOGGING,
    },
    "ppo_pointmass": {
        "algo": "ppo", "seed": 4, "total_steps": 300,
        "scenario": {"mode": "task_chain", "segment_length": 150},
        "network": {"hidden": [16]},
        "learner": {"rollout_len": 64, "n_minibatches": 2, "update_epochs": 1},
        "logging": _MEMO_LOGGING,
    },
    "c51_grid": {
        "algo": "c51", "seed": 2, "total_steps": 300,
        "scenario": {"mode": "standard", "horizon": 40},
        "network": {"hidden": [16]},
        "learner": {
            "buffer_size": 500, "batch_size": 16, "learning_starts": 40,
            "train_frequency": 4, "target_network_frequency": 100, "n_atoms": 11,
            "exploration_fraction": 0.2,
        },
        "logging": _MEMO_LOGGING,
    },
}

_MEMO_PLANS = {
    "redo": [{"method": "redo", "trigger": "every_k_steps(45)"}],
    "reset_final": [
        {"method": "reset_layers", "params": {"scope": "final"}, "trigger": "every_k_steps(45)"}
    ],
    "reset_all": [
        {"method": "reset_layers", "params": {"scope": "all"}, "trigger": "every_k_steps(45)"}
    ],
    "injection": [{"method": "plasticity_injection", "trigger": "every_k_steps(90)"}],
    "trac": ["trac"],
    "kron": [{"method": "kron", "params": {"damping": 0.1}}],
}


class TestProbeBatches:
    def test_one_probe_task_call_per_step(self, tmp_path, monkeypatch):
        """The traced bench counts loop.probe_task calls as probe steps."""
        calls = []
        real = loop.probe_task

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(loop, "probe_task", counting)
        cfg = probe_cfg(total_steps=30, scenario={"mode": "level_shift", "segment_length": 10, "n_segments": 3})
        run_experiment(cfg, str(tmp_path / "r"))
        assert len(calls) == 30 and len(set(calls)) == 3

    def test_large_batches_are_not_drawn_ahead(self, tmp_path, monkeypatch):
        """A block of DRAW_AHEAD such batches would be 10 MB; the holder
        keeps about one, and soft shrink-and-perturb's holder, for a net
        whose draw passes a MB, one draw."""
        n = 8_000
        batch_bytes = n * (PROBE_DIM + PROBE_OUT) * 8
        holders = {}
        real_task, real_event = loop.probe_task, loop.apply_event_method

        def task(perm_seed, n, stream, ahead=None):
            holders["probe"] = ahead
            return real_task(perm_seed, n, stream, ahead)

        def event(entry, net, stream, probe=None, ahead=None):
            holders["snp"] = ahead
            return real_event(entry, net, stream, probe=probe, ahead=ahead)

        monkeypatch.setattr(loop, "probe_task", task)
        monkeypatch.setattr(loop, "apply_event_method", event)
        cfg = probe_cfg(
            total_steps=3,
            learner={"batch_size": n},
            network={"hidden": [512, 512]},
            mitigations=[{"method": "shrink_perturb", "trigger": "per_gradient_step"}],
        )
        run_experiment(cfg, str(tmp_path / "r"))
        assert holders["probe"].steps == holders["snp"].steps == 1
        snp_held = sum(a.nbytes for arrays in holders["snp"].draws for a in arrays)
        assert snp_held == (16 * 512 + 512 + 512 * 512 + 512 + 512 * 4 + 4) * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            x, y = real_task(1, n, RngStream(0, 1), holders["probe"])
            del x, y
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert batch_bytes <= kept < 1.1 * batch_bytes

    @pytest.mark.parametrize("n,k", [(64, 8), (169, 8), (453, 6), (1000, 2), (1365, 2)])
    def test_batch_refill_peak_stays_near_ahead_bytes(self, n, k, tmp_path, monkeypatch):
        """The run sizes its holder from what a refill uses, not only from
        what it keeps (at 1,000 rows, 6 kept batches once peaked at 5.4 MB)."""
        holders = []
        real = loop.probe_task

        def task(perm_seed, n, stream, ahead=None):
            holders.append(ahead)
            return real(perm_seed, n, stream, ahead)

        monkeypatch.setattr(loop, "probe_task", task)
        run_experiment(probe_cfg(total_steps=8, learner={"batch_size": n}), str(tmp_path / "r"))
        assert not holders[0].helper  # the batches have no helper
        ahead = DrawAhead(holders[0].steps)
        tracemalloc.start()
        try:
            x, y = real(1, n, RngStream(0, 1), ahead)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ahead.draws[0][0]) == k  # the draws' leading axis
        assert peak < 1.1 * loop.AHEAD_BYTES

    @staticmethod
    def _init_holder(hidden, cpus, monkeypatch, tmp_path):
        """(steps, helper, specs) of the inits' holder of a probe run with soft
        shrink-and-perturb on a net of `hidden` widths, long enough to need
        more than one block, in a process that may run on `cpus` CPUs with
        one BLAS thread."""
        holders = []
        real = loop.apply_event_method

        def event(entry, net, stream, probe=None, ahead=None):
            holders.append((ahead.steps, ahead.helper, net.layers))
            return real(entry, net, stream, probe=probe, ahead=ahead)

        monkeypatch.setattr(loop, "apply_event_method", event)
        _machine(monkeypatch, cpus, 1)
        cfg = probe_cfg(
            total_steps=20,
            network={"hidden": list(hidden)},
            mitigations=[{"method": "shrink_perturb", "trigger": "per_gradient_step"}],
        )
        run_experiment(cfg, str(tmp_path / "r"))
        return holders[0]

    @staticmethod
    def _refill_peak(steps, helper, specs) -> tuple[int, int]:
        """(draws per block, traced peak in this process) of a first refill
        and, where the holder has a helper, of the second, which takes the
        helper's reply while the first block is still held."""
        ahead, stream = DrawAhead(steps, helper), RngStream(0, 3)
        tracemalloc.start()
        try:
            for _ in range(steps + helper):
                ahead.take(specs, stream, chain_slots(specs), partial(shape_layers, specs))
            ahead.close()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return len(ahead.draws[0][0]), peak

    @pytest.mark.parametrize(
        "hidden,k",
        [((32,), 8), ((64, 64), 8), ((100,), 8), ((64, 64, 64), 4), ((128, 128), 2)],
        ids=["32", "64-64", "100", "64-64-64", "128-128"],
    )
    def test_init_refill_peak_stays_near_ahead_bytes(self, hidden, k, tmp_path, monkeypatch):
        """Soft shrink-and-perturb's holder is sized from what a refill uses,
        not from the inits it keeps (on the default 64-64 net, eight kept
        draws of 0.35 MB once peaked at 1.59 MB). The default net still
        draws eight gradient steps at once. On one CPU there is no helper."""
        steps, helper, specs = self._init_holder(hidden, 1, monkeypatch, tmp_path)
        assert not helper
        drawn, peak = self._refill_peak(steps, helper, specs)
        assert drawn == k  # the draws' leading axis
        assert peak <= 1.07 * loop.AHEAD_BYTES

    @pytest.mark.parametrize(
        "hidden,k",
        [((32,), 8), ((64, 64), 8), ((100,), 8), ((64, 64, 64), 3), ((128, 128), 2)],
        ids=["32", "64-64", "100", "64-64-64", "128-128"],
    )
    def test_init_refill_peak_with_a_helper_stays_near_ahead_bytes(self, hidden, k, tmp_path, monkeypatch):
        """With a helper, the block in use and the next block's refill fit
        in AHEAD_BYTES together."""
        steps, helper, specs = self._init_holder(hidden, 2, monkeypatch, tmp_path)
        assert helper
        drawn, peak = self._refill_peak(steps, helper, specs)
        assert drawn == k
        assert peak <= 1.07 * loop.AHEAD_BYTES


def _machine(monkeypatch, cpus: int, threads) -> None:
    """Make the process see `cpus` usable CPUs and `threads` BLAS threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(loop, "blas_threads", lambda: threads)


def _snp_probe_cfg(**over):
    """A probe run whose batches and soft shrink-and-perturb inits are both
    drawn eight steps ahead, over two tasks; only the inits' holder has a
    helper."""
    return probe_cfg(**{
        "total_steps": 60,
        "scenario": {"mode": "level_shift", "segment_length": 30, "n_segments": 2},
        "mitigations": [{"method": "shrink_perturb", "trigger": "per_gradient_step"}],
        **over,
    })


class TestDrawAheadHelper:
    """The helper process that makes soft shrink-and-perturb's next block of
    inits: started only where it can pay, one at most per run, stopped by the
    end of the run, and never seen in the bytes."""

    FILES = ("metrics.jsonl", "episodes.csv", "ckpt_final.bin", "summary.json", "config.yaml")

    @staticmethod
    def _count_helpers(monkeypatch) -> list:
        """The helper processes alive after each mitigation event of a run."""
        alive = []
        real = loop.apply_event_method

        def counting(*args, **kwargs):
            value = real(*args, **kwargs)
            alive.append(len(multiprocessing.active_children()))
            return value

        monkeypatch.setattr(loop, "apply_event_method", counting)
        return alive

    def _bytes(self, art) -> list[bytes]:
        return [open(os.path.join(art.out_dir, name), "rb").read() for name in self.FILES]

    @pytest.mark.parametrize("lr", [1e-3, 1e80], ids=["ok", "diverged"])
    def test_no_helper_outlives_the_run(self, lr, tmp_path, monkeypatch):
        _machine(monkeypatch, 2, 1)
        alive = self._count_helpers(monkeypatch)
        with np.errstate(all="ignore"):
            try:
                status = run_experiment(_snp_probe_cfg(learner={"lr": lr}), str(tmp_path / "r")).summary["status"]
            except DivergenceError:
                status = "diverged"
        assert status == ("ok" if lr < 1 else "diverged")
        assert max(alive) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus,threads", [(1, 1), (2, 2), (2, "unknown")])
    def test_no_spare_cpu_starts_no_helper_and_writes_the_same_bytes(self, cpus, threads, tmp_path, monkeypatch):
        out = []
        for machine in ((2, 1), (cpus, threads)):
            with monkeypatch.context() as patch:
                _machine(patch, *machine)
                alive = self._count_helpers(patch)
                art = run_experiment(_snp_probe_cfg(), str(tmp_path / str(len(out))))
            assert max(alive) == (machine == (2, 1))
            out.append(self._bytes(art))
        assert out[0] == out[1]

    def test_a_run_holds_one_helper_at_most(self, tmp_path, monkeypatch):
        """24 per-gradient-step shrink_perturb entries have 24 holders, but
        only the first starts a helper; the bytes are those of a run with
        none."""
        entries = [{"method": "shrink_perturb", "trigger": "per_gradient_step"}] * 24
        out = []
        for machine in ((2, 1), (1, 1)):
            with monkeypatch.context() as patch:
                _machine(patch, *machine)
                alive = self._count_helpers(patch)
                art = run_experiment(_snp_probe_cfg(total_steps=20, mitigations=entries), str(tmp_path / str(len(out))))
            assert max(alive) == (machine == (2, 1)) and multiprocessing.active_children() == []
            out.append(self._bytes(art))
        assert out[0] == out[1]

    def test_plasticity_injection_keeps_one_helper_and_writes_the_same_bytes(self, tmp_path, monkeypatch):
        """Each plasticity_injection round freezes the last trainable head
        branch and adds one, so soft shrink-and-perturb's draw keeps its
        layout: the first helper's mapping fits every block, and the bytes
        are those of a run without a helper."""
        forks, real = [], numkit.DrawAhead._fork
        monkeypatch.setattr(numkit.DrawAhead, "_fork", lambda ahead, size: forks.append(size) or real(ahead, size))
        entries = ["plasticity_injection", {"method": "shrink_perturb", "trigger": "per_gradient_step"}]
        out = []
        for machine in ((2, 1), (1, 1)):
            with monkeypatch.context() as patch:
                _machine(patch, *machine)
                art = run_experiment(_snp_probe_cfg(mitigations=entries), str(tmp_path / str(len(out))))
            assert art.summary["trigger_fires"]["0:plasticity_injection:on_task_switch"] == 2
            assert multiprocessing.active_children() == []
            out.append(self._bytes(art))
        assert len(forks) == 1
        assert out[0] == out[1]

    @pytest.mark.parametrize("steps", [1, 8])
    def test_a_run_that_fits_in_one_block_starts_no_helper(self, steps, tmp_path, monkeypatch):
        _machine(monkeypatch, 2, 1)
        alive = self._count_helpers(monkeypatch)
        run_experiment(_snp_probe_cfg(total_steps=steps), str(tmp_path / "r"))
        assert len(alive) == steps and max(alive) == 0

    @pytest.mark.parametrize("cfg", [c51_cfg, partial(_snp_probe_cfg, total_steps=1)], ids=["c51", "probe-1-step"])
    def test_a_run_without_a_helper_loads_no_multiprocessing(self, cfg, tmp_path):
        """With one BLAS thread, as the benchmark runs, neither a C51 run nor
        the probe's one-step set-up run pays for loading multiprocessing or
        mmap."""
        code = (
            "import sys\n"
            "from plastlab.runner import load_config, run_experiment\n"
            "run_experiment(load_config(sys.argv[1]), sys.argv[2])\n"
            "print('multiprocessing' in sys.modules, 'mmap' in sys.modules)\n"
        )
        (tmp_path / "exp.yaml").write_text(config_yaml(cfg()))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "exp.yaml"), str(tmp_path / "r")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_platform_without_affinity_counts_cpus_by_cpu_count(self, cpus, tmp_path, monkeypatch):
        """Where os.sched_getaffinity is missing (macOS, Windows), the run
        reads its CPUs from os.cpu_count()."""
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(loop, "blas_threads", lambda: 1)
        alive = self._count_helpers(monkeypatch)
        art = run_experiment(_snp_probe_cfg(), str(tmp_path / "r"))
        assert art.summary["status"] == "ok"
        assert max(alive) == (cpus > 1)
        with open(os.path.join(art.out_dir, "provenance.json"), encoding="utf-8") as fh:
            assert json.load(fh)["cpus"] == cpus


def _footprint(cfg) -> int:
    net = cfg.network
    obs_dim, head_width = loop._widths(cfg)
    specs = network_specs(obs_dim, head_width, net.hidden, net.activation, net.layer_norm)
    return loop.footprint_bytes(cfg, specs)


# C51 whose target memo reaches MEMO_CAP before a sync: random acting over 16
# levels of four stacked frames gives more than 1,024 distinct transitions.
_FULL_TARGET_MEMO = {
    "algo": "c51",
    "seed": 1,
    "total_steps": 1600,
    "scenario": {"mode": "level_shift", "segment_length": 100, "n_segments": 16, "horizon": 40, "frame_stack": 4},
    "network": {"hidden": [32]},
    "learner": {
        "buffer_size": 1600, "batch_size": 64, "learning_starts": 50, "train_frequency": 2,
        "target_network_frequency": 10**6, "exploration_fraction": 1.0, "end_epsilon": 1.0,
    },
    "logging": {"metric_interval": 800, "probe_batch": 32},
}

# C51 whose head gains a branch pair every 25 steps, 23 pairs in all
_INJECTION = {
    "algo": "c51",
    "seed": 3,
    "total_steps": 600,
    "scenario": {"mode": "standard", "horizon": 40},
    "network": {"hidden": [32]},
    "learner": {"buffer_size": 600, "batch_size": 32, "learning_starts": 50, "train_frequency": 4},
    "mitigations": [{"method": "plasticity_injection", "trigger": "every_k_steps(25)"}],
    "logging": {"metric_interval": 200, "probe_batch": 32},
}

_FOOTPRINT_NAMES = ["ppo_grid_level_shift", "ppo_pointmass_task_chain", "c51_grid_frame_stack",
                    "regression_probe_level_shift", "regression_probe_trac_redo"]


class TestFootprint:
    @pytest.mark.parametrize(
        "raw",
        [golden.CONFIGS[name] for name in _FOOTPRINT_NAMES] + [_FULL_TARGET_MEMO, _INJECTION],
        ids=_FOOTPRINT_NAMES + ["c51_full_target_memo", "c51_injection_every_25"],
    )
    def test_estimate_bounds_the_traced_peak_within_3x(self, raw, tmp_path, monkeypatch):
        cfg = resolve_config(raw)
        most = [0]
        real = c51._target_rows

        def sizing(target, batch, head, gamma, memo, picks=None):
            out = real(target, batch, head, gamma, memo, picks)
            most[0] = max(most[0], len(memo))
            return out

        # a first run pays the one-time costs (lazy imports, caches) no run holds
        with monkeypatch.context() as patch:
            patch.setattr(c51, "_target_rows", sizing)
            run_experiment(cfg, str(tmp_path / "warm"))
        if raw is _FULL_TARGET_MEMO:
            assert most[0] >= common.MEMO_CAP - 2
        tracemalloc.start()
        try:
            run_experiment(cfg, str(tmp_path / "run"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        est = _footprint(cfg)
        assert peak <= est <= 3 * peak, (peak, est)

    @pytest.mark.parametrize("machine", [(2, 1), (1, 1)], ids=["helper", "no-helper"])
    def test_estimate_bounds_the_traced_peak_of_24_soft_snp_entries(self, machine, tmp_path, monkeypatch):
        """Each per-gradient-step shrink_perturb entry keeps a holder of
        inits, and only the first may have a helper: the estimate counts
        every holder."""
        _machine(monkeypatch, *machine)
        entries = [{"method": "shrink_perturb", "trigger": "per_gradient_step"}] * 24
        cfg = _snp_probe_cfg(total_steps=40, network={"hidden": [64, 64]}, mitigations=entries)
        run_experiment(cfg, str(tmp_path / "warm"))
        tracemalloc.start()
        try:
            run_experiment(cfg, str(tmp_path / "run"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        est = _footprint(cfg)
        assert peak <= est, (peak, est)

    def test_too_large_a_run_exits_2_before_its_directory(self, tmp_path, capsys):
        cfg = dict(golden.CONFIGS["c51_grid_standard"], total_steps=20)
        cfg["scenario"] = {**cfg["scenario"], "frame_stack": 293025}
        assert _footprint(resolve_config(cfg)) > 22 * 2**30  # its init draw alone takes 22.6 GiB
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "run"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()

    def test_injection_rounds_exit_2_before_any_allocation(self, tmp_path, capsys, monkeypatch):
        cfg = dict(golden.CONFIGS["c51_grid_standard"], total_steps=10**9,
                   mitigations=[{"method": "plasticity_injection", "trigger": "per_gradient_step"}])
        without = _footprint(resolve_config(dict(cfg, mitigations=[])))
        assert _footprint(resolve_config(cfg)) > 1000 * without
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(cfg))
        monkeypatch.setattr(loop, "init_network", None)  # a call would fail with a traceback, not exit 2
        out = tmp_path / "run"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("frame_stack", [1, 2, 4])
    def test_replay_term_equals_the_buffers_row_bytes(self, frame_stack):
        obs_dim, head_width = loop._widths(c51_cfg(scenario={"frame_stack": frame_stack}))

        def footprint(buffer_size):
            cfg = c51_cfg(scenario={"frame_stack": frame_stack}, learner={"buffer_size": buffer_size})
            return c51.C51Learner.footprint(cfg, obs_dim, head_width)[1]

        assert obs_dim == 324 * frame_stack
        row = footprint(201) - footprint(200)
        assert row == 2 * -(-obs_dim // 8) + 24
        buf = ReplayBuffer(200, obs_dim)
        assert sum(a.nbytes for a in (buf.store, buf.actions, buf.rewards, buf.dones)) == 200 * row

    @staticmethod
    def _injection_run(tmp_path, rounds):
        raw = {
            "algo": "regression", "seed": 1, "total_steps": rounds, "network": {"hidden": [16]},
            "mitigations": [{"method": "plasticity_injection", "trigger": "per_gradient_step"}],
            "logging": {"metric_interval": 50, "probe_batch": 16},
        }
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "run"
        return main(["run", str(path), "--out", str(out)]), out

    def test_injection_rounds_at_the_cap_run(self, tmp_path):
        code, out = self._injection_run(tmp_path, loop.MAX_INJECTION_ROUNDS)
        assert code == 0
        summary = json.load(open(out / "summary.json"))
        assert summary["trigger_fires"] == {"0:plasticity_injection:per_gradient_step": 100}

    def test_injection_rounds_over_the_cap_exit_2_before_any_allocation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(loop, "init_network", None)  # a call would fail with a traceback, not exit 2
        code, out = self._injection_run(tmp_path, loop.MAX_INJECTION_ROUNDS + 1)
        assert code == 2
        assert "could fire 101 rounds in this run, over the 100 allowed" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("name", sorted(golden.CONFIGS))
def test_most_gradient_steps_bounds_each_golden_run(name, tmp_path):
    cfg = resolve_config(golden.CONFIGS[name])
    art = run_experiment(cfg, str(tmp_path / "r"))
    most = LEARNERS[cfg.algo].most_gradient_steps(cfg)
    if cfg.algo == "c51":  # it counts the train_frequency steps before learning_starts too
        assert most >= art.summary["gradient_steps"]
    else:
        assert most == art.summary["gradient_steps"]


def test_c51_epsilon_ramp_follows_the_run_length(tmp_path, monkeypatch):
    totals = []
    real = c51.epsilon_schedule

    def recording(step, start, end, fraction, total):
        totals.append(total)
        return real(step, start, end, fraction, total)

    monkeypatch.setattr(c51, "epsilon_schedule", recording)
    run_experiment(c51_cfg(total_steps=60, learner={"exploration_fraction": 0.5}), str(tmp_path / "r"))
    assert totals == [60] * 60


class TestActMemo:
    """The act memo reuses forwards only; every log byte is the recompute's."""

    @staticmethod
    def _run(raw, out_dir):
        art = run_experiment(resolve_config(raw), out_dir)
        assert art.summary["status"] == "ok"
        return [open(path, "rb").read() for path in (art.metrics_path, art.episodes_path)]

    @pytest.mark.parametrize("plan", sorted(_MEMO_PLANS))
    @pytest.mark.parametrize("base", sorted(_MEMO_BASES))
    def test_logs_equal_a_run_that_recomputes_every_act(self, base, plan, tmp_path, monkeypatch):
        raw = {**_MEMO_BASES[base], "mitigations": _MEMO_PLANS[plan]}
        memo_logs = self._run(raw, str(tmp_path / "memo"))
        monkeypatch.setattr(common, "MEMO_CAP", 0)
        assert self._run(raw, str(tmp_path / "recompute")) == memo_logs

    @pytest.mark.parametrize("base", ["ppo_grid", "c51_grid"])
    def test_repeated_gridworld_observations_skip_the_forward(self, base, tmp_path, monkeypatch):
        module = ppo if base == "ppo_grid" else c51
        learner_cls = ppo.PPOLearner if base == "ppo_grid" else c51.C51Learner
        calls, acting = [], []
        act = learner_cls.act

        def flagged_act(learner, *args):
            acting.append(True)
            try:
                return act(learner, *args)
            finally:
                acting.pop()

        def counting_forward(net, x):
            if acting:  # an act's forward, not a training or target one
                calls.append(x.shape[0])
            return net_forward(net, x)

        monkeypatch.setattr(learner_cls, "act", flagged_act)
        monkeypatch.setattr(module, "forward", counting_forward)
        raw = {**_MEMO_BASES[base], "mitigations": _MEMO_PLANS["redo"]}
        self._run(raw, str(tmp_path / "memo"))
        with_memo = calls.count(1)
        calls.clear()
        monkeypatch.setattr(common, "MEMO_CAP", 0)
        self._run(raw, str(tmp_path / "recompute"))
        assert 0 < with_memo < calls.count(1) // 2

    @pytest.mark.parametrize("base", ["ppo_grid", "c51_grid"])
    def test_memo_never_holds_more_than_the_cap(self, base, tmp_path, monkeypatch):
        learner_cls = ppo.PPOLearner if base == "ppo_grid" else c51.C51Learner
        sizes = []
        act = learner_cls.act

        def recording_act(learner, *args):
            out = act(learner, *args)
            sizes.append(len(learner.memo))
            return out

        monkeypatch.setattr(learner_cls, "act", recording_act)
        monkeypatch.setattr(common, "MEMO_CAP", 5)
        # no gradient step in 300 steps: only the cap empties the memo
        learner = {"learning_starts": 1000, "exploration_fraction": 0.001}
        if base == "ppo_grid":
            learner = {"rollout_len": 1000}
        raw = {**_MEMO_BASES[base], "learner": {**_MEMO_BASES[base]["learner"], **learner}}
        self._run(raw, str(tmp_path / "r"))
        assert len(sizes) == 300
        assert max(sizes) == 5


    def test_pointmass_has_no_memo_and_keeps_its_logs(self, tmp_path, monkeypatch):
        memos = []
        act = ppo.PPOLearner.act

        def recording_act(learner, *args):
            memos.append(learner.memo)
            return act(learner, *args)

        monkeypatch.setattr(ppo.PPOLearner, "act", recording_act)
        name = "ppo_pointmass_task_chain"
        art = run_experiment(resolve_config(golden.CONFIGS[name]), str(tmp_path / "r"))
        assert len(memos) == golden.CONFIGS[name]["total_steps"]
        assert all(memo is None for memo in memos)
        for file_name, digest in golden.GOLDEN[name].items():
            data = open(os.path.join(art.out_dir, file_name), "rb").read()
            assert hashlib.sha256(data).hexdigest() == digest, file_name


class TestTargetMemo:
    """C51's target memo reuses forwards and projections only; every log byte
    is the recompute's."""

    @pytest.mark.parametrize(
        "name", ["c51_grid_standard", "c51_grid_frame_stack", "c51_grid_reset_all", "c51_grid_online_selection"]
    )
    def test_logs_equal_a_run_with_the_memo_capped_at_zero(self, name, tmp_path, monkeypatch):
        files = ("metrics.jsonl", "episodes.csv", "ckpt_final.bin")

        def run(out):
            art = run_experiment(resolve_config(golden.CONFIGS[name]), str(tmp_path / out))
            return [open(os.path.join(art.out_dir, f), "rb").read() for f in files]

        memo_logs = run("memo")
        monkeypatch.setattr(common, "MEMO_CAP", 0)
        assert run("capped") == memo_logs

    def test_repeated_transitions_skip_the_target_forward(self, tmp_path, monkeypatch):
        rows, misses, forwards, inside = [], [], [], []
        real, real_probs = c51._target_rows, c51._dist_probs

        def counting(target, batch, head, gamma, memo, picks=None):
            before = len(memo)
            inside.append(0)
            out = real(target, batch, head, gamma, memo, picks)
            forwards.append(inside.pop())
            rows.append(len(out))
            misses.append(len(memo) - before)
            return out

        def probs(*args):
            if inside:  # a target forward, not an act's
                inside[-1] += 1
            return real_probs(*args)

        monkeypatch.setattr(c51, "_target_rows", counting)
        monkeypatch.setattr(c51, "_dist_probs", probs)
        run_experiment(resolve_config(golden.CONFIGS["c51_grid_standard"]), str(tmp_path / "r"))
        # 275 updates of 16 rows; a 9x9 level has at most 81 next observations per sync
        assert sum(rows) == 275 * 16
        assert 0 < sum(misses) < sum(rows) // 10
        assert forwards == misses  # one batch-of-one target forward per row miss


# Switches at steps 150 and 300 fall mid-rollout (64 rows), so both truncate
# a partly filled rollout.
_ROLLOUT_RUNS = {
    "discrete": {
        "algo": "ppo", "seed": 3, "total_steps": 400,
        "scenario": {"mode": "level_shift", "segment_length": 150, "n_segments": 3},
        "network": {"hidden": [16]},
        "learner": {"rollout_len": 64, "n_minibatches": 2, "update_epochs": 1},
        "logging": _MEMO_LOGGING,
    },
    "continuous": {
        "algo": "ppo", "seed": 4, "total_steps": 400,
        "scenario": {"mode": "task_chain", "segment_length": 150, "horizon": 40},
        "network": {"hidden": [16]},
        "learner": {"rollout_len": 64, "n_minibatches": 2, "update_epochs": 1},
        "logging": _MEMO_LOGGING,
    },
}


_EVENT_METHODS = sorted(name for name, spec in REGISTRY.items() if spec.kind == "event")
_OTHER_METHODS = sorted(name for name, spec in REGISTRY.items() if spec.kind != "event")
_FAST_PATH_TOTAL = 120


@st.composite
def small_runs(draw):
    """A short run of any algo and mode with up to two event methods on any
    trigger, plus one other method, frame stacking, action selection and
    drawn intervals."""
    algo = draw(st.sampled_from(["ppo", "c51", "regression"]))
    modes = {"ppo": ["standard", "level_shift", "task_chain"], "c51": ["standard", "level_shift"]}
    mode = draw(st.sampled_from(modes.get(algo, ["standard", "level_shift"])))
    scenario = {"mode": mode}
    if mode != "standard":
        scenario["segment_length"] = draw(st.sampled_from([30, 50, 80]))
        scenario["n_segments"] = -(-_FAST_PATH_TOTAL // scenario["segment_length"])
    if algo != "regression":
        scenario["horizon"] = 30
    if mode != "task_chain" and algo != "regression":
        scenario["frame_stack"] = draw(st.integers(1, 3))
    learner = {
        "ppo": {"rollout_len": draw(st.sampled_from([24, 40])), "n_minibatches": 2, "update_epochs": 1},
        "c51": {
            "buffer_size": 100, "batch_size": 8, "learning_starts": 20, "n_atoms": 11,
            "train_frequency": draw(st.integers(1, 3)),
            "target_network_frequency": draw(st.sampled_from([10, 25, 60])),
            "action_selection": draw(st.sampled_from(["target", "online"])),
        },
        "regression": {"batch_size": 16},
    }[algo]
    mitigations = []
    for method in draw(st.lists(st.sampled_from(_EVENT_METHODS), max_size=2, unique=True)):
        kinds = ["on_task_switch", "every_k_steps", "once_at"]
        if method != "plasticity_injection":  # its rounds grow without bound per gradient step
            kinds.append("per_gradient_step")
        trigger = draw(st.sampled_from(kinds))
        if trigger == "every_k_steps":
            trigger += f"({draw(st.integers(20, 70))})"
        elif trigger == "once_at":
            trigger += f"({draw(st.integers(0, _FAST_PATH_TOTAL - 1))})"
        mitigations.append({"method": method, "trigger": trigger})
    other = draw(st.sampled_from([None] + _OTHER_METHODS))
    if other is not None:
        mitigations.append(other)
    return {
        "algo": algo, "seed": draw(st.integers(0, 99)), "total_steps": _FAST_PATH_TOTAL,
        "scenario": scenario, "network": {"hidden": [16]}, "learner": learner,
        "mitigations": mitigations,
        "logging": {"metric_interval": draw(st.sampled_from([15, 40, 120])), "probe_batch": 16},
        "checkpoint_interval": draw(st.sampled_from([0, 30, 70])),
    }


class TestFastPathsOff:
    """The act memo, the target memo and draw-ahead reuse or batch work
    only: with all three off, a run writes the same bytes."""

    @staticmethod
    def _artifacts(raw, out):
        try:
            out_dir = run_experiment(resolve_config(raw), out).out_dir
            error = None
        except DivergenceError as exc:
            out_dir, error = out, str(exc)
        files = ("metrics.jsonl", "episodes.csv", "ckpt_final.bin")
        paths = [os.path.join(out_dir, name) for name in files]
        return error, [open(path, "rb").read() if os.path.exists(path) else None for path in paths]

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=small_runs())
    def test_fast_paths_off_write_the_same_bytes(self, raw, tmp_path_factory):
        root = tmp_path_factory.mktemp("run")
        on = self._artifacts(raw, str(root / "on"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(common, "MEMO_CAP", 0)
            patch.setattr(loop, "DRAW_AHEAD", 1)
            off = self._artifacts(raw, str(root / "off"))
        assert on[1][0] is not None
        assert off == on


class TestRolloutStore:
    """The columnar rollout hands each update what stacking per-step tuples did."""

    @pytest.mark.parametrize("kind", sorted(_ROLLOUT_RUNS))
    def test_columns_equal_the_stacked_tuples(self, kind, tmp_path, monkeypatch):
        rows, switches, updates = [], [], []
        add, build_env, train = Rollout.add, loop._build_env, ppo.PPOLearner.train

        def recording_add(rollout, *row):
            rows.append(row)
            add(rollout, *row)

        def recording_build_env(*args):
            switches.append(len(rows))
            return build_env(*args)

        def recording_train(learner, traj, *args):
            # copies: the rollout's columns are refilled after the update
            updates.append([np.array(col) for col in (
                traj.observations, traj.actions, traj.rewards,
                traj.dones, traj.log_probs, traj.values)])
            return train(learner, traj, *args)

        monkeypatch.setattr(Rollout, "add", recording_add)
        monkeypatch.setattr(loop, "_build_env", recording_build_env)
        monkeypatch.setattr(ppo.PPOLearner, "train", recording_train)
        raw = _ROLLOUT_RUNS[kind]
        art = run_experiment(resolve_config(raw), str(tmp_path / "r"))
        assert art.summary["status"] == "ok"

        # the oracle: a list of per-step tuples, its last one marked done at
        # a task switch, stacked column by column with np.array
        rollout_len = raw["learner"]["rollout_len"]
        expected, pending, truncated = [], [], 0
        for t, row in enumerate(rows):
            if t in switches and pending:
                o, a, r, d, lp, v = pending[-1]
                truncated += d == 0.0
                pending[-1] = (o, a, r, 1.0, lp, v)
            pending.append(row)
            if len(pending) == rollout_len:
                expected.append([np.array([step[i] for step in pending]) for i in range(6)])
                pending = []
        assert truncated == 2
        assert len(updates) == len(expected) == raw["total_steps"] // rollout_len
        for got_columns, want_columns in zip(updates, expected):
            for got, want in zip(got_columns, want_columns):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_rollout_longer_than_the_run_is_sized_to_the_run(self, tmp_path, monkeypatch):
        sizes = []
        init = Rollout.__init__

        def recording_init(rollout, *args, **kwargs):
            init(rollout, *args, **kwargs)
            sizes.append(rollout.obs.shape[0])

        monkeypatch.setattr(Rollout, "__init__", recording_init)
        raw = {**_ROLLOUT_RUNS["discrete"], "total_steps": 20}
        art = run_experiment(resolve_config(raw), str(tmp_path / "r"))
        assert sizes == [20]
        assert art.summary["gradient_steps"] == 0


class TestReplay:
    def test_replay_matches_logged_rows(self, tmp_path):
        cfg = c51_cfg(checkpoint_interval=200)
        art = run_experiment(cfg, str(tmp_path / "r"))
        rows = read_metrics(art.metrics_path)
        for step, name in ((200, "ckpt_step200.bin"), (400, "ckpt_final.bin")):
            logged = {
                (r["scope"], r["metric"]): r["value"]
                for r in rows if r["step"] == step and r["scope"] != "event"
            }
            replayed = {}
            for rep in replay_metrics(os.path.join(art.out_dir, name), cfg.seed, 32):
                for metric, value in rep.rows():
                    replayed[(rep.scope, metric)] = float(value)
            assert set(replayed) == set(logged)
            for key in logged:
                assert abs(replayed[key] - logged[key]) <= 1e-9, key

    @pytest.mark.parametrize("name", sorted(golden.CONFIGS))
    def test_every_golden_checkpoint_loads_and_replays_its_last_rows(self, name, tmp_path):
        cfg = resolve_config(golden.CONFIGS[name])
        art = run_experiment(cfg, str(tmp_path / "r"))
        for path in art.checkpoint_paths:
            with open(path, "rb") as fh:
                deserialize_network(fh.read())
        logged = {(r["scope"], r["metric"]): r["value"]
                  for r in read_metrics(art.metrics_path) if r["step"] == cfg.total_steps}
        replayed = {(rep.scope, metric): value
                    for rep in replay_metrics(art.checkpoint_paths[-1], cfg.seed, cfg.logging.probe_batch)
                    for metric, value in rep.rows()}
        assert replayed.keys() == logged.keys()
        for key in logged:
            assert abs(replayed[key] - logged[key]) <= 1e-9, key

    def test_fresh_init_checkpoint_zero_weight_diff(self, tmp_path):
        net = build_network(8, 3, (16,), "relu", False, RngStream(4, 0))
        path = tmp_path / "fresh.bin"
        path.write_bytes(serialize_network(net))
        for rep in replay_metrics(str(path), probe_seed=4, probe_batch=16):
            if rep.weight_diff is not None:
                assert rep.weight_diff == 0.0

    def test_corrupted_blob_fails_closed(self, tmp_path):
        net = build_network(8, 3, (16,), "relu", False, RngStream(4, 0))
        blob = serialize_network(net)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            replay_metrics(str(bad), probe_seed=0)
        bad.write_bytes(b"junkjunkjunk")
        with pytest.raises(CheckpointError):
            replay_metrics(str(bad), probe_seed=0)
        missing = tmp_path / "nope.bin"
        with pytest.raises(CheckpointError):
            replay_metrics(str(missing), probe_seed=0)

    def test_checkpoint_cadence_independent_of_metric_interval(self, tmp_path):
        cfg = probe_cfg(checkpoint_interval=70)
        art = run_experiment(cfg, str(tmp_path / "r"))
        names = sorted(os.path.basename(p) for p in art.checkpoint_paths)
        assert "ckpt_step70.bin" in names
        assert "ckpt_step140.bin" in names
        assert "ckpt_final.bin" in names

    def test_probe_inputs_reproducible(self):
        a = probe_inputs(7, 12, 32)
        b = probe_inputs(7, 12, 32)
        assert a.shape == (32, 12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, probe_inputs(8, 12, 32))


class TestCli:
    def _write(self, tmp_path, text, name="exp.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_run_and_replay_subcommands(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            "algo: regression\ntotal_steps: 60\nseed: 3\n"
            "network: {hidden: [16]}\n"
            "logging: {metric_interval: 30, probe_batch: 16}\n",
        )
        out = str(tmp_path / "run")
        assert main(["run", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "metrics.jsonl"))
        assert main([
            "replay-metrics", os.path.join(out, "ckpt_final.bin"),
            "--probe-seed", "3", "--probe-batch", "16",
        ]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
        record = json.loads(lines[0])
        assert set(record) == {"metric", "scope", "step", "value"}

    def test_bad_config_exit_2(self, tmp_path):
        cfg = self._write(tmp_path, "algo: c51\nscenario: {family: pointmass}\n")
        assert main(["run", cfg]) == 2
        cfg2 = self._write(tmp_path, "algo: ppo\ntypo_key: 1\n", "e2.yaml")
        assert main(["run", cfg2]) == 2
        assert main(["run", str(tmp_path / "missing.yaml")]) == 2

    # an int past the float range is as non-finite as .inf once converted
    @pytest.mark.parametrize("field,text", [("lr", ".nan"), ("gamma", ".inf"),
                                            ("clip_eps", "-.inf"), ("lr", "1" + "0" * 400)])
    def test_non_finite_learner_float_exit_2(self, field, text, tmp_path, capsys):
        cfg = self._write(tmp_path, f"algo: ppo\ntotal_steps: 10\nlearner: {{{field}: {text}}}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert f"'learner.{field}' must be finite" in err
        assert not os.path.exists(tmp_path / "r")

    def test_finite_learner_float_override_resolves(self, tmp_path):
        cfg = self._write(
            tmp_path,
            "algo: ppo\ntotal_steps: 10\nlearner: {lr: 2.5e-4, gamma: 1, clip_eps: 0.1}\n"
            "network: {hidden: [8]}\nlogging: {metric_interval: 10, probe_batch: 8}\n",
        )
        resolved = load_config(cfg).learner
        assert (resolved.lr, resolved.gamma, resolved.clip_eps) == (2.5e-4, 1.0, 0.1)
        assert type(resolved.gamma) is float
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 0

    @pytest.mark.parametrize("algo,field", [
        ("ppo", "n_minibatches"), ("ppo", "update_epochs"), ("ppo", "rollout_len"),
        ("c51", "train_frequency"), ("c51", "target_network_frequency"),
        ("c51", "batch_size"), ("regression", "batch_size"), ("c51", "buffer_size"),
    ])
    def test_zero_loop_count_exit_2(self, algo, field, tmp_path, capsys):
        cfg = self._write(tmp_path, f"algo: {algo}\ntotal_steps: 20\nlearner: {{{field}: 0}}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert f"'learner.{field}' must be >= 1, got 0" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r")

    @pytest.mark.parametrize("algo,field,text,message", [
        ("ppo", "gamma", "1.5", "must be in [0, 1], got 1.5"),
        ("c51", "gamma", "-0.1", "must be in [0, 1], got -0.1"),
        ("ppo", "gae_lambda", "1.01", "must be in [0, 1], got 1.01"),
        ("regression", "lr", "-0.5", "must be > 0, got -0.5"),
        ("ppo", "lr", "0.0", "must be > 0, got 0.0"),
        ("c51", "lr", "0", "must be > 0, got 0"),
        ("ppo", "clip_eps", "0", "must be > 0, got 0.0"),
        ("c51", "exploration_fraction", "0", "must be in (0, 1], got 0.0"),
        ("c51", "exploration_fraction", "1.5", "must be in (0, 1], got 1.5"),
        ("c51", "n_atoms", "1", "must be >= 2, got 1"),
        ("ppo", "value_clip", "-1", "must be >= 0, got -1.0"),
        ("ppo", "vf_coef", "-1", "must be >= 0, got -1.0"),
        ("ppo", "ent_coef", "-1", "must be >= 0, got -1.0"),
        ("ppo", "max_grad_norm", "-1", "must be >= 0, got -1.0"),
        ("c51", "start_epsilon", "1.5", "must be in [0, 1], got 1.5"),
        ("c51", "end_epsilon", "-0.01", "must be in [0, 1], got -0.01"),
    ])
    def test_out_of_range_learner_float_exit_2(self, algo, field, text, message, tmp_path, capsys):
        cfg = self._write(tmp_path, f"algo: {algo}\ntotal_steps: 20\nlearner: {{{field}: {text}}}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert f"'learner.{field}' {message}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r")

    @pytest.mark.parametrize("entries,message", [
        ("[{method: l2_reg, trigger: every_k_steps(50)}]",
         "mitigations[0]: the loss method l2_reg always runs per_gradient_step"),
        ("[redo, {method: trac, trigger: on_task_switch}]",
         "mitigations[1]: the optimizer method trac always runs per_gradient_step"),
        ("[{method: crelu, trigger: every_k_steps(3)}]",
         "mitigations[0]: the spec method crelu always runs once_at(0)"),
        # an event trigger that cannot fire in the 20 steps
        ("[{method: reset_layers, trigger: once_at(20)}]", "mitigations[0]: trigger once_at(20) never fires"),
        ("[l2_reg, {method: redo, trigger: every_k_steps(20)}]",
         "mitigations[1]: trigger every_k_steps(20) never fires in a 20-step run"),
        ("[{method: shrink_perturb, trigger: 'every_k_steps(1000000000000000000000000000000)'}]",
         "mitigations[0]: trigger every_k_steps(1000000000000000000000000000000) never fires"),
    ])
    def test_inert_trigger_exit_2(self, entries, message, tmp_path, capsys):
        cfg = self._write(tmp_path, f"algo: regression\ntotal_steps: 20\nmitigations: {entries}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r")

    # values that config resolution alone checks: the network needs of nap,
    # layer_norm, crelu and fourier, C51's action selection, pointmass
    # variants, the env family and horizon, and the optimizer kind (the probe
    # batch size is in test_zero_loop_count_exit_2); C51 runs one length
    @pytest.mark.parametrize("text,message", [
        ("algo: regression\nmitigations: [nap]\nnetwork: {layer_norm: false}\n",
         "'network.layer_norm' conflicts with the mitigation plan, which sets True"),
        ("algo: c51\nmitigations: [layer_norm]\nnetwork: {layer_norm: false}\n",
         "'network.layer_norm' conflicts with the mitigation plan, which sets True"),
        ("algo: ppo\nmitigations: [crelu]\nnetwork: {activation: relu}\n",
         "'network.activation' conflicts with the mitigation plan, which sets 'crelu'"),
        ("algo: regression\nmitigations: [fourier]\nnetwork: {activation: tanh}\n",
         "'network.activation' conflicts with the mitigation plan, which sets 'fourier'"),
        ("algo: c51\nlearner: {action_selection: greedy}\n",
         "'learner.action_selection' must be one of ('target', 'online'), got 'greedy'"),
        ("algo: ppo\nscenario: {mode: task_chain, variants: [walk, gallop]}\n",
         "'scenario.variants[1]' must be one of ('stand', 'walk', 'run', 'trot'), got 'gallop'"),
        ("algo: ppo\nscenario: {family: atari}\n",
         "'scenario.family' must be one of ('gridworld', 'pointmass', 'probe'), got 'atari'"),
        ("algo: ppo\nscenario: {horizon: 0}\n", "'scenario.horizon' must be >= 1, got 0"),
        ("algo: regression\nmitigations: [sgd]\n", "'mitigations[0].method' must be one of"),
        ("algo: c51\nlearner: {total_steps: 20}\n", "unknown config key(s): 'learner.total_steps'"),
    ])
    def test_values_checked_only_at_resolution_exit_2(self, text, message, tmp_path, capsys):
        cfg = self._write(tmp_path, "total_steps: 20\n" + text)
        with pytest.raises(ConfigError):
            load_config(cfg)
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r")

    def test_last_step_triggers_and_defaults_resolve(self, tmp_path):
        # the last step is step 19; default triggers are never checked, so a
        # one-step run keeps redo's every_k_steps(1000)
        cfg = resolve_config({"algo": "regression", "total_steps": 20, "network": {"hidden": [8]},
                              "logging": {"probe_batch": 8}, "mitigations": [
            {"method": "reset_layers", "trigger": "once_at(19)"}, {"method": "redo", "trigger": "every_k_steps(19)"},
        ]})
        fires = run_experiment(cfg, str(tmp_path / "r")).summary["trigger_fires"]
        assert fires == {"0:reset_layers:once_at": 1, "1:redo:every_k_steps": 1}
        assert resolve_config({"algo": "ppo", "total_steps": 1, "mitigations": ["redo"]}).mitigations

    def test_default_trigger_spelled_out_resolves(self):
        plain = resolve_config({"algo": "regression", "mitigations": ["l2_reg", "crelu"]})
        spelled = resolve_config({"algo": "regression", "mitigations": [
            {"method": "l2_reg", "trigger": "per_gradient_step"}, {"method": "crelu", "trigger": "once_at(0)"},
        ]})
        assert (plain.network, plain.learner) == (spelled.network, spelled.learner)

    def test_learner_range_edges_resolve(self):
        cfg = resolve_config({"algo": "ppo", "learner": {"gamma": 0, "gae_lambda": 1, "lr": 1e-12}})
        assert (cfg.learner.gamma, cfg.learner.gae_lambda, cfg.learner.lr) == (0.0, 1.0, 1e-12)

    @pytest.mark.parametrize("line", ["network: {layer_norm: 'false'}", "scenario: {reward_normalization: 'false'}"])
    def test_quoted_false_exit_2(self, line, tmp_path, capsys):
        cfg = self._write(tmp_path, f"algo: ppo\ntotal_steps: 20\n{line}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "must be a boolean, got 'false'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r")

    @pytest.mark.parametrize("algo,scenario,message", [
        ("c51", "reward_normalization: true", "'scenario.reward_normalization' is a ppo setting, got algo 'c51'"),
        ("regression", "reward_normalization: true", "is a ppo setting, got algo 'regression'"),
        ("regression", "frame_stack: 2", "'scenario.frame_stack' > 1 has no frames to stack on the probe"),
        ("c51", "variants: [walk]", "'scenario.variants' names pointmass tasks, got family 'gridworld'"),
        ("regression", "mode: level_shift, variants: [run]", "got family 'probe'"),
        ("ppo", "n_segments: 3", "'scenario.n_segments' has no effect in standard mode"),
        ("ppo", "segment_length: 10", "'scenario.segment_length' has no effect in standard mode"),
        ("c51", "level_offset: 7", "'scenario.level_offset' only spaces level_shift levels, got mode 'standard'"),
        ("ppo", "mode: task_chain, level_offset: 7", "got mode 'task_chain'"),
        ("regression", "horizon: 50", "'scenario.horizon' has no effect on the probe family"),
    ])
    def test_settings_the_run_ignores_exit_2(self, algo, scenario, message, tmp_path, capsys):
        cfg = self._write(tmp_path, f"algo: {algo}\ntotal_steps: 20\nscenario: {{{scenario}}}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r")

    def test_settings_that_apply_still_resolve(self):
        assert resolve_config({"algo": "ppo", "scenario": {"reward_normalization": True}}).scenario.reward_normalization
        assert resolve_config({"algo": "c51", "scenario": {"frame_stack": 2}}).scenario.frame_stack == 2
        cfg = resolve_config({"algo": "regression", "scenario": {"reward_normalization": False, "frame_stack": 1}})
        assert (cfg.scenario.reward_normalization, cfg.scenario.frame_stack) == (False, 1)
        cfg = resolve_config({
            "algo": "ppo",
            "total_steps": 500,
            "scenario": {"n_segments": 1, "segment_length": 500, "level_offset": 20, "variants": []},
            "learner": {"init_std": 1.0},
        })
        assert (cfg.scenario.n_segments, cfg.scenario.segment_length, cfg.learner.init_std) == (1, 500, 1.0)
        assert resolve_config({"algo": "regression", "scenario": {"horizon": 1}}).scenario.horizon == 1
        cfg = resolve_config({
            "algo": "ppo",
            "scenario": {"mode": "level_shift", "family": "pointmass", "variants": ["run"], "level_offset": 7},
            "learner": {"init_std": 0.5},
        })
        assert (cfg.scenario.variants, cfg.scenario.level_offset, cfg.learner.init_std) == (("run",), 7, 0.5)

    # values that passed validation once failed partway through the run, or
    # at its first event (shrink_perturb's beta only when it fired), or were
    # never read (init_std on the gridworld)
    @pytest.mark.parametrize("algo,lines,message", [
        ("ppo", "scenario: task_chain\nlearner: {init_std: -1}", "'learner.init_std' must be > 0, got -1.0"),
        ("ppo", "learner: {init_std: 0.5}", "'learner.init_std' sets the gaussian policy's std"),
        ("c51", "learner: {v_min: 5, v_max: 5}", "'learner.v_max' must be > v_min, got 5.0"),
        ("c51", "learner: {v_min: 20}", "'learner.v_max' must be > v_min, got 10.0"),
        ("regression",
         "mitigations: [{method: shrink_perturb, params: {beta: 5.0}, trigger: every_k_steps(2500)}]",
         "'mitigations[0].params.beta' must be in [0, 1], got 5.0"),
        ("regression", "mitigations: [{method: l2_reg, params: {alpha: -1.0e-3}}]",
         "'mitigations[0].params.alpha' must be >= 0, got -0.001"),
        ("regression", "mitigations: [l2_reg, {method: parseval_reg, params: {s: 0}}]",
         "'mitigations[1].params.s' must be > 0, got 0"),
        ("regression", "mitigations: [{method: reset_layers, params: {scope: some}}]",
         "'mitigations[0].params.scope' must be one of ('final', 'all'), got 'some'"),
        ("regression", "mitigations: [{method: kron, params: {t_inv: 0}}]",
         "'mitigations[0].params.t_inv' must be >= 1, got 0"),
    ])
    def test_values_that_failed_mid_run_exit_2(self, algo, lines, message, tmp_path, capsys):
        cfg = self._write(tmp_path, f"algo: {algo}\ntotal_steps: 20\n{lines}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r")

    def test_unparsable_yaml_and_bad_logging_block_exit_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "algo: ppo\nnetwork: {hidden: [64\n")
        assert main(["run", cfg]) == 2
        assert "is not valid YAML" in capsys.readouterr().err
        cfg = self._write(tmp_path, "algo: ppo\nlogging: runs\n", "e2.yaml")
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "'logging' must be a mapping, got str" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r")

    def test_c51_replay_is_sized_to_the_run(self, tmp_path, monkeypatch):
        capacities = []
        init = c51.C51Learner.__init__

        def recording_init(learner, *args, **kwargs):
            init(learner, *args, **kwargs)
            capacities.append(learner.buffer.capacity)

        monkeypatch.setattr(c51.C51Learner, "__init__", recording_init)
        cfg = self._write(
            tmp_path,
            "algo: c51\ntotal_steps: 20\nlearner: {buffer_size: 100000000000}\n"
            "network: {hidden: [8]}\nlogging: {metric_interval: 10, probe_batch: 8}\n",
        )
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 0
        assert capacities == [20]

    def test_divergence_exit_3(self, tmp_path):
        cfg = self._write(
            tmp_path,
            "algo: regression\ntotal_steps: 500\n"
            "learner: {lr: 1.0e+80}\n"
            "network: {hidden: [16, 16]}\n"
            "logging: {metric_interval: 100, probe_batch: 16}\n",
        )
        with np.errstate(all="ignore"):
            assert main(["run", cfg, "--out", str(tmp_path / "d")]) == 3

    def test_list_methods_text_and_json(self, capsys):
        assert main(["list-methods"]) == 0
        text = capsys.readouterr().out
        assert "13 methods in 5 categories" in text
        assert main(["list-methods", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 13
        assert len({row["category"] for row in doc}) == 5
        assert {row["name"] for row in doc} >= {"shrink_perturb", "trac", "kron", "nap"}

    def test_registry_params_roundtrip_into_configs(self, capsys):
        main(["list-methods", "--json"])
        doc = json.loads(capsys.readouterr().out)
        for row in doc:
            cfg = resolve_config({
                "algo": "regression",
                "total_steps": 10,
                "mitigations": [{"method": row["name"], "params": row["params"]}],
            })
            assert cfg.mitigations[0]["method"] == row["name"]

    def test_sweep_spawns_disjoint_dirs(self, tmp_path):
        cfg = self._write(
            tmp_path,
            "algo: regression\ntotal_steps: 40\n"
            "network: {hidden: [16]}\n"
            "logging: {metric_interval: 20, probe_batch: 16}\n",
        )
        base = str(tmp_path / "sweep")
        assert main(["sweep", cfg, "--seeds", "0..1", "--out", base]) == 0
        for seed in (0, 1):
            summary = json.load(open(os.path.join(base, f"seed{seed}", "summary.json")))
            assert summary["seed"] == seed
            assert summary["status"] == "ok"
            if hasattr(os, "sched_setaffinity"):  # each child runs on one CPU
                assert json.load(open(os.path.join(base, f"seed{seed}", "provenance.json")))["cpus"] == 1

    @pytest.fixture
    def fake_popen(self, monkeypatch):
        """The sweep's Popen, faked: records each child's seed, the CPUs it
        would be pinned to, the peak number alive and the order they end. A
        seed in `polls` ends at that poll, every other seed at its first;
        seed 2 exits with code 3, every other seed with 0."""
        from plastlab.runner import cli

        class FakePopen:
            live, peak, started, pins, ended, polls = [], [0], [], [], [], {}

            def __init__(self, cmd, preexec_fn=None):
                self.seed = int(cmd[cmd.index("--seed") + 1])
                self.started.append(self.seed)
                self.pins.append(preexec_fn and preexec_fn.args[1])
                self.live.append(self)
                self.peak[0] = max(self.peak[0], len(self.live))
                self.left = self.polls.get(self.seed, 1)

            def poll(self):
                self.left -= 1
                if self.left > 0:
                    return None
                self.live.remove(self)
                self.ended.append(self.seed)
                return 3 if self.seed == 2 else 0

        monkeypatch.setattr(cli.subprocess, "Popen", FakePopen)
        monkeypatch.setattr(cli.time, "sleep", lambda s: None)
        return FakePopen

    def test_sweep_keeps_at_most_usable_cpus_children(self, tmp_path, monkeypatch, capsys, fake_popen):
        """Three CPUs of eight are the sweep's: three children at most."""
        from plastlab.runner import cli

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {2, 5, 9}, raising=False)
        monkeypatch.setattr(cli.os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 10\n")
        assert main(["sweep", cfg, "--seeds", "0..5", "--out", str(tmp_path / "s")]) == 3
        assert fake_popen.started == [0, 1, 2, 3, 4, 5]
        assert fake_popen.peak[0] == 3 and fake_popen.live == []
        assert capsys.readouterr().err.strip() == "seed 2 exited with code 3"

    def test_sweep_pins_live_children_to_distinct_cpus(self, tmp_path, monkeypatch, fake_popen):
        from plastlab.runner import cli

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {5, 2, 9}, raising=False)
        monkeypatch.setattr(cli.os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 10\n")
        main(["sweep", cfg, "--seeds", "0..4", "--out", str(tmp_path / "s")])
        # seed 3 starts once seed 0 is reaped, on the CPU seed 0 held
        assert fake_popen.pins == [{2}, {5}, {9}, {2}, {5}]

    def test_sweep_pins_the_next_child_to_the_cpu_freed_first(self, tmp_path, monkeypatch, capsys, fake_popen):
        """Seed 0 outlasts seeds 1, 2 and 3: each is reaped as it ends, and
        the next child starts on the CPU it freed, not on seed 0's."""
        from plastlab.runner import cli

        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {5, 2}, raising=False)
        monkeypatch.setattr(cli.os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
        fake_popen.polls[0] = 4
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 10\n")
        assert main(["sweep", cfg, "--seeds", "0..3", "--out", str(tmp_path / "s")]) == 3
        assert fake_popen.ended == [1, 2, 3, 0]
        assert fake_popen.pins == [{2}, {5}, {5}, {5}]
        assert fake_popen.peak[0] == 2 and fake_popen.live == []
        assert capsys.readouterr().err.strip() == "seed 2 exited with code 3"

    def test_sweep_without_pinning_starts_plain_children(self, tmp_path, monkeypatch, fake_popen):
        from plastlab.runner import cli

        monkeypatch.delattr(cli.os, "sched_setaffinity", raising=False)
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 10\n")
        assert main(["sweep", cfg, "--seeds", "0..1", "--out", str(tmp_path / "s")]) == 0
        assert fake_popen.pins == [None, None]

    @pytest.mark.parametrize("seeds,repeated", [("1,1", [1]), ("3, 01,1,3", [1, 3])])
    def test_sweep_repeated_seed_exit_2_before_spawning(self, seeds, repeated, tmp_path, capsys, fake_popen):
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 10\n")
        assert main(["sweep", cfg, "--seeds", seeds, "--out", str(tmp_path / "s")]) == 2
        assert f"repeats seed(s) {repeated}" in capsys.readouterr().err
        assert fake_popen.started == []

    @pytest.mark.parametrize("seeds,message", [
        (",", "seed list ',' names no seed"),
        (" , ", "names no seed"),
        ("-2..-1", "seeds must be >= 0, got -2 in '-2..-1'"),
        ("-1..3", "seeds must be >= 0, got -1"),
        ("4,-3,2", "seeds must be >= 0, got -3"),
    ])
    def test_sweep_bad_seeds_exit_2_before_spawning(self, seeds, message, tmp_path, capsys, fake_popen):
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 10\n")
        assert main(["sweep", cfg, f"--seeds={seeds}", "--out", str(tmp_path / "s")]) == 2
        assert message in capsys.readouterr().err
        assert fake_popen.started == []

    def test_sweep_seed_range_is_never_listed(self, tmp_path, fake_popen):
        from plastlab.runner import cli

        # a range's length and equality cost nothing, however long it is
        assert cli._parse_seed_range("5..1000000000000") == range(5, 10**12 + 1)
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 10\n")
        assert main(["sweep", cfg, "--seeds", "7..9", "--out", str(tmp_path / "s")]) == 0
        assert fake_popen.started == [7, 8, 9]

    @staticmethod
    def _one_error_line(capsys, message):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_exit_2(self, command, kind, tmp_path, capsys, fake_popen):
        path, text = tmp_path / "exp.yaml", b"algo: regression\nseed: \xff\n"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(text)
        args = [command, str(path), "--out", str(tmp_path / "r")]
        assert main(args + (["--seeds", "0..1"] if command == "sweep" else [])) == 2
        self._one_error_line(capsys, f"cannot read config {str(path)!r}")
        assert sorted(os.listdir(tmp_path)) == ["exp.yaml"] and fake_popen.started == []
        if kind == "directory":
            assert os.listdir(path) == []
        else:
            assert path.read_bytes() == text

    @pytest.mark.parametrize("out", ["taken", "taken/run"], ids=["existing_file", "under_a_file"])
    def test_out_that_cannot_be_a_directory_exit_2(self, out, tmp_path, capsys):
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 10\n")
        (tmp_path / "taken").write_bytes(b"keep\n")
        assert main(["run", cfg, "--out", str(tmp_path / out)]) == 2
        self._one_error_line(capsys, f"cannot make the run directory {str(tmp_path / out)!r}")
        assert (tmp_path / "taken").read_bytes() == b"keep\n"
        assert sorted(os.listdir(tmp_path)) == ["exp.yaml", "taken"]

    @pytest.mark.parametrize("out", ["taken", "taken/run"], ids=["existing_file", "under_a_file"])
    def test_sweep_out_that_cannot_be_a_directory_exit_2_before_spawning(self, out, tmp_path, capsys, fake_popen):
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 10\n")
        (tmp_path / "taken").write_bytes(b"keep\n")
        assert main(["sweep", cfg, "--seeds", "0..1", "--out", str(tmp_path / out)]) == 2
        self._one_error_line(capsys, f"cannot make the sweep directory {str(tmp_path / out)!r}")
        assert fake_popen.started == []
        assert (tmp_path / "taken").read_bytes() == b"keep\n"
        assert sorted(os.listdir(tmp_path)) == ["exp.yaml", "taken"]

    def test_replay_metrics_defaults_to_the_runs_probe(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            "algo: regression\ntotal_steps: 60\nseed: 3\n"
            "network: {hidden: [16]}\n"
            "logging: {metric_interval: 30, probe_batch: 16}\n",
        )
        out = str(tmp_path / "run")
        assert main(["run", cfg, "--out", out]) == 0
        logged = {
            (r["scope"], r["metric"]): r["value"]
            for r in read_metrics(os.path.join(out, "metrics.jsonl"))
            if r["step"] == 60 and r["scope"] != "event"
        }
        capsys.readouterr()
        assert main(["replay-metrics", os.path.join(out, "ckpt_final.bin")]) == 0
        replayed = {
            (r["scope"], r["metric"]): r["value"]
            for r in map(json.loads, capsys.readouterr().out.splitlines())
        }
        assert logged and replayed == logged
        # a seed-0 probe, the old default, reads different values
        assert main([
            "replay-metrics", os.path.join(out, "ckpt_final.bin"), "--probe-seed", "0",
        ]) == 0
        seed0 = {
            (r["scope"], r["metric"]): r["value"]
            for r in map(json.loads, capsys.readouterr().out.splitlines())
        }
        assert seed0 != logged

    def test_replay_metrics_prints_the_checkpoint_step(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            "algo: regression\ntotal_steps: 60\nseed: 3\n"
            "network: {hidden: [16]}\n"
            "logging: {metric_interval: 30, probe_batch: 16}\n"
            "checkpoint_interval: 30\n",
        )
        out = str(tmp_path / "run")
        assert main(["run", cfg, "--out", out]) == 0
        with open(os.path.join(out, "metrics.jsonl"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        capsys.readouterr()
        for name, step in (("ckpt_final.bin", 60), ("ckpt_step30.bin", 30)):
            logged = [
                line for line, row in zip(lines, map(json.loads, lines))
                if row["step"] == step and row["scope"] != "train"
            ]
            assert main(["replay-metrics", os.path.join(out, name)]) == 0
            assert logged and capsys.readouterr().out.splitlines() == logged
        # renamed, with no config.yaml beside it: no step to report
        lone = tmp_path / "lone"
        lone.mkdir()
        for name in ("model.bin", "ckpt_final.bin"):
            with open(os.path.join(out, "ckpt_final.bin"), "rb") as fh:
                (lone / name).write_bytes(fh.read())
            assert main([
                "replay-metrics", str(lone / name), "--probe-seed", "3", "--probe-batch", "16",
            ]) == 0
            rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            assert rows and all(r["step"] is None for r in rows)

    def test_replay_metrics_without_config_needs_probe_seed(self, tmp_path, capsys):
        net = build_network(8, 3, (16,), "relu", False, RngStream(4, 0))
        path = tmp_path / "lone.bin"
        path.write_bytes(serialize_network(net))
        assert main(["replay-metrics", str(path)]) == 2
        assert "--probe-seed" in capsys.readouterr().err
        assert main(["replay-metrics", str(path), "--probe-seed", "4"]) == 0

    def test_replay_metrics_bad_manifest_exit_2(self, tmp_path, capsys):
        net = build_network(8, 3, (16,), "relu", False, RngStream(4, 0))
        blob = serialize_network(net)
        (head_len,) = struct.unpack_from("<Q", blob, 0)
        manifest = json.loads(blob[8 : 8 + head_len])
        del manifest["frozen"]
        head = json.dumps(manifest).encode("utf-8")
        path = tmp_path / "nofrozen.bin"
        path.write_bytes(struct.pack("<Q", len(head)) + head + blob[8 + head_len :])
        assert main(["replay-metrics", str(path), "--probe-seed", "4"]) == 2
        assert "frozen" in capsys.readouterr().err

    @staticmethod
    def _bad_layout(case):
        """A checkpoint of the net 16 -> 8 -> 3 whose manifest and body agree
        in size but not with its layers."""
        net = build_network(16, 3, (8,), "relu", False, RngStream(4, 0))
        first, head = net.layers
        if case == "in_dim":  # layer 0 says 17 inputs, its weight holds 16
            net.layers = (dataclasses.replace(first, in_dim=17), head)
        elif case == "chain":  # the head says 9 inputs, layer 0 gives 8
            net.layers = (first, dataclasses.replace(head, in_dim=9))
        elif case == "short_bias":
            for values in (net.params, net.init_snapshot):
                values["layer0.b"] = values["layer0.b"][:-1]
        elif case == "no_bias":
            net.param_order = tuple(n for n in net.param_order if n != "layer0.b")
        elif case == "rounds":  # two injection rounds, no branch tensors
            net.injection_rounds = 2
        else:  # "nan": one weight of the body is not a number
            net.params["layer1.w"][0, 0] = np.nan
        return serialize_network(net)

    @pytest.mark.parametrize("case,message", [
        ("in_dim", "'layer0.w' of shape [8, 16] does not fit its layers"),
        ("chain", "layer 1 expects in_dim 9 but layer 0 produces width 8"),
        ("short_bias", "'layer0.b' of shape [7] does not fit its layers"),
        ("no_bias", "lacks tensor 'layer0.b' that its layers need"),
        ("rounds", "lacks tensor 'layer1.inj1_train.w' that its layers need"),
        ("nan", "NaN or inf"),
    ], ids=["in_dim", "chain", "short_bias", "no_bias", "rounds", "nan"])
    def test_replay_metrics_layout_off_its_layers_exit_2(self, case, message, tmp_path, capsys):
        blob = self._bad_layout(case)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            deserialize_network(blob)
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        assert main(["replay-metrics", str(path), "--probe-seed", "4"]) == 2
        self._one_error_line(capsys, message)

    @pytest.mark.parametrize("raw", [
        {"algo": "regression", "total_steps": 10, "network": {"hidden": [200000, 200000]}},
        {"algo": "regression", "total_steps": 101, "network": {"hidden": [16]},
         "mitigations": [{"method": "plasticity_injection", "trigger": "per_gradient_step"}]},
    ], ids=["footprint", "injection_rounds"])
    def test_sweep_refuses_what_run_refuses_before_spawning(self, raw, tmp_path, capsys, fake_popen):
        cfg = self._write(tmp_path, yaml.safe_dump(raw))
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        run_err = capsys.readouterr().err
        assert main(["sweep", cfg, "--seeds", "0,1", "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == run_err and run_err.startswith("error: ")
        assert fake_popen.started == [] and os.listdir(tmp_path) == ["exp.yaml"]

    @pytest.mark.parametrize("init", ["orthogonal(x)", "orthogonal(nan)", "orthogonal(inf)", "uniform_fan_in"])
    def test_replay_metrics_bad_init_exit_2(self, tmp_path, capsys, init):
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 5\nnetwork: {hidden: [8]}\n")
        out = tmp_path / "run"
        assert main(["run", cfg, "--out", str(out)]) == 0
        path = out / "ckpt_final.bin"
        blob = path.read_bytes()
        (head_len,) = struct.unpack_from("<Q", blob, 0)
        manifest = json.loads(blob[8 : 8 + head_len])
        manifest["layers"][0]["init"] = init
        head = json.dumps(manifest).encode("utf-8")
        path.write_bytes(struct.pack("<Q", len(head)) + head + blob[8 + head_len :])
        capsys.readouterr()
        assert main(["replay-metrics", str(path)]) == 2
        assert "bad checkpoint layer entry" in capsys.readouterr().err

    def test_bad_seed_range_exit_2(self, tmp_path):
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 10\n")
        assert main(["sweep", cfg, "--seeds", "3..1"]) == 2
        assert main(["sweep", cfg, "--seeds", "a..b"]) == 2
