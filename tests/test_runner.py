"""Runner tests: config resolution, deterministic artifacts, triggers, replay, CLI."""

import json
import os
import struct

import numpy as np
import pytest
import yaml

from plastlab.errors import CheckpointError, ConfigError, DivergenceError
from plastlab.learners import build_network
from plastlab.metrics import weight_difference
from plastlab.net import serialize_network
from plastlab.numkit import RngStream
from plastlab.runner import (
    config_yaml,
    load_config,
    probe_inputs,
    replay_metrics,
    resolve_config,
    run_experiment,
)
from plastlab.runner.cli import main


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

    def test_c51_total_steps_follows_experiment(self):
        cfg = resolve_config({"algo": "c51", "total_steps": 777})
        assert cfg.learner.total_steps == 777
        cfg = resolve_config({"algo": "c51", "total_steps": 777, "learner": {"total_steps": 50}})
        assert cfg.learner.total_steps == 50

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
        fresh, _ = weight_difference(net_a, net_b)
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

    def test_sweep_keeps_at_most_cpu_count_children(self, tmp_path, monkeypatch, capsys):
        from plastlab.runner import cli

        live, peak, started = [], [0], []

        class FakePopen:
            def __init__(self, cmd):
                self.seed = int(cmd[cmd.index("--seed") + 1])
                started.append(self.seed)
                live.append(self)
                peak[0] = max(peak[0], len(live))

            def wait(self):
                live.remove(self)
                return 3 if self.seed == 2 else 0

        monkeypatch.setattr(cli.subprocess, "Popen", FakePopen)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 10\n")
        assert main(["sweep", cfg, "--seeds", "0..3", "--out", str(tmp_path / "s")]) == 3
        assert started == [0, 1, 2, 3]
        assert peak[0] == 2 and live == []
        assert capsys.readouterr().err.strip() == "seed 2 exited with code 3"

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

    def test_bad_seed_range_exit_2(self, tmp_path):
        cfg = self._write(tmp_path, "algo: regression\ntotal_steps: 10\n")
        assert main(["sweep", cfg, "--seeds", "3..1"]) == 2
        assert main(["sweep", cfg, "--seeds", "a..b"]) == 2
