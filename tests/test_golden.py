"""Golden digests: pinned sha256 of the logs and final checkpoint of small runs.

The determinism tests elsewhere compare two runs of the same code with each
other; these compare one run with bytes recorded from an earlier version of the
package, so a change that shifts any trajectory by one ulp fails here. The
digests were recorded with numpy 2.4.6 on Python 3.11. A change that moves a
digest on purpose must replace it and say why in CHANGES.md.
"""

import hashlib
import os

import pytest

from plastlab.runner import resolve_config, run_experiment

_LOGGING = {"metric_interval": 200, "probe_batch": 32}

CONFIGS = {
    # PPO rollout shuffles and gridworld level layouts both go through
    # RngStream.permutation; redo and shrink-and-perturb fire as events.
    "ppo_grid_level_shift": {
        "algo": "ppo",
        "seed": 3,
        "total_steps": 800,
        "scenario": {"mode": "level_shift", "segment_length": 200, "n_segments": 4},
        "network": {"hidden": [32, 32]},
        "learner": {"rollout_len": 200, "n_minibatches": 4, "update_epochs": 2},
        "mitigations": [
            {"method": "redo", "trigger": "every_k_steps(300)"},
            "shrink_perturb",
        ],
        "logging": _LOGGING,
        "checkpoint_interval": 400,
    },
    "ppo_pointmass_task_chain": {
        "algo": "ppo",
        "seed": 4,
        "total_steps": 600,
        "scenario": {"mode": "task_chain", "segment_length": 200},
        "network": {"hidden": [32, 32]},
        "learner": {"rollout_len": 200, "n_minibatches": 4, "update_epochs": 2},
        "logging": _LOGGING,
    },
    "c51_grid_standard": {
        "algo": "c51",
        "seed": 2,
        "total_steps": 600,
        "scenario": {"mode": "standard", "horizon": 40},
        "network": {"hidden": [32]},
        "learner": {
            "buffer_size": 1000, "batch_size": 16, "learning_starts": 50,
            "train_frequency": 2, "target_network_frequency": 100, "n_atoms": 11,
        },
        "logging": _LOGGING,
    },
    # Two stacked 0/1 frames per observation; a 300-row replay that wraps
    # twice, across level switches.
    "c51_grid_frame_stack": {
        "algo": "c51",
        "seed": 6,
        "total_steps": 600,
        "scenario": {
            "mode": "level_shift", "segment_length": 200, "n_segments": 3,
            "horizon": 40, "frame_stack": 2,
        },
        "network": {"hidden": [32]},
        "learner": {
            "buffer_size": 300, "batch_size": 16, "learning_starts": 50,
            "train_frequency": 2, "target_network_frequency": 100, "n_atoms": 11,
        },
        "logging": _LOGGING,
    },
    # Probe task permutations come from RngStream.permutation as well.
    "regression_probe_level_shift": {
        "algo": "regression",
        "seed": 5,
        "total_steps": 600,
        "scenario": {"mode": "level_shift", "segment_length": 150, "n_segments": 4},
        "network": {"hidden": [16, 16]},
        "mitigations": [
            {"method": "shrink_perturb", "trigger": "per_gradient_step"},
            "l2_reg",
        ],
        "logging": _LOGGING,
    },
    # Plasticity injection on every switch: each adds a trainable head branch
    # and freezes the previous one, so Adam's set of parameters changes.
    "regression_probe_injection": {
        "algo": "regression",
        "seed": 7,
        "total_steps": 300,
        "scenario": {"mode": "level_shift", "segment_length": 100, "n_segments": 3},
        "network": {"hidden": [16, 16]},
        "mitigations": ["plasticity_injection"],
        "logging": _LOGGING,
    },
}

GOLDEN = {
    "ppo_grid_level_shift": {
        "metrics.jsonl": "4b1a1709706b591f6d2874370ef0e82f0fb8b125614340a5c8ebf577f32e9ad8",
        "episodes.csv": "7249e4853dcc1ddeca086eb18d29b557d8f3d341e6ac3cdd78160806e565263f",
        "ckpt_final.bin": "26c8d7f63921940f407a3aefd95f5c8a9f47d9e73bd69530a60b4f9a8ec5633e",
    },
    "ppo_pointmass_task_chain": {
        "metrics.jsonl": "1eaf3cd862432f2876cdcaba30803972c7de16134a40bd6ceeb42c134a075808",
        "episodes.csv": "2a43e22fa152fb95a61ee9ceb4c2913e3c64577dcf944eb901e7701584573407",
        "ckpt_final.bin": "ab402d83b29a4e92e40d8cd653143a890c05c0665d30a5586868a860711f9e2e",
    },
    "c51_grid_standard": {
        "metrics.jsonl": "ce1608309840d3d5efbf64e24e1394d3d2deabb79abf5d0160540084f9b36c5b",
        "episodes.csv": "4c978df837831526c12cc65056e05644e07f2239a778fe1759d94b5cc9b3a56f",
        "ckpt_final.bin": "74fb998b19a20d4dbc886ab26cfa89d54e9b2477659dcc430db2f586d589d4f8",
    },
    "c51_grid_frame_stack": {
        "metrics.jsonl": "c515ffa8222d00356cf153e8a80501ebcffdc17aa72f5f264bd47d469aa8a452",
        "episodes.csv": "a3e3d85266fedb100be8ca9480140adb869adf71fa3a77ec8b46865e37c86633",
        "ckpt_final.bin": "45b736bd0452c2cd71db859f282d9c5fabf28ffac4bb24ec68adedcd162af648",
    },
    "regression_probe_level_shift": {
        "metrics.jsonl": "60dcb0f82adba3dbfef82112ac431c940ac0d9ae442e5dba85861933bcf96f62",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "e13c8633963b1ba2e0ff290e3f82ff44c9ba645e06786021286b0baab64bd491",
    },
    "regression_probe_injection": {
        "metrics.jsonl": "e7749c85f6bb19de3e038fe027a2ecff14477e212c5200487ed6f91ed1bd3334",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "a27d9816a4a2830c91cd67405cac34b9839cf699f3cd0668c7d9a851d284eee1",
    },
}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    art = run_experiment(resolve_config(CONFIGS[name]), str(tmp_path / name))
    assert art.summary["status"] == "ok"
    got = {fname: _sha256(os.path.join(art.out_dir, fname)) for fname in GOLDEN[name]}
    assert got == GOLDEN[name]
