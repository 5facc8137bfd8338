"""Golden digests: pinned sha256 of the logs and final checkpoint of small runs.

The determinism tests elsewhere compare two runs of the same code with each
other; these compare one run with bytes recorded from an earlier version of the
package, so a change that shifts any trajectory by one ulp fails here. The
digests hold only on the numeric platform they were recorded on, RECORDED_ON:
another OpenBLAS kernel or numpy SIMD level changes the bits of GEMMs, exp and
log, and a mismatch names both platforms. The summary.json digest
pins the trigger fire counts, gradient steps and episode count. A change that
moves a digest on purpose must replace it and say why in CHANGES.md.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from plastlab.mitigations import REGISTRY
from plastlab.runner import resolve_config, run_experiment
from plastlab.runner.loop import platform_fingerprint

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
    # Events that change the parameters between two gradient steps: the act
    # memo must start over when one fires, not only on gradient steps.
    "ppo_grid_event_between_updates": {
        "algo": "ppo",
        "seed": 7,
        "total_steps": 800,
        "scenario": {"mode": "level_shift", "segment_length": 400, "n_segments": 2},
        "network": {"hidden": [32, 32]},
        "learner": {"rollout_len": 200, "n_minibatches": 4, "update_epochs": 2},
        "mitigations": [{"method": "shrink_perturb", "trigger": "every_k_steps(150)"}],
        "logging": _LOGGING,
    },
    # Soft shrink-and-perturb on every PPO gradient step, drawn ahead in
    # batches, with redo drawing from the same stream between rollouts.
    "ppo_grid_soft_snp_redo": {
        "algo": "ppo",
        "seed": 9,
        "total_steps": 800,
        "scenario": {"mode": "level_shift", "segment_length": 400, "n_segments": 2},
        "network": {"hidden": [32, 32]},
        "learner": {"rollout_len": 200, "n_minibatches": 4, "update_epochs": 2},
        "mitigations": [
            {"method": "shrink_perturb", "trigger": "per_gradient_step"},
            {"method": "redo", "trigger": "every_k_steps(250)"},
        ],
        "logging": _LOGGING,
    },
    "c51_grid_event_between_updates": {
        "algo": "c51",
        "seed": 8,
        "total_steps": 600,
        "scenario": {"mode": "standard", "horizon": 40},
        "network": {"hidden": [32]},
        "learner": {
            "buffer_size": 1000, "batch_size": 16, "learning_starts": 100,
            "train_frequency": 4, "target_network_frequency": 100, "n_atoms": 11,
        },
        "mitigations": [{"method": "shrink_perturb", "trigger": "every_k_steps(90)"}],
        "logging": _LOGGING,
    },
    # A full redraw on every switch restarts the optimizer; redo fires between
    # the switches and checkpoints land on the switch steps.
    "c51_grid_reset_all": {
        "algo": "c51",
        "seed": 10,
        "total_steps": 600,
        "scenario": {"mode": "level_shift", "segment_length": 200, "n_segments": 3, "horizon": 40},
        "network": {"hidden": [32]},
        "learner": {
            "buffer_size": 1000, "batch_size": 16, "learning_starts": 50,
            "train_frequency": 2, "target_network_frequency": 100, "n_atoms": 11,
        },
        "mitigations": [
            {"method": "reset_layers", "params": {"scope": "all"}, "trigger": "on_task_switch"},
            {"method": "redo", "trigger": "every_k_steps(150)"},
        ],
        "logging": _LOGGING,
        "checkpoint_interval": 200,
    },
    # Double-DQN-style selection: the online net picks each next action and
    # the target net's distribution for it is projected, across a level switch.
    "c51_grid_online_selection": {
        "algo": "c51",
        "seed": 9,
        "total_steps": 600,
        "scenario": {"mode": "level_shift", "segment_length": 300, "n_segments": 2, "horizon": 40},
        "network": {"hidden": [32]},
        "learner": {
            "buffer_size": 1000, "batch_size": 16, "learning_starts": 50,
            "train_frequency": 2, "target_network_frequency": 100, "n_atoms": 11,
            "action_selection": "online",
        },
        "logging": _LOGGING,
    },
    # Events on the probe: redo on a fixed period and one reset of the final
    # layer mid-task, with checkpoints between them.
    "regression_probe_events": {
        "algo": "regression",
        "seed": 11,
        "total_steps": 500,
        "scenario": {"mode": "level_shift", "segment_length": 125, "n_segments": 4},
        "network": {"hidden": [16, 16]},
        "mitigations": [
            {"method": "redo", "trigger": "every_k_steps(100)"},
            {"method": "reset_layers", "trigger": "once_at(250)"},
        ],
        "logging": _LOGGING,
        "checkpoint_interval": 250,
    },
    # Plain-Adam probe with 37-step tasks and a 24-row batch: training
    # batches are drawn ahead in blocks, so blocks straddle every task end
    # and the end of the run.
    "regression_probe_batch_blocks": {
        "algo": "regression",
        "seed": 12,
        "total_steps": 111,
        "scenario": {"mode": "level_shift", "segment_length": 37, "n_segments": 3},
        "network": {"hidden": [16, 16]},
        "learner": {"batch_size": 24},
        "logging": _LOGGING,
    },
    # TRAC scaling a base Adam iterate, with redo editing the parameters
    # between two steps.
    "regression_probe_trac_redo": {
        "algo": "regression",
        "seed": 13,
        "total_steps": 300,
        "scenario": {"mode": "level_shift", "segment_length": 100, "n_segments": 3},
        "network": {"hidden": [16, 16]},
        "mitigations": ["trac", {"method": "redo", "trigger": "every_k_steps(70)"}],
        "logging": _LOGGING,
    },
    # Kron at its registry defaults, preconditioning the injected head
    # branches as well as the base layers.
    "regression_probe_kron": {
        "algo": "regression",
        "seed": 14,
        "total_steps": 300,
        "scenario": {"mode": "level_shift", "segment_length": 100, "n_segments": 3},
        "network": {"hidden": [16, 16]},
        "mitigations": ["kron", "plasticity_injection"],
        "logging": _LOGGING,
    },
    # NaP's per-step weight projection beside the Parseval penalty's
    # W W^T - s I gradient, on the relu probe.
    "regression_probe_nap_parseval": {
        "algo": "regression",
        "seed": 15,
        "total_steps": 300,
        "scenario": {"mode": "level_shift", "segment_length": 100, "n_segments": 3},
        "network": {"hidden": [16, 16]},
        "mitigations": ["nap", "parseval_reg"],
        "logging": _LOGGING,
    },
    # CReLU doubles each hidden width; the regenerative penalty pulls the
    # parameters toward their initial draw.
    "ppo_grid_crelu_regenerative": {
        "algo": "ppo",
        "seed": 16,
        "total_steps": 600,
        "scenario": {"mode": "level_shift", "segment_length": 300, "n_segments": 2},
        "network": {"hidden": [16, 16]},
        "learner": {"rollout_len": 200, "n_minibatches": 4, "update_epochs": 2},
        "mitigations": ["crelu", "regenerative_reg"],
        "logging": _LOGGING,
    },
    # Fourier features (sin and cos of each pre-activation) with a full
    # redraw of every layer on each switch.
    "regression_probe_fourier_reset_all": {
        "algo": "regression",
        "seed": 17,
        "total_steps": 300,
        "scenario": {"mode": "level_shift", "segment_length": 100, "n_segments": 3},
        "network": {"hidden": [16, 16]},
        "mitigations": ["fourier", {"method": "reset_layers", "params": {"scope": "all"}}],
        "logging": _LOGGING,
    },
    # A tanh torso with LayerNorm before each activation, through C51's
    # batched update and the batch-of-one target forwards.
    "c51_grid_tanh_layer_norm": {
        "algo": "c51",
        "seed": 18,
        "total_steps": 600,
        "scenario": {"mode": "standard", "horizon": 40},
        "network": {"hidden": [32], "activation": "tanh"},
        "learner": {
            "buffer_size": 1000, "batch_size": 16, "learning_starts": 50,
            "train_frequency": 2, "target_network_frequency": 100, "n_atoms": 11,
        },
        "mitigations": ["layer_norm"],
        "logging": _LOGGING,
    },
    # Shrink-and-perturb on each switch pulls the LayerNorm gain and offset
    # toward 1 and 0 beside the redrawn weights.
    "regression_probe_layer_norm_snp": {
        "algo": "regression",
        "seed": 19,
        "total_steps": 300,
        "scenario": {"mode": "level_shift", "segment_length": 100, "n_segments": 3},
        "network": {"hidden": [16, 16]},
        "mitigations": ["layer_norm", "shrink_perturb"],
        "logging": _LOGGING,
    },
    # TRAC meets the head branches each injection adds after it was built:
    # their reference point and iterate start at their injected values.
    "regression_probe_trac_injection": {
        "algo": "regression",
        "seed": 20,
        "total_steps": 300,
        "scenario": {"mode": "level_shift", "segment_length": 100, "n_segments": 3},
        "network": {"hidden": [16, 16]},
        "mitigations": ["trac", "plasticity_injection"],
        "logging": _LOGGING,
    },
    # ReDo on CReLU layers: a unit is dormant only when both of its output
    # copies are, and both copies' outgoing columns are zeroed.
    "regression_probe_crelu_redo": {
        "algo": "regression",
        "seed": 21,
        "total_steps": 300,
        "scenario": {"mode": "level_shift", "segment_length": 100, "n_segments": 3},
        "network": {"hidden": [16, 16]},
        "mitigations": ["crelu", {"method": "redo", "params": {"tau": 1.0}, "trigger": "every_k_steps(50)"}],
        "logging": _LOGGING,
    },
    # 64 minibatches of a 50-row rollout: most are empty and skipped, so each
    # epoch takes as many gradient steps as the rollout has rows.
    "ppo_grid_empty_minibatches": {
        "algo": "ppo",
        "seed": 22,
        "total_steps": 400,
        "scenario": {"mode": "standard", "horizon": 40},
        "network": {"hidden": [16]},
        "learner": {"rollout_len": 50, "n_minibatches": 64, "update_epochs": 2},
        "logging": _LOGGING,
    },
}

GOLDEN = {
    "ppo_grid_level_shift": {
        "metrics.jsonl": "4b1a1709706b591f6d2874370ef0e82f0fb8b125614340a5c8ebf577f32e9ad8",
        "episodes.csv": "7249e4853dcc1ddeca086eb18d29b557d8f3d341e6ac3cdd78160806e565263f",
        "ckpt_final.bin": "26c8d7f63921940f407a3aefd95f5c8a9f47d9e73bd69530a60b4f9a8ec5633e",
        "summary.json": "abf99b00afee5f4dca75e458d41f0e4ce6d1061b5ec1b3593ddb050ff88b7e64",
    },
    "ppo_pointmass_task_chain": {
        "metrics.jsonl": "1eaf3cd862432f2876cdcaba30803972c7de16134a40bd6ceeb42c134a075808",
        "episodes.csv": "2a43e22fa152fb95a61ee9ceb4c2913e3c64577dcf944eb901e7701584573407",
        "ckpt_final.bin": "ab402d83b29a4e92e40d8cd653143a890c05c0665d30a5586868a860711f9e2e",
        "summary.json": "43ed990713b2843426e7a09d4e2fef04955bbc1ce7634d21591e30f20f49b517",
    },
    "c51_grid_standard": {
        "metrics.jsonl": "a49ba520e2fed92d0954011c857bb349072379235285c1aa09cf549ffc0dd16a",
        "episodes.csv": "4c978df837831526c12cc65056e05644e07f2239a778fe1759d94b5cc9b3a56f",
        "ckpt_final.bin": "a43060c4f729361407b2bd7c42b2e9e123a7b9604355713f281eb6cd4da312a5",
        "summary.json": "a8f7710bc7c6b3b451e6382f4074d5502965059d83f1a10f7ab68d8a848331bf",
    },
    "c51_grid_frame_stack": {
        "metrics.jsonl": "c312224e4a5eb7f006b5e3f8105bee1caf1c38dcb44493d3b7990d83dd30e36c",
        "episodes.csv": "a3e3d85266fedb100be8ca9480140adb869adf71fa3a77ec8b46865e37c86633",
        "ckpt_final.bin": "e494c56b0d2378a3143b23c4c24b9606e495cb89c8c0f0903ae7da59978b712d",
        "summary.json": "2eafade191382e90faaf9c8e51186079104aad8e79354b5935475fce66277f46",
    },
    "regression_probe_level_shift": {
        "metrics.jsonl": "60dcb0f82adba3dbfef82112ac431c940ac0d9ae442e5dba85861933bcf96f62",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "e13c8633963b1ba2e0ff290e3f82ff44c9ba645e06786021286b0baab64bd491",
        "summary.json": "98cd3ea51255cfa0e7ec7d6de601f28a95f23d42c34d3fed1c74afacdd76c264",
    },
    "regression_probe_injection": {
        "metrics.jsonl": "e7749c85f6bb19de3e038fe027a2ecff14477e212c5200487ed6f91ed1bd3334",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "a27d9816a4a2830c91cd67405cac34b9839cf699f3cd0668c7d9a851d284eee1",
        "summary.json": "717df319202ad426faa1d3c747eb8dbcd997ad92377227478a5b072b5117bc6c",
    },
    "ppo_grid_event_between_updates": {
        "metrics.jsonl": "2b4931d8340daab2f6ea12a8acc144d2699b0381fe53c5c6c8df867585086ca7",
        "episodes.csv": "75a7ca3bf323e3d7836dcdcb962154ba6d241df8826c0244cc29b323146c2333",
        "ckpt_final.bin": "6acf0924cc81bb4284d7be2729e29dbd3c8008261e5d4a1d0ee9114dc7fd145f",
        "summary.json": "12642cf6b534c0f3b7879e11dd6b692907155c7b210ccfc29a2fb6f130a78eb3",
    },
    "ppo_grid_soft_snp_redo": {
        "metrics.jsonl": "9b992e4f45551e588e6d72fed609d0fb8ae7aa065820f102f3e982906a090d92",
        "episodes.csv": "241e14fd192706a4867d27a8b956a8498f5315749f7f51856a5b402883ce66fe",
        "ckpt_final.bin": "d8c649c4bbc5c3e6f47fba05c559d08c8304a7b41a9cfb57da6ca5e2cd59ff4e",
        "summary.json": "7d6b9c423717a96927d88e9c4022dfde30017b85e4bdfd2e8cac333f9759809a",
    },
    "c51_grid_event_between_updates": {
        "metrics.jsonl": "c4ef33726935c11140d6db71a7a49a51ea38bc1fcf2f4a6059702884f1c283f7",
        "episodes.csv": "15585e64036fdd645552010e94366db7b9c0bd181cd75841d2f486da8c819e3f",
        "ckpt_final.bin": "b30eadf54e12c029e4333316fd0ff982c7644184b8de5d41fcdcc3d31edb779b",
        "summary.json": "1d09f75865542df1ee9077cff9467bde1d79fea0ff367e3dea192b7f872ad6c5",
    },
    "c51_grid_reset_all": {
        "metrics.jsonl": "cee96eacff45dfe6a1e54b6bc0614a603d472d8261807b4929ab3222e91e1bbb",
        "episodes.csv": "51fd81e7d0022a2a341aef12dcd2e8c9dcc1bbf6afc18ba925537c913ae96dd8",
        "ckpt_final.bin": "58e22a47646e9c27b558d5c2c011f78e5eb85e875d19aa9bc19848e4fd24f932",
        "summary.json": "2194e3487397e3735ecb167934511ba4174fc60793ddbed4adf0a2baa2c25335",
    },
    "c51_grid_online_selection": {
        "metrics.jsonl": "d0f9e87ee2f6f4d799a7497fbd45bb00a299f11fc67a3c04fc8a3f0b3aaefbe5",
        "episodes.csv": "e2935cb6b7c4181846869a8f2908787cefeae733640c172dab34203a7aeaf95e",
        "ckpt_final.bin": "c59430ad42dc48bd95b9732bd666b55bcbc57053738ba576e21bb804f1a35996",
        "summary.json": "d62b363fb8ce1ff0eab44d334e543e92b90ddc5dc25f97619eab69d0970a2c0a",
    },
    "regression_probe_events": {
        "metrics.jsonl": "c7cb02f380c94fb35afcce40d8d4dcc3f8d98d0722983e4aa030c042b9bfa1e0",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "3fcdc17bf866ed8c6693eb0a4feea0951b15b2b576bbfd32c691618ee56a5aef",
        "summary.json": "c80022adf567842b6f4167689cf1682dee71e0008dc720b60fb75d82504b8be2",
    },
    "regression_probe_batch_blocks": {
        "metrics.jsonl": "8173d6178652b66b8e0975f42562fd0bed20c356c967522835d1dba1061f545b",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "db2be6211d0e3ee7a4e82f269f4960ce0c1ed4d992858eb7cc94af22fd194475",
        "summary.json": "64e8e3f1c76a57db8f29ba3550e45ff377306c0f7003a30acc9e8cb82d2e8dc7",
    },
    "regression_probe_trac_redo": {
        "metrics.jsonl": "6d878b6d44bd7de078989042b10b2b3c9ef4e3922e15c550ff1399e7ee4be408",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "bec3988b7b4d08fa613771d95dea7fc841406e5a8b06e2c6b834ba3af6c58e21",
        "summary.json": "7683fb63cdf1a812377a62b93c8986c3f0cc8953b4670e3c29944460546e42b5",
    },
    "regression_probe_kron": {
        "metrics.jsonl": "166ca574900459e0896434c3980574d4f57713eb9825af081c1ed97b16848810",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "30bd1521bcc1c935c4808c070d6a9aea53b0e080170d337fc3528e0db2a0a699",
        "summary.json": "54e6eea1e6bc64873d5bc9653d05383006e0f1d85d9f12418946d8efc3754cc6",
    },
    "regression_probe_nap_parseval": {
        "metrics.jsonl": "614dc2f60d1034b68c2c4c8c3b0afbb41d0107992b8ff9129f41498fce9e3a73",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "5568c6288bfe68753f6c4db8279181be280b0cc379bf7812b7d06f295b98139f",
        "summary.json": "d64b51c824114d2dd34b207e33f77a037c8e09834c481a916c3889d1e53d9292",
    },
    "ppo_grid_crelu_regenerative": {
        "metrics.jsonl": "8d3405709cd890ed1e29f59b737036a40ab4fcf30420565e5b6cff349103c796",
        "episodes.csv": "ed253193790864bb31bc6447243c6de7756d6ae1323cef5c000d4b6cfd9c2edf",
        "ckpt_final.bin": "a4fc75894bf59140e9ea997237fb475a062cc1e6227f4cc4d412362bf51a5af8",
        "summary.json": "03bf4c831760b5b4c6f5e3e5391ccd2d1cd935960bc0ee5ee7d25749d3704650",
    },
    "regression_probe_fourier_reset_all": {
        "metrics.jsonl": "301899d9fc32f7efca849e3f63245c3502b94465c3c42b5036050439097c68c1",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "55f26000488f6b175f91ae4dc29346482e2d4af275192cee86a2017447596f30",
        "summary.json": "cf8700a5aeb1f621c8256b0aa033c64261c500941fe1019412b798ee49c66599",
    },
    "c51_grid_tanh_layer_norm": {
        "metrics.jsonl": "ea76e87022e41ae3f0896abda5f6a2ffe2a5b05906d0b88ee8a03b478477d870",
        "episodes.csv": "3e094bed2959ff8e5fadaa1bcb3c22c49ad6350ec59f933761b6990e9b848782",
        "ckpt_final.bin": "35e60c5de944abbdb9188eb532f0caf2f1801e5a28bec6627d604abb0282608c",
        "summary.json": "5910245e04dbcb5ccf53c4b855c79435b2779e42a3887d315cc667f9fb8540db",
    },
    "regression_probe_layer_norm_snp": {
        "metrics.jsonl": "54435773b2c9302be81c80a5ec9b93e061208a39adefbf66cbdc0a4b28597920",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "441cd42834380f86a6a137217163670300202e84ecb202fbec2e5e0498fb9e85",
        "summary.json": "40fb5138e3a4f5365660b68bfb86f19700bb23b1ef370fc6de6c137c74fb4cbd",
    },
    "regression_probe_trac_injection": {
        "metrics.jsonl": "4733adff0328b63e9ea5cfda4689b12b18c20f0a02ad2d7b993d2098421f3c83",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "fb78f5666a1d309bdb20dfc78949c723f24dc354112c2ec424bdcd16d09ea089",
        "summary.json": "d66f80873f2175530caa9e816b2e49b116972d2811094da79b80a0b90f52451c",
    },
    "regression_probe_crelu_redo": {
        "metrics.jsonl": "9370dd07c0dbd9a8b8dae20412605e307d742d0a9984ec087d862951001cf0b7",
        "episodes.csv": "f2646c9bdc26e9aa30cc84f5ed268fed39e510357b08b87d1935570ccd53f4bf",
        "ckpt_final.bin": "790bed3685e76db7a8c8dc9f01534e84ec38e44fd5b572ff2fb49bf206bea555",
        "summary.json": "86b0ed1ed8b2b34392d2383cb347b1808a733348350fd0f4f86504a4acc589da",
    },
    "ppo_grid_empty_minibatches": {
        "metrics.jsonl": "c45b38f0b2e3ef2ac3e2e2c074c27bb06d2ceaba948d84659b7ac8f8ade83416",
        "episodes.csv": "4451a238934569df32c0d9a520dc91a5861be02ca2b8733721132340ce70df83",
        "ckpt_final.bin": "0c1e35394156619137f43c543655ab8f72d4c6ad791f5072eb4463ba5c1d7bb3",
        "summary.json": "52989ec5903e7edd9ce94a720b2888b5411043ad76b5fea561240274e4faae8c",
    },
}


RECORDED_ON = {"numpy": "2.4.6", "python": "3.11", "openblas_core": "SkylakeX", "simd": "X86_V4"}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    art = run_experiment(resolve_config(CONFIGS[name]), str(tmp_path / name))
    assert art.summary["status"] == "ok"
    got = {fname: _sha256(os.path.join(art.out_dir, fname)) for fname in GOLDEN[name]}
    assert got == GOLDEN[name], f"digests recorded on {RECORDED_ON}, running on {platform_fingerprint()}"


def test_every_registry_method_has_a_golden():
    used = {
        entry if isinstance(entry, str) else entry["method"]
        for cfg in CONFIGS.values() for entry in cfg.get("mitigations", [])
    }
    assert sorted(set(REGISTRY) - used) == []


def test_platform_fingerprint_reads():
    platform = platform_fingerprint()
    assert platform.keys() == RECORDED_ON.keys()
    assert platform["numpy"] == np.__version__ and platform["simd"].startswith(("X86_V", "unknown"))


def test_run_writes_its_platform_beside_the_summary(tmp_path):
    art = run_experiment(resolve_config(CONFIGS["regression_probe_level_shift"]), str(tmp_path / "r"))
    with open(os.path.join(art.out_dir, "provenance.json"), encoding="utf-8") as fh:
        assert json.load(fh) == platform_fingerprint()
