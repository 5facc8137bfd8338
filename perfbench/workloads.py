"""The three benchmark workloads, as plastlab config trees.

Each workload stresses a different layer of the package (see README.md for
the mapping). The config is a pure function of the workload name and the
benchmark seed: the seed becomes the experiment seed, which fixes the level
layouts, the permutation tasks, the init draw and every RNG stream.
"""

from __future__ import annotations

import copy

# PPO on the 9x9 gridworld, four levels: acting (batch-of-one forward plus a
# categorical draw) and the per-epoch rollout shuffle dominate; redo on its
# default every_k_steps(1000) trigger and shrink-and-perturb on every switch
# exercise the event path.
PPO_GRID_SHIFT = {
    "algo": "ppo",
    "total_steps": 5_000,
    "scenario": {"mode": "level_shift", "segment_length": 1_250, "n_segments": 4},
    "mitigations": ["redo", "shrink_perturb"],
    "logging": {"metric_interval": 1_250},
    "checkpoint_interval": 1_250,
}

# C51 on one gridworld level with the default 1M-row replay buffer: batched
# forward/backward, the categorical projection and Adam dominate, and the
# filled replay rows set the peak resident set. No mitigation, plain Adam.
C51_GRID_REPLAY = {
    "algo": "c51",
    "total_steps": 5_000,
    "scenario": {"mode": "standard"},
    "learner": {"learning_starts": 500},
    "logging": {"metric_interval": 2_500},
    "checkpoint_interval": 1_250,
}

# The regression probe over ten permutation tasks: no env and no acting, but
# every step draws a probe batch and a fresh init (soft shrink-and-perturb),
# adds the L2 term, runs Adam and writes one metrics.jsonl row.
PROBE_SNP_SWITCH = {
    "algo": "regression",
    "total_steps": 1_500,
    "scenario": {"mode": "level_shift", "segment_length": 150, "n_segments": 10},
    "mitigations": [
        {"method": "shrink_perturb", "trigger": "per_gradient_step"},
        "l2_reg",
    ],
    "logging": {"metric_interval": 250},
    "checkpoint_interval": 500,
}

WORKLOADS = {
    "ppo_grid_shift": PPO_GRID_SHIFT,
    "c51_grid_replay": C51_GRID_REPLAY,
    "probe_snp_switch": PROBE_SNP_SWITCH,
}


def workload_config(name: str, seed: int, total_steps: int | None = None) -> dict:
    """The raw config tree for one workload at one seed.

    `total_steps` cuts the run short (the set-up probe uses 1; the tests of
    the checks use tiny lengths); everything else stays as the workload has it.
    """
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    cfg = copy.deepcopy(WORKLOADS[name])
    cfg["seed"] = int(seed)
    if total_steps is not None:
        cfg["total_steps"] = int(total_steps)
    return cfg
