"""Backbone learners: PPO (discrete and continuous), C51, and a supervised
regression learner for the permutation probe."""

from .c51 import (
    C51Config,
    C51Learner,
    CategoricalHead,
    c51_support,
    c51_update,
    categorical_projection_batch,
    epsilon_schedule,
)
from .common import ReplayBuffer, Rollout, TrajectoryBatch, gae, network_specs
from .ppo import PPOConfig, PPOLearner, gaussian_policy, normalize_advantages
from .regression import RegressionLearner

# each algo's learner class; a run builds `LEARNERS[cfg.algo](cfg, net, opt, reg_terms)`
LEARNERS = {"ppo": PPOLearner, "c51": C51Learner, "regression": RegressionLearner}

__all__ = [
    "LEARNERS",
    "C51Config",
    "C51Learner",
    "CategoricalHead",
    "PPOConfig",
    "PPOLearner",
    "RegressionLearner",
    "ReplayBuffer",
    "Rollout",
    "TrajectoryBatch",
    "c51_support",
    "c51_update",
    "categorical_projection_batch",
    "epsilon_schedule",
    "gae",
    "gaussian_policy",
    "network_specs",
    "normalize_advantages",
]
