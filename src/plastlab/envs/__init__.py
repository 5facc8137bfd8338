"""Desk-scale environments for the three continual-RL protocols plus the
supervised permutation probe."""

from .gridworld import ACTIONS, GridWorldEnv
from .pointmass import TARGET_SPEEDS, PointMassEnv
from .probe import PROBE_DIM, PROBE_OUT, batch_work_bytes, probe_permutation, probe_task, teacher_network
from .schedule import LEVEL_OFFSET, ScenarioConfig, TaskSpec, env_step, make_env
from .wrappers import FrameStack, RewardNormalizer

__all__ = [
    "ACTIONS",
    "FrameStack",
    "GridWorldEnv",
    "LEVEL_OFFSET",
    "PROBE_DIM",
    "PROBE_OUT",
    "PointMassEnv",
    "RewardNormalizer",
    "ScenarioConfig",
    "TARGET_SPEEDS",
    "TaskSpec",
    "batch_work_bytes",
    "env_step",
    "make_env",
    "probe_permutation",
    "probe_task",
    "teacher_network",
]
