"""Desk-scale environments for the three continual-RL protocols plus the
supervised permutation probe."""

from .gridworld import ACTIONS, GridWorldEnv
from .pointmass import TARGET_SPEEDS, PointMassEnv
from .probe import PROBE_DIM, PROBE_OUT, batch_work_bytes, probe_permutation, probe_task, teacher_network
from .schedule import (
    LEVEL_OFFSET,
    ScenarioSchedule,
    TaskSpec,
    build_schedule,
    env_step,
    make_env,
    schedule_shift,
)
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
    "ScenarioSchedule",
    "TARGET_SPEEDS",
    "TaskSpec",
    "batch_work_bytes",
    "build_schedule",
    "env_step",
    "make_env",
    "probe_permutation",
    "probe_task",
    "schedule_shift",
    "teacher_network",
]
