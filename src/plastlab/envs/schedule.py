"""Task scheduling across the three continual-learning protocols."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SpecError
from .gridworld import GridWorldEnv
from .pointmass import PointMassEnv

FAMILIES = ("gridworld", "pointmass", "probe")
MODES = ("standard", "level_shift", "task_chain")
LEVEL_OFFSET = 20


@dataclass(frozen=True)
class TaskSpec:
    family: str
    level_seed: int
    task_variant: str = ""
    horizon: int = 100


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario and its schedule: n_segments segments of segment_length
    steps, segment i running `task(i)`. `resolve_config` checks the values.

    standard: one fixed task. level_shift: same variant, level_seed stepped
    by level_offset per segment. task_chain: cycles the variant sequence on
    a fixed level_seed.
    """

    mode: str = "standard"
    family: str = "gridworld"
    segment_length: int = 0
    variants: tuple[str, ...] = ()
    n_segments: int = 1
    horizon: int = 100
    level_seed_base: int = 0
    level_offset: int = LEVEL_OFFSET
    frame_stack: int = 1
    reward_normalization: bool = False

    def task(self, i: int) -> TaskSpec:
        """Segment i's task; past the last segment, the last task holds."""
        i = min(i, self.n_segments - 1)
        seed = self.level_seed_base + (i * self.level_offset if self.mode == "level_shift" else 0)
        if not self.variants:
            return TaskSpec(self.family, seed, "", self.horizon)
        k = i % len(self.variants) if self.mode == "task_chain" else 0
        return TaskSpec(self.family, seed, self.variants[k], self.horizon)

    def switches(self, step: int) -> bool:
        """Whether `step` opens a segment: step 0 and each boundary until the
        last segment has started."""
        return step % self.segment_length == 0 and step // self.segment_length < self.n_segments


def make_env(spec: TaskSpec):
    """Instantiate the environment for a task spec; returns (env, obs)."""
    if spec.family == "gridworld":
        env = GridWorldEnv(spec.level_seed, spec.horizon)
    elif spec.family == "pointmass":
        env = PointMassEnv(spec.level_seed, spec.horizon, spec.task_variant or "walk")
    else:
        raise SpecError(f"make_env has no environment for family {spec.family!r}")
    return env, env.reset()


def env_step(env, action) -> tuple[np.ndarray, float, bool]:
    return env.step(action)
