"""Point-mass speed-tracking environment with continuous actions.

The task variant fixes a target speed; reward peaks when the velocity
magnitude matches it, minus a small action cost. Dynamics are plain Euler
integration of acceleration commands.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from ..numkit import RngStream

TARGET_SPEEDS = {"stand": 0.0, "walk": 0.5, "run": 1.0, "trot": 0.75}
_INIT_STREAM = 102
DT = 0.05

action_dim = 2


class PointMassEnv:
    """2-D point mass; observation is (position, velocity), 4 numbers."""

    obs_dim = 4
    n_actions = action_dim

    def __init__(self, level_seed: int, horizon: int, task_variant: str = "walk"):
        self.target = TARGET_SPEEDS[task_variant]
        self.variant = task_variant
        self.horizon = horizon
        self.stream = RngStream(level_seed, _INIT_STREAM)
        self.pos = np.zeros(2)
        self.vel = np.zeros(2)
        self.steps = 0

    def _observe(self) -> np.ndarray:
        return np.concatenate([self.pos, self.vel])

    def reset(self) -> np.ndarray:
        self.pos = np.zeros(2)
        self.vel = self.stream.uniform(-0.1, 0.1, 2)
        self.steps = 0
        return self._observe()

    def step(self, action) -> tuple[np.ndarray, float, bool]:
        action = np.asarray(action, dtype=np.float64).reshape(-1)
        if action.shape != (2,) or not np.all(np.isfinite(action)):
            raise InvalidInputError("pointmass action must be 2 finite numbers")
        if np.any(np.abs(action) > 1.0 + 1e-9):
            raise InvalidInputError(f"pointmass action outside [-1, 1]^2: {action}")
        self.vel = self.vel + DT * action
        self.pos = self.pos + DT * self.vel
        self.steps += 1
        speed = float(np.linalg.norm(self.vel))
        reward = float(np.exp(-((speed - self.target) ** 2) / 0.1) - 0.01 * np.sum(action**2))
        return self._observe(), reward, self.steps >= self.horizon
