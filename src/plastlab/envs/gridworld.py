"""Procedurally generated gridworld with one-hot channel observations.

Each level_seed fixes a maze layout, start, goal, and hazards for the whole
task; episodes replay the same level. Observations are four flattened 9x9
channels (agent, goal, hazard, wall).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import InvalidInputError, SpecError
from ..numkit import RngStream

ACTIONS = ("up", "down", "left", "right", "stay")
_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))
_LAYOUT_STREAM = 101

FREE, WALL, HAZARD = 0, 1, 2


def _flood_reaches(grid: np.ndarray, start: tuple[int, int], goal: tuple[int, int]) -> bool:
    n = grid.shape[0]
    seen = np.zeros_like(grid, dtype=bool)
    queue = deque([start])
    seen[start] = True
    while queue:
        r, c = queue.popleft()
        if (r, c) == goal:
            return True
        for dr, dc in _MOVES[:4]:
            nr, nc = r + dr, c + dc
            if 0 <= nr < n and 0 <= nc < n and not seen[nr, nc] and grid[nr, nc] == FREE:
                seen[nr, nc] = True
                queue.append((nr, nc))
    return False


class GridWorldEnv:
    """Deterministic maze episodes over a level fixed by level_seed."""

    n_actions = len(ACTIONS)

    def __init__(self, level_seed: int, horizon: int, size: int = 9,
                 wall_density: float = 0.2, n_hazards: int = 3):
        self.size = size
        self.horizon = horizon
        self.level_seed = level_seed
        stream = RngStream(level_seed, _LAYOUT_STREAM)
        for _ in range(200):
            grid, start, goal = self._draw_layout(stream, size, wall_density, n_hazards)
            if grid is not None:
                break
        else:
            raise SpecError(f"no solvable layout for level_seed {level_seed}")
        self.grid = grid
        self.start = start
        self.goal = goal
        self.agent = start
        self.steps = 0
        # goal, hazard and wall channels never change; _observe adds the agent
        static = np.zeros((4, size, size))
        static[1][goal] = 1.0
        static[2][grid == HAZARD] = 1.0
        static[3][grid == WALL] = 1.0
        self._static = static.ravel()

    @staticmethod
    def _draw_layout(stream, size, wall_density, n_hazards):
        grid = np.full((size, size), FREE, dtype=np.int64)
        grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = WALL
        interior = [(r, c) for r in range(1, size - 1) for c in range(1, size - 1)]
        walls = stream.uniform(0.0, 1.0, len(interior)) < wall_density
        for cell, is_wall in zip(interior, walls):
            if is_wall:
                grid[cell] = WALL
        free = [cell for cell in interior if grid[cell] == FREE]
        if len(free) < n_hazards + 2:
            return None, None, None
        order = stream.permutation(len(free))
        start, goal = free[order[0]], free[order[1]]
        for i in range(n_hazards):
            grid[free[order[2 + i]]] = HAZARD
        if not _flood_reaches(grid, start, goal):
            return None, None, None
        return grid, start, goal

    @property
    def obs_dim(self) -> int:
        return 4 * self.size * self.size

    def _observe(self) -> np.ndarray:
        obs = self._static.copy()
        r, c = self.agent
        obs[r * self.size + c] = 1.0
        return obs

    def reset(self) -> np.ndarray:
        self.agent = self.start
        self.steps = 0
        return self._observe()

    def step(self, action) -> tuple[np.ndarray, float, bool]:
        action = int(action)
        if not 0 <= action < len(ACTIONS):
            raise InvalidInputError(f"gridworld action must be 0..4, got {action}")
        dr, dc = _MOVES[action]
        nr, nc = self.agent[0] + dr, self.agent[1] + dc
        if self.grid[nr, nc] != WALL:
            self.agent = (nr, nc)
        self.steps += 1
        if self.agent == self.goal:
            return self._observe(), 1.0, True
        if self.grid[self.agent] == HAZARD:
            return self._observe(), -1.0, True
        return self._observe(), -0.01, self.steps >= self.horizon
