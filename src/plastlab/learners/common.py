"""Shared learner plumbing: trajectory containers, replay storage, advantage
estimation, and network construction helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidInputError
from ..metrics import gradient_norm
from ..net import LayerSpec, NetworkState, init_network
from ..numkit import RngStream


@dataclass
class TrajectoryBatch:
    """One on-policy rollout (or a minibatch view of one).

    advantages/returns are filled in after advantage estimation; they stay
    None on freshly collected data.
    """

    observations: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.observations.shape[0]
        for name in ("actions", "rewards", "dones", "log_probs", "values"):
            if getattr(self, name).shape[0] != n:
                raise InvalidInputError(f"{name} length != observations length")
        if not np.all(np.isfinite(self.rewards)):
            raise InvalidInputError("rewards must be finite")

    def __len__(self) -> int:
        return self.observations.shape[0]

    def take(self, idx: np.ndarray) -> "TrajectoryBatch":
        return TrajectoryBatch(
            self.observations[idx],
            self.actions[idx],
            self.rewards[idx],
            self.dones[idx],
            self.log_probs[idx],
            self.values[idx],
            None if self.advantages is None else self.advantages[idx],
            None if self.returns is None else self.returns[idx],
        )


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap_value: float,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over one rollout.

    delta_t = r_t + gamma*(1-done_t)*V(s_{t+1}) - V(s_t), accumulated
    backwards with factor gamma*lam*(1-done_t). Returns (advantages,
    advantages + values).
    """
    if not 0.0 <= gamma <= 1.0 or not 0.0 <= lam <= 1.0:
        raise InvalidInputError("gamma and lam must lie in [0, 1]")
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if not (rewards.shape == values.shape == dones.shape):
        raise InvalidInputError("rewards, values, dones must share one length")
    n = rewards.shape[0]
    advantages = np.zeros(n)
    next_value = float(bootstrap_value)
    running = 0.0
    for t in range(n - 1, -1, -1):
        mask = 1.0 - dones[t]
        delta = rewards[t] + gamma * mask * next_value - values[t]
        running = delta + gamma * lam * mask * running
        advantages[t] = running
        next_value = values[t]
    return advantages, advantages + values


def _byte_copies(obs, next_obs) -> tuple[np.ndarray, np.ndarray] | None:
    """uint8 copies of both observations, or None unless every value is a
    whole number in [0, 255] that reads back bit for bit as float64 (NaN,
    inf and -0.0 do not)."""
    obs = np.asarray(obs, dtype=np.float64)
    next_obs = np.asarray(next_obs, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # a lossy cast fails the comparison below
        small, next_small = obs.astype(np.uint8), next_obs.astype(np.uint8)
    if (
        small.astype(np.float64).tobytes() == obs.tobytes()
        and next_small.astype(np.float64).tobytes() == next_obs.tobytes()
    ):
        return small, next_small
    return None


class ReplayBuffer:
    """Fixed-capacity ring of (s, a, r, s', done) transitions.

    Observations are stored as uint8 while every one added is a whole number
    in [0, 255] (gridworld observations are 0/1), i.e. 1 byte per value
    instead of 8. The first observation that is not widens `obs` and
    `next_obs` to float64 for good, copying the filled rows exactly.
    `sample` returns float64 either way, so learners read the same values.
    """

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise InvalidInputError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim), dtype=np.uint8)
        self.next_obs = np.zeros((capacity, obs_dim), dtype=np.uint8)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.dones = np.zeros(capacity)
        self.cursor = 0
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def _widen(self) -> None:
        for name in ("obs", "next_obs"):
            wide = np.zeros(getattr(self, name).shape)
            wide[: self.size] = getattr(self, name)[: self.size]
            setattr(self, name, wide)

    def add(self, obs, action, reward, next_obs, done) -> None:
        i = self.cursor
        if self.obs.dtype == np.uint8:
            small = _byte_copies(obs, next_obs)
            if small is None:
                self._widen()
            else:
                obs, next_obs = small
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = float(done)
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, stream: RngStream) -> dict[str, np.ndarray]:
        if self.size < 1:
            raise InvalidInputError("cannot sample from an empty buffer")
        idx = stream.randint(self.size, batch_size)
        return {
            "obs": self.obs[idx].astype(np.float64, copy=False),
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_obs": self.next_obs[idx].astype(np.float64, copy=False),
            "dones": self.dones[idx],
        }


def clip_gradients(by_name: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm.
    Returns the pre-clip norm."""
    norm = gradient_norm(by_name)
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / norm
        for name in by_name:
            by_name[name] = by_name[name] * scale
    return norm


def build_network(
    obs_dim: int,
    out_dim: int,
    hidden: tuple[int, ...],
    activation: str,
    layer_norm: bool,
    stream: RngStream,
    head_gain: float = 0.01,
) -> NetworkState:
    """Torso of identically shaped hidden layers plus a small-gain linear head.

    Width-doubling activations are chained at their doubled width. Hidden
    layers use orthogonal init with the usual sqrt(2) relu gain; the head's
    small gain keeps initial outputs near zero.
    """
    specs = []
    width = obs_dim
    gain = float(np.sqrt(2.0)) if activation == "relu" else 1.0
    for h in hidden:
        spec = LayerSpec(width, h, activation, layer_norm, f"orthogonal({gain})")
        specs.append(spec)
        width = spec.width_out
    specs.append(LayerSpec(width, out_dim, "linear", False, f"orthogonal({head_gain})"))
    return init_network(specs, stream)
