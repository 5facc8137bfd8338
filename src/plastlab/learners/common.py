"""Shared learner plumbing: trajectory containers, replay storage, advantage
estimation, and network construction helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..net import LayerSpec
from ..numkit import RngStream

# most entries a memo (an act memo, C51's target memo) holds before it starts over
MEMO_CAP = 1024


def act_memo(learner) -> dict:
    """`learner.memo` (observation bytes -> pure act results), emptied first
    when `learner.net` was written since it was filled or it is full."""
    if learner.memo_writes != learner.net.writes or len(learner.memo) >= MEMO_CAP:
        learner.memo, learner.memo_writes = {}, learner.net.writes
    return learner.memo


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


class Rollout:
    """One on-policy rollout in preallocated columns, refilled in place.

    `add` copies the observation into its row and stores five scalars;
    `batch` views the filled rows as a TrajectoryBatch without copying.
    """

    def __init__(self, rows: int, obs_dim: int, act_dim: int | None = None):
        # a discrete policy (act_dim None) stores int64 action indices
        self.obs = np.zeros((rows, obs_dim))
        self.actions = np.zeros(rows, np.int64) if act_dim is None else np.zeros((rows, act_dim))
        self.rewards, self.dones, self.log_probs, self.values = np.zeros((4, rows))
        self.size = 0

    def add(self, obs, action, reward: float, done: float, log_prob: float, value: float) -> None:
        t = self.size
        self.obs[t] = obs
        self.actions[t] = action
        self.rewards[t] = reward
        self.dones[t] = done
        self.log_probs[t] = log_prob
        self.values[t] = value
        self.size = t + 1

    def batch(self) -> TrajectoryBatch:
        columns = (self.obs, self.actions, self.rewards, self.dones, self.log_probs, self.values)
        return TrajectoryBatch(*(column[: self.size] for column in columns))


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap_value: float,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over one rollout's float64 columns.

    delta_t = r_t + gamma*(1-done_t)*V(s_{t+1}) - V(s_t), accumulated
    backwards with factor gamma*lam*(1-done_t). Returns (advantages,
    advantages + values).
    """
    # the recurrence on Python floats: the same IEEE operations as on numpy scalars
    r, v, d = rewards.tolist(), values.tolist(), dones.tolist()
    adv = [0.0] * len(r)
    next_value = float(bootstrap_value)
    running = 0.0
    for t in range(len(r) - 1, -1, -1):
        mask = 1.0 - d[t]
        delta = r[t] + gamma * mask * next_value - v[t]
        running = delta + gamma * lam * mask * running
        adv[t] = running
        next_value = v[t]
    advantages = np.array(adv)
    return advantages, advantages + values


_ONE_BITS = np.float64(1.0).view(np.uint64)


class ReplayBuffer:
    """Fixed-capacity ring of (s, a, r, s', done) transitions.

    Observations are stored at one bit per value: `obs` and `next_obs` are
    views of the two halves of `store`, one (2, capacity, ceil(width / 8))
    array of packed rows. Every observation value must be +0.0 or 1.0 bit for
    bit, as gridworld and FrameStack observations are; `add` raises
    InvalidInputError on any other value (-0.0, NaN, inf and 0.5 included)
    before it writes anything. `sample` returns float64 rows and each next
    observation's packed row as `next_codes` (two rows hold the same
    observation exactly when their codes are equal).
    """

    def __init__(self, capacity: int, obs_dim: int):
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.store = np.zeros((2, capacity, -(-obs_dim // 8)), dtype=np.uint8)
        self.obs, self.next_obs = self.store
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.dones = np.zeros(capacity)
        self.cursor = 0
        self.size = 0
        self._pair = np.zeros((2, obs_dim))  # the float64 (obs, next_obs) being added

    def __len__(self) -> int:
        return self.size

    def add(self, obs, action, reward, next_obs, done) -> None:
        rows = self._pair
        rows[0], rows[1] = obs, next_obs
        # every value is +0.0 or 1.0 exactly when each nonzero pattern is 1.0's
        u = rows.view(np.uint64)
        ones = u == _ONE_BITS
        if np.count_nonzero(ones) != np.count_nonzero(u):
            raise InvalidInputError("replay observations must hold only the values 0.0 and 1.0")
        i = self.cursor
        self.store[:, i] = np.packbits(ones, axis=-1)
        self.actions[i] = action
        self.rewards[i] = reward
        self.dones[i] = float(done)
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, stream: RngStream) -> dict[str, np.ndarray]:
        idx = stream.randint(self.size, batch_size)
        stored = self.store.take(idx, axis=1)
        obs, next_obs = np.unpackbits(stored, axis=-1, count=self.obs_dim).astype(np.float64)
        return {
            "obs": obs,
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_obs": next_obs,
            "next_codes": stored[1],
            "dones": self.dones[idx],
        }


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def network_specs(
    obs_dim: int,
    out_dim: int,
    hidden: tuple[int, ...],
    activation: str,
    layer_norm: bool,
    head_gain: float = 0.01,
) -> tuple[LayerSpec, ...]:
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
    return tuple(specs)

