"""Categorical distributional Q-learning over a fixed atom support.

The network emits n_actions * n_atoms logits; per-action softmax over atoms
gives a return distribution whose expectation ranks actions. Bellman targets
are projected back onto the support and fit by cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError
from ..net import ForwardTrace, Gradients, NetworkState, backward, clone_network, forward
from ..numkit import RngStream
from ..mitigations import Optimizer, optimizer_step, reg_loss
from . import common
from .common import ReplayBuffer, _log_softmax, act_memo


@dataclass
class C51Config:
    lr: float = 2.5e-4
    gamma: float = 0.99
    n_atoms: int = 51
    v_min: float = -10.0
    v_max: float = 10.0
    buffer_size: int = 1_000_000
    batch_size: int = 32
    learning_starts: int = 80_000
    train_frequency: int = 4
    target_network_frequency: int = 10_000
    start_epsilon: float = 1.0
    end_epsilon: float = 0.01
    exploration_fraction: float = 0.10
    action_selection: str = "target"


def c51_support(v_min: float, v_max: float, n: int) -> np.ndarray:
    """Evenly spaced return atoms, endpoints inclusive."""
    return np.linspace(float(v_min), float(v_max), int(n))


@dataclass
class CategoricalHead:
    n_atoms: int
    v_min: float
    v_max: float
    atoms: np.ndarray = field(init=False)
    delta_z: float = field(init=False)

    def __post_init__(self) -> None:
        self.atoms = c51_support(self.v_min, self.v_max, self.n_atoms)
        self.delta_z = (self.v_max - self.v_min) / (self.n_atoms - 1)


def _support_coords(tz: np.ndarray, head: CategoricalHead) -> np.ndarray:
    """Fractional atom index of each target value, snapped when a hair off.

    Division dust can turn an exactly aligned target into 24.999...96, which
    would leak mass to a neighbor and can push ceil past the last atom; any
    b within 1e-12 of an integer is treated as aligned.
    """
    b = (tz - head.v_min) / head.delta_z
    nearest = np.round(b)
    b = np.where(np.abs(b - nearest) < 1e-12, nearest, b)
    return np.clip(b, 0.0, head.n_atoms - 1.0)


def categorical_projection_batch(
    next_dists: np.ndarray,
    rewards: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    head: CategoricalHead,
) -> np.ndarray:
    """Project each shifted/scaled next-state distribution onto the fixed
    support: an atom's mass splits linearly between its two bracketing support
    points, and an exactly aligned atom keeps all of it."""
    p = np.atleast_2d(next_dists)
    if not np.isfinite(p).all():
        raise NumericError("next-state distribution has non-finite entries")
    n_batch = p.shape[0]
    rewards = np.asarray(rewards, dtype=np.float64).reshape(n_batch, 1)
    not_done = 1.0 - np.asarray(dones, dtype=np.float64).reshape(n_batch, 1)
    tz = np.clip(rewards + gamma * not_done * head.atoms, head.v_min, head.v_max)
    b = _support_coords(tz, head)
    lo = np.floor(b).astype(np.int64)
    hi = np.ceil(b).astype(np.int64)
    aligned = lo == hi
    offsets = np.arange(n_batch)[:, None] * head.n_atoms
    # one scatter-add: every lower share in row-major order, then every upper one
    m = np.bincount(
        np.concatenate([(lo + offsets).ravel(), (hi + offsets).ravel()]),
        weights=np.concatenate(
            [np.where(aligned, p, p * (hi - b)).ravel(), np.where(aligned, 0.0, p * (b - lo)).ravel()]
        ),
        minlength=n_batch * head.n_atoms,
    )
    return m.reshape(n_batch, head.n_atoms)


def epsilon_schedule(step: int, start: float, end: float, fraction: float, total: int) -> float:
    """Linear ramp from start to end over fraction*total steps, then flat."""
    duration = fraction * total
    t = step / duration
    if t >= 1.0:
        return float(end)
    return start + (end - start) * t


def _dist_probs(net: NetworkState, obs: np.ndarray, n_actions: int, n_atoms: int) -> np.ndarray:
    """Per-action atom probabilities, shape (batch, actions, atoms)."""
    out = forward(net, obs).outputs.reshape(obs.shape[0], n_actions, n_atoms)
    return np.exp(_log_softmax(out))


def _target_rows(
    target: NetworkState, batch: dict, head: CategoricalHead, gamma: float,
    memo: dict, picks: list[int] | None = None,
) -> np.ndarray:
    """Each sampled transition's projected target row, through `memo`: it must
    be emptied whenever the target net changes, starts over when full, and maps
    the exact bits of (`next_codes` row, reward, done, chosen action) to the row.
    The chosen actions are `picks` when given, else the target's greedy ones,
    keyed as -1. A miss runs acting's batch-of-one target forward and projects
    one row, whose bins bincount sums in the same order as in a batch."""
    codes, rewards, dones = batch["next_codes"], batch["rewards"], batch["dones"]
    keys = codes.view(f"V{codes.strides[0]}").ravel().tolist()  # each row as one bytes key
    n_actions = target.layers[-1].width_out // head.n_atoms
    bits = zip(keys, rewards.view(np.int64).tolist(), dones.view(np.int64).tolist(), picks or [-1] * len(keys))
    out = []
    for i, key in enumerate(bits):
        row = memo.get(key)
        if row is None:
            probs = _dist_probs(target, batch["next_obs"][i : i + 1], n_actions, head.n_atoms)[0]
            pick = key[3] if picks else int(np.argmax(np.sum(probs * head.atoms, axis=1)))
            if len(memo) >= common.MEMO_CAP:
                memo.clear()
            row = memo[key] = categorical_projection_batch(probs[pick], rewards[i], dones[i], gamma, head)[0]
        out.append(row)
    return np.array(out)


def c51_update(
    buffer: ReplayBuffer,
    online: NetworkState,
    target: NetworkState,
    head: CategoricalHead,
    batch_size: int,
    gamma: float,
    stream: RngStream,
    learning_starts: int = 0,
    action_selection: str = "target",
    memo: dict | None = None,
) -> tuple[float, Gradients, ForwardTrace] | None:
    """One distributional Bellman fit on a sampled batch.

    Returns None (skip, not failure) while the buffer is below the
    learning-starts threshold. Greedy next actions come from the target
    network by default; action_selection="online" switches the argmax to
    the online network while still bootstrapping from the target. The
    target rows come through `memo` (see _target_rows; a throwaway one when
    None), so they never depend on what it holds.
    """
    if len(buffer) < max(learning_starts, batch_size):
        return None
    batch = buffer.sample(batch_size, stream)
    n_actions = online.layers[-1].width_out // head.n_atoms

    picks = None
    if action_selection == "online":
        select_probs = _dist_probs(online, batch["next_obs"], n_actions, head.n_atoms)
        picks = np.argmax(np.sum(select_probs * head.atoms, axis=2), axis=1).tolist()
    m = _target_rows(target, batch, head, gamma, {} if memo is None else memo, picks)

    trace = forward(online, batch["obs"])
    out = trace.outputs.reshape(batch_size, n_actions, head.n_atoms)
    actions = batch["actions"].astype(np.int64)
    chosen = out[np.arange(batch_size), actions]
    log_p = _log_softmax(chosen)
    loss = -float(np.mean(np.sum(m * log_p, axis=1)))

    block = (np.exp(log_p) - m) / batch_size
    output_grad = np.zeros((batch_size, n_actions * head.n_atoms))
    output_grad.reshape(batch_size, n_actions, head.n_atoms)[np.arange(batch_size), actions] = block
    grads = backward(online, trace, output_grad)
    return loss, grads, trace


class C51Learner:
    """Replay-driven C51 agent: epsilon-greedy acting, periodic target sync."""

    def __init__(self, cfg, net: NetworkState, opt: Optimizer, reg_terms: tuple = ()):
        self.net = net
        self.target = clone_network(net)
        self.n_actions = net.layers[-1].width_out // cfg.learner.n_atoms
        self.cfg = cfg.learner
        self.total_steps = cfg.total_steps  # the epsilon ramp's run length
        self.opt = opt
        self.reg_terms = tuple(reg_terms)
        self.head = CategoricalHead(self.cfg.n_atoms, self.cfg.v_min, self.cfg.v_max)
        # the ring never holds more rows than the run adds; capping it moves no sample
        self.buffer = ReplayBuffer(min(self.cfg.buffer_size, cfg.total_steps), net.layers[0].in_dim)
        self.post_step = lambda: None  # fired after each gradient step
        self.memo, self.memo_writes = {}, net.writes  # obs bytes -> greedy action; see act_memo
        self.target_memo = {}  # see _target_rows

    @staticmethod
    def head_width(cfg, n_actions: int) -> int:
        return n_actions * cfg.learner.n_atoms

    @staticmethod
    def most_gradient_steps(cfg) -> int:
        """One per train_frequency steps, the skipped ones before learning_starts included."""
        return -(-cfg.total_steps // cfg.learner.train_frequency)

    @staticmethod
    def footprint(cfg, obs_dim: int, head_width: int) -> tuple[int, int]:
        """(rows of a batch through both nets, bytes of the replay rows and
        memos). A replay row holds the packed obs pair, action, reward and done;
        a target memo entry a projected row and about 1 KB of keys, array
        headers and dict slots; an act memo entry counts one forward output,
        and its key, the observation's bytes, at the most entries the memo
        can hold: every gradient step empties it, so from the first one on
        it holds at most train_frequency."""
        learner = cfg.learner
        rows = min(learner.buffer_size, cfg.total_steps)
        ring = rows * (2 * -(-obs_dim // 8) + 24)
        first = max(learner.learning_starts, learner.batch_size)  # replay rows the first gradient step needs
        acts = min(common.MEMO_CAP, cfg.total_steps, first + learner.train_frequency if rows >= first else cfg.total_steps)
        memos = common.MEMO_CAP * (8 * learner.n_atoms + 1024 + 8 * head_width) + acts * (8 * obs_dim + 64)
        return 2 * learner.batch_size, ring + memos

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        probs = _dist_probs(self.net, np.atleast_2d(obs), self.n_actions, self.head.n_atoms)
        return np.sum(probs * self.head.atoms, axis=2)

    def act(self, obs: np.ndarray, step: int, stream: RngStream) -> int:
        cfg = self.cfg
        eps = epsilon_schedule(step, cfg.start_epsilon, cfg.end_epsilon, cfg.exploration_fraction, self.total_steps)
        if stream.uniform(0.0, 1.0, 1)[0] < eps:
            return int(stream.randint(self.n_actions, 1)[0])
        key, memo = obs.tobytes(), act_memo(self)
        if key not in memo:
            memo[key] = int(np.argmax(self.q_values(obs)[0]))
        return memo[key]

    def remember(self, obs, action, reward, next_obs, done) -> None:
        self.buffer.add(obs, action, reward, next_obs, done)

    def switch_task(self) -> None:
        """Nothing to do: replay keeps the old task's transitions."""

    def update(self, step: int, stream: RngStream) -> None:
        """Train every train_frequency steps; hard-sync the target on schedule."""
        cfg = self.cfg
        if step % cfg.train_frequency == 0:
            result = c51_update(
                self.buffer, self.net, self.target, self.head,
                cfg.batch_size, cfg.gamma, stream,
                learning_starts=cfg.learning_starts,
                action_selection=cfg.action_selection,
                memo=self.target_memo,
            )
            if result is not None:
                loss, grads, trace = result
                regs = [reg_loss(kind, self.net, alpha, s) for kind, alpha, s in self.reg_terms]
                optimizer_step(self.opt, self.net, trace, grads, cfg.lr, loss, regs)
                self.post_step()
        if step % cfg.target_network_frequency == 0:
            self.target = clone_network(self.net)
            self.target_memo = {}
