"""Clipped-ratio policy optimization over the manual-backprop network.

One network produces [policy outputs | value] from a shared torso. Discrete
policies are categorical over logits; continuous policies are diagonal
Gaussians with a state-independent learned log-std stored as an extra
parameter ("log_std") on the same NetworkState, so optimizers, checkpoints,
and drift metrics see it like any other parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericError
from ..net import Gradients, NetworkState, backward, forward
from ..numkit import RngStream
from ..mitigations import Optimizer, optimizer_step, reg_loss
from ..envs import RewardNormalizer
from . import common
from .common import Rollout, TrajectoryBatch, _log_softmax, act_memo, gae

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class PPOConfig:
    lr: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    vf_coef: float = 0.5
    ent_coef: float = 0.0
    value_clip: float = 0.2
    max_grad_norm: float = 0.5
    n_minibatches: int = 32
    update_epochs: int = 4
    rollout_len: int = 2048
    init_std: float = 1.0


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def _clipped_objective(
    batch, new_log_probs, new_values, entropy, clip_eps, vf_coef, ent_coef, value_clip
):
    """Clipped surrogate + clipped value regression - entropy bonus, as
    (total, parts, terms): the per-sample terms its analytic gradient reads
    are (normalized advantages, ratio, value error, clipped value error).

    Advantages are normalized here, per mini-batch. The value term regresses
    against GAE returns, keeping the clipped branch when it is worse (the
    pessimistic max).
    """
    adv = normalize_advantages(batch.advantages)
    with np.errstate(over="ignore"):
        ratio = np.exp(new_log_probs - batch.log_probs)
    if not np.all(np.isfinite(ratio)):
        raise NumericError("non-finite probability ratio in policy loss")
    clipped_ratio = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    policy = -float(np.mean(np.minimum(ratio * adv, clipped_ratio * adv)))
    v_err = (new_values - batch.returns) ** 2
    v_clipped = batch.values + np.clip(new_values - batch.values, -value_clip, value_clip)
    v_err_clipped = (v_clipped - batch.returns) ** 2
    value = 0.5 * float(np.mean(np.maximum(v_err, v_err_clipped)))
    ent = float(np.mean(entropy))
    total = policy + vf_coef * value - ent_coef * ent
    parts = {"policy": policy, "value": value, "entropy": ent, "total": total}
    return total, parts, (adv, ratio, v_err, v_err_clipped)


def gaussian_policy(
    mean: np.ndarray,
    log_std: np.ndarray,
    stream: RngStream | None = None,
    actions: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal Gaussian sample (or evaluation), log-prob, and entropy.

    Log-probs are plain Gaussian densities; any squashing happens at the
    environment boundary and is not corrected for here.
    """
    mean = np.atleast_2d(mean)
    if not np.all(np.isfinite(mean)):
        raise NumericError("non-finite policy mean")
    std = np.exp(log_std)
    if actions is None:
        noise = stream.normal(0.0, 1.0, mean.size).reshape(mean.shape)
        actions = mean + std * noise
    z = (actions - mean) / std
    log_prob = -0.5 * np.sum(z * z, axis=1) - np.sum(log_std) - 0.5 * mean.shape[1] * _LOG_2PI
    entropy_row = float(np.sum(log_std + 0.5 * (_LOG_2PI + 1.0)))
    entropy = np.full(mean.shape[0], entropy_row)
    return actions, log_prob, entropy


class PPOLearner:
    """PPO over one shared-torso network and its own rollout, which `update`
    trains on once it is full. `reg_terms` is a list of (method, alpha, s)
    regularizers added to every minibatch loss; the optimizer is whatever the
    mitigation plan selected.
    """

    def __init__(self, cfg, net: NetworkState, opt: Optimizer, reg_terms: tuple = ()):
        self.net = net
        self.n_actions = net.layers[-1].width_out - 1
        self.discrete = cfg.scenario.family == "gridworld"
        self.cfg = cfg.learner
        self.opt = opt
        self.reg_terms = tuple(reg_terms)
        self.post_step = lambda: None  # fired after each gradient step
        self.memo, self.memo_writes = ({} if self.discrete else None), net.writes  # see act
        rows = min(self.cfg.rollout_len, cfg.total_steps)
        self.rollout = Rollout(rows, net.layers[0].in_dim, None if self.discrete else self.n_actions)
        self.normalizer = RewardNormalizer(self.cfg.gamma) if cfg.scenario.reward_normalization else None
        self.sampled = self.next_obs = None  # act's (action, log_prob, value); the last next observation
        if not self.discrete and "log_std" not in net.params:
            net.add({"log_std": np.full(self.n_actions, float(np.log(self.cfg.init_std)))})

    @staticmethod
    def head_width(cfg, n_actions: int) -> int:
        return n_actions + 1  # the policy outputs, then the value

    @staticmethod
    def most_gradient_steps(cfg) -> int:
        """update_epochs passes over the non-empty minibatches of each full rollout."""
        learner = cfg.learner
        chunks = min(learner.n_minibatches, learner.rollout_len)
        return cfg.total_steps // learner.rollout_len * learner.update_epochs * chunks

    @staticmethod
    def footprint(cfg, obs_dim: int, head_width: int) -> tuple[int, int]:
        """(rows of a minibatch, bytes of the rollout, a batch copy of it and the act memo's outputs)."""
        rows = min(cfg.learner.rollout_len, cfg.total_steps)
        memo = common.MEMO_CAP if cfg.scenario.family == "gridworld" else 0  # the act memo's most entries
        return -(-rows // cfg.learner.n_minibatches), 16 * rows * (obs_dim + head_width + 6) + 8 * memo * head_width

    # ---------------------------------------------------------- acting

    def act(self, obs: np.ndarray, step: int, stream: RngStream) -> np.ndarray | int:
        """Sample one action, kept with its log-prob and value in `sampled`;
        returns the action the env takes (squashed by tanh when continuous).

        Discrete observations repeat, so `memo` looks up the forward,
        log-softmax and CDF by their bytes while the net stands still
        (`act_memo`); continuous ones never do and have none. The draw always runs.
        """
        memo = None if self.memo is None else act_memo(self)
        key = None if memo is None else obs.tobytes()
        pure = None if memo is None else memo.get(key)
        if pure is None:
            out = forward(self.net, np.atleast_2d(obs)).outputs
            log_p = cdf = None
            if self.discrete:
                log_p = _log_softmax(out[:, :-1])[0]
                cdf = np.cumsum(np.exp(log_p))
            pure = (out, log_p, cdf)
            if memo is not None:
                memo[key] = pure
        out, log_p, cdf = pure
        value = float(out[0, -1])
        if self.discrete:
            u = stream.uniform(0.0, 1.0, 1)[0]
            action = min(int(np.searchsorted(cdf, u, side="right")), self.n_actions - 1)
            self.sampled = action, float(log_p[action]), value
            return action
        actions, log_prob, _ = gaussian_policy(out[:, :-1], self.net.params["log_std"], stream)
        self.sampled = actions[0], float(log_prob[0]), value
        return np.tanh(actions[0])

    def evaluate_actions(self, obs: np.ndarray, actions: np.ndarray):
        """Trace, log-probs, entropy and values for stored actions (no
        sampling), then (log-softmax, probabilities) for a discrete policy or
        None for a continuous one."""
        trace = forward(self.net, obs)
        out = trace.outputs
        values = out[:, -1]
        if self.discrete:
            log_all = _log_softmax(out[:, :-1])
            idx = actions.astype(np.int64)
            log_probs = log_all[np.arange(len(idx)), idx]
            probs = np.exp(log_all)
            entropy = -np.sum(probs * log_all, axis=1)
            return trace, log_probs, entropy, values, (log_all, probs)
        _, log_probs, entropy = gaussian_policy(
            out[:, :-1], self.net.params["log_std"], actions=actions
        )
        return trace, log_probs, entropy, values, None

    # ---------------------------------------------------------- updating

    def remember(self, obs, action, reward: float, next_obs, done: bool) -> None:
        """Add one step to the rollout, with the action `act` sampled."""
        reward = self.normalizer.update(reward, done) if self.normalizer else reward
        self.rollout.add(obs, self.sampled[0], reward, float(done), *self.sampled[1:])
        self.next_obs = next_obs

    def switch_task(self) -> None:
        """Truncate the rollout so advantage estimation never bootstraps across tasks."""
        if self.rollout.size:
            self.rollout.dones[self.rollout.size - 1] = 1.0
        if self.normalizer is not None:
            self.normalizer.ret = 0.0

    def update(self, step: int, stream: RngStream) -> None:
        """Train on a full rollout (every row filled), bootstrapping unless its last step ended an episode."""
        rollout = self.rollout
        if rollout.size == self.cfg.rollout_len:
            bootstrap = 0.0 if rollout.dones[-1] else float(forward(self.net, self.next_obs[None, :]).outputs[0, -1])
            self.train(rollout.batch(), bootstrap, stream)
            rollout.size = 0

    def train(self, traj: TrajectoryBatch, bootstrap_value: float, stream: RngStream) -> dict[str, float]:
        """GAE, then several epochs of shuffled minibatch gradient steps."""
        cfg = self.cfg
        traj.advantages, traj.returns = gae(
            traj.rewards, traj.values, traj.dones, bootstrap_value, cfg.gamma, cfg.gae_lambda
        )
        n = len(traj)
        stats: dict[str, float] = {}
        for _ in range(cfg.update_epochs):
            order = stream.permutation(n)
            for chunk in np.array_split(order, cfg.n_minibatches):
                if chunk.size == 0:
                    continue
                stats = self._minibatch_step(traj.take(chunk))
        return stats

    def _minibatch_step(self, mb: TrajectoryBatch) -> dict[str, float]:
        cfg = self.cfg
        trace, new_log_probs, entropy, new_values, softmax = self.evaluate_actions(
            mb.observations, mb.actions
        )
        total, parts, terms = _clipped_objective(
            mb, new_log_probs, new_values, entropy,
            cfg.clip_eps, cfg.vf_coef, cfg.ent_coef, cfg.value_clip,
        )
        grads = self._loss_grads(mb, trace, new_values, entropy, terms, softmax)
        regs = [reg_loss(kind, self.net, alpha, s) for kind, alpha, s in self.reg_terms]
        parts["total"], parts["grad_norm"] = optimizer_step(
            self.opt, self.net, trace, grads, cfg.lr, total, regs, cfg.max_grad_norm
        )
        self.post_step()
        return parts

    def _loss_grads(self, mb, trace, new_values, entropy, terms, softmax) -> Gradients:
        """Analytic gradient of the clipped objective wrt network outputs,
        from the terms `_clipped_objective` and `evaluate_actions` returned.

        The clipped min contributes nothing for samples pushed past the clip
        band in the advantage-improving direction; the clipped value max
        contributes nothing where the clamp saturates and is worse.
        """
        cfg = self.cfg
        b = len(mb)
        adv, ratio, v_err, v_err_clipped = terms
        clip_dead = ((ratio > 1.0 + cfg.clip_eps) & (adv > 0.0)) | (
            (ratio < 1.0 - cfg.clip_eps) & (adv < 0.0)
        )
        g_log_prob = np.where(clip_dead, 0.0, -adv * ratio) / b
        g_value = np.where(v_err >= v_err_clipped, new_values - mb.returns, 0.0)
        g_value = cfg.vf_coef * g_value / b

        out = trace.outputs
        output_grad = np.zeros_like(out)
        output_grad[:, -1] = g_value
        if self.discrete:
            log_all, probs = softmax
            idx = mb.actions.astype(np.int64)
            one_hot = np.zeros_like(probs)
            one_hot[np.arange(b), idx] = 1.0
            output_grad[:, :-1] = g_log_prob[:, None] * (one_hot - probs)
            # entropy bonus: dH/dlogits = -p * (log p + H)
            output_grad[:, :-1] += (cfg.ent_coef / b) * probs * (log_all + entropy[:, None])
            return backward(self.net, trace, output_grad)
        mean = out[:, :-1]
        log_std = self.net.params["log_std"]
        std = np.exp(log_std)
        z = (mb.actions - mean) / std
        output_grad[:, :-1] = g_log_prob[:, None] * (z / std)
        grads = backward(self.net, trace, output_grad)
        g_ls = np.sum(g_log_prob[:, None] * (z * z - 1.0), axis=0) - cfg.ent_coef
        grads.by_name["log_std"] = g_ls
        return grads
