"""Deterministic experiment execution: train loops, trigger engine, logging.

Every byte written to the metrics JSONL and episodes CSV is a function of
(config, seed). Per-component RNG streams keep env randomness unchanged when
a mitigation is added to the plan.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from ..envs import (
    FrameStack,
    PROBE_DIM,
    PROBE_OUT,
    RewardNormalizer,
    build_schedule,
    env_step,
    make_env,
    probe_task,
    schedule_shift,
)
from ..errors import CheckpointError, DivergenceError, NumericError
from ..learners import C51Learner, PPOLearner, RegressionLearner, Rollout, build_network
from ..metrics import MetricReport, collect_metrics
from ..mitigations import (
    REGISTRY,
    DrawAhead,
    apply_event_method,
    build_plan,
    make_optimizer,
    validate_network_for_plan,
)
from ..net import deserialize_network, network_output, serialize_network
from ..numkit import RngStream
from .config import ExperimentConfig, config_yaml

# distinct stream ids per component, all derived from the master seed
ENV_STREAM = 1
INIT_STREAM = 2
MITIGATION_STREAM = 3
PROBE_STREAM = 4
ACTION_STREAM = 5
UPDATE_STREAM = 6

# most observations an act memo holds before it starts over; it is also
# emptied whenever the parameters may have changed (see _run_rl)
ACT_MEMO_CAP = 1024

# gradient steps of fresh init draws a per-gradient-step shrink_perturb entry
# makes at once (see mitigations.DrawAhead); it holds at most this many
DRAW_AHEAD = 8

_REG_KIND = {"l2_reg": "l2", "regenerative_reg": "regenerative", "parseval_reg": "parseval"}


@dataclass
class RunArtifacts:
    out_dir: str
    config_path: str
    metrics_path: str
    episodes_path: str
    summary_path: str
    checkpoint_paths: tuple[str, ...]
    summary: dict


def probe_inputs(probe_seed: int, obs_dim: int, batch: int = 256) -> np.ndarray:
    """The fixed metric probe batch: standard-normal inputs drawn from the
    probe stream; reproducible from (seed, obs_dim) alone so checkpoints can
    be replayed without the original env."""
    stream = RngStream(probe_seed, PROBE_STREAM)
    return stream.normal(0.0, 1.0, batch * obs_dim).reshape(batch, obs_dim)


def replay_metrics(
    checkpoint_path: str, probe_seed: int, probe_batch: int = 256
) -> list[MetricReport]:
    """Recompute the metric suite from a checkpoint, no training required."""
    try:
        with open(checkpoint_path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {checkpoint_path!r}: {exc}") from exc
    net = deserialize_network(blob)
    probe = probe_inputs(probe_seed, net.layers[0].in_dim, probe_batch)
    return collect_metrics(net, probe)


def _obs_dim_and_actions(cfg: ExperimentConfig, first_task) -> tuple[int, int, bool]:
    if cfg.scenario.family == "probe":
        return PROBE_DIM, PROBE_OUT, True
    env, _ = make_env(first_task)
    discrete = cfg.scenario.family == "gridworld"
    return env.obs_dim * max(1, cfg.scenario.frame_stack), env.n_actions, discrete


def _head_width(cfg: ExperimentConfig, n_actions: int) -> int:
    if cfg.algo == "ppo":
        return n_actions + 1
    if cfg.algo == "c51":
        return n_actions * cfg.learner.n_atoms
    return PROBE_OUT


def _build_env(cfg: ExperimentConfig, task):
    env, obs = make_env(task)
    if cfg.scenario.frame_stack > 1:
        env = FrameStack(env, cfg.scenario.frame_stack)
        obs = env.reset()
    return env, obs


class _Writers:
    """Line-buffered log files; every record hits disk as it is written."""

    def __init__(self, out_dir: str):
        self.metrics_path = os.path.join(out_dir, "metrics.jsonl")
        self.episodes_path = os.path.join(out_dir, "episodes.csv")
        self.metrics = open(self.metrics_path, "w", encoding="utf-8", buffering=1)
        self.episodes = open(self.episodes_path, "w", encoding="utf-8", buffering=1)
        self.episodes.write("step,episode,return,length\n")

    def metric_row(self, step: int, scope: str, metric: str, value: float) -> None:
        record = {"metric": metric, "scope": scope, "step": step, "value": float(value)}
        self.metrics.write(json.dumps(record, sort_keys=True) + "\n")

    def episode_row(self, step: int, episode: int, ret: float, length: int) -> None:
        self.episodes.write(f"{step},{episode},{ret!r},{length}\n")

    def close(self) -> None:
        self.metrics.close()
        self.episodes.close()


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> RunArtifacts:
    """Execute one experiment; returns paths and the final summary record.

    Aborts with DivergenceError on a non-finite loss, after flushing all logs
    and writing a diagnostic summary pointing at the failing step.
    """
    out_dir = out_dir or cfg.logging.out_dir
    os.makedirs(out_dir, exist_ok=True)

    config_path = os.path.join(out_dir, "config.yaml")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(config_yaml(cfg))

    env_stream = RngStream(cfg.seed, ENV_STREAM)
    init_stream = RngStream(cfg.seed, INIT_STREAM)
    mit_stream = RngStream(cfg.seed, MITIGATION_STREAM)
    act_stream = RngStream(cfg.seed, ACTION_STREAM)
    upd_stream = RngStream(cfg.seed, UPDATE_STREAM)

    sched = build_schedule(
        cfg.scenario.mode,
        cfg.scenario.family,
        cfg.scenario.level_seed_base,
        cfg.scenario.segment_length,
        cfg.scenario.n_segments,
        cfg.scenario.variants,
        cfg.scenario.horizon,
        cfg.scenario.level_offset,
    )
    first_task, _ = schedule_shift(sched, 0)
    obs_dim, n_actions, discrete = _obs_dim_and_actions(cfg, first_task)
    probe = probe_inputs(cfg.seed, obs_dim, cfg.logging.probe_batch)

    net = build_network(
        obs_dim,
        _head_width(cfg, n_actions),
        cfg.network.hidden,
        cfg.network.activation,
        cfg.network.layer_norm,
        init_stream,
    )
    plan = build_plan(list(cfg.mitigations))
    validate_network_for_plan(plan, net)

    reg_terms = []
    opt_kind, opt_hyper = "adam", {}
    event_entries: list[tuple[int, object]] = []
    pgs_entries: list[tuple[int, object]] = []
    counters = [0] * len(plan.entries)
    for i, entry in enumerate(plan.entries):
        kind = REGISTRY[entry.method].kind
        if kind == "loss":
            alpha = float(entry.params["alpha"])
            s = float(entry.params.get("s", 1.0))
            reg_terms.append((_REG_KIND[entry.method], alpha, s))
        elif kind == "optimizer":
            opt_kind, opt_hyper = entry.method, dict(entry.params)
        elif kind == "spec":
            counters[i] = 1  # architecture checks fire once, at startup
        elif entry.trigger.kind == "per_gradient_step":
            pgs_entries.append((i, entry))
        else:
            event_entries.append((i, entry))

    opt = make_optimizer(opt_kind, net, **opt_hyper)
    if cfg.algo == "ppo":
        learner = PPOLearner(net, n_actions, discrete, cfg.learner, opt, tuple(reg_terms))
    elif cfg.algo == "c51":
        # the ring never holds more rows than the run adds; capping it moves no sample
        c51_cfg = replace(cfg.learner, buffer_size=min(cfg.learner.buffer_size, cfg.total_steps))
        learner = C51Learner(net, n_actions, c51_cfg, opt, obs_dim, tuple(reg_terms))
    else:
        learner = RegressionLearner(net, opt, cfg.learner.lr, tuple(reg_terms))

    state = {"gradient_steps": 0}
    aheads = {i: DrawAhead(DRAW_AHEAD) for i, entry in pgs_entries if entry.method == "shrink_perturb"}

    def _post_step():
        state["gradient_steps"] += 1
        for i, entry in pgs_entries:
            apply_event_method(entry, net, mit_stream, probe=probe, ahead=aheads.get(i))
            counters[i] += 1

    learner.post_step = _post_step

    writers = _Writers(out_dir)
    checkpoint_paths: list[str] = []

    def _log_metrics(step: int) -> None:
        for report in collect_metrics(net, probe, step=step):
            for name, value in report.rows():
                writers.metric_row(step, report.scope, name, value)
        state["last_metric_step"] = step

    def _checkpoint(step: int, name: str | None = None) -> None:
        fname = name or f"ckpt_step{step}.bin"
        path = os.path.join(out_dir, fname)
        with open(path, "wb") as fh:
            fh.write(serialize_network(net))
        checkpoint_paths.append(path)

    def _fire_events(step: int, switched: bool) -> None:
        for i, entry in event_entries:
            trig = entry.trigger
            if trig.kind == "every_k_steps":
                fire = step > 0 and step % trig.k == 0
            elif trig.kind == "on_task_switch":
                fire = switched
            else:  # once_at
                fire = step == trig.step
            if fire:
                info = apply_event_method(entry, net, mit_stream, probe=probe)
                if entry.method == "reset_layers" and entry.params.get("scope") == "all":
                    # a full redraw leaves no parameters the old moment
                    # buffers describe; start the optimizer over as well
                    learner.opt = make_optimizer(opt_kind, net, **opt_hyper)
                counters[i] += 1
                writers.metric_row(step, "event", entry.method, info.get("reset_count", 1.0))

    # ------------------------------------------------------------- loops

    episode_idx = 0
    returns: list[float] = []

    def _run_rl() -> None:
        nonlocal episode_idx
        env = None
        obs = None
        normalizer = RewardNormalizer(cfg.learner.gamma) if cfg.scenario.reward_normalization else None
        ppo = cfg.algo == "ppo"
        if ppo:
            rows = min(cfg.learner.rollout_len, cfg.total_steps)
            rollout = Rollout(rows, obs_dim, None if discrete else n_actions)
        ep_return, ep_len = 0.0, 0
        # gradient steps, per-gradient-step methods and events are the only
        # writes to net, and each moves this key; acting reuses the forward
        # of a repeated observation only while it stands still. Only discrete
        # (gridworld) observations repeat, so continuous ones get no memo.
        memo_key = None

        for step in range(cfg.total_steps):
            state["step"] = step
            task, switched = schedule_shift(sched, step)
            if switched:
                if ppo and rollout.size:
                    # truncate the rollout at the boundary so advantage
                    # estimation never bootstraps across tasks
                    rollout.dones[rollout.size - 1] = 1.0
                env, obs = _build_env(cfg, task)
                ep_return, ep_len = 0.0, 0
                if normalizer is not None:
                    normalizer.ret = 0.0
            _fire_events(step, switched)
            if step % cfg.logging.metric_interval == 0:
                _log_metrics(step)
            if cfg.checkpoint_interval and step % cfg.checkpoint_interval == 0:
                _checkpoint(step)

            params_key = (state["gradient_steps"], sum(counters))
            if discrete and (params_key != memo_key or len(learner.memo) >= ACT_MEMO_CAP):
                learner.memo, memo_key = {}, params_key
            if ppo:
                action, log_prob, value = learner.act(obs, act_stream)
                env_action = action if discrete else np.tanh(action)
                next_obs, reward, done = env_step(env, env_action)
                train_reward = normalizer.update(reward, done) if normalizer else reward
                rollout.add(obs, action, train_reward, float(done), log_prob, value)
            else:
                action = learner.act(obs, step, act_stream)
                next_obs, reward, done = env_step(env, action)
                learner.remember(obs, action, reward, next_obs, done)
                stats = learner.update(step, upd_stream)
                if stats is not None and not np.isfinite(stats["loss"]):
                    raise NumericError(f"non-finite loss at step {step}")

            ep_return += reward
            ep_len += 1
            if done:
                writers.episode_row(step, episode_idx, ep_return, ep_len)
                returns.append(ep_return)
                episode_idx += 1
                ep_return, ep_len = 0.0, 0
                next_obs = env.reset()
            obs = next_obs

            if ppo and rollout.size == cfg.learner.rollout_len:
                last_done = rollout.dones[rollout.size - 1]
                bootstrap = 0.0 if last_done else float(network_output(net, obs[None, :])[0, -1])
                stats = learner.update(rollout.batch(), bootstrap, upd_stream)
                if not np.isfinite(stats["total"]):
                    raise NumericError(f"non-finite loss at step {step}")
                rollout.size = 0

    def _run_probe() -> None:
        task_idx = -1
        task_start = 0
        losses: list[float] = []

        def _finalize(step: int) -> None:
            if task_idx < 0 or not losses:
                return
            window = losses[:500]
            k = min(50, max(1, len(window) // 2))
            speed = float(np.mean(window[:k]) - np.mean(window[-k:]))
            writers.metric_row(task_start, f"task{task_idx}", "adaptation_speed", speed)
            writers.metric_row(task_start, f"task{task_idx}", "final_loss", float(np.mean(losses[-k:])))

        for step in range(cfg.total_steps):
            state["step"] = step
            task, switched = schedule_shift(sched, step)
            if switched:
                _finalize(step)
                task_idx += 1
                task_start = step
                losses = []
            _fire_events(step, switched)
            if step % cfg.logging.metric_interval == 0:
                _log_metrics(step)
            if cfg.checkpoint_interval and step % cfg.checkpoint_interval == 0:
                _checkpoint(step)
            x, y = probe_task(task.level_seed, cfg.learner.batch_size, env_stream)
            loss = learner.step(x, y)
            losses.append(loss)
            writers.metric_row(step, "train", "loss", loss)
        _finalize(cfg.total_steps)

    status = {"status": "ok"}
    try:
        if cfg.scenario.family == "probe":
            _run_probe()
        else:
            _run_rl()
        _log_metrics(cfg.total_steps)
        _checkpoint(cfg.total_steps, "ckpt_final.bin")
    except NumericError as exc:
        status = {
            "status": "diverged",
            "error": str(exc),
            "step": state.get("step", -1),
            "last_metric_step": state.get("last_metric_step", -1),
        }

    # per-gradient-step loss/optimizer terms fire once per update by design
    for i, entry in enumerate(plan.entries):
        if REGISTRY[entry.method].kind in ("loss", "optimizer"):
            counters[i] = state["gradient_steps"]
    trigger_fires = {
        f"{i}:{entry.method}:{entry.trigger.kind}": counters[i]
        for i, entry in enumerate(plan.entries)
    }

    summary = {
        "algo": cfg.algo,
        "checkpoints": [os.path.basename(p) for p in checkpoint_paths],
        "episodes": episode_idx,
        "gradient_steps": state["gradient_steps"],
        "mean_return_last_10": float(np.mean(returns[-10:])) if returns else None,
        "seed": cfg.seed,
        "total_steps": cfg.total_steps,
        "trigger_fires": trigger_fires,
    }
    summary.update(status)
    summary_path = os.path.join(out_dir, "summary.json")
    writers.close()
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")

    if summary["status"] == "diverged":
        raise DivergenceError(summary["error"], step=summary["step"])

    return RunArtifacts(
        out_dir=out_dir,
        config_path=config_path,
        metrics_path=writers.metrics_path,
        episodes_path=writers.episodes_path,
        summary_path=summary_path,
        checkpoint_paths=tuple(checkpoint_paths),
        summary=summary,
    )
