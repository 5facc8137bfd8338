"""Deterministic experiment execution: the step loop, trigger engine, logging.

Every byte written to the metrics JSONL and episodes CSV is a function of
(config, seed). Per-component RNG streams keep env randomness unchanged when
a mitigation is added to the plan.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from ..envs import (
    FrameStack,
    PROBE_DIM,
    PROBE_OUT,
    batch_work_bytes,
    env_step,
    make_env,
    probe_task,
)
from ..errors import CheckpointError, ConfigError, DivergenceError, NumericError
from ..learners import LEARNERS, network_specs
from ..metrics import MetricReport, collect_metrics
from ..mitigations import (
    REGISTRY,
    apply_event_method,
    build_plan,
    make_optimizer,
)
from ..net import (
    DRAW_FIXED_BYTES,
    LayerSpec,
    deserialize_network,
    draw_work_bytes,
    init_network,
    network_output,  # called by no step; perfbench/layertrace.py patches the name
    serialize_network,
)
from ..numkit import DrawAhead, RngStream
from .config import ExperimentConfig, config_yaml

# distinct stream ids per component, all derived from the master seed
ENV_STREAM = 1
INIT_STREAM = 2
MITIGATION_STREAM = 3
PROBE_STREAM = 4
ACTION_STREAM = 5
UPDATE_STREAM = 6

# draws a holder (numkit.DrawAhead) makes at once: gradient steps of fresh
# inits for a per-gradient-step shrink_perturb entry, probe steps of training
# batches (a task's end discards the rest). Past one draw, a refill's working
# set (net.draw_work_bytes, envs.batch_work_bytes) stays within AHEAD_BYTES,
# with the block in use where a helper thread makes the next (_init_ahead).
DRAW_AHEAD = 8
AHEAD_BYTES = 2 << 20  # 2 MiB: eight draws of the probe net's inits

# most plasticity_injection rounds a run may fire: each adds a branch pair that
# every later forward and backward passes, so run time grows with their square
MAX_INJECTION_ROUNDS = 100


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


def _openblas(name: str, restype):
    """The value of numpy's OpenBLAS function `name` ("unknown" where unreadable)."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
    try:
        fn = getattr(ctypes.CDLL(libs[0]), name)
    except (IndexError, OSError, AttributeError):
        return "unknown"
    fn.restype = restype
    return fn()


def blas_threads() -> int | str:
    """The threads numpy's OpenBLAS runs a call on ("unknown" where unreadable)."""
    return _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)


def usable_cpus() -> int:
    """The CPUs this process may run on (os.cpu_count() where the platform
    cannot tell)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def platform_fingerprint() -> dict:
    """This process's numeric platform: numpy and Python versions, numpy's top x86
    SIMD level, its OpenBLAS's runtime core and thread count, and the CPUs the
    process may run on (a draw-ahead helper starts only on more CPUs than BLAS
    threads)."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    levels = [f for f in simd["baseline"] + simd["found"] if f.startswith("X86_V")]
    core = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {
        "numpy": np.__version__,
        "python": "%d.%d" % sys.version_info[:2],
        "openblas_core": core if core == "unknown" else core.decode(),
        "simd": (levels or ["unknown"])[-1],
        "blas_threads": blas_threads(),
        "cpus": usable_cpus(),
    }


def _widths(cfg: ExperimentConfig) -> tuple[int, int]:
    """(input width, head width) of the run's network."""
    if cfg.scenario.family == "probe":
        return PROBE_DIM, LEARNERS[cfg.algo].head_width(cfg, PROBE_OUT)
    env, _ = make_env(cfg.scenario.task(0))
    return env.obs_dim * max(1, cfg.scenario.frame_stack), LEARNERS[cfg.algo].head_width(cfg, env.n_actions)


def _draw_ahead(draw_bytes: int, fixed_bytes: int = 0) -> DrawAhead:
    """A holder for at most DRAW_AHEAD draws and, past one, no more than fit
    in AHEAD_BYTES beside a refill's `fixed_bytes`."""
    return DrawAhead(max(1, min(DRAW_AHEAD, (AHEAD_BYTES - fixed_bytes) // draw_bytes)))


def _init_ahead(specs: tuple[LayerSpec, ...]) -> DrawAhead:
    """The holder of a per-gradient-step shrink_perturb entry's inits. In a
    process that may run on more CPUs than BLAS threads, it makes each next
    block on a helper thread, if two or more draws fit beside the block in
    use: the block's Box-Muller and QR then run on the spare CPU. With no
    CPU spare (one CPU, or a BLAS thread on each), a helper slowed the run,
    so there it has none."""
    threads = blas_threads()
    if threads != "unknown" and usable_cpus() > threads:
        steps = _draw_ahead(draw_work_bytes(specs, ahead=True), DRAW_FIXED_BYTES).steps
        if steps > 1:
            return DrawAhead(steps, helper=True)
    return _draw_ahead(draw_work_bytes(specs), DRAW_FIXED_BYTES)


def _most_firings(cfg: ExperimentConfig, trigger) -> int:
    """The most times an event entry with `trigger` can fire in a run of `cfg`."""
    total = cfg.total_steps
    if trigger.kind == "per_gradient_step":
        return LEARNERS[cfg.algo].most_gradient_steps(cfg)
    if trigger.kind == "on_task_switch":
        return min(cfg.scenario.n_segments, -(-total // cfg.scenario.segment_length))
    return (total - 1) // trigger.arg if trigger.kind == "every_k_steps" else 1


def _injection_rounds(cfg: ExperimentConfig, plan) -> int:
    """The most plasticity_injection rounds the entries of `plan` can fire in a run of `cfg`."""
    return sum(_most_firings(cfg, e.trigger) for e in plan if e.method == "plasticity_injection")


def footprint_bytes(cfg: ExperimentConfig, specs: tuple[LayerSpec, ...]) -> int:
    """An upper estimate of the peak bytes of a run of `cfg` on the network
    `specs`: the parameters once per copy (values, init snapshot, gradients
    and their clipped copy, C51's target net, four checkpoint copies, the
    optimizer state), the forward and backward traces of the probe and update
    batches (four values per layer feature and row, six with LayerNorm), the
    learner's own buffers (its `footprint`), an init draw's work
    and the draw-ahead holders. Each plasticity_injection firing adds two
    copies of the head layer, counted at the most firings its trigger allows."""
    obs_dim, head_width = specs[0].in_dim, specs[-1].out_dim
    plan = build_plan(list(cfg.mitigations))
    opt = next((e.method for e in plan if REGISTRY[e.method].kind == "optimizer"), "adam")
    heads = 2 * _injection_rounds(cfg, plan)
    sizes = [s.out_dim * (s.in_dim + 1 + 2 * s.layer_norm) for s in specs]
    values = (sum(sizes) + heads * sizes[-1]) * (9 + {"adam": 4, "trac": 7, "kron": 2}[opt])
    if opt == "kron":  # two factors and their inverses per layer and head copy
        kron = [2 * ((s.in_dim + 1) ** 2 + s.out_dim**2) for s in specs]
        values += sum(kron) + heads * kron[-1]
    rows, own = LEARNERS[cfg.algo].footprint(cfg, obs_dim, head_width)
    values += (cfg.logging.probe_batch + rows) * (obs_dim + sum((4 + 2 * s.layer_norm) * s.width_out for s in specs))
    total = 8 * values + own + draw_work_bytes(specs) + DRAW_FIXED_BYTES
    if any(e.method == "shrink_perturb" and e.trigger.kind == "per_gradient_step" for e in plan):
        ahead = _init_ahead(specs)
        total += ahead.steps * draw_work_bytes(specs, ahead.helper)
    if cfg.scenario.family == "probe":
        total += _draw_ahead(batch_work_bytes(cfg.learner.batch_size)).steps * batch_work_bytes(cfg.learner.batch_size)
    return total


def plan_run(cfg: ExperimentConfig) -> tuple[tuple[LayerSpec, ...], list]:
    """The network specs and mitigation plan of a run of `cfg`; ConfigError
    when its peak would pass half of physical memory, or when it could fire
    more than MAX_INJECTION_ROUNDS plasticity_injection rounds."""
    net_cfg = cfg.network
    specs = network_specs(*_widths(cfg), net_cfg.hidden, net_cfg.activation, net_cfg.layer_norm)
    need, half = footprint_bytes(cfg, specs), os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
    if need > half:
        raise ConfigError(f"the run would take about {need / 2**30:.1f} GiB at its peak, over half of physical memory")
    plan = build_plan(list(cfg.mitigations))
    rounds = _injection_rounds(cfg, plan)
    if rounds > MAX_INJECTION_ROUNDS:
        raise ConfigError(
            f"plasticity_injection could fire {rounds} rounds in this run, over the {MAX_INJECTION_ROUNDS} allowed"
        )
    return specs, plan


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


def _task_rows(writers: _Writers, task_idx: int, task_start: int, losses: list[float]) -> None:
    """The probe's per-task rows, written when the task ends (none before the first)."""
    if not losses:
        return
    window = losses[:500]
    k = min(50, max(1, len(window) // 2))
    speed = float(np.mean(window[:k]) - np.mean(window[-k:]))
    writers.metric_row(task_start, f"task{task_idx}", "adaptation_speed", speed)
    writers.metric_row(task_start, f"task{task_idx}", "final_loss", float(np.mean(losses[-k:])))


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> RunArtifacts:
    """Execute one experiment; returns paths and the final summary record.

    Every step runs the same schedule: task switch, mitigation events, metric
    rows, checkpoint, then the learner's part of the step. Aborts with
    DivergenceError on a non-finite loss, after flushing all logs and writing
    a diagnostic summary pointing at the failing step.
    """
    out_dir = out_dir or cfg.logging.out_dir
    scenario = cfg.scenario
    specs, plan = plan_run(cfg)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the run directory {out_dir!r}: {exc}") from None
    config_path = os.path.join(out_dir, "config.yaml")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(config_yaml(cfg))

    env_stream = RngStream(cfg.seed, ENV_STREAM)
    mit_stream = RngStream(cfg.seed, MITIGATION_STREAM)
    act_stream = RngStream(cfg.seed, ACTION_STREAM)
    upd_stream = RngStream(cfg.seed, UPDATE_STREAM)
    probe_run = scenario.family == "probe"
    probe = probe_inputs(cfg.seed, specs[0].in_dim, cfg.logging.probe_batch)

    net = init_network(specs, RngStream(cfg.seed, INIT_STREAM))

    kinds = [REGISTRY[entry.method].kind for entry in plan]
    reg_terms = tuple(
        (entry.method, float(entry.params["alpha"]), float(entry.params.get("s", 1.0)))
        for entry, kind in zip(plan, kinds) if kind == "loss"
    )
    # build_plan allows one optimizer entry at most; without one, plain Adam
    opt_kind, opt_hyper = next(
        ((entry.method, entry.params) for entry, kind in zip(plan, kinds) if kind == "optimizer"), ("adam", {})
    )
    events = [(i, entry) for i, (entry, kind) in enumerate(zip(plan, kinds)) if kind == "event"]
    pgs_entries = [(i, entry) for i, entry in events if entry.trigger.kind == "per_gradient_step"]
    # only event entries count their firings; the other kinds are derived at the end
    fires = {i: 0 for i, _ in events}

    learner = LEARNERS[cfg.algo](cfg, net, make_optimizer(opt_kind, net, **opt_hyper), reg_terms)
    if probe_run:
        batches = _draw_ahead(batch_work_bytes(cfg.learner.batch_size))

    gradient_steps = 0
    aheads = {
        i: _init_ahead(net.layers)
        for i, entry in pgs_entries
        if entry.method == "shrink_perturb"
    }

    def _post_step():
        nonlocal gradient_steps
        gradient_steps += 1
        for i, entry in pgs_entries:
            apply_event_method(entry, net, mit_stream, probe=probe, ahead=aheads.get(i))
            fires[i] += 1

    learner.post_step = _post_step

    writers = _Writers(out_dir)
    checkpoint_paths: list[str] = []

    def _log_metrics(step: int) -> None:
        for report in collect_metrics(net, probe, step=step):
            for name, value in report.rows():
                writers.metric_row(step, report.scope, name, value)

    def _checkpoint(step: int, name: str | None = None) -> None:
        path = os.path.join(out_dir, name or f"ckpt_step{step}.bin")
        with open(path, "wb") as fh:
            fh.write(serialize_network(net))
        checkpoint_paths.append(path)

    # step 0 always switches: it builds the env (RL) or opens the first task (probe)
    returns: list[float] = []
    task_idx, task_start, losses = -1, 0, []
    error = None
    step = last_metric_step = -1
    try:
        for step in range(cfg.total_steps):
            switched = scenario.switches(step)
            if switched:
                task = scenario.task(step // scenario.segment_length)
            if switched and probe_run:
                _task_rows(writers, task_idx, task_start, losses)
                task_idx, task_start, losses = task_idx + 1, step, []
            elif switched:
                learner.switch_task()
                env, obs = _build_env(cfg, task)
                ep_return, ep_len = 0.0, 0
            for i, entry in events:
                if entry.trigger.fires(step, switched):
                    value = apply_event_method(entry, net, mit_stream, probe=probe)
                    if entry.method == "reset_layers" and entry.params.get("scope") == "all":
                        # a full redraw leaves no parameters the old moment
                        # buffers describe; start the optimizer over as well
                        learner.opt = make_optimizer(opt_kind, net, **opt_hyper)
                    fires[i] += 1
                    writers.metric_row(step, "event", entry.method, value)
            if step % cfg.logging.metric_interval == 0:
                _log_metrics(step)
                last_metric_step = step
            if cfg.checkpoint_interval and step % cfg.checkpoint_interval == 0:
                _checkpoint(step)

            if probe_run:
                x, y = probe_task(task.level_seed, cfg.learner.batch_size, env_stream, batches)
                loss = learner.step(x, y)
                losses.append(loss)
                writers.metric_row(step, "train", "loss", loss)
                continue

            action = learner.act(obs, step, act_stream)
            next_obs, reward, done = env_step(env, action)
            learner.remember(obs, action, reward, next_obs, done)
            ep_return += reward
            ep_len += 1
            if done:
                writers.episode_row(step, len(returns), ep_return, ep_len)
                returns.append(ep_return)
                ep_return, ep_len = 0.0, 0
                next_obs = env.reset()
            obs = next_obs
            learner.update(step, upd_stream)
        _task_rows(writers, task_idx, task_start, losses)
        _log_metrics(cfg.total_steps)
        _checkpoint(cfg.total_steps, "ckpt_final.bin")
    except NumericError as exc:
        error = exc
    finally:  # no helper outlives the run
        for ahead in aheads.values():
            ahead.close()

    # spec entries (architecture checks) fire once, at startup; loss and optimizer ones per update
    trigger_fires = {
        f"{i}:{entry.method}:{entry.trigger.kind}": fires.get(i, 1 if kind == "spec" else gradient_steps)
        for i, (entry, kind) in enumerate(zip(plan, kinds))
    }

    summary = {
        "algo": cfg.algo,
        "checkpoints": [os.path.basename(p) for p in checkpoint_paths],
        "episodes": len(returns),
        "gradient_steps": gradient_steps,
        "mean_return_last_10": float(np.mean(returns[-10:])) if returns else None,
        "seed": cfg.seed,
        "status": "ok" if error is None else "diverged",
        "total_steps": cfg.total_steps,
        "trigger_fires": trigger_fires,
    }
    if error is not None:
        summary.update(error=str(error), step=step, last_metric_step=last_metric_step)
    summary_path = os.path.join(out_dir, "summary.json")
    writers.close()
    for path, record in ((summary_path, summary), (os.path.join(out_dir, "provenance.json"), platform_fingerprint())):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")

    if error is not None:
        raise DivergenceError(str(error), step=step)

    return RunArtifacts(
        out_dir=out_dir,
        config_path=config_path,
        metrics_path=writers.metrics_path,
        episodes_path=writers.episodes_path,
        summary_path=summary_path,
        checkpoint_paths=tuple(checkpoint_paths),
        summary=summary,
    )
