"""Output checks computed apart from the program.

Nothing here imports plastlab. The checkpoint reader follows the documented
layout (an 8-byte little-endian manifest length, the JSON manifest, then the
parameters and the init snapshot as flat little-endian float64 in
`param_order`); the forward pass, the probe batch and the metric formulas are
written out again from their definitions. Every check returns a list of
failure messages, empty when the run passed it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct

import numpy as np
import yaml

TOL = 1e-9
DORMANT_TAU = 0.025
STABLE_RANK_SHARE = 0.99

# registry defaults of the methods the workloads use, as "kind" or "kind(arg)"
DEFAULT_TRIGGERS = {
    "redo": "every_k_steps(1000)",
    "shrink_perturb": "on_task_switch",
    "l2_reg": "per_gradient_step",
}
# methods whose fires are gradient steps, whatever their trigger says
PER_UPDATE_METHODS = ("l2_reg",)

# gridworld rewards: every non-final step costs 0.01; an episode ends on the
# goal (+1), a hazard (-1) or the horizon (-0.01)
STEP_REWARD = -0.01
TERMINAL_REWARDS = (1.0, -1.0, STEP_REWARD)

PROBE_STREAM = 4
_MASK64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


# ---------------------------------------------------------------- run files


def read_run(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "config.yaml"), encoding="utf-8") as fh:
        config = yaml.safe_load(fh)
    with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(run_dir, "metrics.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    with open(os.path.join(run_dir, "episodes.csv"), encoding="utf-8", newline="") as fh:
        episodes = list(csv.DictReader(fh))
    return {"dir": run_dir, "config": config, "summary": summary, "rows": rows, "episodes": episodes}


def file_digests(run_dir: str) -> dict[str, str]:
    out = {}
    for name in ("metrics.jsonl", "episodes.csv", "ckpt_final.bin"):
        with open(os.path.join(run_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """(manifest, params, init snapshot) from a version-1 checkpoint file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (head_len,) = struct.unpack_from("<Q", blob, 0)
    manifest = json.loads(blob[8 : 8 + head_len].decode("utf-8"))
    if manifest["version"] != 1:
        raise ValueError(f"checkpoint version {manifest['version']} is not 1")
    body = np.frombuffer(blob, dtype="<f8", offset=8 + head_len)
    order = manifest["param_order"]
    sizes = [int(np.prod(manifest["shapes"][n])) for n in order]
    total = sum(sizes)
    if body.size != 2 * total:
        raise ValueError(f"checkpoint holds {body.size} floats, manifest needs {2 * total}")
    params, init, pos = {}, {}, 0
    for name, size in zip(order, sizes):
        shape = manifest["shapes"][name]
        params[name] = body[pos : pos + size].reshape(shape).astype(np.float64)
        init[name] = body[total + pos : total + pos + size].reshape(shape).astype(np.float64)
        pos += size
    return manifest, params, init


# ------------------------------------------------------- probe batch and net


def _mix(z):
    """SplitMix64 finalizer on a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _mix_int(z: int) -> int:
    return int(_mix(np.array([z & _MASK64], dtype=np.uint64))[0])


def probe_batch(seed: int, obs_dim: int, batch: int) -> np.ndarray:
    """The metric probe batch: the first batch*obs_dim Box-Muller normals of
    the counter-based stream (seed, 4), draw i keyed by SplitMix64(key + i*phi)."""
    key = _mix_int(_mix_int((seed & _MASK64) ^ _PHI) + _mix_int(PROBE_STREAM))
    n = batch * obs_dim
    m = (n + 1) // 2
    idx = np.arange(1, 2 * m + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        raw = _mix(np.uint64(key) + idx * np.uint64(_PHI))
    u1 = ((raw[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (raw[m:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * m)
    z[0::2] = r * np.cos(2.0 * math.pi * u2)
    z[1::2] = r * np.sin(2.0 * math.pi * u2)
    return z[:n].reshape(batch, obs_dim)


def layer_outputs(manifest: dict, params: dict[str, np.ndarray], x: np.ndarray) -> list[np.ndarray]:
    """Post-activation output of every layer for batch x. Covers what the
    workloads build: relu or linear layers without LayerNorm or injection."""
    outs = []
    for i, layer in enumerate(manifest["layers"]):
        if layer["activation"] not in ("relu", "linear") or layer["layer_norm"] or manifest["injection_rounds"]:
            raise ValueError(f"layer {i} ({layer}) is outside what these checks recompute")
        x = x @ params[f"layer{i}.w"].T + params[f"layer{i}.b"]
        if layer["activation"] == "relu":
            x = np.maximum(x, 0.0)
        outs.append(x)
    return outs


def final_metrics(run_dir: str, seed: int, probe_size: int) -> dict[tuple[str, str], float]:
    """(scope, metric) -> value for the final checkpoint, from definitions:
    dormant share (mean |activation| over the layer mean <= tau), positive
    share, stable rank (fewest singular values holding > 99% of their sum),
    effective rank (exp of the spectrum's entropy), L2 distance to init."""
    manifest, params, init = read_checkpoint(os.path.join(run_dir, "ckpt_final.bin"))
    x = probe_batch(seed, manifest["layers"][0]["in_dim"], probe_size)
    outs = layer_outputs(manifest, params, x)
    order = manifest["param_order"]

    def ranks(f):
        sv = np.linalg.svd(f, compute_uv=False)
        if sv.sum() == 0.0:
            return {}
        stable = int(np.argmax(np.cumsum(sv) / sv.sum() > STABLE_RANK_SHARE)) + 1
        p = sv.astype(np.longdouble) / sv.astype(np.longdouble).sum()
        p = p[p > 0]
        return {"stable_rank": float(stable), "effective_rank": float(np.exp(-(p * np.log(p)).sum()))}

    def drift(names):
        sq = sum(float(np.sum((params[n] - init[n]) ** 2)) for n in names)
        count = sum(params[n].size for n in names)
        l2 = math.sqrt(sq)
        return {"weight_diff": l2, "weight_diff_per_param": l2 / count if count else 0.0}

    out: dict[tuple[str, str], float] = {}
    dormant = active = units = cells = 0
    for i, post in enumerate(outs):
        mean_abs = np.abs(post).mean(axis=0)
        level = mean_abs.mean()
        n_dormant = post.shape[1] if level == 0.0 else int(np.sum(mean_abs / level <= DORMANT_TAU))
        n_active = int(np.sum(post > 0.0))
        values = {"rdu": n_dormant / post.shape[1], "fau": n_active / post.size}
        values.update(ranks(post))
        values.update(drift([n for n in order if n.startswith(f"layer{i}.")]))
        out.update({(f"layer{i}", k): v for k, v in values.items()})
        dormant, active = dormant + n_dormant, active + n_active
        units, cells = units + post.shape[1], cells + post.size
    values = {"rdu": dormant / units, "fau": active / cells}
    values.update(ranks(outs[max(len(outs) - 2, 0)]))
    values.update(drift(order))
    out.update({("all", k): v for k, v in values.items()})
    return out


# ------------------------------------------------------------------ checks


def check_final_metrics(run: dict) -> list[str]:
    cfg = run["config"]
    total = cfg["total_steps"]
    logged = {
        (r["scope"], r["metric"]): r["value"]
        for r in run["rows"]
        if r["step"] == total and (r["scope"] == "all" or r["scope"].startswith("layer"))
    }
    expected = final_metrics(run["dir"], cfg["seed"], cfg["logging"]["probe_batch"])
    errors = []
    for key in sorted(set(logged) | set(expected)):
        if key not in logged:
            errors.append(f"final metric row {key} missing from metrics.jsonl")
        elif key not in expected:
            errors.append(f"final metric row {key} has no recomputed counterpart")
        elif not _close(logged[key], expected[key]):
            errors.append(f"final metric {key}: logged {logged[key]!r}, recomputed {expected[key]!r}")
    return errors


def check_episodes(run: dict) -> list[str]:
    """Every gridworld episode return is -0.01*(length-1) + t with t in
    {+1, -1, -0.01}, and t = -0.01 only when the episode hit the horizon."""
    if run["config"]["scenario"]["family"] != "gridworld":
        return [] if not run["episodes"] else ["episode rows in a run without episodes"]
    horizon = run["config"]["scenario"]["horizon"]
    errors = []
    last_step = -1
    for i, row in enumerate(run["episodes"]):
        step, episode = int(row["step"]), int(row["episode"])
        ret, length = float(row["return"]), int(row["length"])
        terminal = ret - STEP_REWARD * (length - 1)
        matches = [t for t in TERMINAL_REWARDS if _close(terminal, t)]
        if episode != i or step <= last_step or not 1 <= length <= horizon:
            errors.append(f"episode row {i} out of order or out of range: {row}")
        elif not matches:
            errors.append(f"episode {i}: return {ret!r} is not -0.01*({length}-1) + t")
        elif matches == [STEP_REWARD] and length != horizon:
            errors.append(f"episode {i}: timed out at length {length} before horizon {horizon}")
        last_step = step
    returns = [float(r["return"]) for r in run["episodes"]]
    summary = run["summary"]
    if summary["episodes"] != len(returns):
        errors.append(f"summary counts {summary['episodes']} episodes, episodes.csv has {len(returns)}")
    if returns and not _close(summary["mean_return_last_10"], float(np.mean(returns[-10:]))):
        errors.append("summary mean_return_last_10 disagrees with episodes.csv")
    return errors


def expected_gradient_steps(cfg: dict) -> int:
    total, learner = cfg["total_steps"], cfg["learner"]
    if cfg["algo"] == "ppo":
        return (total // learner["rollout_len"]) * learner["update_epochs"] * learner["n_minibatches"]
    if cfg["algo"] == "c51":
        start = max(learner["learning_starts"], learner["batch_size"])
        return sum(1 for s in range(0, total, learner["train_frequency"]) if s + 1 >= start)
    return total


def _segments_started(cfg: dict) -> int:
    scenario = cfg["scenario"]
    return min(scenario["n_segments"], -(-cfg["total_steps"] // scenario["segment_length"]))


def _trigger(entry) -> tuple[str, str]:
    method = entry if isinstance(entry, str) else entry["method"]
    trigger = DEFAULT_TRIGGERS[method]
    if isinstance(entry, dict) and entry.get("trigger"):
        trigger = entry["trigger"]
    return method, trigger


def expected_fires(cfg: dict, gradient_steps: int) -> dict[str, tuple[int, bool]]:
    """summary trigger_fires key -> (fires, whether each fire logs an event row)."""
    total = cfg["total_steps"]
    out = {}
    for i, entry in enumerate(cfg["mitigations"]):
        method, trigger = _trigger(entry)
        kind, _, arg = trigger.partition("(")
        if method in PER_UPDATE_METHODS or kind == "per_gradient_step":
            fires, logged = gradient_steps, False
        elif kind == "every_k_steps":
            fires, logged = (total - 1) // int(arg.rstrip(")")), True
        elif kind == "on_task_switch":
            fires, logged = _segments_started(cfg), True
        elif kind == "once_at":
            fires, logged = int(int(arg.rstrip(")")) < total), True
        else:
            raise ValueError(f"no formula for trigger {trigger!r}")
        out[f"{i}:{method}:{kind}"] = (fires, logged)
    return out


def check_counts(run: dict) -> list[str]:
    cfg, summary = run["config"], run["summary"]
    errors = []
    if summary["status"] != "ok" or summary["total_steps"] != cfg["total_steps"]:
        errors.append(f"summary status {summary['status']!r} after {summary['total_steps']} steps")
    steps = expected_gradient_steps(cfg)
    if summary["gradient_steps"] != steps:
        errors.append(f"gradient_steps {summary['gradient_steps']}, formula gives {steps}")
    fires = expected_fires(cfg, steps)
    if set(summary["trigger_fires"]) != set(fires):
        errors.append(f"trigger_fires keys {sorted(summary['trigger_fires'])} != {sorted(fires)}")
    events: dict[str, int] = {}
    for r in run["rows"]:
        if r["scope"] == "event":
            events[r["metric"]] = events.get(r["metric"], 0) + 1
    logged_events: dict[str, int] = {}
    for key, (count, logged) in fires.items():
        got = summary["trigger_fires"].get(key)
        if got != count:
            errors.append(f"trigger {key} fired {got} times, formula gives {count}")
        if logged:
            method = key.split(":")[1]
            logged_events[method] = logged_events.get(method, 0) + count
    if events != logged_events:
        errors.append(f"event rows per method {events}, fires give {logged_events}")
    interval = cfg["checkpoint_interval"]
    ckpts = [f"ckpt_step{s}.bin" for s in range(0, cfg["total_steps"], interval)] if interval else []
    if summary["checkpoints"] != ckpts + ["ckpt_final.bin"]:
        errors.append(f"checkpoints {summary['checkpoints']} != {ckpts + ['ckpt_final.bin']}")
    return errors


def check_probe_tasks(run: dict) -> list[str]:
    """Each probe task adapts (adaptation_speed > 0) and its final_loss is the
    mean of its last k train losses, k = min(50, max(1, min(n, 500) // 2))."""
    cfg = run["config"]
    if cfg["scenario"]["family"] != "probe":
        return []
    seg, total = cfg["scenario"]["segment_length"], cfg["total_steps"]
    n_tasks = _segments_started(cfg)
    losses = {r["step"]: r["value"] for r in run["rows"] if r["scope"] == "train" and r["metric"] == "loss"}
    task_rows = {(r["scope"], r["metric"]): r for r in run["rows"] if r["scope"].startswith("task")}
    errors = []
    if sorted(losses) != list(range(total)):
        errors.append(f"train loss rows cover {len(losses)} steps, run has {total}")
        return errors
    if len(task_rows) != 2 * n_tasks:
        errors.append(f"{len(task_rows)} task rows, expected 2 for each of {n_tasks} tasks")
    for t in range(n_tasks):
        start = t * seg
        end = total if t == n_tasks - 1 else start + seg
        task = [losses[s] for s in range(start, end)]
        k = min(50, max(1, len(task[:500]) // 2))
        speed = task_rows.get((f"task{t}", "adaptation_speed"))
        final = task_rows.get((f"task{t}", "final_loss"))
        if speed is None or final is None:
            errors.append(f"task{t} rows missing")
            continue
        if speed["step"] != start or final["step"] != start:
            errors.append(f"task{t} rows logged at step {speed['step']}, task starts at {start}")
        if not speed["value"] > 0.0:
            errors.append(f"task{t} adaptation_speed {speed['value']!r} is not positive")
        if not _close(final["value"], float(np.mean(task[-k:]))):
            errors.append(f"task{t} final_loss {final['value']!r} != mean of last {k} train losses")
    return errors


CHECKS = {
    "final_metrics": check_final_metrics,
    "episodes": check_episodes,
    "counts": check_counts,
    "probe_tasks": check_probe_tasks,
}


def check_run(run_dir: str) -> dict[str, list[str]]:
    """Run every output check on one finished run directory."""
    run = read_run(run_dir)
    return {name: check(run) for name, check in CHECKS.items()}
