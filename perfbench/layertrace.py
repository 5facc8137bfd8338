"""Layer tracing from outside the package.

`install` rebinds the names that the runner and the learners call (module
globals and class attributes) to wrappers that record one span per call:
(layer, kind, start, end, parent span). Spans stay in memory and are written
out once the run has ended. Nothing under `src/` knows about the trace, so a
traced run writes the same log bytes as an untraced one.

A call whose layer and kind match the innermost open span records no span of
its own: `RngStream.permutation` -> `randint` -> `uniform` is one numkit
span, and `C51Learner.remember` -> `ReplayBuffer.add` is one replay span.
Self time is a span's duration minus the durations of its direct children,
so the self times of all spans add up to the root span exactly.
"""

from __future__ import annotations

import os
from time import perf_counter_ns

import numpy as np


class Tracer:
    """In-memory span recorder. Keys are (layer, kind) pairs."""

    def __init__(self):
        self.keys: list[tuple[str, str]] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self.stack: list[int] = []
        self.buffers: list = []

    def wrap(self, layer: str, kind: str, fn, size_of=None):
        key = (layer, kind)
        keys, starts, ends, parents, sizes, stack = (
            self.keys, self.starts, self.ends, self.parents, self.sizes, self.stack,
        )

        def traced(*args, **kwargs):
            if stack and keys[stack[-1]] == key:
                return fn(*args, **kwargs)
            idx = len(keys)
            keys.append(key)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            sizes.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if size_of is not None:
                sizes[idx] = size_of(out)
            return out

        return traced

    def summary(self) -> dict:
        """Per-key call count, self time, inclusive durations and size sum."""
        starts = np.asarray(self.starts, dtype=np.int64)
        durations = np.asarray(self.ends, dtype=np.int64) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child_sum = np.zeros(len(durations), dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child_sum, parents[has_parent], durations[has_parent])
        self_ns = durations - child_sum
        sizes = np.asarray(self.sizes, dtype=np.int64)
        codes = {}
        key_idx = np.asarray([codes.setdefault(k, len(codes)) for k in self.keys], dtype=np.int64)
        out = {}
        for key, code in codes.items():
            mask = key_idx == code
            out[key] = {
                "calls": int(mask.sum()),
                "self_ns": int(self_ns[mask].sum()),
                "durations_ns": durations[mask],
                "size": int(sizes[mask].sum()),
            }
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,layer,kind,start_ns,end_ns,parent\n")
            for i, (layer, kind) in enumerate(self.keys):
                fh.write(f"{i},{layer},{kind},{self.starts[i]},{self.ends[i]},{self.parents[i]}\n")


def _rows(trace) -> int:
    return int(trace.batch.shape[0])


def install(tracer: Tracer) -> None:
    """Wrap every traced name in the already-imported plastlab package."""
    import plastlab.runner.loop as loop
    from plastlab.learners import c51, ppo, regression
    from plastlab.learners.common import ReplayBuffer
    from plastlab.numkit import RngStream

    def patch(owner, name, layer, kind, size_of=None):
        setattr(owner, name, tracer.wrap(layer, kind, getattr(owner, name), size_of))

    for name in ("uniform", "normal", "randint", "permutation"):
        patch(RngStream, name, "numkit", "draw", np.size)

    patch(loop, "env_step", "envs", "step")
    patch(loop, "probe_task", "envs", "step")
    patch(loop, "_build_env", "envs", "build")
    patch(loop, "collect_metrics", "metrics", "collect")
    patch(loop, "apply_event_method", "mitigations", "event")
    patch(loop, "serialize_network", "runner", "ckpt", len)
    patch(loop._Writers, "metric_row", "runner", "log")
    patch(loop._Writers, "episode_row", "runner", "log")
    # the PPO rollout bootstrap value is one more batch-of-one forward
    patch(loop, "network_output", "net", "forward", lambda out: int(out.shape[0]))

    patch(ppo.PPOLearner, "act", "learners", "act")
    patch(ppo.PPOLearner, "update", "learners", "update")
    patch(c51.C51Learner, "act", "learners", "act")
    patch(c51.C51Learner, "update", "learners", "update")
    patch(c51.C51Learner, "remember", "learners", "replay")
    patch(regression.RegressionLearner, "step", "learners", "update")
    patch(ReplayBuffer, "add", "learners", "replay")
    patch(ReplayBuffer, "sample", "learners", "replay")

    for module in (ppo, c51, regression):
        patch(module, "forward", "net", "forward", _rows)
        patch(module, "backward", "net", "backward")
        patch(module, "optimizer_step", "mitigations", "opt_step")
        patch(module, "reg_loss", "mitigations", "reg")
    patch(c51, "clone_network", "net", "clone")

    init = ReplayBuffer.__init__

    def recording_init(buf, *args, **kwargs):
        init(buf, *args, **kwargs)
        tracer.buffers.append(buf)

    ReplayBuffer.__init__ = recording_init


def _p(durations_ns: np.ndarray, q: float) -> float:
    if durations_ns.size == 0:
        return 0.0
    return float(np.percentile(durations_ns, q)) / 1e3


def layer_metrics(tracer: Tracer, out_dir: str, gradient_steps: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    agg = tracer.summary()
    empty = {"calls": 0, "self_ns": 0, "durations_ns": np.zeros(0, dtype=np.int64), "size": 0}

    def get(layer, kind):
        return agg.get((layer, kind), empty)

    def self_s(layer, *kinds):
        return sum(s["self_ns"] for (lay, kind), s in agg.items()
                   if lay == layer and (not kinds or kind in kinds)) / 1e9

    draw, fwd, bwd = get("numkit", "draw"), get("net", "forward"), get("net", "backward")
    act, opt = get("learners", "act"), get("mitigations", "opt_step")
    event, collect = get("mitigations", "event"), get("metrics", "collect")
    log, ckpt = get("runner", "log"), get("runner", "ckpt")
    replay_bytes = sum(
        buf.size * sum(arr[0].nbytes for arr in (buf.obs, buf.next_obs, buf.actions, buf.rewards, buf.dones))
        for buf in tracer.buffers
    )
    log_bytes = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in ("metrics.jsonl", "episodes.csv")
    )
    root = get("runner", "run")
    return {
        "numkit.draw_calls": (draw["calls"], "count"),
        "numkit.values_drawn": (draw["size"], "count"),
        "numkit.self_s": (self_s("numkit"), "s"),
        "envs.step_calls": (get("envs", "step")["calls"], "count"),
        "envs.self_s": (self_s("envs"), "s"),
        "net.forward_calls": (fwd["calls"], "count"),
        "net.forward_rows": (fwd["size"], "count"),
        "net.forward_s": (self_s("net", "forward"), "s"),
        "net.forward_us_p50": (_p(fwd["durations_ns"], 50), "us"),
        "net.forward_us_p99": (_p(fwd["durations_ns"], 99), "us"),
        "net.backward_calls": (bwd["calls"], "count"),
        "net.backward_s": (self_s("net", "backward"), "s"),
        "net.self_s": (self_s("net"), "s"),
        "learners.act_calls": (act["calls"], "count"),
        "learners.act_s": (self_s("learners", "act"), "s"),
        "learners.act_us_p50": (_p(act["durations_ns"], 50), "us"),
        "learners.act_us_p99": (_p(act["durations_ns"], 99), "us"),
        "learners.update_s": (self_s("learners", "update"), "s"),
        "learners.grad_steps": (gradient_steps, "count"),
        "learners.replay_s": (self_s("learners", "replay"), "s"),
        "learners.replay_mb": (replay_bytes / 2**20, "MB"),
        "learners.self_s": (self_s("learners"), "s"),
        "mitigations.opt_step_calls": (opt["calls"], "count"),
        "mitigations.opt_step_s": (self_s("mitigations", "opt_step"), "s"),
        "mitigations.opt_step_us_p50": (_p(opt["durations_ns"], 50), "us"),
        "mitigations.opt_step_us_p99": (_p(opt["durations_ns"], 99), "us"),
        "mitigations.reg_s": (self_s("mitigations", "reg"), "s"),
        "mitigations.event_calls": (event["calls"], "count"),
        "mitigations.event_s": (self_s("mitigations", "event"), "s"),
        "mitigations.self_s": (self_s("mitigations"), "s"),
        "metrics.collect_calls": (collect["calls"], "count"),
        "metrics.collect_s": (self_s("metrics"), "s"),
        "runner.self_s": (self_s("runner"), "s"),
        "runner.log_rows": (log["calls"], "count"),
        "runner.log_bytes": (log_bytes, "B"),
        "runner.log_s": (self_s("runner", "log"), "s"),
        "runner.ckpt_writes": (ckpt["calls"], "count"),
        "runner.ckpt_bytes": (ckpt["size"], "B"),
        "runner.ckpt_s": (self_s("runner", "ckpt"), "s"),
        "trace.wall_s": (int(root["durations_ns"].sum()) / 1e9, "s"),
        "trace.spans": (len(tracer.keys), "count"),
    }
