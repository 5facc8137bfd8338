"""Command-line entry points: run, sweep, list-methods, replay-metrics.

Exit codes: 0 success, 2 validation error (bad config or arguments),
3 numeric divergence during training.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from functools import partial

from ..errors import (
    CheckpointError,
    ConfigError,
    DivergenceError,
    InvalidInputError,
    MitigationError,
    SpecError,
)
from ..mitigations import REGISTRY
from .config import LoggingConfig, load_config
from .loop import plan_run, replay_metrics, run_experiment, usable_cpus

_VALIDATION_ERRORS = (ConfigError, MitigationError, SpecError, InvalidInputError, CheckpointError)
# seconds a sweep waits between looks for a child that has ended
REAP_POLL_S = 0.05


def _parse_seed_range(text: str) -> range | list[int]:
    """Accepts 'a..b' (inclusive, as a range, so no list is built) or a
    comma-separated list of distinct seeds: two runs of one seed would write
    the same seed<N>/ directory at once. Every seed is >= 0, and there is one
    at least."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            start, end = int(lo), int(hi)
        except ValueError:
            raise ConfigError(f"malformed seed range {text!r}, expected a..b") from None
        if end < start:
            raise ConfigError(f"empty seed range {text!r}")
        if start < 0:
            raise ConfigError(f"seeds must be >= 0, got {start} in {text!r}")
        return range(start, end + 1)
    try:
        seeds = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"malformed seed list {text!r}") from None
    repeated = sorted(seed for seed, n in Counter(seeds).items() if n > 1)
    if repeated:
        raise ConfigError(f"seed list {text!r} repeats seed(s) {repeated}")
    if not seeds:
        raise ConfigError(f"seed list {text!r} names no seed")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {min(seeds)} in {text!r}")
    return seeds


def _registry_document() -> list[dict]:
    # the registry lists each category's methods together
    return [
        {
            "name": name,
            "category": spec.category,
            "kind": spec.kind,
            "params": dict(spec.params),
            "default_trigger": str(spec.default_trigger),
            "reference": spec.reference,
            "summary": spec.summary,
        }
        for name, spec in REGISTRY.items()
    ]


def _cmd_run(args) -> int:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    cfg = load_config(args.config, overrides)
    artifacts = run_experiment(cfg)
    print(f"run complete: {artifacts.summary_path}")
    return 0


def _cmd_sweep(args) -> int:
    """One `plastlab run` child per seed, at most one per CPU the sweep may
    use (`usable_cpus()`) alive at once. Whichever child ends first is
    reaped, and the next child takes the CPU it freed: where the platform
    can pin a process, each child runs on one of the sweep's CPUs, so
    children alive together share no CPU. A child then sees one CPU: it
    starts no draw-ahead helper and, where no BLAS thread count is set, one
    BLAS thread."""
    seeds = _parse_seed_range(args.seeds)
    cfg = load_config(args.config)  # fail fast on what `run` refuses, before spawning
    plan_run(cfg)
    base = args.out or cfg.logging.out_dir
    try:
        os.makedirs(base, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the sweep directory {base!r}: {exc}") from None
    # a child's CPU, or None where children are not pinned
    free = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None] * usable_cpus()
    live: list[tuple[int, int | None, subprocess.Popen]] = []
    code = 0

    def reap() -> int:
        while True:
            for seed, cpu, proc in live:
                rc = proc.poll()
                if rc is not None:
                    live.remove((seed, cpu, proc))
                    free.append(cpu)
                    if rc != 0:
                        print(f"seed {seed} exited with code {rc}", file=sys.stderr)
                    return rc
            time.sleep(REAP_POLL_S)

    for seed in seeds:
        if not free:
            code = max(code, reap())
        cpu = free.pop(0)
        out = os.path.join(base, f"seed{seed}")
        cmd = [
            sys.executable, "-m", "plastlab", "run", args.config,
            "--seed", str(seed), "--out", out,
        ]
        pin = {} if cpu is None else {"preexec_fn": partial(os.sched_setaffinity, 0, {cpu})}
        live.append((seed, cpu, subprocess.Popen(cmd, **pin)))
    while live:
        code = max(code, reap())
    return code


def _cmd_list_methods(args) -> int:
    doc = _registry_document()
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    current = None
    for row in doc:
        if row["category"] != current:
            current = row["category"]
            print(f"\n[{current}]")
        params = ", ".join(f"{k}={v}" for k, v in row["params"].items()) or "-"
        print(f"  {row['name']:<22} params: {params:<28} trigger: {row['default_trigger']}")
        print(f"  {'':<22} {row['summary']} [{row['reference']}]")
    print(f"\n{len(doc)} methods in {len(set(r['category'] for r in doc))} categories")
    return 0


def _replay_settings(args) -> tuple[int, int, int | None]:
    """Probe seed, probe batch and step of the checkpoint to replay. An omitted
    flag takes the `seed` or `logging.probe_batch` of the config.yaml that `run`
    writes beside every checkpoint; without it --probe-seed is required and the
    batch is the config default. The step is N for `ckpt_step<N>.bin`, the run's
    `total_steps` for `ckpt_final.bin` beside a config.yaml, else None."""
    seed, batch = args.probe_seed, args.probe_batch
    name = os.path.basename(args.checkpoint)
    numbered = re.fullmatch(r"ckpt_step(\d+)\.bin", name)
    step = int(numbered.group(1)) if numbered else None
    final = name == "ckpt_final.bin"
    config_path = os.path.join(os.path.dirname(args.checkpoint), "config.yaml")
    if seed is None or batch is None or final:
        if os.path.isfile(config_path):
            cfg = load_config(config_path)
            seed = cfg.seed if seed is None else seed
            batch = cfg.logging.probe_batch if batch is None else batch
            step = cfg.total_steps if final else step
        elif seed is None:
            raise ConfigError(
                f"no config.yaml next to {args.checkpoint!r}; pass --probe-seed "
                "(the run's seed) and --probe-batch (its logging.probe_batch)"
            )
    return seed, LoggingConfig.probe_batch if batch is None else batch, step


def _cmd_replay_metrics(args) -> int:
    seed, batch, step = _replay_settings(args)
    for report in replay_metrics(args.checkpoint, seed, batch):
        for name, value in report.rows():
            record = {"metric": name, "scope": report.scope, "step": step, "value": value}
            print(json.dumps(record, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plastlab",
        description="Continual-RL plasticity experiments: train, sweep, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="launch one process per seed")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--seeds", required=True, help="inclusive range a..b or list a,b,c")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_list = sub.add_parser("list-methods", help="print the mitigation registry")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=_cmd_list_methods)

    p_replay = sub.add_parser("replay-metrics", help="recompute metrics from a checkpoint")
    p_replay.add_argument("checkpoint")
    p_replay.add_argument("--probe-seed", type=int, default=None,
                          help="default: the run's seed, from config.yaml beside the checkpoint")
    p_replay.add_argument("--probe-batch", type=int, default=None,
                          help="default: the run's logging.probe_batch, from the same file")
    p_replay.set_defaults(func=_cmd_replay_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        step = f" at step {exc.step}" if exc.step is not None else ""
        print(f"diverged{step}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
