"""plastlab benchmark: one workload, timed in fresh processes, outputs checked.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Each round of a run makes the same
operations, in order:

1. set-up: a fresh `python -m plastlab run` on the workload's config cut to
   one training step, timed from start to exit;
2. training: a fresh process (child.py) runs the whole workload and times
   its `run_experiment` call;
3. checks: checks.py verifies the round's outputs against quantities it
   computes itself, and the round's log digests must equal the first
   round's.

A round starts only while it should end within S seconds of the first
(MIN_ROUNDS always run), so a run takes about S seconds. With
--trace 1 one more, traced, round follows. The last line of stdout is one
JSON object: the medians over rounds of the end-to-end metrics (--trace 0),
or the traced round's per-layer metrics (--trace 1). Times in the
end-to-end metrics are scaled to the reference host speed (HOST_REF_S);
the line before gives them unscaled.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread here as well: on a small host a second thread makes the
# checks' 256-row SVDs two hundred times slower
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import yaml  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import check_run, file_digests  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402

OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
# the typical time of child.calibrate() on the host the reference figures
# come from (2-core Xeon, 2.1 GHz); a round's host slowdown is its
# calibration time over this
HOST_REF_S = 0.2
LAYER_SELF_TIMES = (
    "numkit.self_s", "envs.self_s", "net.self_s", "learners.self_s",
    "mitigations.self_s", "metrics.collect_s", "runner.self_s",
)


def child_env() -> dict[str, str]:
    """The checkout's sources on the path; BLAS pinned to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def write_config(path: str, cfg: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
    return path


def time_setup(config_path: str, out_dir: str, env: dict) -> tuple[float, bool]:
    cmd = [sys.executable, "-m", "plastlab", "run", config_path, "--out", out_dir]
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc.returncode == 0


def train(config_path: str, out_dir: str, env: dict, trace: bool = False) -> dict | None:
    """One training process; its JSON result, or None when it failed."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), config_path, out_dir]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_checks(run_dir: str, reference: dict | None) -> tuple[dict[str, list[str]], dict]:
    """Output checks plus the digest comparison: (check -> failures, digests)."""
    results = check_run(run_dir)
    digests = file_digests(run_dir)
    results["determinism"] = [] if reference in (None, digests) else [
        f"{name} digest differs from the first round" for name in digests if digests[name] != reference[name]
    ]
    return results, digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="experiment seed, >= 0")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "plastlab", "__init__.py")):
        print(f"error: no plastlab sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2

    out = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cfg = workload_config(args.workload, args.seed)
    total_steps = cfg["total_steps"]
    config_path = write_config(os.path.join(out, "workload.yaml"), cfg)
    setup_path = write_config(os.path.join(out, "setup.yaml"), workload_config(args.workload, args.seed, 1))
    env = child_env()

    rounds: list[tuple[float, dict | None]] = []  # (set-up wall s, training result)
    attempted = failed = 0
    checks: list[tuple[str, str, list[str]]] = []
    reference = None
    start = last = perf_counter()
    round_s: list[float] = []
    # start a round only when it should end within --seconds, so a run
    # takes --seconds however long its rounds are
    while len(rounds) < MIN_ROUNDS or last - start + statistics.median(round_s) <= args.seconds:
        i = len(rounds)
        setup_wall, ok = time_setup(setup_path, os.path.join(out, f"setup{i}"), env)
        attempted += 1 + total_steps
        failed += 0 if ok else 1
        run_dir = os.path.join(out, f"round{i}")
        result = train(config_path, run_dir, env)
        if result is None:
            failed += total_steps
        else:
            failed += result["steps"] - result["completed"]
            results, digests = run_checks(run_dir, reference)
            reference = reference or digests
            checks += [(f"round {i}", name, msgs) for name, msgs in results.items()]
        rounds.append((setup_wall, result))
        now = perf_counter()
        round_s.append(now - last)
        last = now

    # the host's speed drifts by a third over minutes on a shared 2-core
    # machine; each round's times are scaled by the slowdown its training
    # process measured just before and after run_experiment
    trained = [(w, r, statistics.mean(r["calibration_s"]) / HOST_REF_S) for w, r in rounds if r is not None]
    walls = [r["wall_s"] for _, r, _ in trained]
    slowdown = [s for _, _, s in trained]

    def median(values):
        return statistics.median(values) if values else float("nan")

    if args.trace:
        run_dir = os.path.join(out, "traced")
        result = train(config_path, run_dir, env, trace=True)
        attempted += total_steps
        if result is None:
            failed += total_steps
            layers = {}
        else:
            failed += result["steps"] - result["completed"]
            results, _ = run_checks(run_dir, reference)
            layers = result["layers"]
            total_self = sum(layers[name][0] for name in LAYER_SELF_TIMES)
            traced_wall = layers["trace.wall_s"][0]
            results["self_time_sum"] = [] if abs(total_self - traced_wall) <= 1e-6 else [
                f"layer self times sum to {total_self} s, traced wall is {traced_wall} s"
            ]
            checks += [("traced round", name, msgs) for name, msgs in results.items()]
            # both sides at the reference host speed, so drift between the
            # untraced rounds and the traced one does not read as overhead
            traced_slowdown = statistics.mean(result["calibration_s"]) / HOST_REF_S
            untraced = median([r["wall_s"] / s for _, r, s in trained])
            layers["trace.overhead_s"] = [traced_wall / traced_slowdown - untraced, "s"]
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {
            "steps_per_s": {"value": median([r["completed"] / r["wall_s"] * s for _, r, s in trained]), "unit": "steps/s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for _, r, _ in trained]), "unit": "MB"},
            "setup_s": {"value": median([w / s for w, _, s in trained]), "unit": "s"},
        }

    failures = [(where, name) for where, name, msgs in checks if msgs]
    for where, name, msgs in checks:
        for msg in msgs:
            print(f"CHECK FAILED {where} {name}: {msg}")
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {total_steps} steps; "
        f"unscaled medians: {median([total_steps / w for w in walls]):.1f} steps/s, "
        f"set-up {median([w for w, _ in rounds]):.4f} s; host slowdown median {median(slowdown):.3f}; "
        f"training wall s {[round(w, 3) for w in walls]}, set-up s {[round(w, 3) for w, _ in rounds]}, "
        f"slowdown {[round(s, 3) for s in slowdown]}; "
        f"steps attempted {attempted}, failed {failed}; checks made {len(checks)}, failed {len(failures)}"
    )
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
