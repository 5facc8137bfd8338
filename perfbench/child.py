"""One training run in a fresh process, timed from outside the package.

    python3 perfbench/child.py CONFIG OUT_DIR [--trace]

Loads CONFIG with plastlab's own loader, times the `run_experiment` call and
prints one JSON line: wall time, steps, status, the process's peak resident
set, and the times of a fixed calibration loop run just before and just
after the call. With --trace the layer wrappers of layertrace.py are installed
first, the spans are written to OUT_DIR/spans.csv, and the line also holds
the per-layer metrics. plastlab is imported from the PYTHONPATH the caller
sets (the checkout's `src`).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layertrace import Tracer, install, layer_metrics  # noqa: E402

CALIBRATION_ITERS = 4_000


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work a plastlab step is made of:
    small matmuls, element-wise math on a few thousand values, a QR
    factorisation, and interpreter work. It runs no plastlab code, so a
    change to the program cannot move it; only the host's speed can."""
    w = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    x = np.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)
    u = np.linspace(0.01, 1.0, 2048)
    acc = 0.0
    t0 = perf_counter()
    for i in range(CALIBRATION_ITERS):
        h = np.maximum(x @ w, 0.0)
        acc += float(h.mean()) + len(json.dumps({"step": i, "value": acc})) * 1e-9
        if i % 8 == 0:
            acc += float(np.sum(np.sqrt(-2.0 * np.log(u)) * np.cos(6.28 * u)))
            acc += float(np.linalg.qr(w + i * 1e-6)[1][0, 0])
    return perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from plastlab.errors import DivergenceError
    from plastlab.runner import load_config, run_experiment

    cfg = load_config(args.config)
    tracer = None
    run = run_experiment
    if args.trace:
        tracer = Tracer()
        install(tracer)
        run = tracer.wrap("runner", "run", run_experiment)

    status, completed = "ok", cfg.total_steps
    before = calibrate()
    t0 = perf_counter()
    try:
        run(cfg, args.out_dir)
    except DivergenceError as exc:
        status, completed = "diverged", max(0, exc.step or 0)
    wall_s = perf_counter() - t0
    after = calibrate()

    result = {
        "status": status,
        "steps": cfg.total_steps,
        "completed": completed,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration_s": [before, after],
    }
    if tracer is not None:
        with open(os.path.join(args.out_dir, "summary.json"), encoding="utf-8") as fh:
            gradient_steps = json.load(fh)["gradient_steps"]
        layers = layer_metrics(tracer, args.out_dir, gradient_steps)
        result["layers"] = {name: list(pair) for name, pair in layers.items()}
        tracer.write(os.path.join(args.out_dir, "spans.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
