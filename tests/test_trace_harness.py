"""Smoke test of the benchmark's layer trace (perfbench/layertrace.py).

The trace patches plastlab's functions and classes by name, so a rename in the
package breaks it without failing any other test. Each case runs
`perfbench/child.py CONFIG OUT --trace` in a child process (`install` patches
for good, so never in this one) on a short run that takes gradient steps, and
checks that the traced counts agree with the run's own summary.
"""

import json
import os
import subprocess
import sys

import pytest
import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
STEPS = 40
_LOGGING = {"metric_interval": 20, "probe_batch": 16}

CONFIGS = {
    "ppo": {
        "algo": "ppo", "seed": 1, "total_steps": STEPS,
        "scenario": {"mode": "standard", "horizon": 15},
        "network": {"hidden": [16]},
        "learner": {"rollout_len": 20, "n_minibatches": 2, "update_epochs": 1},
        "logging": _LOGGING,
    },
    "c51": {
        "algo": "c51", "seed": 1, "total_steps": STEPS,
        "scenario": {"mode": "standard", "horizon": 15},
        "network": {"hidden": [16]},
        "learner": {"buffer_size": STEPS, "batch_size": 8, "learning_starts": 8, "train_frequency": 2,
                    "target_network_frequency": 10, "n_atoms": 11},
        "logging": _LOGGING,
    },
    "regression": {
        "algo": "regression", "seed": 1, "total_steps": STEPS,
        "scenario": {"mode": "level_shift", "segment_length": 20, "n_segments": 2},
        "network": {"hidden": [16]},
        "learner": {"batch_size": 16},
        "mitigations": [{"method": "shrink_perturb", "trigger": "per_gradient_step"}],
        "logging": _LOGGING,
    },
}


@pytest.mark.parametrize("algo", sorted(CONFIGS))
def test_traced_counts_agree_with_the_run(algo, tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text(yaml.safe_dump(CONFIGS[algo]))
    out = tmp_path / "run"
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, CHILD, str(config), str(out), "--trace"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["status"] == "ok"
    layers = {name: value for name, (value, _) in result["layers"].items()}
    assert layers["envs.step_calls"] == STEPS
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gradient_steps"] > 0
    assert layers["learners.grad_steps"] == layers["mitigations.opt_step_calls"] == summary["gradient_steps"]
    # soft shrink-and-perturb makes its next block of inits on a helper thread,
    # which must record no span of its own beside the run's
    events = sum(n for key, n in summary["trigger_fires"].items() if ":shrink_perturb:" in key)
    assert layers["mitigations.event_calls"] == events
