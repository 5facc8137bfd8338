"""Tests of the benchmark's own checks and trace, at tiny run lengths.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each check must pass on a clean run and fail on one planted error.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from checks import check_run, file_digests  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402

TINY_STEPS = {"ppo_grid_shift": 1_100, "c51_grid_replay": 700, "probe_snp_switch": 400}
SEED = 3


def _train(base, name: str, trace: bool = False) -> tuple[str, dict]:
    config = bench.write_config(str(base / f"{name}.yaml"), workload_config(name, SEED, TINY_STEPS[name]))
    run_dir = str(base / (name + ("-traced" if trace else "")))
    result = bench.train(config, run_dir, bench.child_env(), trace=trace)
    assert result is not None and result["status"] == "ok"
    return run_dir, result


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("runs")
    return {name: _train(base, name)[0] for name in WORKLOADS}


@pytest.fixture
def copy_of(runs, tmp_path):
    def make(name: str) -> str:
        return shutil.copytree(runs[name], str(tmp_path / name))

    return make


def _failing(run_dir: str) -> set[str]:
    return {name for name, msgs in check_run(run_dir).items() if msgs}


def _edit_rows(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in edit(rows))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_run_passes_every_check(runs, name):
    assert check_run(runs[name]) == {"final_metrics": [], "episodes": [], "counts": [], "probe_tasks": []}


def test_wrong_episode_return_fails(copy_of):
    run_dir = copy_of("ppo_grid_shift")
    path = os.path.join(run_dir, "episodes.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    step, episode, ret, length = lines[1].strip().split(",")
    lines[1] = f"{step},{episode},{float(ret) + 0.01!r},{length}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    assert "episodes" in _failing(run_dir)


def test_dropped_event_row_fails(copy_of):
    run_dir = copy_of("ppo_grid_shift")
    dropped = []

    def drop_first_event(rows):
        for r in rows:
            if r["scope"] == "event" and not dropped:
                dropped.append(r)
                continue
            yield r

    _edit_rows(os.path.join(run_dir, "metrics.jsonl"), drop_first_event)
    assert dropped and _failing(run_dir) == {"counts"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_perturbed_final_metric_fails(copy_of, name):
    run_dir = copy_of(name)
    total = TINY_STEPS[name]

    def perturb(rows):
        for r in rows:
            if r["step"] == total and r["scope"] == "layer0" and r["metric"] == "weight_diff":
                r = dict(r, value=r["value"] * (1 + 1e-7))
            yield r

    _edit_rows(os.path.join(run_dir, "metrics.jsonl"), perturb)
    assert _failing(run_dir) == {"final_metrics"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_changed_checkpoint_weight_fails(copy_of, name):
    run_dir = copy_of(name)
    path = os.path.join(run_dir, "ckpt_final.bin")
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    (head_len,) = struct.unpack_from("<Q", blob, 0)
    offset = 8 + head_len + 8 * 5  # the sixth weight of layer0.w
    (w,) = struct.unpack_from("<d", blob, offset)
    struct.pack_into("<d", blob, offset, w + 1e-3)
    with open(path, "wb") as fh:
        fh.write(blob)
    assert _failing(run_dir) == {"final_metrics"}


def test_wrong_gradient_step_count_fails(copy_of):
    run_dir = copy_of("c51_grid_replay")
    path = os.path.join(run_dir, "summary.json")
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    summary["gradient_steps"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    assert _failing(run_dir) == {"counts"}


def test_probe_final_loss_must_match_train_losses(copy_of):
    run_dir = copy_of("probe_snp_switch")

    def perturb(rows):
        for r in rows:
            if r["scope"] == "train" and r["step"] == 149:
                r = dict(r, value=r["value"] * 1.01)
            yield r

    _edit_rows(os.path.join(run_dir, "metrics.jsonl"), perturb)
    assert _failing(run_dir) == {"probe_tasks"}


def test_probe_task_must_adapt(copy_of):
    run_dir = copy_of("probe_snp_switch")

    def flip(rows):
        for r in rows:
            if r["scope"] == "task1" and r["metric"] == "adaptation_speed":
                r = dict(r, value=-r["value"])
            yield r

    _edit_rows(os.path.join(run_dir, "metrics.jsonl"), flip)
    assert _failing(run_dir) == {"probe_tasks"}


def test_changed_log_fails_determinism(runs, copy_of):
    run_dir = copy_of("probe_snp_switch")
    reference = file_digests(runs["probe_snp_switch"])
    assert bench.run_checks(run_dir, reference)[0]["determinism"] == []
    with open(os.path.join(run_dir, "episodes.csv"), "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert bench.run_checks(run_dir, reference)[0]["determinism"] != []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_keeps_log_bytes_and_partitions_wall_time(runs, tmp_path, name):
    run_dir, result = _train(tmp_path, name, trace=True)
    assert file_digests(run_dir) == file_digests(runs[name])
    layers = {k: v[0] for k, v in result["layers"].items()}
    total = sum(layers[k] for k in bench.LAYER_SELF_TIMES)
    assert total == pytest.approx(layers["trace.wall_s"], abs=1e-6)
    assert layers["learners.grad_steps"] == layers["mitigations.opt_step_calls"] > 0
    assert os.path.isfile(os.path.join(run_dir, "spans.csv"))


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "probe_snp_switch", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
