"""Supervised plasticity probe: a frozen random teacher behind a permutation.

All probe tasks share one fixed teacher network; the only thing a task
changes is the input permutation drawn from perm_seed. perm_seed 0 means the
identity permutation (the base task).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..net import LayerSpec, _layer_forward, init_network
from ..numkit import DrawAhead, RngStream, box_muller

PROBE_DIM = 16
PROBE_OUT = 4
_TEACHER_SEED = 0x7EAC4E12
_PERM_STREAM = 103
_TEACHER_HIDDEN = 32

_teacher = None


def teacher_network():
    """The shared frozen teacher; built once, deterministically."""
    global _teacher
    if _teacher is None:
        layers = [
            LayerSpec(PROBE_DIM, _TEACHER_HIDDEN, activation="tanh"),
            LayerSpec(_TEACHER_HIDDEN, PROBE_OUT, activation="linear"),
        ]
        _teacher = init_network(layers, RngStream(_TEACHER_SEED, 0))
    return _teacher


def probe_permutation(perm_seed: int) -> np.ndarray:
    if perm_seed == 0:
        return np.arange(PROBE_DIM)
    return RngStream(perm_seed, _PERM_STREAM).permutation(PROBE_DIM)


def batch_work_bytes(n: int) -> int:
    """Bytes one batch of n rows takes at the peak of a `_task_batches` call:
    its inputs, their permuted copy, and the teacher's hidden layer before
    and after its activation, all float64."""
    return 8 * n * (2 * PROBE_DIM + 2 * _TEACHER_HIDDEN)


def _task_batches(perm_seed: int, n: int, stream: RngStream, k: int) -> list:
    """k successive batches of one task as one (k, n, PROBE_DIM) input and one
    (k, n, PROBE_OUT) target array. Input row j is the box_muller row of one
    uniform call, so it equals the j-th of k normal(n * PROBE_DIM) draws; the
    stacked teacher pass runs one gemm per batch, as a per-batch forward does.
    """
    # the uniforms are freed once box_muller has read them
    x = box_muller(stream.uniform(0.0, 1.0, k * n * PROBE_DIM).reshape(k, n * PROBE_DIM))
    x = x.reshape(k, n, PROBE_DIM)
    teacher = teacher_network()
    y = x[:, :, probe_permutation(perm_seed)]
    for i, spec in enumerate(teacher.layers):
        w, b = teacher.params[f"layer{i}.w"], teacher.params[f"layer{i}.b"]
        y = _layer_forward(spec, y, w, b, None, None)[2]
    return [(x, y)]


def probe_task(
    perm_seed: int, n: int, stream: RngStream, ahead: DrawAhead | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a batch of (inputs, teacher targets) for one permutation task.
    With `ahead`, it comes from there, with the same values and stream moves."""
    draw = partial(_task_batches, perm_seed, n)
    ((x, y),) = (ahead or DrawAhead(1)).take((perm_seed, n), stream, draw)
    return x, y
