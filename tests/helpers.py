"""Shared fixtures: the 2-state chain MDP, learner configs and small network builders."""

import dataclasses

import numpy as np

from plastlab.learners import C51Config, C51Learner, network_specs
from plastlab.mitigations import make_optimizer
from plastlab.net import NetworkState, init_network
from plastlab.numkit import RngStream
from plastlab.runner import resolve_config


def experiment(learner, family: str = "gridworld"):
    """A resolved config on `family` whose learner block is `learner` (a
    C51Config or PPOConfig, kept by reference), as the learner classes take it."""
    algo = "c51" if isinstance(learner, C51Config) else "ppo"
    scenario = "task_chain" if family == "pointmass" else "standard"
    return dataclasses.replace(resolve_config({"algo": algo, "scenario": scenario}), learner=learner)

# Deterministic 2-state chain: s0 -(a1, r .5)-> s1 -(a0, r 1, terminal)->.
# Bad actions: a0 in s0 loops (r 0), a1 in s1 terminates with r 0.
CHAIN_GAMMA = 0.9
CHAIN_TRANSITIONS = (
    (0, 0, 0.0, 0, False),
    (0, 1, 0.5, 1, False),
    (1, 0, 1.0, 0, True),
    (1, 1, 0.0, 0, True),
)


def chain_optimal_q() -> np.ndarray:
    q_s1 = np.array([1.0, 0.0])
    v_s1 = q_s1.max()
    q_s0_a1 = 0.5 + CHAIN_GAMMA * v_s1
    q_s0_a0 = 0.0 + CHAIN_GAMMA * q_s0_a1
    return np.array([[q_s0_a0, q_s0_a1], q_s1.tolist()])


def chain_obs(state: int) -> np.ndarray:
    return np.eye(2)[state]


def make_chain_learner(seed: int, n_updates: int, lr: float = 1e-3) -> C51Learner:
    """Train C51 on uniformly covered chain transitions; return the learner."""
    init_stream = RngStream(seed, 1)
    cfg = C51Config(
        lr=lr,
        gamma=CHAIN_GAMMA,
        buffer_size=4096,
        batch_size=32,
        learning_starts=64,
        train_frequency=1,
        target_network_frequency=250,
    )
    net = build_network(2, 2 * cfg.n_atoms, [32, 32], "relu", False, init_stream)
    learner = C51Learner(experiment(cfg), net, make_optimizer("adam", net))
    for _ in range(256):
        for s, a, r, s2, done in CHAIN_TRANSITIONS:
            learner.remember(chain_obs(s), a, r, chain_obs(s2), done)
    update_stream = RngStream(seed, 2)
    for step in range(1, n_updates + 1):
        learner.update(step, update_stream)
    return learner


def chain_q_estimates(learner: C51Learner) -> np.ndarray:
    return learner.q_values(np.eye(2))


def build_network(obs_dim, out_dim, hidden, activation, layer_norm, stream, head_gain=0.01):
    """The runner's network for these widths, drawn from `stream`."""
    return init_network(network_specs(obs_dim, out_dim, hidden, activation, layer_norm, head_gain), stream)


def single_draw_reference(spec, stream):
    """Oracle: one layer's init drawn the way the first numkit did it, one
    normal call and one QR per orthogonal weight."""
    gain = float(spec.init[len("orthogonal(") : -1])
    big, small = max(spec.out_dim, spec.in_dim), min(spec.out_dim, spec.in_dim)
    q, r = np.linalg.qr(stream.normal(0.0, 1.0, big * small).reshape(big, small))
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    w = q if spec.out_dim >= spec.in_dim else q.T
    return np.ascontiguousarray(gain * w), np.zeros(spec.out_dim)


def constant_network(specs, value=0.0):
    """A network whose every weight and bias, and their init snapshot, is
    `value`; LayerNorm gains and offsets keep their init 1 and 0."""
    drawn = init_network(specs, RngStream(0))
    net = NetworkState(drawn.layers, {}, {}, ())
    net.add({
        name: np.full_like(arr, value) if name.endswith((".w", ".b")) else arr
        for name, arr in drawn.params.items()
    })
    return net
