"""Supervised mean-squared-error learner for the permutation probe tasks."""

from __future__ import annotations

import numpy as np

from ..net import NetworkState, backward, forward
from ..mitigations import Optimizer, optimizer_step, reg_loss


class RegressionLearner:
    """Plain MSE regression over the manual-backprop network.

    One step() per batch; mitigation regularizers fold into the loss and the
    selected optimizer applies the update, mirroring the RL learners.
    """

    def __init__(self, cfg, net: NetworkState, opt: Optimizer, reg_terms: tuple = ()):
        self.net = net
        self.opt = opt
        self.lr = cfg.learner.lr
        self.reg_terms = tuple(reg_terms)
        self.post_step = lambda: None  # fired after each gradient step

    @staticmethod
    def head_width(cfg, n_actions: int) -> int:
        return n_actions  # one output per target

    @staticmethod
    def most_gradient_steps(cfg) -> int:
        return cfg.total_steps

    @staticmethod
    def footprint(cfg, obs_dim: int, head_width: int) -> tuple[int, int]:
        return cfg.learner.batch_size, 0  # a batch; the run holds the batches drawn ahead

    def step(self, x: np.ndarray, y: np.ndarray) -> float:
        trace = forward(self.net, x)
        err = trace.outputs - y
        loss = float(np.mean(err * err))
        grads = backward(self.net, trace, 2.0 * err / err.size)
        regs = [reg_loss(kind, self.net, alpha, s) for kind, alpha, s in self.reg_terms]
        loss, _ = optimizer_step(self.opt, self.net, trace, grads, self.lr, loss, regs)
        self.post_step()
        return loss
