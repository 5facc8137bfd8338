from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from plastlab.errors import InvalidInputError, NumericError
from plastlab.learners import (
    C51Config,
    C51Learner,
    CategoricalHead,
    PPOConfig,
    PPOLearner,
    ReplayBuffer,
    Rollout,
    TrajectoryBatch,
    c51_support,
    c51_update,
    categorical_projection_batch,
    epsilon_schedule,
    gae,
    gaussian_policy,
    normalize_advantages,
)
from plastlab.learners import c51 as c51_module
from plastlab.learners import common as common_module
from plastlab.learners import ppo as ppo_module
from plastlab.learners.ppo import _clipped_objective
from plastlab.learners.common import _log_softmax
from plastlab.mitigations import (
    apply_event_method,
    build_plan,
    clip_gradients,
    make_optimizer,
    optimizer_step,
    reg_loss,
)
from plastlab.net import backward as net_backward
from plastlab.net import forward
from plastlab.numkit import RngStream

import helpers
from helpers import build_network


# ---------------------------------------------------------------- oracles


def gae_double_sum(rewards, values, dones, bootstrap, gamma, lam):
    """Direct A_t = sum_l (gamma*lam)^l * delta_{t+l} * prod of continue masks."""
    n = len(rewards)
    ext_values = np.append(values, bootstrap)
    deltas = [
        rewards[t] + gamma * (1.0 - dones[t]) * ext_values[t + 1] - values[t] for t in range(n)
    ]
    adv = np.zeros(n)
    for t in range(n):
        factor = 1.0
        for l in range(n - t):
            adv[t] += factor * deltas[t + l]
            if t + l < n:
                factor *= gamma * lam * (1.0 - dones[t + l])
    return adv


def ppo_loss_transcription(batch, nlp, nv, ent, eps, vf, ec, vclip):
    """Term-by-term rewrite of the clipped objective, all explicit loops."""
    a = batch.advantages
    a = (a - a.mean()) / (a.std() + 1e-8)
    n = len(nlp)
    pol = 0.0
    for t in range(n):
        rho = np.exp(nlp[t] - batch.log_probs[t])
        clipped = min(max(rho, 1.0 - eps), 1.0 + eps)
        pol += min(rho * a[t], clipped * a[t])
    pol = -pol / n
    val = 0.0
    for t in range(n):
        unclipped = (nv[t] - batch.returns[t]) ** 2
        delta = min(max(nv[t] - batch.values[t], -vclip), vclip)
        clipped = (batch.values[t] + delta - batch.returns[t]) ** 2
        val += max(unclipped, clipped)
    val = 0.5 * val / n
    return pol + vf * val - ec * float(np.mean(ent))


def projection_loop_oracle(next_dist, r, done, gamma, head):
    """Brute-force per-atom accumulate, plain arithmetic only."""
    m = np.zeros(head.n_atoms)
    for j in range(head.n_atoms):
        tz = r + gamma * (0.0 if done else 1.0) * head.atoms[j]
        tz = min(max(tz, head.v_min), head.v_max)
        b = (tz - head.v_min) / head.delta_z
        lo, hi = int(np.floor(b)), int(np.ceil(b))
        if lo == hi:
            m[lo] += next_dist[j]
        else:
            m[lo] += next_dist[j] * (hi - b)
            m[hi] += next_dist[j] * (b - lo)
    return m


def binary_obs(stream, dim=2):
    """A 0/1 observation, as the gridworld gives: each value set with probability 1/2."""
    return (stream.uniform(0.0, 1.0, dim) < 0.5).astype(np.float64)


def random_batch(stream, n, discrete=True, n_actions=3):
    obs = stream.normal(0.0, 1.0, n * 4).reshape(n, 4)
    if discrete:
        actions = stream.randint(n_actions, n)
    else:
        actions = stream.normal(0.0, 0.5, n * n_actions).reshape(n, n_actions)
    rewards = stream.normal(0.0, 1.0, n)
    dones = (stream.uniform(0.0, 1.0, n) < 0.15).astype(np.float64)
    log_probs = -np.abs(stream.normal(1.0, 0.3, n))
    values = stream.normal(0.0, 1.0, n)
    batch = TrajectoryBatch(obs, actions, rewards, dones, log_probs, values)
    batch.advantages, batch.returns = gae(rewards, values, dones, 0.3, 0.99, 0.95)
    return batch


# ---------------------------------------------------------------- GAE


class TestGae:
    def test_single_terminal_step(self):
        adv, ret = gae(np.array([1.0]), np.array([0.0]), np.array([1.0]), 5.0, 0.99, 0.95)
        assert adv[0] == 1.0 and ret[0] == 1.0

    def test_lam_zero_is_td0(self):
        stream = RngStream(3, 0)
        r, v, d = stream.normal(0, 1, 8), stream.normal(0, 1, 8), np.zeros(8)
        adv, _ = gae(r, v, d, 0.5, 0.9, 0.0)
        deltas = r + 0.9 * np.append(v[1:], 0.5) - v
        np.testing.assert_allclose(adv, deltas, atol=1e-12)

    def test_matches_double_sum_oracle(self):
        stream = RngStream(11, 0)
        r = stream.normal(0, 1, 10)
        v = stream.normal(0, 1, 10)
        d = (stream.uniform(0, 1, 10) < 0.3).astype(np.float64)
        adv, ret = gae(r, v, d, 0.7, 0.99, 0.95)
        np.testing.assert_allclose(adv, gae_double_sum(r, v, d, 0.7, 0.99, 0.95), atol=1e-10)
        np.testing.assert_allclose(ret, adv + v, atol=1e-12)

    def test_gamma_lam_one_is_reward_to_go(self):
        stream = RngStream(12, 0)
        r = stream.normal(0, 1, 12)
        v = stream.normal(0, 1, 12)
        d = np.zeros(12)
        d[-1] = 1.0
        adv, _ = gae(r, v, d, 99.0, 1.0, 1.0)
        to_go = np.cumsum(r[::-1])[::-1]
        np.testing.assert_allclose(adv, to_go - v, atol=1e-10)

    def test_bit_identical_to_numpy_scalar_recurrence(self):
        """The recurrence on numpy float64 scalars, as first written, is the oracle."""
        stream = RngStream(13, 0)
        for trial in range(60):
            n = 1 + int(stream.randint(300)[0])
            r = stream.normal(0.0, 3.0, n)
            v = stream.normal(0.0, 10.0, n)
            d = (stream.uniform(0.0, 1.0, n) < 0.1).astype(np.float64)
            gamma, lam = ((0.99, 0.95), (1.0, 1.0), (0.0, 0.5), (0.9, 0.0))[trial % 4]
            boot = float(stream.normal(0.0, 5.0, 1)[0])
            want = np.zeros(n)
            next_value, running = boot, 0.0
            for t in range(n - 1, -1, -1):
                mask = 1.0 - d[t]
                delta = r[t] + gamma * mask * next_value - v[t]
                running = delta + gamma * lam * mask * running
                want[t] = running
                next_value = v[t]
            adv, ret = gae(r, v, d, boot, gamma, lam)
            assert adv.dtype == np.float64 and adv.tobytes() == want.tobytes(), trial
            assert ret.tobytes() == (want + v).tobytes(), trial


# ---------------------------------------------------------------- PPO loss


class TestPpoLoss:
    def test_on_policy_identity(self):
        batch = random_batch(RngStream(5, 0), 32)
        total, parts = _clipped_objective(
            batch, batch.log_probs.copy(), batch.values.copy(), np.ones(32), 0.2, 0.5, 0.0, 0.2
        )[:2]
        assert abs(parts["policy"]) < 1e-8

    def test_matches_transcription_oracle(self):
        stream = RngStream(6, 0)
        batch = random_batch(stream, 24)
        nlp = batch.log_probs + stream.normal(0, 0.3, 24)
        nv = batch.values + stream.normal(0, 0.5, 24)
        ent = np.abs(stream.normal(1, 0.2, 24))
        total, _ = _clipped_objective(batch, nlp, nv, ent, 0.2, 0.5, 0.01, 0.2)[:2]
        oracle = ppo_loss_transcription(batch, nlp, nv, ent, 0.2, 0.5, 0.01, 0.2)
        assert abs(total - oracle) < 1e-10

    def test_clip_saturation_invariance(self):
        # a ratio deep past the clip band on a positive-advantage sample
        # cannot move the loss: 1+2eps and 1+3eps give identical policy terms
        batch = random_batch(RngStream(7, 0), 2)
        batch.advantages = np.array([3.0, 1.0])
        seen = []
        for bump in (2.0, 3.0):
            nlp = batch.log_probs.copy()
            nlp[0] += np.log(1.0 + bump * 0.2)
            _, parts = _clipped_objective(batch, nlp, batch.values, np.zeros(2), 0.2, 0.0, 0.0, 0.2)[:2]
            seen.append(parts["policy"])
        assert seen[0] == seen[1]

    def test_clip_boundary_example(self):
        # normalized advantages are [~1, ~-1]; sample 0 sits past the band
        # with A > 0 so its term uses (1+eps)*A, sample 1 stays on-policy
        batch = random_batch(RngStream(8, 0), 2)
        batch.advantages = np.array([3.0, 1.0])
        eps = 0.2
        nlp = batch.log_probs.copy()
        nlp[0] += np.log(1.0 + 2 * eps)
        _, parts = _clipped_objective(batch, nlp, batch.values, np.zeros(2), eps, 0.0, 0.0, 0.2)[:2]
        adv = normalize_advantages(batch.advantages)
        expected = -((1.0 + eps) * adv[0] + 1.0 * adv[1]) / 2.0
        assert abs(parts["policy"] - expected) < 1e-12

    def test_nonfinite_ratio_raises(self):
        batch = random_batch(RngStream(9, 0), 8)
        nlp = batch.log_probs + 1e4
        with pytest.raises(NumericError):
            _clipped_objective(batch, nlp, batch.values, np.zeros(8), 0.2, 0.5, 0.0, 0.2)

    def test_saturated_samples_have_zero_gradient(self):
        # with every ratio pushed above the band, samples whose normalized
        # advantage is positive sit on the flat clipped branch (exact zero
        # finite difference); negative-advantage samples keep a live gradient
        stream = RngStream(13, 0)
        batch = random_batch(stream, 12)
        nlp = batch.log_probs + np.log(1.5)
        adv = normalize_advantages(batch.advantages)
        h = 1e-6

        def policy_term(v):
            return _clipped_objective(batch, v, batch.values, np.zeros(12), 0.2, 0.0, 0.0, 0.2)[0]

        assert np.any(adv > 0) and np.any(adv < 0)
        for i in range(12):
            up, down = nlp.copy(), nlp.copy()
            up[i] += h
            down[i] -= h
            if adv[i] > 0:
                assert policy_term(up) == policy_term(down)
            else:
                assert policy_term(up) != policy_term(down)


# ---------------------------------------------------------------- Gaussian


class TestGaussianPolicy:
    def test_log_prob_at_mode(self):
        for d in (1, 2, 5):
            mean = np.zeros((1, d))
            _, lp, _ = gaussian_policy(mean, np.zeros(d), actions=np.zeros((1, d)))
            assert abs(lp[0] - (-0.5 * d * np.log(2 * np.pi))) < 1e-12

    def test_entropy_closed_form(self):
        for d in (1, 3):
            _, _, ent = gaussian_policy(np.zeros((4, d)), np.zeros(d), actions=np.zeros((4, d)))
            assert np.allclose(ent, 0.5 * d * np.log(2 * np.pi * np.e), atol=1e-12)

    def test_log_prob_gradient_wrt_mean(self):
        stream = RngStream(21, 0)
        mean = stream.normal(0, 1, 3).reshape(1, 3)
        log_std = stream.normal(0, 0.2, 3)
        actions = stream.normal(0, 1, 3).reshape(1, 3)
        std = np.exp(log_std)
        analytic = ((actions - mean) / std**2)[0]
        h = 1e-5
        for j in range(3):
            up, down = mean.copy(), mean.copy()
            up[0, j] += h
            down[0, j] -= h
            _, lp_u, _ = gaussian_policy(up, log_std, actions=actions)
            _, lp_d, _ = gaussian_policy(down, log_std, actions=actions)
            fd = (lp_u[0] - lp_d[0]) / (2 * h)
            assert abs(fd - analytic[j]) / max(abs(fd), 1e-3) < 1e-4

    def test_sampling_deterministic_and_consistent(self):
        mean = np.array([[0.3, -0.2]])
        a1, lp1, _ = gaussian_policy(mean, np.array([0.1, -0.1]), stream=RngStream(4, 9))
        a2, lp2, _ = gaussian_policy(mean, np.array([0.1, -0.1]), stream=RngStream(4, 9))
        np.testing.assert_array_equal(a1, a2)
        _, lp_eval, _ = gaussian_policy(mean, np.array([0.1, -0.1]), actions=a1)
        assert lp1[0] == lp_eval[0]

    def test_nonfinite_mean_rejected(self):
        with pytest.raises(NumericError):
            gaussian_policy(np.array([[np.nan, 0.0]]), np.zeros(2), actions=np.zeros((1, 2)))


# ---------------------------------------------------------------- support


class TestSupport:
    def test_paper_support(self):
        atoms = c51_support(-10.0, 10.0, 51)
        assert atoms[0] == -10.0 and atoms[-1] == 10.0
        head = CategoricalHead(51, -10.0, 10.0)
        assert abs(head.delta_z - 0.4) < 1e-15

    def test_two_atoms(self):
        np.testing.assert_array_equal(c51_support(-1.0, 3.0, 2), [-1.0, 3.0])

    def test_equal_gaps(self):
        atoms = c51_support(-10.0, 10.0, 51)
        gaps = np.diff(atoms)
        assert np.all(np.abs(gaps - gaps[0]) < 1e-12)


# ---------------------------------------------------------------- projection


HEAD = CategoricalHead(51, -10.0, 10.0)


def random_dist(stream, n):
    p = stream.uniform(0.0, 1.0, n)
    return p / p.sum()


def project_one(p, r, done, gamma, head=HEAD):
    """One distribution through the batch projection, as a batch of one."""
    return categorical_projection_batch(p, [r], [float(done)], gamma, head)[0]


def cross_entropy(m, logits):
    """-sum(m * log softmax(logits)) for one row, written out directly."""
    shifted = logits - logits.max()
    return -float(np.sum(m * (shifted - np.log(np.sum(np.exp(shifted))))))


class TestProjection:
    def test_terminal_aligned_is_point_mass(self):
        ks = (0, 7, 25, 50)
        dists = np.stack([random_dist(RngStream(k, 0), 51) for k in ks])
        m = categorical_projection_batch(dists, HEAD.atoms[list(ks)], np.ones(4), 0.99, HEAD)
        for row, k in zip(m, ks):
            assert abs(row[k] - 1.0) < 1e-12
            assert np.sum(row != 0.0) == 1

    def test_midpoint_splits_half_half(self):
        r = float(HEAD.atoms[12]) + 0.2
        m = project_one(random_dist(RngStream(2, 0), 51), r, False, 0.0)
        assert abs(m[12] - 0.5) < 1e-9 and abs(m[13] - 0.5) < 1e-9

    def test_matches_loop_oracle(self):
        stream = RngStream(33, 0)
        rows = []
        for _ in range(60):
            p = random_dist(stream, 51)
            r = stream.uniform(-14.0, 14.0, 1)[0]
            gamma = stream.uniform(0.0, 1.0, 1)[0]
            done = stream.uniform(0.0, 1.0, 1)[0] < 0.3
            rows.append((p, r, done, gamma))
        # one gamma per call: the batch shares it across rows
        for p, r, done, gamma in rows:
            np.testing.assert_allclose(project_one(p, r, done, gamma),
                                       projection_loop_oracle(p, r, done, gamma, HEAD), atol=1e-10)
        dists = np.stack([row[0] for row in rows])
        rewards = np.array([row[1] for row in rows])
        dones = np.array([float(row[2]) for row in rows])
        m = categorical_projection_batch(dists, rewards, dones, 0.9, HEAD)
        for i in range(60):
            oracle = projection_loop_oracle(dists[i], rewards[i], bool(dones[i]), 0.9, HEAD)
            np.testing.assert_allclose(m[i], oracle, atol=1e-10)

    def test_bit_identical_to_two_scatter_adds(self):
        """Oracle: the lower shares, then the upper ones, through np.add.at."""
        stream = RngStream(35, 0)
        for trial in range(200):
            n = 1 + int(stream.randint(64)[0])
            dists = np.stack([random_dist(stream, 51) for _ in range(n)])
            rewards = stream.uniform(-14.0, 14.0, n)
            rewards[: n // 4] = HEAD.atoms[stream.randint(51, n)[: n // 4]]  # aligned atoms
            dones = (stream.uniform(0.0, 1.0, n) < 0.3).astype(np.float64)
            gamma = (0.0, 0.9, 0.99, 1.0)[trial % 4]
            tz = np.clip(rewards[:, None] + gamma * (1.0 - dones[:, None]) * HEAD.atoms, -10.0, 10.0)
            got = categorical_projection_batch(dists, rewards, dones, gamma, HEAD)
            b = c51_module._support_coords(tz, HEAD)
            lo, hi = np.floor(b).astype(np.int64), np.ceil(b).astype(np.int64)
            aligned = lo == hi
            offsets = np.arange(n)[:, None] * 51
            want = np.zeros(n * 51)
            np.add.at(want, (lo + offsets).ravel(), np.where(aligned, dists, dists * (hi - b)).ravel())
            np.add.at(want, (hi + offsets).ravel(), np.where(aligned, 0.0, dists * (b - lo)).ravel())
            assert got.tobytes() == want.reshape(n, 51).tobytes(), trial

    def test_batch_matches_single(self):
        stream = RngStream(34, 0)
        dists = np.stack([random_dist(stream, 51) for _ in range(8)])
        rewards = stream.uniform(-12.0, 12.0, 8)
        dones = (stream.uniform(0.0, 1.0, 8) < 0.4).astype(np.float64)
        batch = categorical_projection_batch(dists, rewards, dones, 0.97, HEAD)
        for i in range(8):
            single = project_one(dists[i], rewards[i], bool(dones[i]), 0.97)
            np.testing.assert_allclose(batch[i], single, atol=1e-15)

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32),
        r=st.floats(-20.0, 20.0),
        gamma=st.floats(0.0, 1.0),
        done=st.booleans(),
    )
    def test_mass_conserved_and_nonnegative(self, seed, r, gamma, done):
        p = random_dist(RngStream(seed, 0), 51)
        m = project_one(p, r, done, gamma)
        assert abs(m.sum() - 1.0) < 1e-6
        assert np.all(m >= 0.0)


# ---------------------------------------------------------------- C51 loss


def fixed_head_c51(logits, seed=0):
    """A C51 learner whose outputs are `logits` for every action and state:
    the head's weights are zero and its bias repeats `logits` per action."""
    learner, cfg = make_c51(seed, n_atoms=logits.size)
    learner.net.params["layer1.w"][...] = 0.0
    learner.net.params["layer1.b"][...] = np.tile(logits, 2)
    return learner


def fill_replay(learner, reward, done, n=32):
    stream = RngStream(3, 0)
    for i in range(n):
        obs = binary_obs(stream)
        learner.remember(obs, i % 2, reward, obs, done)


class TestC51Loss:
    """c51_update's loss and gradient: cross-entropy of the projected target
    against the predicted atoms of the action taken."""

    def test_matching_distributions_give_entropy(self):
        # gamma 1 and reward 0 land every atom on itself: the target is the
        # next-state distribution, which equals the prediction here
        stream = RngStream(40, 0)
        logits = stream.normal(0.0, 1.0, 51)
        p = np.exp(logits) / np.exp(logits).sum()
        entropy = -np.sum(p * np.log(p))
        learner = fixed_head_c51(logits)
        fill_replay(learner, 0.0, False)
        loss, _, _ = c51_update(learner.buffer, learner.net, learner.net, learner.head,
                                16, 1.0, RngStream(9, 0))
        assert abs(loss - entropy) < 1e-12

    def test_point_mass_cross_entropy(self):
        logits = np.zeros(51)
        logits[30] = 4.0
        p_max = np.exp(4.0) / (np.exp(4.0) + 50.0)
        learner = fixed_head_c51(logits)
        fill_replay(learner, float(HEAD.atoms[30]), True)
        loss, _, _ = c51_update(learner.buffer, learner.net, learner.net, learner.head,
                                16, 0.99, RngStream(9, 0))
        assert abs(loss - -np.log(p_max)) < 1e-12

    def test_gradient_vs_finite_differences(self):
        # the head bias moves every logit of its atom directly, so its
        # gradient is the batch sum of the per-row (p - m) / batch
        learner, _ = make_c51(41, n_atoms=21)
        stream = RngStream(41, 0)
        for i in range(48):
            obs = binary_obs(stream)
            learner.remember(obs, i % 2, float(stream.uniform(-3.0, 3.0, 1)[0]),
                             binary_obs(stream), i % 7 == 0)

        def update():
            return c51_update(learner.buffer, learner.net, learner.target, learner.head,
                              16, 0.9, RngStream(9, 0))

        analytic = update()[1].by_name["layer1.b"]
        bias = learner.net.params["layer1.b"]
        h = 1e-5
        for j in range(bias.size):
            keep = bias[j]
            bias[j] = keep + h
            up = update()[0]
            bias[j] = keep - h
            down = update()[0]
            bias[j] = keep
            fd = (up - down) / (2 * h)
            assert abs(fd - analytic[j]) / max(abs(fd), 1e-3) < 1e-4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        dists = np.stack([random_dist(RngStream(k, 0), 51) for k in range(3)])
        dists[2, 7] = bad
        with pytest.raises(NumericError):
            categorical_projection_batch(dists, np.zeros(3), np.zeros(3), 0.9, HEAD)

    def test_non_finite_target_net_raises(self):
        learner, _ = make_c51(42)
        fill_replay(learner, 1.0, False)
        learner.target.params["layer1.b"][0] = np.nan
        with pytest.raises(NumericError):
            c51_update(learner.buffer, learner.net, learner.target, learner.head,
                       16, 0.99, RngStream(9, 0))


# ---------------------------------------------------------------- schedule


class TestEpsilonSchedule:
    def test_endpoints(self):
        assert epsilon_schedule(0, 1.0, 0.01, 0.10, 10000) == 1.0
        assert epsilon_schedule(1000, 1.0, 0.01, 0.10, 10000) == 0.01
        assert epsilon_schedule(9999, 1.0, 0.01, 0.10, 10000) == 0.01

    def test_midpoint(self):
        assert abs(epsilon_schedule(500, 1.0, 0.01, 0.10, 10000) - 0.505) < 1e-12

    def test_monotone_decreasing(self):
        values = [epsilon_schedule(s, 1.0, 0.01, 0.10, 10000) for s in range(0, 1100, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------- C51 update


def make_c51(seed, n_actions=2, obs_dim=2, n_atoms=51, hidden=(32,)):
    cfg = C51Config(n_atoms=n_atoms, buffer_size=512, batch_size=16, learning_starts=32,
                    train_frequency=1, target_network_frequency=10**9)
    net = build_network(obs_dim, n_actions * n_atoms, list(hidden), "relu", False,
                        RngStream(seed, 1))
    return C51Learner(helpers.experiment(cfg), net, make_optimizer("adam", net)), cfg


class TestC51Update:
    def test_not_ready_below_learning_starts(self):
        learner, cfg = make_c51(1)
        for i in range(cfg.learning_starts - 1):
            learner.remember(np.zeros(2), 0, 0.0, np.zeros(2), False)
        out = c51_update(learner.buffer, learner.net, learner.target, learner.head,
                         cfg.batch_size, 0.99, RngStream(0, 0),
                         learning_starts=cfg.learning_starts)
        assert out is None

    def test_gamma_zero_is_supervised_cross_entropy(self):
        learner, cfg = make_c51(2)
        stream = RngStream(7, 0)
        for i in range(64):
            obs = binary_obs(stream)
            learner.remember(obs, int(stream.randint(2, 1)[0]),
                             float(stream.uniform(-2.0, 2.0, 1)[0]), obs, False)
        sample_stream = RngStream(9, 0)
        loss, grads, trace = c51_update(
            learner.buffer, learner.net, learner.net, learner.head,
            16, 0.0, sample_stream, learning_starts=0)
        batch = learner.buffer.sample(16, RngStream(9, 0))
        expected = 0.0
        for i in range(16):
            m = projection_loop_oracle(np.full(51, 1.0 / 51), batch["rewards"][i],
                                       bool(batch["dones"][i]), 0.0, learner.head)
            out = forward(learner.net, batch["obs"][i : i + 1]).outputs.reshape(2, 51)
            expected += cross_entropy(m, out[int(batch["actions"][i])])
        assert abs(loss - expected / 16) < 1e-10

    def test_target_bit_stable_between_syncs(self):
        learner, cfg = make_c51(3)
        stream = RngStream(8, 0)
        for i in range(128):
            obs = binary_obs(stream)
            learner.remember(obs, i % 2, float(np.sin(i)), obs, i % 17 == 0)
        frozen = {k: v.copy() for k, v in learner.target.params.items()}
        steps = []
        learner.post_step = lambda: steps.append(1)
        for step in range(1, 40):
            learner.update(step, stream)
            assert len(steps) == step  # a gradient step on every update
        for k, v in learner.target.params.items():
            np.testing.assert_array_equal(v, frozen[k])
        online_moved = any(
            not np.array_equal(learner.net.params[k], frozen[k]) for k in frozen
        )
        assert online_moved

    def test_online_selection_flag(self):
        learner, cfg = make_c51(4)
        stream = RngStream(10, 0)
        for i in range(64):
            obs = binary_obs(stream)
            learner.remember(obs, i % 2, 0.5, obs, False)
        for selection in ("target", "online"):
            out = c51_update(learner.buffer, learner.net, learner.target, learner.head,
                             8, 0.9, RngStream(5, 0), learning_starts=0,
                             action_selection=selection)
            assert out is not None and np.isfinite(out[0])

    def test_update_deterministic(self):
        nets = []
        for _ in range(2):
            learner, cfg = make_c51(5)
            stream = RngStream(11, 0)
            for i in range(96):
                obs = binary_obs(stream)
                learner.remember(obs, i % 2, float(np.cos(i)), obs, i % 13 == 0)
            ustream = RngStream(12, 0)
            for step in range(1, 25):
                learner.update(step, ustream)
            nets.append(learner.net)
        for k in nets[0].params:
            np.testing.assert_array_equal(nets[0].params[k], nets[1].params[k])

    def test_chain_mdp_convergence(self):
        learner = helpers.make_chain_learner(seed=101, n_updates=3000, lr=2e-3)
        q = helpers.chain_q_estimates(learner)
        np.testing.assert_allclose(q, helpers.chain_optimal_q(), atol=0.05)

    def test_epsilon_acting(self):
        learner, cfg = make_c51(6)
        greedy = int(np.argmax(learner.q_values(np.ones(2))[0]))
        # forced greedy: schedule already past the ramp with end epsilon 0
        learner.cfg.end_epsilon = 0.0
        acts = {learner.act(np.ones(2), learner.total_steps, RngStream(s, 0)) for s in range(5)}
        assert acts == {greedy}



def fill_binary_replay(learner, n=96, seed=14):
    """Transitions between a handful of 0/1 observations, as on the gridworld."""
    stream = RngStream(seed, 0)
    states = (stream.uniform(0.0, 1.0, 5 * learner.buffer.obs_dim) < 0.5).astype(np.float64)
    states = states.reshape(5, learner.buffer.obs_dim)
    for i in range(n):
        learner.remember(states[i % 5], i % 2, float(np.sin(i)), states[(i * 3 + 1) % 5], i % 11 == 0)


# rewards for the projection: both zeros, support points (exactly aligned at
# gamma 0 or 1, or when done), values clipped at v_min/v_max, and any float
_REWARDS = st.one_of(
    st.sampled_from([0.0, -0.0, -10.0, 10.0, 0.4, -3.2, 9.6, -14.0, 25.0]),
    st.floats(-25.0, 25.0),
)


class TestC51TargetMemo:
    """The target memo reuses batch-of-one target forwards and one-row
    projections; c51_update's numbers never depend on what it holds."""

    @pytest.mark.parametrize("selection", ["target", "online"])
    def test_memo_leaves_loss_and_gradients_unchanged(self, selection):
        learner, _ = make_c51(15, obs_dim=12)
        fill_binary_replay(learner)
        memo = {}

        def update(memo_arg, seed):
            return c51_update(learner.buffer, learner.net, learner.target, learner.head,
                              16, 0.9, RngStream(seed, 0), action_selection=selection,
                              memo=memo_arg)

        update(memo, 3)  # fills the memo from another batch
        assert 0 < len(memo) <= 16
        held = dict(memo)
        with_memo, without = update(memo, 4), update(None, 4)
        assert with_memo[0] == without[0]
        for name, g in without[1].by_name.items():
            assert with_memo[1].by_name[name].tobytes() == g.tobytes()
        assert all(memo[key] is value for key, value in held.items())

    def test_rows_project_the_batch_of_one_target_forward(self):
        learner, _ = make_c51(16, obs_dim=12, n_actions=3)
        fill_binary_replay(learner)
        batch = learner.buffer.sample(32, RngStream(5, 0))
        memo = {}
        rows = c51_module._target_rows(learner.target, batch, learner.head, 0.9, memo)
        batched = c51_module._dist_probs(learner.target, batch["next_obs"], 3, 51)
        ones = np.concatenate(
            [c51_module._dist_probs(learner.target, batch["next_obs"][i : i + 1], 3, 51) for i in range(32)]
        )
        np.testing.assert_allclose(ones, batched, rtol=0.0, atol=1e-15)
        best = np.argmax(np.sum(ones * learner.head.atoms, axis=2), axis=1)
        want = categorical_projection_batch(
            ones[np.arange(32), best], batch["rewards"], batch["dones"], 0.9, learner.head
        )
        assert rows.tobytes() == want.tobytes()
        # each row sits under the bits of (next code, reward, done) and -1, the greedy pick
        codes = batch["next_codes"]
        keys = zip(codes.view(f"V{codes.strides[0]}").ravel().tolist(),
                   batch["rewards"].view(np.int64).tolist(), batch["dones"].view(np.int64).tolist())
        assert np.array([memo[(*key, -1)] for key in keys]).tobytes() == want.tobytes()

    def test_cap_bounds_the_memo(self, monkeypatch):
        learner, _ = make_c51(17, obs_dim=12)
        fill_binary_replay(learner)
        monkeypatch.setattr(common_module, "MEMO_CAP", 3)
        memo = {}
        for seed in range(6):
            batch = learner.buffer.sample(16, RngStream(seed, 0))
            picks = RngStream(seed, 1).randint(2, 16).tolist()
            c51_module._target_rows(learner.target, batch, learner.head, 0.9, memo, picks)
            assert 1 <= len(memo) <= 3

    def test_target_sync_empties_the_memo(self):
        learner, _ = make_c51(18, obs_dim=12)
        learner.cfg.target_network_frequency = 4
        fill_binary_replay(learner)
        ustream = RngStream(6, 0)
        learner.update(1, ustream)
        assert learner.target_memo
        learner.update(4, ustream)
        assert learner.target_memo == {}

    @settings(deadline=None, max_examples=60)
    @given(
        weights=arrays(np.float64, (6, 3, 51), elements=st.floats(0.0, 1.0)),
        codes=st.lists(st.integers(0, 5), min_size=32, max_size=32),
        rewards=st.lists(_REWARDS, min_size=32, max_size=32),
        dones=st.lists(st.booleans(), min_size=32, max_size=32),
        gamma=st.one_of(st.sampled_from([0.0, 0.5, 0.99, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_one_row_equals_its_row_of_the_batch(self, weights, codes, rewards, dones, gamma):
        """A one-row projection and a one-row greedy pick are bit for bit the
        matching row of the 32-row computation, so memoized rows change no
        log byte."""
        weights[weights.sum(axis=2) == 0.0] = 1.0
        probs = weights / weights.sum(axis=2, keepdims=True)
        rewards, dones = np.array(rewards), np.array(dones, dtype=np.float64)
        dists = probs[codes]
        best = np.argmax(np.sum(dists * HEAD.atoms, axis=2), axis=1)
        m = categorical_projection_batch(dists[np.arange(32), best], rewards, dones, gamma, HEAD)
        for i, (c, a) in enumerate(zip(codes, best)):
            one = categorical_projection_batch(probs[c, a], rewards[i], dones[i], gamma, HEAD)
            assert one.tobytes() == m[i].tobytes()
        # the same rows through _target_rows, its target forward answered by `probs`
        target = SimpleNamespace(layers=[SimpleNamespace(width_out=3 * 51)])
        batch = {"next_codes": np.array(codes, dtype=np.uint8)[:, None], "next_obs": np.array(codes)[:, None],
                 "rewards": rewards, "dones": dones}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(c51_module, "_dist_probs", lambda net, obs, *_: probs[obs[:, 0]])
            rows = c51_module._target_rows(target, batch, HEAD, gamma, {})
        assert rows.tobytes() == m.tobytes()

    def test_action_scatter_equals_the_per_action_loop(self):
        stream = RngStream(20, 0)
        for n_actions in (1, 2, 5):
            actions = stream.randint(n_actions, 32)
            block = stream.normal(0.0, 1.0, 32 * 51).reshape(32, 51)
            looped = np.zeros((32, n_actions * 51))
            for a in range(n_actions):
                rows = actions == a
                looped[rows, a * 51 : (a + 1) * 51] = block[rows]
            scattered = np.zeros((32, n_actions * 51))
            scattered.reshape(32, n_actions, 51)[np.arange(32), actions] = block
            assert scattered.tobytes() == looped.tobytes()


# ---------------------------------------------------------------- PPO learner


def make_ppo(seed, discrete=True, n_actions=3, obs_dim=4, activation="tanh",
             layer_norm=False, **cfg_kw):
    cfg = PPOConfig(n_minibatches=2, update_epochs=2, **cfg_kw)
    net = build_network(obs_dim, n_actions + 1, [16, 16], activation, layer_norm,
                        RngStream(seed, 1))
    family = "gridworld" if discrete else "pointmass"
    return PPOLearner(helpers.experiment(cfg, family), net, make_optimizer("adam", net)), cfg


def sample(learner, obs, stream):
    """The sampled (action, log_prob, value) of one PPO act."""
    learner.act(obs, 0, stream)
    return learner.sampled


def collect_synthetic(learner, stream, n=64, obs_dim=4):
    obs = stream.normal(0.0, 1.0, n * obs_dim).reshape(n, obs_dim)
    actions, log_probs, values = [], [], []
    for t in range(n):
        a, lp, v = sample(learner, obs[t], stream)
        actions.append(a)
        log_probs.append(lp)
        values.append(v)
    rewards = stream.normal(0.0, 1.0, n)
    dones = (stream.uniform(0.0, 1.0, n) < 0.1).astype(np.float64)
    return TrajectoryBatch(obs, np.array(actions), rewards, dones,
                           np.array(log_probs), np.array(values))


def ppo_total_loss(learner, mb):
    _, nlp, ent, nv, _ = learner.evaluate_actions(mb.observations, mb.actions)
    cfg = learner.cfg
    total, _ = _clipped_objective(mb, nlp, nv, ent, cfg.clip_eps, cfg.vf_coef, cfg.ent_coef,
                                  cfg.value_clip)[:2]
    return total


def fd_check_ppo(learner, mb, names, h=1e-6, tol=1e-4):
    cfg = learner.cfg
    trace, nlp, ent, nv, softmax = learner.evaluate_actions(mb.observations, mb.actions)
    _, _, terms = _clipped_objective(mb, nlp, nv, ent, cfg.clip_eps, cfg.vf_coef,
                                     cfg.ent_coef, cfg.value_clip)
    grads = learner._loss_grads(mb, trace, nv, ent, terms, softmax)
    for name in names:
        analytic = grads.by_name[name]
        flat = learner.net.params[name].ravel()
        idx = np.linspace(0, flat.size - 1, min(10, flat.size)).astype(int)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + h
            up = ppo_total_loss(learner, mb)
            flat[i] = keep - h
            down = ppo_total_loss(learner, mb)
            flat[i] = keep
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(analytic.ravel()[i]), 1e-3)
            assert abs(fd - analytic.ravel()[i]) / scale < tol, (name, i)


class TestPPOLearner:
    def test_discrete_gradients_match_fd(self):
        learner, _ = make_ppo(31, discrete=True, ent_coef=0.01)
        traj = collect_synthetic(learner, RngStream(31, 2))
        traj.advantages, traj.returns = gae(traj.rewards, traj.values, traj.dones,
                                            0.2, 0.99, 0.95)
        mb = traj.take(np.arange(24))
        fd_check_ppo(learner, mb, ["layer0.w", "layer1.b", "layer2.w"])

    def test_continuous_gradients_match_fd(self):
        learner, _ = make_ppo(32, discrete=False, n_actions=2, ent_coef=0.01)
        traj = collect_synthetic(learner, RngStream(32, 2))
        traj.advantages, traj.returns = gae(traj.rewards, traj.values, traj.dones,
                                            0.0, 0.99, 0.95)
        mb = traj.take(np.arange(20))
        fd_check_ppo(learner, mb, ["layer0.w", "layer2.w", "log_std"])

    def test_layer_norm_gradients_match_fd(self):
        learner, _ = make_ppo(33, discrete=True, layer_norm=True, ent_coef=0.01)
        traj = collect_synthetic(learner, RngStream(33, 2))
        traj.advantages, traj.returns = gae(traj.rewards, traj.values, traj.dones,
                                            0.1, 0.99, 0.95)
        mb = traj.take(np.arange(16))
        fd_check_ppo(learner, mb, ["layer0.ln_gain", "layer1.w"])

    def test_log_std_created_and_trained(self):
        learner, _ = make_ppo(34, discrete=False, n_actions=2)
        assert "log_std" in learner.net.params
        np.testing.assert_array_equal(learner.net.params["log_std"], np.zeros(2))
        assert "log_std" in learner.net.init_snapshot
        traj = collect_synthetic(learner, RngStream(34, 2))
        learner.train(traj, 0.0, RngStream(34, 3))
        assert not np.array_equal(learner.net.params["log_std"], np.zeros(2))

    def test_update_deterministic(self):
        results = []
        for _ in range(2):
            learner, _ = make_ppo(35, discrete=True)
            traj = collect_synthetic(learner, RngStream(35, 2))
            learner.train(traj, 0.1, RngStream(35, 3))
            results.append({k: v.copy() for k, v in learner.net.params.items()})
        for k in results[0]:
            np.testing.assert_array_equal(results[0][k], results[1][k])

    def test_act_matches_evaluate(self):
        learner, _ = make_ppo(36, discrete=True)
        obs = RngStream(36, 2).normal(0.0, 1.0, 4)
        a, lp, v = sample(learner, obs, RngStream(36, 4))
        _, lp_eval, _, v_eval, _ = learner.evaluate_actions(
            obs.reshape(1, 4), np.array([a]))
        assert abs(lp - lp_eval[0]) < 1e-12
        assert abs(v - v_eval[0]) < 1e-12

    def test_update_visits_every_sample(self):
        learner, _ = make_ppo(38, discrete=True)
        traj = collect_synthetic(learner, RngStream(38, 2), n=32)
        seen = []
        original = learner._minibatch_step

        def spy(mb):
            seen.append(len(mb))
            return original(mb)

        learner._minibatch_step = spy
        learner.train(traj, 0.0, RngStream(38, 3))
        assert sum(seen) == 32 * learner.cfg.update_epochs


def two_pass_minibatch_step(learner, mb):
    """The minibatch step with the loss and its gradient computed apart, each
    forming the normalized advantages, ratio, value errors, log-softmax and
    probabilities itself. Returns (stats, the gradients the optimizer saw)."""
    cfg, net = learner.cfg, learner.net
    trace = forward(net, mb.observations)
    out = trace.outputs
    nv = out[:, -1]
    if learner.discrete:
        log_all = _log_softmax(out[:, :-1])
        nlp = log_all[np.arange(len(mb)), mb.actions.astype(np.int64)]
        ent = -np.sum(np.exp(log_all) * log_all, axis=1)
    else:
        _, nlp, ent = gaussian_policy(out[:, :-1], net.params["log_std"], actions=mb.actions)
    total, parts = _clipped_objective(mb, nlp, nv, ent, cfg.clip_eps, cfg.vf_coef, cfg.ent_coef,
                                      cfg.value_clip)[:2]
    b = len(mb)
    adv = normalize_advantages(mb.advantages)
    ratio = np.exp(nlp - mb.log_probs)
    clip_dead = ((ratio > 1.0 + cfg.clip_eps) & (adv > 0.0)) | (
        (ratio < 1.0 - cfg.clip_eps) & (adv < 0.0))
    g_log_prob = np.where(clip_dead, 0.0, -adv * ratio) / b
    v_err = (nv - mb.returns) ** 2
    v_clipped = mb.values + np.clip(nv - mb.values, -cfg.value_clip, cfg.value_clip)
    v_err_clipped = (v_clipped - mb.returns) ** 2
    g_value = cfg.vf_coef * np.where(v_err >= v_err_clipped, nv - mb.returns, 0.0) / b
    output_grad = np.zeros_like(out)
    output_grad[:, -1] = g_value
    if learner.discrete:
        log_all = _log_softmax(out[:, :-1])
        probs = np.exp(log_all)
        one_hot = np.zeros_like(probs)
        one_hot[np.arange(b), mb.actions.astype(np.int64)] = 1.0
        output_grad[:, :-1] = g_log_prob[:, None] * (one_hot - probs)
        ent_rows = -np.sum(probs * log_all, axis=1, keepdims=True)
        output_grad[:, :-1] += (cfg.ent_coef / b) * probs * (log_all + ent_rows)
        grads = net_backward(net, trace, output_grad)
    else:
        std = np.exp(net.params["log_std"])
        z = (mb.actions - out[:, :-1]) / std
        output_grad[:, :-1] = g_log_prob[:, None] * (z / std)
        grads = net_backward(net, trace, output_grad)
        grads.by_name["log_std"] = (
            np.sum(g_log_prob[:, None] * (z * z - 1.0), axis=0) - cfg.ent_coef)
    for kind, alpha, s in learner.reg_terms:
        value, reg_grads = reg_loss(kind, net, alpha, s)
        total += value
        for name, g in reg_grads.items():
            grads.by_name[name] = grads.by_name[name] + g if name in grads.by_name else g
    parts["grad_norm"] = clip_gradients(grads.by_name, cfg.max_grad_norm)
    assert optimizer_step(learner.opt, net, trace, grads, cfg.lr) == (0.0, None)
    parts["total"] = total
    return parts, grads


class TestSharedLossTerms:
    @pytest.mark.parametrize("discrete", [True, False])
    def test_minibatch_steps_equal_the_two_pass_reference(self, discrete, monkeypatch):
        seen = []

        def recording_step(opt, net, trace, grads, lr, loss, regs, max_grad_norm):
            out = optimizer_step(opt, net, trace, grads, lr, loss, regs, max_grad_norm)
            # folded and clipped in place: the entries opt.step was handed
            seen.append({k: v.copy() for k, v in grads.by_name.items()})
            return out

        monkeypatch.setattr(ppo_module, "optimizer_step", recording_step)
        learners = []
        for _ in range(2):
            learner, _ = make_ppo(39, discrete=discrete, n_actions=3, ent_coef=0.01)
            learner.reg_terms = (("l2_reg", 1e-3, 1.0),)
            learners.append(learner)
        shared, reference = learners
        traj = collect_synthetic(shared, RngStream(39, 2))
        traj.advantages, traj.returns = gae(traj.rewards, traj.values, traj.dones,
                                            0.1, 0.99, 0.95)
        for chunk in np.array_split(RngStream(39, 3).permutation(len(traj)), 4):
            mb = traj.take(chunk)
            got = shared._minibatch_step(mb)
            want, want_grads = two_pass_minibatch_step(reference, mb)
            assert got == want
            assert list(seen[-1]) == list(want_grads.by_name)
            for name, g in want_grads.by_name.items():
                assert seen[-1][name].tobytes() == g.tobytes(), name
            for name in reference.net.param_order:
                assert (shared.net.params[name].tobytes()
                        == reference.net.params[name].tobytes()), name
        # the steps moved the parameters and the policy, so the check is not vacuous
        assert shared.net.params["layer0.w"].tobytes() != make_ppo(39)[0].net.params[
            "layer0.w"].tobytes()


class TestActMemo:
    """Gridworld learners own an act memo from construction and empty it
    whenever their net's write count moves; pointmass PPO has none. The draw
    always runs."""

    @staticmethod
    def counting_forward(monkeypatch, module):
        calls = []

        def counted(net, x):
            calls.append(x.shape[0])
            return forward(net, x)

        monkeypatch.setattr(module, "forward", counted)
        return calls

    def test_gridworld_learners_built_directly_have_an_empty_memo(self):
        assert make_ppo(40)[0].memo == {}
        assert make_ppo(40, discrete=False, n_actions=2)[0].memo is None
        assert make_c51(40)[0].memo == {}

    @pytest.mark.parametrize("discrete", [True, False])
    def test_ppo_act_update_act_is_fresh(self, discrete, monkeypatch):
        calls = self.counting_forward(monkeypatch, ppo_module)
        learner, _ = make_ppo(41, discrete=discrete, n_actions=2)
        obs = RngStream(41, 2).normal(0.0, 1.0, 4)
        _, _, v_before = sample(learner, obs, RngStream(41, 4))
        traj = collect_synthetic(learner, RngStream(41, 5))
        learner.train(traj, 0.0, RngStream(41, 3))
        n_calls = len(calls)
        a, lp, v = sample(learner, obs, RngStream(41, 4))
        assert len(calls) == n_calls + 1
        _, lp_eval, _, v_eval, _ = learner.evaluate_actions(obs.reshape(1, 4), np.array([a]))
        assert v != v_before
        assert v == v_eval[0] and abs(lp - lp_eval[0]) < 1e-12

    def test_c51_act_update_act_is_fresh(self, monkeypatch):
        calls = self.counting_forward(monkeypatch, c51_module)
        learner, cfg = make_c51(42, obs_dim=2)
        cfg.start_epsilon = cfg.end_epsilon = 0.0
        obs = np.array([0.3, -0.7])
        learner.act(obs, 0, RngStream(42, 4))
        q_before = learner.q_values(obs)
        stream = RngStream(42, 5)
        for _ in range(cfg.learning_starts):
            learner.remember(binary_obs(stream), int(stream.randint(2, 1)[0]),
                             1.0, binary_obs(stream), False)
        learner.update(0, RngStream(42, 3))
        assert not np.array_equal(learner.q_values(obs), q_before)
        n_calls = len(calls)
        assert learner.act(obs, 0, RngStream(42, 4)) == int(np.argmax(learner.q_values(obs)[0]))
        assert len(calls) == n_calls + 2  # act's forward and the check's q_values

    def test_c51_chain_learner_acts_fresh_after_its_updates(self):
        """A learner driven without the run loop empties its own memo: on the
        chain, 399 updates move state 0's greedy action from 0 to 1."""
        learner = helpers.make_chain_learner(3, 0)
        learner.cfg.start_epsilon = learner.cfg.end_epsilon = 0.0
        obs, stream, updates = helpers.chain_obs(0), RngStream(3, 4), RngStream(3, 2)
        assert learner.act(obs, 0, stream) == 0
        for step in range(1, 400):
            learner.update(step, updates)
        assert learner.act(obs, 0, stream) == int(np.argmax(learner.q_values(obs)[0])) == 1

    @pytest.mark.parametrize("algo", ["ppo", "c51"])
    def test_act_after_an_event_is_fresh(self, algo, monkeypatch):
        calls = self.counting_forward(monkeypatch, ppo_module if algo == "ppo" else c51_module)
        learner, cfg = make_ppo(45) if algo == "ppo" else make_c51(45, obs_dim=4)
        if algo == "c51":
            cfg.start_epsilon = cfg.end_epsilon = 0.0
        obs = RngStream(45, 2).normal(0.0, 1.0, 4)
        learner.act(obs, 0, RngStream(45, 4))
        learner.act(obs, 0, RngStream(45, 4))
        assert len(calls) == 1  # the second act hit the memo
        entry = build_plan([{"method": "reset_layers", "params": {"scope": "all"}}])[0]
        apply_event_method(entry, learner.net, RngStream(45, 3), probe=None)
        action = learner.act(obs, 0, RngStream(45, 4))
        assert len(calls) == 2
        if algo == "c51":
            assert action == int(np.argmax(learner.q_values(obs)[0]))
            return
        _, lp_eval, _, v_eval, _ = learner.evaluate_actions(obs.reshape(1, 4), np.array([action]))
        assert learner.sampled[2] == v_eval[0] and abs(learner.sampled[1] - lp_eval[0]) < 1e-12

    @pytest.mark.parametrize("discrete", [True, False])
    def test_ppo_memo_hits_match_recomputed_acts(self, discrete, monkeypatch):
        calls = self.counting_forward(monkeypatch, ppo_module)
        plain, _ = make_ppo(43, discrete=discrete, n_actions=3)
        memo, _ = make_ppo(43, discrete=discrete, n_actions=3)
        plain.memo, memo.memo = None, {}  # recompute every act; memoize continuous acts too
        pool = RngStream(43, 2).normal(0.0, 1.0, 3 * 4).reshape(3, 4)
        picks = RngStream(43, 6).randint(3, 60)
        s_plain, s_memo = RngStream(43, 4), RngStream(43, 4)
        for i in picks:
            want = sample(plain, pool[i], s_plain)
            got = sample(memo, pool[i], s_memo)
            assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
            assert got[1:] == want[1:]
            assert s_memo.counter == s_plain.counter
        assert len(memo.memo) == 3
        assert len(calls) == 60 + 3

    def test_c51_memo_keeps_the_epsilon_draws(self, monkeypatch):
        calls = self.counting_forward(monkeypatch, c51_module)
        plain, _ = make_c51(44, n_actions=3, obs_dim=2)
        memo, cfg = make_c51(44, n_actions=3, obs_dim=2)
        cfg.exploration_fraction = 1.0  # epsilon 1 -> 0.01 over the run's 100 steps
        plain.cfg, plain.total_steps, memo.total_steps = cfg, 100, 100
        pool = RngStream(44, 2).normal(0.0, 1.0, 4 * 2).reshape(4, 2)
        picks = RngStream(44, 6).randint(4, 100)
        s_plain, s_memo = RngStream(44, 4), RngStream(44, 4)
        plain_calls = 0
        for step, i in enumerate(picks):
            start = len(calls)
            plain.memo = {}  # a memo emptied before every act recomputes each one
            want = plain.act(pool[i], step, s_plain)
            plain_calls += len(calls) - start
            assert memo.act(pool[i], step, s_memo) == want
            assert s_memo.counter == s_plain.counter
        # one forward per greedy act without the memo, one per key with it
        assert len(memo.memo) == 4 and plain_calls > 20
        assert len(calls) - plain_calls == 4


# ---------------------------------------------------------------- plumbing


def _bits(i: int, dim: int = 4) -> np.ndarray:
    """The low `dim` bits of i as a 0/1 float64 row, least significant first."""
    return ((i >> np.arange(dim)) & 1).astype(np.float64)


class TestReplayBuffer:
    def test_ring_overwrite_and_sample(self):
        buf = ReplayBuffer(8, 4)
        for i in range(12):
            buf.add(_bits(i), i % 4, float(i), _bits(i + 1), i % 2 == 0)
        assert len(buf) == 8
        batch = buf.sample(5, RngStream(1, 0))
        assert batch["obs"].shape == (5, 4)
        assert np.all(batch["obs"] @ (1 << np.arange(4)) >= 4)

    def test_sample_deterministic(self):
        buf = ReplayBuffer(16, 4)
        for i in range(16):
            buf.add(_bits(i), 0, 0.0, _bits(i), False)
        b1 = buf.sample(6, RngStream(2, 7))
        b2 = buf.sample(6, RngStream(2, 7))
        np.testing.assert_array_equal(b1["obs"], b2["obs"])


class TestRollout:
    def test_add_copies_the_observation(self):
        rollout = Rollout(4, 3)
        obs = np.array([1.0, 2.0, 3.0])
        rollout.add(obs, 2, 0.5, 0.0, -0.1, 0.3)
        obs[:] = 9.0
        batch = rollout.batch()
        np.testing.assert_array_equal(batch.observations, [[1.0, 2.0, 3.0]])
        assert batch.actions.dtype == np.int64 and batch.actions.tolist() == [2]

    def test_batch_views_the_filled_rows(self):
        rollout = Rollout(5, 2, act_dim=3)
        for t in range(3):
            rollout.add(np.full(2, t), np.full(3, -t), t, t % 2, -t, 2 * t)
        batch = rollout.batch()
        assert len(batch) == 3 and batch.actions.shape == (3, 3)
        for name, column in (("observations", rollout.obs), ("actions", rollout.actions),
                             ("rewards", rollout.rewards), ("values", rollout.values)):
            assert np.shares_memory(getattr(batch, name), column), name
        np.testing.assert_array_equal(batch.dones, [0.0, 1.0, 0.0])
        assert batch.actions.dtype == np.float64


def _grid_row(i: int, dim: int = 6) -> np.ndarray:
    """A gridworld-like observation: float64 zeros with ones."""
    row = np.zeros(dim)
    row[i % dim] = 1.0
    row[(3 * i + 1) % dim] = 1.0
    return row


NON_BIT_VALUES = {
    "half": 0.5,
    "whole_number": 255.0,
    "negative": -1.0,
    "above_255": 256.0,
    "nan": np.nan,
    "inf": np.inf,
    "negative_zero": -0.0,
    "gaussian": None,
}


def _binary_rows(count: int, dim: int, seed: int) -> np.ndarray:
    """`count` rows of +0.0/1.0, about one value in four set."""
    return (RngStream(seed, 0).uniform(0.0, 1.0, count * dim) < 0.25).astype(np.float64).reshape(count, dim)


def _assert_sample_matches(buf, oracle, seed):
    """A sample equals the float64 rows the oracle ring holds at the same draws."""
    batch = buf.sample(16, RngStream(seed, 1))
    idx = RngStream(seed, 1).randint(buf.size, 16)
    for name in ("obs", "next_obs"):
        want = np.array([oracle[name][i] for i in idx])
        assert batch[name].dtype == np.float64 and batch[name].shape == want.shape
        assert batch[name].tobytes() == want.tobytes(), name


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestReplayBitStorage:
    def test_gridworld_observations_stay_bytes(self):
        from plastlab.envs import FrameStack, GridWorldEnv

        env = FrameStack(GridWorldEnv(level_seed=4, horizon=10), 2)
        buf = ReplayBuffer(64, env.obs_dim)
        obs = env.reset()
        for t in range(50):
            next_obs, reward, done = env.step(t % 5)
            buf.add(obs, t % 5, reward, next_obs, done)
            obs = env.reset() if done else next_obs
        assert buf.obs.dtype == np.uint8 and buf.next_obs.dtype == np.uint8
        assert buf.sample(8, RngStream(1, 0))["obs"].dtype == np.float64

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([1, 7, 8, 9, 324, 648]),
        st.integers(1, 12),
        st.integers(1, 30),
        st.integers(0, 2**31),
    )
    def test_binary_rows_round_trip_through_the_packed_store(self, dim, capacity, adds, seed):
        rows = _binary_rows(adds + 1, dim, seed)
        buf = ReplayBuffer(capacity, dim)
        oracle = {"obs": {}, "next_obs": {}}
        for i in range(adds):
            slot = buf.cursor
            buf.add(rows[i], i % 4, 0.0, rows[i + 1], False)
            oracle["obs"][slot], oracle["next_obs"][slot] = rows[i], rows[i + 1]
        assert buf.obs.dtype == np.uint8
        assert buf.obs.shape == buf.next_obs.shape == (capacity, -(-dim // 8))
        _assert_sample_matches(buf, oracle, seed)

    @pytest.mark.parametrize("side", ["obs", "next_obs"])
    @pytest.mark.parametrize("wrapped", [False, True], ids=["before_wrap", "after_wrap"])
    @pytest.mark.parametrize("kind", sorted(NON_BIT_VALUES))
    def test_non_bit_value_is_rejected_before_any_write(self, kind, wrapped, side):
        capacity = 5
        buf = ReplayBuffer(capacity, 6)
        for i in range(capacity + 2 if wrapped else capacity - 2):
            buf.add(_grid_row(i), i % 3, float(i), _grid_row(i + 1), i % 2 == 0)
        odd = _grid_row(7)
        if NON_BIT_VALUES[kind] is None:
            odd = RngStream(9, 0).normal(0.0, 1.0, 6)
        else:
            odd[2] = NON_BIT_VALUES[kind]
        new = {"obs": _grid_row(8), "next_obs": _grid_row(9)}
        new[side] = odd

        def state():
            columns = (buf.store, buf.actions, buf.rewards, buf.dones)
            return [column.tobytes() for column in columns], buf.cursor, buf.size

        before = state()
        with pytest.raises(InvalidInputError, match="only the values 0.0 and 1.0"):
            buf.add(new["obs"], 1, -1.0, new["next_obs"], True)
        assert state() == before

    @pytest.mark.parametrize("odd", [255.0, 0.5], ids=["whole_number", "fraction"])
    @pytest.mark.parametrize("wrapped", [False, True], ids=["before_wrap", "after_wrap"])
    def test_rows_around_a_rejected_one_sample_exactly(self, wrapped, odd):
        capacity, dim = 8, 9
        b = capacity + 3 if wrapped else 3  # the first row that is not 0/1
        rows = _binary_rows(b + 3, dim, 4)
        rows[b, 3] = odd
        buf = ReplayBuffer(capacity, dim)
        oracle = {"obs": {}, "next_obs": {}}
        full_at_rejection = []
        for i in range(b + 2):
            slot = buf.cursor
            if i in (b - 1, b):  # next_obs meets the odd row one add before obs does
                with pytest.raises(InvalidInputError):
                    buf.add(rows[i], 1, float(i), rows[i + 1], i % 5 == 0)
                full_at_rejection.append(buf.size == capacity)
            else:
                buf.add(rows[i], 1, float(i), rows[i + 1], i % 5 == 0)
                oracle["obs"][slot], oracle["next_obs"][slot] = rows[i], rows[i + 1]
            assert buf.size == len(oracle["obs"])
            _assert_sample_matches(buf, oracle, i)
        assert full_at_rejection == [wrapped] * 2
        assert buf.obs.dtype == np.uint8

    def test_default_capacity_reserves_at_most_011_gb(self):
        # np.zeros maps untouched pages; only nbytes is read here
        buf = ReplayBuffer(1_000_000, 324)
        columns = (buf.store, buf.actions, buf.rewards, buf.dones)
        assert sum(a.nbytes for a in columns) <= 0.11e9


class TestBuildNetwork:
    def test_width_doubling_chain(self):
        net = build_network(6, 3, [8, 8], "crelu", False, RngStream(50, 0))
        assert net.params["layer0.w"].shape == (8, 6)
        assert net.params["layer1.w"].shape == (8, 16)
        assert net.params["layer2.w"].shape == (3, 16)

    def test_small_head_outputs(self):
        net = build_network(5, 4, [32], "relu", False, RngStream(51, 0))
        out = forward(net, RngStream(52, 0).normal(0, 1, 40).reshape(8, 5)).outputs
        assert np.max(np.abs(out)) < 0.5

    def test_normalized_advantages(self):
        a = RngStream(53, 0).normal(3.0, 2.0, 64)
        n = normalize_advantages(a)
        assert abs(n.mean()) < 1e-12
        assert abs(n.std() - 1.0) < 1e-6
