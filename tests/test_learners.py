import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plastlab.errors import InvalidInputError, NumericError
from plastlab.learners import (
    C51Config,
    C51Learner,
    CategoricalHead,
    PPOConfig,
    PPOLearner,
    ReplayBuffer,
    TrajectoryBatch,
    build_network,
    c51_loss,
    c51_support,
    c51_update,
    categorical_projection,
    categorical_projection_batch,
    epsilon_schedule,
    gae,
    gaussian_policy,
    normalize_advantages,
    ppo_loss,
)
from plastlab.learners.ppo import _log_softmax
from plastlab.mitigations import make_optimizer
from plastlab.net import forward
from plastlab.numkit import RngStream

import helpers


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

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            gae(np.zeros(3), np.zeros(4), np.zeros(3), 0.0, 0.9, 0.9)

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            gae(np.zeros(3), np.zeros(3), np.zeros(3), 0.0, 1.2, 0.9)


# ---------------------------------------------------------------- PPO loss


class TestPpoLoss:
    def test_on_policy_identity(self):
        batch = random_batch(RngStream(5, 0), 32)
        total, parts = ppo_loss(
            batch, batch.log_probs.copy(), batch.values.copy(), np.ones(32), 0.2, 0.5, 0.0
        )
        assert abs(parts["policy"]) < 1e-8

    def test_matches_transcription_oracle(self):
        stream = RngStream(6, 0)
        batch = random_batch(stream, 24)
        nlp = batch.log_probs + stream.normal(0, 0.3, 24)
        nv = batch.values + stream.normal(0, 0.5, 24)
        ent = np.abs(stream.normal(1, 0.2, 24))
        total, _ = ppo_loss(batch, nlp, nv, ent, 0.2, 0.5, 0.01)
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
            _, parts = ppo_loss(batch, nlp, batch.values, np.zeros(2), 0.2, 0.0, 0.0)
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
        _, parts = ppo_loss(batch, nlp, batch.values, np.zeros(2), eps, 0.0, 0.0)
        adv = normalize_advantages(batch.advantages)
        expected = -((1.0 + eps) * adv[0] + 1.0 * adv[1]) / 2.0
        assert abs(parts["policy"] - expected) < 1e-12

    def test_nonfinite_ratio_raises(self):
        batch = random_batch(RngStream(9, 0), 8)
        nlp = batch.log_probs + 1e4
        with pytest.raises(NumericError):
            ppo_loss(batch, nlp, batch.values, np.zeros(8), 0.2, 0.5, 0.0)

    def test_missing_advantages_rejected(self):
        stream = RngStream(10, 0)
        batch = random_batch(stream, 8)
        batch.advantages = None
        with pytest.raises(InvalidInputError):
            ppo_loss(batch, batch.log_probs, batch.values, np.zeros(8), 0.2, 0.5, 0.0)

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
            return ppo_loss(batch, v, batch.values, np.zeros(12), 0.2, 0.0, 0.0)[0]

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

    def test_sampling_without_stream_rejected(self):
        with pytest.raises(InvalidInputError):
            gaussian_policy(np.zeros((1, 2)), np.zeros(2))

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

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            c51_support(-1.0, 1.0, 1)
        with pytest.raises(InvalidInputError):
            c51_support(2.0, 1.0, 5)


# ---------------------------------------------------------------- projection


HEAD = CategoricalHead(51, -10.0, 10.0)


def random_dist(stream, n):
    p = stream.uniform(0.0, 1.0, n)
    return p / p.sum()


class TestProjection:
    def test_terminal_aligned_is_point_mass(self):
        for k in (0, 7, 25, 50):
            p = random_dist(RngStream(k, 0), 51)
            m = categorical_projection(p, float(HEAD.atoms[k]), True, 0.99, HEAD)
            assert abs(m[k] - 1.0) < 1e-12
            assert np.sum(m != 0.0) == 1

    def test_midpoint_splits_half_half(self):
        r = float(HEAD.atoms[12]) + 0.2
        m = categorical_projection(random_dist(RngStream(2, 0), 51), r, False, 0.0, HEAD)
        assert abs(m[12] - 0.5) < 1e-9 and abs(m[13] - 0.5) < 1e-9

    def test_matches_loop_oracle(self):
        stream = RngStream(33, 0)
        for _ in range(60):
            p = random_dist(stream, 51)
            r = stream.uniform(-14.0, 14.0, 1)[0]
            gamma = stream.uniform(0.0, 1.0, 1)[0]
            done = stream.uniform(0.0, 1.0, 1)[0] < 0.3
            m = categorical_projection(p, r, done, gamma, HEAD)
            oracle = projection_loop_oracle(p, r, done, gamma, HEAD)
            np.testing.assert_allclose(m, oracle, atol=1e-10)

    def test_batch_matches_single(self):
        stream = RngStream(34, 0)
        dists = np.stack([random_dist(stream, 51) for _ in range(8)])
        rewards = stream.uniform(-12.0, 12.0, 8)
        dones = (stream.uniform(0.0, 1.0, 8) < 0.4).astype(np.float64)
        batch = categorical_projection_batch(dists, rewards, dones, 0.97, HEAD)
        for i in range(8):
            single = categorical_projection(dists[i], rewards[i], bool(dones[i]), 0.97, HEAD)
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
        m = categorical_projection(p, r, done, gamma, HEAD)
        assert abs(m.sum() - 1.0) < 1e-6
        assert np.all(m >= 0.0)

    def test_malformed_dist_rejected(self):
        with pytest.raises(InvalidInputError):
            categorical_projection(np.full(51, 0.1), 0.0, False, 0.9, HEAD)
        bad = random_dist(RngStream(1, 0), 51)
        bad[0], bad[1] = -bad[1], bad[0] + 2 * bad[1]
        with pytest.raises(InvalidInputError):
            categorical_projection(bad, 0.0, False, 0.9, HEAD)
        with pytest.raises(InvalidInputError):
            categorical_projection(random_dist(RngStream(1, 0), 50), 0.0, False, 0.9, HEAD)


# ---------------------------------------------------------------- C51 loss


class TestC51Loss:
    def test_matching_distributions_give_entropy(self):
        stream = RngStream(40, 0)
        logits = stream.normal(0.0, 1.0, 51)
        p = np.exp(logits) / np.exp(logits).sum()
        entropy = -np.sum(p * np.log(p))
        assert abs(c51_loss(p, logits) - entropy) < 1e-12

    def test_point_mass_cross_entropy(self):
        logits = np.zeros(51)
        logits[30] = 4.0
        m = np.zeros(51)
        m[30] = 1.0
        p_max = np.exp(4.0) / (np.exp(4.0) + 50.0)
        assert abs(c51_loss(m, logits) - -np.log(p_max)) < 1e-12

    def test_gradient_vs_finite_differences(self):
        stream = RngStream(41, 0)
        logits = stream.normal(0.0, 1.0, 21)
        head = CategoricalHead(21, -5.0, 5.0)
        m = categorical_projection(random_dist(stream, 21), 1.3, False, 0.9, head)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        analytic = p - m
        h = 1e-5
        for j in range(21):
            up, down = logits.copy(), logits.copy()
            up[j] += h
            down[j] -= h
            fd = (c51_loss(m, up) - c51_loss(m, down)) / (2 * h)
            assert abs(fd - analytic[j]) / max(abs(fd), 1e-3) < 1e-4

    def test_unnormalized_target_rejected(self):
        with pytest.raises(InvalidInputError):
            c51_loss(np.full(51, 0.5), np.zeros(51))


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

    def test_bad_fraction(self):
        with pytest.raises(InvalidInputError):
            epsilon_schedule(0, 1.0, 0.01, 0.0, 100)


# ---------------------------------------------------------------- C51 update


def make_c51(seed, n_actions=2, obs_dim=2, n_atoms=51, hidden=(32,)):
    cfg = C51Config(n_atoms=n_atoms, buffer_size=512, batch_size=16, learning_starts=32,
                    train_frequency=1, target_network_frequency=10**9)
    net = build_network(obs_dim, n_actions * n_atoms, list(hidden), "relu", False,
                        RngStream(seed, 1))
    return C51Learner(net, n_actions, cfg, make_optimizer("adam", net), obs_dim=obs_dim), cfg


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
            obs = stream.normal(0.0, 1.0, 2)
            learner.remember(obs, int(stream.randint(2, 1)[0]),
                             float(stream.uniform(-2.0, 2.0, 1)[0]), obs, False)
        sample_stream = RngStream(9, 0)
        loss, grads, trace = c51_update(
            learner.buffer, learner.net, learner.net, learner.head,
            16, 0.0, sample_stream, learning_starts=0)
        batch = learner.buffer.sample(16, RngStream(9, 0))
        expected = 0.0
        for i in range(16):
            m = categorical_projection(np.full(51, 1.0 / 51), batch["rewards"][i], bool(batch["dones"][i]), 0.0, learner.head)
            out = forward(learner.net, batch["obs"][i : i + 1]).outputs.reshape(2, 51)
            expected += c51_loss(m, out[int(batch["actions"][i])])
        assert abs(loss - expected / 16) < 1e-10

    def test_target_bit_stable_between_syncs(self):
        learner, cfg = make_c51(3)
        stream = RngStream(8, 0)
        for i in range(128):
            obs = stream.normal(0.0, 1.0, 2)
            learner.remember(obs, i % 2, float(np.sin(i)), obs, i % 17 == 0)
        frozen = {k: v.copy() for k, v in learner.target.params.items()}
        for step in range(1, 40):
            stats = learner.update(step, stream)
            assert stats is not None
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
            obs = stream.normal(0.0, 1.0, 2)
            learner.remember(obs, i % 2, 0.5, obs, False)
        for selection in ("target", "online"):
            out = c51_update(learner.buffer, learner.net, learner.target, learner.head,
                             8, 0.9, RngStream(5, 0), learning_starts=0,
                             action_selection=selection)
            assert out is not None and np.isfinite(out[0])
        with pytest.raises(InvalidInputError):
            c51_update(learner.buffer, learner.net, learner.target, learner.head,
                       8, 0.9, RngStream(5, 0), learning_starts=0,
                       action_selection="both")

    def test_update_deterministic(self):
        nets = []
        for _ in range(2):
            learner, cfg = make_c51(5)
            stream = RngStream(11, 0)
            for i in range(96):
                obs = stream.normal(0.0, 1.0, 2)
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
        acts = {learner.act(np.ones(2), cfg.total_steps, RngStream(s, 0)) for s in range(5)}
        assert acts == {greedy}


# ---------------------------------------------------------------- PPO learner


def make_ppo(seed, discrete=True, n_actions=3, obs_dim=4, activation="tanh",
             layer_norm=False, **cfg_kw):
    cfg = PPOConfig(n_minibatches=2, update_epochs=2, **cfg_kw)
    net = build_network(obs_dim, n_actions + 1, [16, 16], activation, layer_norm,
                        RngStream(seed, 1))
    return PPOLearner(net, n_actions, discrete, cfg, make_optimizer("adam", net)), cfg


def collect_synthetic(learner, stream, n=64, obs_dim=4):
    obs = stream.normal(0.0, 1.0, n * obs_dim).reshape(n, obs_dim)
    actions, log_probs, values = [], [], []
    for t in range(n):
        a, lp, v = learner.act(obs[t], stream)
        actions.append(a)
        log_probs.append(lp)
        values.append(v)
    rewards = stream.normal(0.0, 1.0, n)
    dones = (stream.uniform(0.0, 1.0, n) < 0.1).astype(np.float64)
    return TrajectoryBatch(obs, np.array(actions), rewards, dones,
                           np.array(log_probs), np.array(values))


def ppo_total_loss(learner, mb):
    _, nlp, ent, nv = learner.evaluate_actions(mb.observations, mb.actions)
    cfg = learner.cfg
    total, _ = ppo_loss(mb, nlp, nv, ent, cfg.clip_eps, cfg.vf_coef, cfg.ent_coef,
                        cfg.value_clip)
    return total


def fd_check_ppo(learner, mb, names, h=1e-6, tol=1e-4):
    trace, nlp, ent, nv = learner.evaluate_actions(mb.observations, mb.actions)
    grads = learner._loss_grads(mb, trace, nlp, nv)
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
        learner.update(traj, 0.0, RngStream(34, 3))
        assert not np.array_equal(learner.net.params["log_std"], np.zeros(2))

    def test_update_deterministic(self):
        results = []
        for _ in range(2):
            learner, _ = make_ppo(35, discrete=True)
            traj = collect_synthetic(learner, RngStream(35, 2))
            learner.update(traj, 0.1, RngStream(35, 3))
            results.append({k: v.copy() for k, v in learner.net.params.items()})
        for k in results[0]:
            np.testing.assert_array_equal(results[0][k], results[1][k])

    def test_act_matches_evaluate(self):
        learner, _ = make_ppo(36, discrete=True)
        obs = RngStream(36, 2).normal(0.0, 1.0, 4)
        a, lp, v = learner.act(obs, RngStream(36, 4))
        _, lp_eval, _, v_eval = learner.evaluate_actions(
            obs.reshape(1, 4), np.array([a]))
        assert abs(lp - lp_eval[0]) < 1e-12
        assert abs(v - v_eval[0]) < 1e-12

    def test_head_width_validated(self):
        net = build_network(4, 7, [8], "relu", False, RngStream(37, 1))
        with pytest.raises(InvalidInputError):
            PPOLearner(net, 3, True, PPOConfig(), make_optimizer("adam", net))

    def test_update_visits_every_sample(self):
        learner, _ = make_ppo(38, discrete=True)
        traj = collect_synthetic(learner, RngStream(38, 2), n=32)
        seen = []
        original = learner._minibatch_step

        def spy(mb):
            seen.append(len(mb))
            return original(mb)

        learner._minibatch_step = spy
        learner.update(traj, 0.0, RngStream(38, 3))
        assert sum(seen) == 32 * learner.cfg.update_epochs


# ---------------------------------------------------------------- plumbing


class TestReplayBuffer:
    def test_ring_overwrite_and_sample(self):
        buf = ReplayBuffer(8, 3)
        for i in range(12):
            buf.add(np.full(3, i), i % 4, float(i), np.full(3, i + 1), i % 2 == 0)
        assert len(buf) == 8
        batch = buf.sample(5, RngStream(1, 0))
        assert batch["obs"].shape == (5, 3)
        assert np.all(batch["obs"][:, 0] >= 4)

    def test_sample_deterministic(self):
        buf = ReplayBuffer(16, 2)
        for i in range(16):
            buf.add(np.full(2, i), 0, 0.0, np.full(2, i), False)
        b1 = buf.sample(6, RngStream(2, 7))
        b2 = buf.sample(6, RngStream(2, 7))
        np.testing.assert_array_equal(b1["obs"], b2["obs"])


def _grid_row(i: int, dim: int = 6) -> np.ndarray:
    """A gridworld-like observation: float64 zeros with ones."""
    row = np.zeros(dim)
    row[i % dim] = 1.0
    row[(3 * i + 1) % dim] = 1.0
    return row


NON_BYTE_VALUES = {
    "half": 0.5,
    "negative": -1.0,
    "above_255": 256.0,
    "nan": np.nan,
    "inf": np.inf,
    "negative_zero": -0.0,
    "gaussian": None,
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestReplayByteStorage:
    def test_binary_and_byte_rows_round_trip_exactly(self):
        rows = [_grid_row(i) for i in range(5)] + [np.arange(250.0, 256.0), np.arange(6.0)]
        buf = ReplayBuffer(len(rows), 6)
        for i, row in enumerate(rows):
            buf.add(row, 0, 0.0, rows[(i + 1) % len(rows)], False)
        assert buf.obs.dtype == np.uint8 and buf.next_obs.dtype == np.uint8
        for i, row in enumerate(rows):
            assert buf.obs[i].astype(np.float64).tobytes() == row.tobytes()
        batch = buf.sample(32, RngStream(3, 0))
        for name in ("obs", "next_obs"):
            assert batch[name].dtype == np.float64
            assert all(any(np.array_equal(got, r) for r in rows) for got in batch[name])

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

    @pytest.mark.parametrize("side", ["obs", "next_obs"])
    @pytest.mark.parametrize("wrapped", [False, True], ids=["before_wrap", "after_wrap"])
    @pytest.mark.parametrize("kind", sorted(NON_BYTE_VALUES))
    def test_widening_keeps_earlier_rows_bit_exact(self, kind, wrapped, side):
        capacity = 5
        buf = ReplayBuffer(capacity, 6)
        expect = {"obs": {}, "next_obs": {}}
        for i in range(capacity + 2 if wrapped else capacity - 2):
            slot = buf.cursor
            buf.add(_grid_row(i), i % 3, float(i), _grid_row(i + 1), False)
            expect["obs"][slot], expect["next_obs"][slot] = _grid_row(i), _grid_row(i + 1)
        assert buf.obs.dtype == np.uint8
        odd = _grid_row(7)
        if NON_BYTE_VALUES[kind] is None:
            odd = RngStream(9, 0).normal(0.0, 1.0, 6)
        else:
            odd[2] = NON_BYTE_VALUES[kind]
        new = {"obs": _grid_row(8), "next_obs": _grid_row(9)}
        new[side] = odd
        slot = buf.cursor
        buf.add(new["obs"], 1, -1.0, new["next_obs"], True)
        expect["obs"][slot], expect["next_obs"][slot] = new["obs"], new["next_obs"]
        assert buf.size == len(expect["obs"])
        for name in ("obs", "next_obs"):
            stored = getattr(buf, name)
            assert stored.dtype == np.float64
            for i, row in expect[name].items():
                assert stored[i].tobytes() == row.tobytes(), (name, i)
        buf.add(_grid_row(1), 0, 0.0, _grid_row(2), False)
        assert buf.obs.dtype == np.float64 and buf.next_obs.dtype == np.float64
        assert buf.sample(4, RngStream(2, 0))["obs"].dtype == np.float64

    def test_default_capacity_reserves_under_065_gb(self):
        # np.zeros maps untouched pages; only nbytes is read here
        buf = ReplayBuffer(1_000_000, 324)
        assert buf.obs.nbytes + buf.next_obs.nbytes <= 0.65e9


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
