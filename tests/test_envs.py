import re

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from plastlab.envs import (
    ACTIONS,
    FrameStack,
    GridWorldEnv,
    LEVEL_OFFSET,
    PROBE_DIM,
    PointMassEnv,
    RewardNormalizer,
    ScenarioConfig,
    TARGET_SPEEDS,
    TaskSpec,
    env_step,
    make_env,
    probe_permutation,
    probe_task,
    teacher_network,
)
from plastlab.envs.gridworld import FREE, HAZARD, WALL
from plastlab.errors import ConfigError, InvalidInputError, SpecError
from plastlab.net import network_output
from plastlab.numkit import DrawAhead, RngStream
from plastlab.runner import loop, resolve_config
from plastlab.runner.cli import main


# ---------------------------------------------------------------- specs


class TestTaskSpec:
    def test_valid(self):
        spec = TaskSpec("gridworld", 7, horizon=50)
        assert spec.family == "gridworld"


# ---------------------------------------------------------------- gridworld


def independent_path_exists(grid, start, goal):
    """Oracle reachability: iterative DFS over free cells, fresh code path."""
    stack, visited = [start], {start}
    while stack:
        cell = stack.pop()
        if cell == goal:
            return True
        for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cell[0] + d[0], cell[1] + d[1])
            if nxt not in visited and grid[nxt] == FREE:
                visited.add(nxt)
                stack.append(nxt)
    return False


class TestGridWorld:
    def test_same_seed_identical_layout(self):
        a, b = GridWorldEnv(42, 100), GridWorldEnv(42, 100)
        np.testing.assert_array_equal(a.grid, b.grid)
        assert a.start == b.start and a.goal == b.goal

    def test_layout_collisions_rare(self):
        signatures = set()
        for seed in range(100):
            env = GridWorldEnv(seed, 100)
            signatures.add((env.grid.tobytes(), env.start, env.goal))
        assert len(signatures) >= 99

    def test_always_solvable(self):
        for seed in range(60):
            env = GridWorldEnv(seed, 100)
            assert independent_path_exists(env.grid, env.start, env.goal), seed

    def test_observation_channels(self):
        env = GridWorldEnv(3, 100)
        obs = env.reset()
        assert obs.shape == (env.obs_dim,) == (324,)
        channels = obs.reshape(4, 9, 9)
        assert channels[0].sum() == 1.0 and channels[0][env.agent] == 1.0
        assert channels[1].sum() == 1.0 and channels[1][env.goal] == 1.0
        assert channels[2].sum() == float(np.sum(env.grid == HAZARD))
        assert channels[3].sum() == float(np.sum(env.grid == WALL))

    @staticmethod
    def observe_reference(env):
        """Oracle: all four channels built from scratch."""
        channels = np.zeros((4, env.size, env.size))
        channels[0][env.agent] = 1.0
        channels[1][env.goal] = 1.0
        channels[2][env.grid == HAZARD] = 1.0
        channels[3][env.grid == WALL] = 1.0
        return channels.ravel()

    @pytest.mark.parametrize("seed", [0, 3, 17, 101, 2**40])
    def test_observation_matches_channel_construction_on_every_free_cell(self, seed):
        env = GridWorldEnv(seed, 100)
        cells = np.argwhere(env.grid != WALL)
        assert len(cells) > 10
        for r, c in cells:
            env.agent = (int(r), int(c))
            got = env._observe()
            assert got.dtype == np.float64 and got.shape == (env.obs_dim,)
            assert got.tobytes() == self.observe_reference(env).tobytes(), (r, c)

    def test_observations_are_fresh_writable_arrays(self):
        env = GridWorldEnv(4, 100)
        first = env.reset()
        assert first.flags.writeable and first.flags.owndata
        want = self.observe_reference(env)
        first[:] = 7.0
        second, _, _ = env.step(ACTIONS.index("stay"))
        assert second.tobytes() == want.tobytes()
        assert not np.shares_memory(first, second)
        second[:] = -1.0
        assert env.reset().tobytes() == want.tobytes()

    def test_stay_to_horizon_truncates(self):
        env = GridWorldEnv(5, horizon=30)
        env.reset()
        total, done = 0.0, False
        steps = 0
        while not done:
            _, r, done = env.step(ACTIONS.index("stay"))
            total += r
            steps += 1
        assert steps == 30
        assert abs(total - (-0.01 * 30)) < 1e-12

    def test_goal_step_terminal_reward_one(self):
        env = GridWorldEnv(6, 100)
        env.reset()
        gr, gc = env.goal
        env.agent = (gr - 1, gc) if env.grid[gr - 1, gc] != WALL else (gr + 1, gc)
        action = 1 if env.agent[0] < gr else 0
        _, r, done = env.step(action)
        assert r == 1.0 and done

    def test_hazard_terminal(self):
        env = GridWorldEnv(7, 100)
        env.reset()
        cells = np.argwhere(env.grid == HAZARD)
        hr, hc = cells[0]
        for (dr, dc), action in (((-1, 0), 1), ((1, 0), 0), ((0, -1), 3), ((0, 1), 2)):
            nr, nc = hr + dr, hc + dc
            if env.grid[nr, nc] == FREE and (nr, nc) != env.goal:
                env.agent = (nr, nc)
                _, r, done = env.step(action)
                assert r == -1.0 and done
                return
        pytest.skip("hazard fully enclosed in this layout")

    def test_wall_bump_stays(self):
        env = GridWorldEnv(8, 100)
        env.reset()
        env.agent = env.start
        wr, wc = next(
            (r, c) for r in range(9) for c in range(9)
            if env.grid[r, c] == FREE and env.grid[r - 1, c] == WALL and (r, c) != env.goal
        )
        env.agent = (wr, wc)
        _, r, done = env.step(0)
        assert env.agent == (wr, wc)
        assert r == -0.01 and not done

    def test_invalid_action(self):
        env = GridWorldEnv(9, 100)
        env.reset()
        with pytest.raises(InvalidInputError):
            env.step(5)

    def test_return_bounds_random_policy(self):
        stream = RngStream(77, 0)
        for seed in range(5):
            env = GridWorldEnv(seed, 60)
            env.reset()
            total, done = 0.0, False
            while not done:
                _, r, done = env.step(int(stream.randint(5, 1)[0]))
                total += r
            assert -1.0 - 0.01 * 60 <= total <= 1.0


# ---------------------------------------------------------------- pointmass


class TestPointMass:
    def test_variant_targets(self):
        assert TARGET_SPEEDS == {"stand": 0.0, "walk": 0.5, "run": 1.0, "trot": 0.75}

    def test_stand_reward_peaks_at_rest(self):
        env = PointMassEnv(1, 100, "stand")
        env.reset()
        env.vel = np.zeros(2)
        _, r, _ = env.step(np.zeros(2))
        assert r == 1.0

    def test_reward_peak_at_target_speed(self):
        env = PointMassEnv(2, 100, "walk")
        env.reset()
        env.vel = np.array([0.5, 0.0])
        _, r, _ = env.step(np.zeros(2))
        assert r == 1.0

    def test_euler_integration(self):
        env = PointMassEnv(3, 100, "run")
        env.reset()
        env.pos, env.vel = np.zeros(2), np.zeros(2)
        obs, _, _ = env.step(np.array([1.0, -1.0]))
        np.testing.assert_allclose(obs[2:], [0.05, -0.05], atol=1e-15)
        np.testing.assert_allclose(obs[:2], [0.0025, -0.0025], atol=1e-15)

    def test_action_validation(self):
        env = PointMassEnv(4, 100, "walk")
        env.reset()
        with pytest.raises(InvalidInputError):
            env.step(np.array([1.5, 0.0]))
        with pytest.raises(InvalidInputError):
            env.step(np.array([np.nan, 0.0]))
        with pytest.raises(InvalidInputError):
            env.step(np.array([0.1, 0.2, 0.3]))

    def test_truncation(self):
        env = PointMassEnv(5, horizon=7, task_variant="walk")
        env.reset()
        for i in range(7):
            _, _, done = env.step(np.zeros(2))
        assert done

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**31), ax=st.floats(-1, 1), ay=st.floats(-1, 1))
    def test_reward_bounds(self, seed, ax, ay):
        env = PointMassEnv(seed, 100, "trot")
        env.reset()
        _, r, _ = env.step(np.array([ax, ay]))
        assert -0.02 < r <= 1.0

    def test_reset_stream_deterministic(self):
        a, b = PointMassEnv(6, 100, "walk"), PointMassEnv(6, 100, "walk")
        for _ in range(3):
            np.testing.assert_array_equal(a.reset(), b.reset())


# ---------------------------------------------------------------- probe


class TestProbe:
    def test_same_seed_same_batch(self):
        x1, y1 = probe_task(9, 32, RngStream(1, 0))
        x2, y2 = probe_task(9, 32, RngStream(1, 0))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_identity_permutation_is_base_task(self):
        x, y = probe_task(0, 16, RngStream(2, 0))
        np.testing.assert_array_equal(y, network_output(teacher_network(), x))

    def test_teacher_self_mse_zero(self):
        x, y = probe_task(0, 64, RngStream(3, 0))
        pred = network_output(teacher_network(), x)
        assert np.mean((pred - y) ** 2) == 0.0

    def test_permutations_differ_and_are_valid(self):
        perms = [probe_permutation(s) for s in (0, 1, 2, 3)]
        for p in perms:
            np.testing.assert_array_equal(np.sort(p), np.arange(PROBE_DIM))
        assert len({tuple(p) for p in perms}) == 4

    def test_permutation_changes_targets(self):
        x1, y1 = probe_task(0, 32, RngStream(4, 0))
        x2, y2 = probe_task(5, 32, RngStream(4, 0))
        np.testing.assert_array_equal(x1, x2)
        assert np.max(np.abs(y1 - y2)) > 1e-3


def probe_task_reference(perm_seed, n, stream):
    """Oracle: one normal call and one teacher forward per batch."""
    x = stream.normal(0.0, 1.0, n * PROBE_DIM).reshape(n, PROBE_DIM)
    return x, network_output(teacher_network(), x[:, probe_permutation(perm_seed)])


class TestProbeBatchBlocks:
    """Training batches served from a block drawn ahead, bit for bit and
    counter for counter, against one draw and one forward per batch."""

    def _assert_next_equal(self, perm_seed, n, fast, ref, ahead):
        x, y = probe_task(perm_seed, n, fast, ahead)
        x_ref, y_ref = probe_task_reference(perm_seed, n, ref)
        assert x.tobytes() == x_ref.tobytes() and y.tobytes() == y_ref.tobytes()
        assert x.shape == (n, PROBE_DIM) and y.shape == y_ref.shape
        assert fast.counter == ref.counter

    @pytest.mark.parametrize("n", [1, 7, 64, 256])
    @pytest.mark.parametrize("seed,perm_seed", [(0, 0), (3, 5), (11, 2), (40, 17)])
    def test_block_matches_per_step_draws(self, n, seed, perm_seed):
        fast, ref = RngStream(seed, 1), RngStream(seed, 1)
        ahead = DrawAhead(loop.DRAW_AHEAD)
        for _ in range(2 * loop.DRAW_AHEAD + 3):
            self._assert_next_equal(perm_seed, n, fast, ref, ahead)
        assert fast.counter == (2 * loop.DRAW_AHEAD + 3) * n * PROBE_DIM
        # no holder: the one-batch case of the same draw
        self._assert_next_equal(perm_seed, n, fast, ref, None)

    def test_refills_every_draw_ahead_steps_on_an_undisturbed_stream(self):
        stream, ahead, starts = RngStream(5, 1), DrawAhead(loop.DRAW_AHEAD), []
        for _ in range(3 * loop.DRAW_AHEAD):
            probe_task(3, 10, stream, ahead)
            starts.append(ahead.start)
        block = loop.DRAW_AHEAD * 10 * PROBE_DIM
        assert sorted(set(starts)) == [0, block, 2 * block]

    def test_foreign_draw_mid_block_redraws(self):
        fast, ref, ahead = RngStream(6, 1), RngStream(6, 1), DrawAhead(loop.DRAW_AHEAD)
        for _ in range(3):
            self._assert_next_equal(4, 12, fast, ref, ahead)
        fast.uniform(0.0, 1.0, 5)
        ref.uniform(0.0, 1.0, 5)
        moved = fast.counter
        for _ in range(loop.DRAW_AHEAD + 2):
            self._assert_next_equal(4, 12, fast, ref, ahead)
            assert ahead.start >= moved

    def test_task_switch_mid_block_redraws(self):
        fast, ref, ahead = RngStream(7, 1), RngStream(7, 1), DrawAhead(loop.DRAW_AHEAD)
        for _ in range(3):
            self._assert_next_equal(4, 12, fast, ref, ahead)
        switched = fast.counter
        for _ in range(3):
            self._assert_next_equal(9, 12, fast, ref, ahead)
            assert ahead.start == switched and ahead.origin[2] == (9, 12)
        # back to the first task: its block is gone, so it draws afresh
        self._assert_next_equal(4, 12, fast, ref, ahead)
        assert ahead.start == switched + 3 * 12 * PROBE_DIM

    def test_other_batch_size_or_stream_redraws(self):
        fast, ref, ahead = RngStream(8, 1), RngStream(8, 1), DrawAhead(loop.DRAW_AHEAD)
        self._assert_next_equal(2, 12, fast, ref, ahead)
        self._assert_next_equal(2, 13, fast, ref, ahead)
        assert ahead.origin[2] == (2, 13)
        # another stream standing where the block expects the next take
        other, other_ref = RngStream(8, 2, fast.counter), RngStream(8, 2, fast.counter)
        self._assert_next_equal(2, 13, other, other_ref, ahead)
        assert ahead.origin[:2] == (8, 2)


# ---------------------------------------------------------------- schedule


def _at(sc: ScenarioConfig, step: int) -> tuple[TaskSpec, bool]:
    """The task running at `step` and whether the step switches to it."""
    return sc.task(step // sc.segment_length), sc.switches(step)


class TestSchedule:
    def test_standard_single_segment(self):
        sc = ScenarioConfig("standard", "gridworld", 10**9, level_seed_base=11)
        for step in (0, 1, 500, 10**6):
            spec, switched = _at(sc, step)
            assert spec.level_seed == 11
            assert switched == (step == 0)

    def test_level_shift_boundary(self):
        sc = ScenarioConfig("level_shift", segment_length=1000, n_segments=5, level_seed_base=100)
        spec, switched = _at(sc, 1000)
        assert switched and spec.level_seed == 100 + LEVEL_OFFSET
        spec, switched = _at(sc, 999)
        assert not switched and spec.level_seed == 100

    def test_level_shift_seed_arithmetic(self):
        sc = ScenarioConfig("level_shift", segment_length=10, n_segments=6, level_seed_base=40)
        seeds = [sc.task(i).level_seed for i in range(6)]
        assert seeds == [40 + 20 * i for i in range(6)]

    def test_clamps_to_last_segment(self):
        sc = ScenarioConfig("level_shift", segment_length=100, n_segments=3, level_seed_base=1)
        spec, switched = _at(sc, 100 * 50)
        assert spec == sc.task(2) == sc.task(10**12)
        assert not switched
        assert [step for step in range(0, 1000, 50) if sc.switches(step)] == [0, 100, 200]

    def test_task_chain_order(self):
        variants = ("stand", "walk", "run", "trot")
        sc = ScenarioConfig("task_chain", "pointmass", 100, variants, 8, level_seed_base=2)
        spec, _ = _at(sc, 250)
        assert spec.task_variant == "run"
        assert [sc.task(i).task_variant for i in range(4)] == list(variants)
        assert sc.task(4).task_variant == "stand"
        assert {sc.task(i).level_seed for i in range(8)} == {2}

    def test_first_variant_outside_task_chain(self):
        for mode in ("standard", "level_shift"):
            sc = ScenarioConfig(mode, "pointmass", 100, ("run", "walk"), 1 if mode == "standard" else 3)
            assert [sc.task(i).task_variant for i in range(3)] == ["run"] * 3

    @settings(deadline=None, max_examples=50)
    @given(a=st.integers(0, 10**6), b=st.integers(0, 10**6))
    def test_segment_index_monotone(self, a, b):
        sc = ScenarioConfig("level_shift", segment_length=137, n_segments=9)
        lo, hi = min(a, b), max(a, b)
        # level_shift seeds rise with the segment index
        assert _at(sc, lo)[0].level_seed <= _at(sc, hi)[0].level_seed

    @pytest.mark.parametrize("scenario,message", [
        ({"mode": "endless"}, "'scenario.mode' must be one of"),
        ({"mode": "level_shift", "segment_length": 0}, "'scenario.segment_length' must be >= 1, got 0"),
        ({"mode": "level_shift", "n_segments": 0}, "'scenario.n_segments' must be >= 1, got 0"),
        ({"mode": "standard", "n_segments": 2}, "'scenario.n_segments' has no effect in standard mode"),
        ({"mode": "task_chain", "family": "gridworld"}, "task_chain needs pointmass task variants"),
        ({"mode": "level_shift", "total_steps": -1}, "'total_steps' must be >= 1, got -1"),
    ])
    def test_bad_schedule_exit_2(self, scenario, message, tmp_path, capsys):
        scenario = dict(scenario)
        raw = {"algo": "ppo", "total_steps": scenario.pop("total_steps", 20), "scenario": scenario}
        with pytest.raises(ConfigError, match=re.escape(message)):
            resolve_config(raw)
        (tmp_path / "exp.yaml").write_text(yaml.safe_dump(raw))
        assert main(["run", str(tmp_path / "exp.yaml"), "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_task_chain_always_has_variants(self):
        # an empty or null variant list takes the full sequence
        for variants in ([], None):
            cfg = resolve_config({"algo": "ppo", "scenario": {"mode": "task_chain", "variants": variants}})
            assert cfg.scenario.variants == tuple(TARGET_SPEEDS)

    def test_run_builds_tasks_only_at_switches(self, tmp_path, monkeypatch):
        built = []
        task = ScenarioConfig.task

        def counting_task(sc, i):
            built.append(i)
            return task(sc, i)

        monkeypatch.setattr(ScenarioConfig, "task", counting_task)
        cfg = resolve_config({
            "algo": "regression", "total_steps": 20, "network": {"hidden": [8]},
            "scenario": {"mode": "level_shift", "segment_length": 6, "n_segments": 3},
            "logging": {"metric_interval": 20, "probe_batch": 8},
        })
        loop.run_experiment(cfg, str(tmp_path / "r"))
        assert built == [0, 1, 2]

    def test_obs_shape_stable_across_segments(self):
        sc = ScenarioConfig("level_shift", segment_length=10, n_segments=5, level_seed_base=7)
        dims = set()
        for spec in map(sc.task, range(5)):
            env, obs = make_env(spec)
            dims.add(obs.shape)
            assert np.all(np.isfinite(obs))
        assert len(dims) == 1

    def test_make_env_rejects_probe(self):
        with pytest.raises(SpecError):
            make_env(TaskSpec("probe", 0))

    def test_env_step_dispatch(self):
        env, obs = make_env(TaskSpec("gridworld", 1, horizon=10))
        obs2, r, done = env_step(env, 4)
        assert obs2.shape == obs.shape and r == -0.01


# ---------------------------------------------------------------- wrappers


class TestWrappers:
    def test_frame_stack_reset_and_shift(self):
        env, _ = make_env(TaskSpec("gridworld", 12, horizon=50))
        stacked = FrameStack(env, k=4)
        obs = stacked.reset()
        assert obs.shape == (4 * 324,)
        first = obs[:324]
        for i in range(4):
            np.testing.assert_array_equal(obs[i * 324 : (i + 1) * 324], first)
        obs2, _, _ = stacked.step(4)
        np.testing.assert_array_equal(obs2[: 3 * 324], obs[324:])

    def test_reward_normalizer_matches_welford_oracle(self):
        stream = RngStream(31, 0)
        rewards = stream.normal(0.0, 2.0, 200)
        dones = stream.uniform(0.0, 1.0, 200) < 0.05
        norm = RewardNormalizer(gamma=0.99)
        returns, ret = [], 0.0
        for r, d in zip(rewards, dones):
            out = norm.update(float(r), bool(d))
            ret = 0.99 * ret + r
            returns.append(ret)
            if d:
                ret = 0.0
            var = np.var(returns) if len(returns) > 1 else 1.0
            assert abs(out - r / np.sqrt(var + 1e-8)) < 1e-8

    def test_reward_normalizer_scale_stabilizes(self):
        norm = RewardNormalizer(gamma=0.9)
        outs = [norm.update(1.0, False) for _ in range(3000)]
        assert abs(outs[-1] - outs[-2]) < 1e-3
