import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plastlab.errors import MitigationError, NumericError
from plastlab.learners import gae
from plastlab.learners import ppo as ppo_module
from plastlab.metrics import _params_l2, dormant_ratio, gradient_norm
from plastlab.mitigations import (
    REGISTRY,
    DrawAhead,
    Kron,
    Trigger,
    apply_event_method,
    build_plan,
    make_optimizer,
    nap_project,
    optimizer_step,
    redo_reset,
    reg_loss,
    reset_layers,
    shrink_perturb,
    Trac,
)
from plastlab.net import (
    ForwardTrace,
    Gradients,
    LayerSpec,
    add_injection_round,
    backward,
    clone_network,
    forward,
    init_network,
    layer_params,
    network_output,
)
from plastlab.numkit import RngStream, erfi
from plastlab.runner import loop, resolve_config, run_experiment

import test_golden as golden
from helpers import constant_network, single_draw_reference
from test_learners import collect_synthetic, make_ppo


def drift(a, b):
    """L2 distance between two networks' parameters."""
    return _params_l2(a.params, b.params, list(a.param_order))[0]


def grads_of(by_name):
    return Gradients(by_name=by_name, lin_grads={})


def tanh_net(seed=0, layer_norm=False):
    return init_network(
        [
            LayerSpec(3, 6, "tanh", layer_norm),
            LayerSpec(6, 4, "tanh", layer_norm),
            LayerSpec(4, 2, "linear"),
        ],
        RngStream(seed, 0),
    )


def degenerate_net(value=0.5):
    """Every weight and bias is `value`; every fresh init draw is exactly 0."""
    return constant_network(
        [LayerSpec(2, 3, "tanh", init="orthogonal(0.0)"), LayerSpec(3, 1, "linear", init="orthogonal(0.0)")],
        value,
    )


class TestShrinkPerturb:
    def test_beta_zero_is_identity(self):
        net = tanh_net(1)
        before = {k: v.copy() for k, v in net.params.items()}
        shrink_perturb(net, 0.0, RngStream(1, 5))
        for name in net.param_order:
            assert net.params[name].tobytes() == before[name].tobytes()

    def test_beta_one_equals_fresh_draw(self):
        net = tanh_net(2)
        net.params["layer0.w"] += 1.0
        shrink_perturb(net, 1.0, RngStream(9, 9))
        replay = RngStream(9, 9)
        for i, spec in enumerate(net.layers):
            w, b = layer_params(i, spec, replay).values()
            np.testing.assert_array_equal(net.params[f"layer{i}.w"], w)
            np.testing.assert_array_equal(net.params[f"layer{i}.b"], b)

    def test_degenerate_draw_arithmetic(self):
        net = degenerate_net(0.5)
        for name in net.param_order:
            net.params[name][:] = 1.0
        shrink_perturb(net, 0.2, RngStream(3, 3))
        for name in net.param_order:
            np.testing.assert_allclose(net.params[name], 0.8 * 1.0 + 0.2 * 0.0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_drift_linear_in_beta(self, beta):
        base = degenerate_net(0.5)
        base.params["layer0.w"][:] = 2.0
        reference = clone_network(base)
        net = clone_network(base)
        shrink_perturb(net, beta, RngStream(0, 1))
        full = clone_network(base)
        shrink_perturb(full, 1.0, RngStream(0, 1))
        got = drift(net, reference)
        want = beta * drift(full, reference)
        assert got == pytest.approx(want, abs=1e-9)

    def test_layer_norm_affine_shrinks_to_init(self):
        net = tanh_net(4, layer_norm=True)
        net.params["layer0.ln_gain"][:] = 3.0
        net.params["layer0.ln_offset"][:] = -1.0
        shrink_perturb(net, 0.5, RngStream(4, 4))
        np.testing.assert_allclose(net.params["layer0.ln_gain"], 2.0)
        np.testing.assert_allclose(net.params["layer0.ln_offset"], -0.5)

    def test_shapes_preserved(self):
        net = tanh_net(5)
        shapes = {k: v.shape for k, v in net.params.items()}
        shrink_perturb(net, 0.3, RngStream(5, 1))
        assert {k: v.shape for k, v in net.params.items()} == shapes


def shrink_perturb_reference(net, beta, stream):
    """Oracle: shrink-and-perturb as first written, one fresh draw per layer
    between the updates."""
    keep = 1.0 - beta
    for i, spec in enumerate(net.layers):
        w_name, b_name = f"layer{i}.w", f"layer{i}.b"
        if w_name not in net.frozen or b_name not in net.frozen:
            w_draw, b_draw = single_draw_reference(spec, stream)
            if w_name not in net.frozen:
                net.params[w_name] = keep * net.params[w_name] + beta * w_draw
            if b_name not in net.frozen:
                net.params[b_name] = keep * net.params[b_name] + beta * b_draw
        if spec.layer_norm and f"layer{i}.ln_gain" not in net.frozen:
            net.params[f"layer{i}.ln_gain"] = keep * net.params[f"layer{i}.ln_gain"] + beta
            net.params[f"layer{i}.ln_offset"] = keep * net.params[f"layer{i}.ln_offset"]
    if net.injection_rounds:
        last = len(net.layers) - 1
        prefix = f"layer{last}.inj{net.injection_rounds}_train"
        if f"{prefix}.w" not in net.frozen:
            w_draw, b_draw = single_draw_reference(net.layers[last], stream)
            net.params[f"{prefix}.w"] = keep * net.params[f"{prefix}.w"] + beta * w_draw
            net.params[f"{prefix}.b"] = keep * net.params[f"{prefix}.b"] + beta * b_draw
    return net


def relu_net(seed=0, layer_norm=False):
    return init_network(
        [
            LayerSpec(3, 6, "relu", layer_norm),
            LayerSpec(6, 5, "relu", layer_norm, init="orthogonal(1.41)"),
            LayerSpec(5, 2, "linear", init="orthogonal(0.01)"),
        ],
        RngStream(seed, 0),
    )


def _redo(net, stream, probe):
    net.params["layer1.w"][2, :] = 0.0  # one dormant unit, so redo draws
    net.params["layer1.b"][2] = 0.0
    redo_reset(net, probe, 0.025, stream)


def _freeze(*names):
    def event(net, stream, probe):
        net.frozen = net.frozen | set(names)
    return event


# other draws and chain changes interleaved with soft shrink-and-perturb on
# one stream: redo every 4 steps, full resets, injection rounds (each freezes
# a head) and hand-frozen weights
INTERLEAVED_EVENTS = {
    3: _redo,
    5: lambda net, stream, probe: add_injection_round(net, stream),
    7: _redo,
    9: lambda net, stream, probe: reset_layers(net, "all", stream),
    11: _redo,
    12: lambda net, stream, probe: add_injection_round(net, stream),
    14: _freeze("layer1.w"),
    15: _redo,
    19: _freeze("layer0.w", "layer0.b"),
    21: lambda net, stream, probe: reset_layers(net, "final", stream),
    23: _redo,
}


class TestDrawAhead:
    """Soft shrink-and-perturb through a draw-ahead, bit for bit, against
    the one-draw-per-layer oracle. The holders make their next block in a
    helper process, as the run's do."""

    @pytest.mark.parametrize("layer_norm", [False, True])
    def test_interleaved_events_match_single_draws(self, layer_norm):
        probe = RngStream(30, 1).normal(0.0, 1.0, 60).reshape(20, 3)
        fast, ref = relu_net(30, layer_norm), relu_net(30, layer_norm)
        fast_stream, ref_stream = RngStream(30, 3), RngStream(30, 3)
        ahead = DrawAhead(loop.DRAW_AHEAD, helper=True)
        for step in range(40):
            if step in INTERLEAVED_EVENTS:
                INTERLEAVED_EVENTS[step](fast, fast_stream, probe)
                INTERLEAVED_EVENTS[step](ref, ref_stream, probe)
            shrink_perturb(fast, 1e-2, fast_stream, ahead)
            shrink_perturb_reference(ref, 1e-2, ref_stream)
            assert fast_stream.counter == ref_stream.counter, step
            assert fast.param_order == ref.param_order and fast.frozen == ref.frozen
            for name in ref.param_order:
                assert fast.params[name].tobytes() == ref.params[name].tobytes(), (step, name)
        ahead.close()

    def test_refills_every_draw_ahead_steps_on_an_undisturbed_stream(self):
        net, stream = relu_net(31), RngStream(31, 3)
        ahead, starts = DrawAhead(loop.DRAW_AHEAD, helper=True), []
        for _ in range(3 * loop.DRAW_AHEAD):
            shrink_perturb(net, 1e-3, stream, ahead)
            starts.append(ahead.start)
        ahead.close()
        assert len(set(starts)) == 3
        assert stream.counter == 3 * loop.DRAW_AHEAD * ahead.slots

    def test_holds_at_most_draw_ahead_steps(self):
        assert loop.DRAW_AHEAD == 8
        net, stream = relu_net(32), RngStream(32, 3)
        ahead = DrawAhead(loop.DRAW_AHEAD)
        n_params = sum(net.params[n].size for n in net.param_order)
        for step in range(20):
            shrink_perturb(net, 1e-3, stream, ahead)
            if step % 3 == 0:
                stream.uniform(0.0, 1.0, 5)  # another draw moves the counter
            assert all(w.shape[0] == b.shape[0] == loop.DRAW_AHEAD for w, b in ahead.draws)
            held = sum(w.nbytes + b.nbytes for w, b in ahead.draws)
            assert held == loop.DRAW_AHEAD * n_params * 8

    def test_run_draws_at_most_draw_ahead_steps_at_once(self, tmp_path, monkeypatch):
        blocks = []
        real = loop.apply_event_method

        def recording(entry, net, stream, probe=None, ahead=None):
            value = real(entry, net, stream, probe=probe, ahead=ahead)
            # the block in use: its start, its draws, and the start asked of the helper
            blocks.append((ahead.start, len(ahead.draws[0][0]), ahead.next[1]))
            return value

        monkeypatch.setattr(loop, "apply_event_method", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(loop, "blas_threads", lambda: 1)
        cfg = {
            "algo": "regression",
            "seed": 3,
            "total_steps": 40,
            "scenario": {"mode": "level_shift", "segment_length": 20, "n_segments": 2},
            "network": {"hidden": [8]},
            "mitigations": [{"method": "shrink_perturb", "trigger": "per_gradient_step"}],
            "logging": {"metric_interval": 20, "probe_batch": 8},
        }
        run_experiment(resolve_config(cfg), str(tmp_path / "run"))
        # five blocks serve the 40 steps; a sixth is asked for past the run's end and dropped
        starts = sorted({start for start, _, _ in blocks})
        assert len(starts) == 5 and {k for _, k, _ in blocks} == {loop.DRAW_AHEAD}
        slots = starts[1] - starts[0]
        assert starts == [starts[0] + n * slots for n in range(5)]
        assert blocks[-1][2] == starts[-1] + slots


class TestInjection:
    def test_regression_fit_moves_only_new_head(self):
        net = tanh_net(7)
        batch = RngStream(7, 1).normal(0.0, 1.0, 24).reshape(8, 3)
        target = RngStream(7, 2).normal(0.0, 1.0, 16).reshape(8, 2)
        pre_out = network_output(net, batch)
        add_injection_round(net, RngStream(7, 3))
        head_before = net.params["layer2.w"].copy()
        opt = make_optimizer("adam", net)
        first_mse = None
        for _ in range(200):
            trace = forward(net, batch)
            err = trace.outputs - target
            mse = float(np.mean(err**2))
            first_mse = first_mse if first_mse is not None else mse
            optimizer_step(opt, net, None, backward(net, trace, 2.0 * err / err.size), 1e-2)
        assert mse < first_mse
        np.testing.assert_array_equal(net.params["layer2.w"], head_before)
        assert not np.allclose(network_output(net, batch), pre_out)


class TestRedo:
    def zeroed_net(self):
        net = init_network(
            [LayerSpec(3, 5, "relu"), LayerSpec(5, 4, "relu"), LayerSpec(4, 2, "linear")],
            RngStream(10, 0),
        )
        net.params["layer1.w"][2, :] = 0.0
        net.params["layer1.b"][2] = 0.0
        return net, RngStream(10, 1).normal(0.0, 1.0, 30).reshape(10, 3)

    def test_constructed_dormant_unit_reset(self):
        net, probe = self.zeroed_net()
        before_out = network_output(net, probe)
        count = redo_reset(net, probe, 0.025, RngStream(10, 2))
        assert count >= 1
        assert np.any(net.params["layer1.w"][2, :] != 0.0)
        np.testing.assert_array_equal(net.params["layer2.w"][:, 2], 0.0)
        np.testing.assert_allclose(network_output(net, probe), before_out, atol=1e-6)

    def test_healthy_net_noop(self):
        net = tanh_net(11)
        probe = RngStream(11, 1).normal(0.0, 1.0, 30).reshape(10, 3)
        before = {k: v.copy() for k, v in net.params.items()}
        count = redo_reset(net, probe, 0.025, RngStream(11, 2))
        assert count == 0
        for name in net.param_order:
            assert net.params[name].tobytes() == before[name].tobytes()

    def test_rdu_does_not_increase(self):
        net, probe = self.zeroed_net()
        before = dormant_ratio(forward(net, probe), 0.025)["all"]
        redo_reset(net, probe, 0.025, RngStream(10, 3))
        after = dormant_ratio(forward(net, probe), 0.025)["all"]
        assert after <= before

    def test_crelu_resets_both_halves(self):
        net = init_network(
            [LayerSpec(2, 3, "crelu"), LayerSpec(6, 2, "linear")], RngStream(12, 0)
        )
        net.params["layer0.w"][1, :] = 0.0
        net.params["layer0.b"][1] = 0.0
        probe = RngStream(12, 1).normal(0.0, 1.0, 16).reshape(8, 2)
        count = redo_reset(net, probe, 0.025, RngStream(12, 2))
        assert count == 1
        np.testing.assert_array_equal(net.params["layer1.w"][:, 1], 0.0)
        np.testing.assert_array_equal(net.params["layer1.w"][:, 4], 0.0)


class TestResetLayers:
    def test_all_with_construction_stream_matches_fresh_init(self):
        specs = [LayerSpec(3, 6, "tanh", True), LayerSpec(6, 2, "linear")]
        net = init_network(specs, RngStream(20, 0))
        net.params["layer0.w"] += 0.7
        net.params["layer0.ln_gain"][:] = 5.0
        reset_layers(net, "all", RngStream(20, 0))
        fresh = init_network(specs, RngStream(20, 0))
        assert drift(net, fresh) == 0.0

    def test_final_scope_containment(self):
        net = tanh_net(21)
        before = {k: v.copy() for k, v in net.params.items()}
        reset_layers(net, "final", RngStream(21, 5))
        for name in net.param_order:
            if name.startswith("layer2."):
                continue
            assert net.params[name].tobytes() == before[name].tobytes()
        assert net.params["layer2.w"].tobytes() != before["layer2.w"].tobytes()

    def test_single_layer_final_equals_all(self):
        spec = [LayerSpec(2, 2, "linear")]
        a = init_network(spec, RngStream(22, 0))
        b = init_network(spec, RngStream(22, 0))
        a.params["layer0.w"] += 1.0
        b.params["layer0.w"] -= 1.0
        reset_layers(a, "final", RngStream(22, 7))
        reset_layers(b, "all", RngStream(22, 7))
        assert drift(a, b) == 0.0


class TestNapProject:
    def test_identity_at_init(self):
        net = tanh_net(30, layer_norm=True)
        before = {k: v.copy() for k, v in net.params.items()}
        nap_project(net)
        for name in net.param_order:
            np.testing.assert_array_equal(net.params[name], before[name])

    def test_forced_rescale(self):
        net = tanh_net(31, layer_norm=True)
        net.params["layer0.w"] *= 3.0
        nap_project(net)
        want = np.linalg.norm(net.init_snapshot["layer0.w"])
        assert np.linalg.norm(net.params["layer0.w"]) == pytest.approx(want, abs=1e-6)

    def test_direction_preserved_after_training(self):
        net = tanh_net(32, layer_norm=True)
        drift = RngStream(32, 9)
        for name in ("layer0.w", "layer1.w", "layer2.w"):
            net.params[name] += 0.1 * drift.normal(0.0, 1.0, net.params[name].size).reshape(
                net.params[name].shape
            )
        pre = {n: net.params[n].copy() for n in ("layer0.w", "layer1.w", "layer2.w")}
        nap_project(net)
        for i, name in enumerate(pre):
            w = net.params[name]
            assert np.linalg.norm(w) == pytest.approx(
                np.linalg.norm(net.init_snapshot[name]), abs=1e-6
            )
            cos = np.sum(w * pre[name]) / (np.linalg.norm(w) * np.linalg.norm(pre[name]))
            assert cos == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        net = tanh_net(34, layer_norm=True)
        net.params["layer1.w"][:] = 0.0
        with pytest.raises(MitigationError):
            nap_project(net)


def fd_reg_grads(kind, net, alpha, s=1.0, h=1e-5):
    out = {}
    for name in net.trainable_names():
        flat = net.params[name].ravel()
        g = np.zeros(flat.size)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = reg_loss(kind, net, alpha, s)[0]
            flat[j] = keep - h
            down = reg_loss(kind, net, alpha, s)[0]
            flat[j] = keep
            g[j] = (up - down) / (2.0 * h)
        out[name] = g.reshape(net.params[name].shape)
    return out


class TestRegLoss:
    def test_regenerative_zero_at_init(self):
        value, grads = reg_loss("regenerative_reg", tanh_net(40), 0.7)
        assert value == 0.0
        for g in grads.values():
            assert not np.any(g)

    def test_parseval_zero_for_orthonormal_rows(self):
        net = init_network(
            [LayerSpec(4, 2, "tanh", init="orthogonal(1.0)"), LayerSpec(2, 1, "linear")],
            RngStream(41, 0),
        )
        value, grads = reg_loss("parseval_reg", net, 0.5, 1.0)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grads["layer0.w"], 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["l2_reg", "regenerative_reg", "parseval_reg"])
    def test_gradient_matches_finite_differences(self, kind):
        net = tanh_net(42)
        net.params["layer0.w"] += 0.2
        net.params["layer1.w"] -= 0.1
        net.params["layer2.b"] += 0.3
        value, grads = reg_loss(kind, net, 0.5)
        assert value >= 0.0
        fd = fd_reg_grads(kind, net, 0.5)
        for name in net.trainable_names():
            a = grads.get(name, np.zeros_like(net.params[name]))
            f = fd[name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-3)
            assert (np.abs(a - f) / denom).max() < 1e-4, name

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000), st.sampled_from(["l2_reg", "regenerative_reg", "parseval_reg"]))
    def test_non_negative(self, seed, kind):
        net = tanh_net(seed)
        net.params["layer0.w"] += RngStream(seed, 8).normal(0.0, 0.05, 18).reshape(6, 3)
        assert reg_loss(kind, net, 0.3)[0] >= 0.0


class TestAdam:
    def test_hand_computed_first_step(self):
        net = constant_network([LayerSpec(1, 1, "linear")])
        net.params["layer0.w"][:] = 2.0
        opt = make_optimizer("adam", net)
        optimizer_step(opt, net, None, grads_of({"layer0.w": np.array([[1.0]])}), 0.1)
        assert net.params["layer0.w"][0, 0] == pytest.approx(1.9, abs=1e-6)

    def test_zero_grads_no_change(self):
        net = tanh_net(50)
        before = {k: v.copy() for k, v in net.params.items()}
        opt = make_optimizer("adam", net)
        grads = grads_of({n: np.zeros_like(net.params[n]) for n in net.trainable_names()})
        for _ in range(3):
            optimizer_step(opt, net, None, grads, 0.1)
        for name in net.param_order:
            assert net.params[name].tobytes() == before[name].tobytes()

    def test_bit_identical_trajectories(self):
        def run():
            net = tanh_net(51)
            batch = RngStream(51, 1).normal(0.0, 1.0, 12).reshape(4, 3)
            opt = make_optimizer("adam", net)
            for _ in range(5):
                trace = forward(net, batch)
                optimizer_step(opt, net, None, backward(net, trace, trace.outputs), 1e-3)
            return np.concatenate([net.params[n].ravel() for n in net.param_order])

        assert run().tobytes() == run().tobytes()

    def test_non_finite_rejected(self):
        net = tanh_net(52)
        opt = make_optimizer("adam", net)
        with pytest.raises(NumericError):
            optimizer_step(opt, net, None, grads_of({"layer0.w": np.full((6, 3), np.nan)}), 0.1)


class TestOptimizerStep:
    """optimizer_step folds, checks, clips, then steps; the reference does each apart."""

    @staticmethod
    def net_trace_grads(seed):
        net = tanh_net(seed)
        trace = forward(net, RngStream(seed, 1).normal(0.0, 1.0, 12).reshape(4, 3))
        return net, trace, backward(net, trace, trace.outputs)

    @pytest.mark.parametrize("max_grad_norm", [None, 0.0, 0.05, 1e6])
    def test_fold_clip_step_equals_the_steps_apart(self, max_grad_norm, monkeypatch):
        net, trace, grads = self.net_trace_grads(57)
        ref_net, _, ref_grads = self.net_trace_grads(57)
        for by_name in (grads.by_name, ref_grads.by_name):
            del by_name["layer2.b"]  # a name only a regularizer brings
        regs = [reg_loss("l2_reg", net, 1e-2), reg_loss("parseval_reg", net, 1e-1)]
        want_loss = 1.25
        for value, reg_grads in regs:
            want_loss += value
            for name, g in reg_grads.items():
                ref_grads.by_name[name] = ref_grads.by_name[name] + g if name in ref_grads.by_name else g
        want_norm = None
        if max_grad_norm is not None:
            want_norm = gradient_norm(ref_grads.by_name)
            if max_grad_norm > 0.0 and want_norm > max_grad_norm:
                for name in ref_grads.by_name:
                    ref_grads.by_name[name] = ref_grads.by_name[name] * (max_grad_norm / want_norm)
        seen = []
        opt = make_optimizer("adam", net)
        step = opt.step
        opt.step = lambda *args: (seen.append(dict(args[2].by_name)), step(*args))
        if max_grad_norm is None:  # no norm pass unless clipping
            monkeypatch.setattr("plastlab.mitigations.gradient_norm", None)
        assert optimizer_step(opt, net, trace, grads, 0.1, 1.25, regs, max_grad_norm) == (want_loss, want_norm)
        assert list(seen[0]) == list(ref_grads.by_name)
        for name, g in ref_grads.by_name.items():
            assert seen[0][name].tobytes() == g.tobytes(), name
        make_optimizer("adam", ref_net).step(ref_net, trace, ref_grads, 0.1)
        for name in net.param_order:
            assert net.params[name].tobytes() == ref_net.params[name].tobytes(), name

    def test_each_step_counts_one_write(self):
        net, trace, grads = self.net_trace_grads(59)
        opt = make_optimizer("adam", net)
        for writes in (1, 2):
            optimizer_step(opt, net, trace, grads, 0.1, max_grad_norm=0.5)
            assert net.writes == writes
        with pytest.raises(NumericError):  # a refused step writes nothing
            optimizer_step(opt, net, trace, grads, 0.1, np.nan)
        assert net.writes == 2

    @pytest.mark.parametrize("loss,reg_value", [(np.nan, 0.0), (1.0, np.inf), (np.inf, -np.inf)])
    def test_non_finite_folded_loss_raises_before_the_step(self, loss, reg_value):
        net, trace, grads = self.net_trace_grads(58)
        before = {n: net.params[n].copy() for n in net.param_order}
        opt = make_optimizer("adam", net)
        with pytest.raises(NumericError, match="non-finite loss"):
            optimizer_step(opt, net, trace, grads, 0.1, loss, [(reg_value, {})], max_grad_norm=0.5)
        assert opt.t == 0
        for name in net.param_order:
            assert net.params[name].tobytes() == before[name].tobytes()


class AdamReference:
    """Oracle: the per-tensor Adam formula the optimizer was first written
    with, returning new parameter arrays instead of updating in place."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.t, self.m, self.v = 0, {}, {}
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def deltas(self, grads, lr):
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        out = {}
        for name, g in grads.items():
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            self.m[name], self.v[name] = m, v
            out[name] = -lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)
        return out

    def step(self, params, grads, lr):
        for name, delta in self.deltas(grads, lr).items():
            params[name] = params[name] + delta


class TestFlatAdam:
    def test_matches_per_tensor_formula_across_injections(self):
        net = tanh_net(53, layer_norm=True)
        batch = RngStream(53, 1).normal(0.0, 1.0, 15).reshape(5, 3)
        opt, ref = make_optimizer("adam", net), AdamReference()
        for step in range(50):
            if step in (20, 35):  # freezes names and adds new ones: a new layout
                add_injection_round(net, RngStream(53, step))
            # equal bit for bit to the reference parameters (checked below)
            ref_params = {k: v.copy() for k, v in net.params.items()}
            before = dict(net.params)
            trace = forward(net, batch)
            grads = backward(net, trace, trace.outputs - 1.0)
            ref_grads = {k: g.copy() for k, g in grads.by_name.items()}
            optimizer_step(opt, net, None, grads, 1e-2)
            ref.step(ref_params, ref_grads, 1e-2)
            for name in net.param_order:
                assert net.params[name] is before[name]  # updated in place
                assert net.params[name].tobytes() == ref_params[name].tobytes(), (step, name)
            assert set(opt.m) == set(opt.v) == set(ref.m)
            for name in ref.m:
                assert opt.m[name].tobytes() == ref.m[name].tobytes(), (step, name)
                assert opt.v[name].tobytes() == ref.v[name].tobytes(), (step, name)
        # m, v and two scratch vectors per trainable parameter, nothing more
        trainable = sum(net.params[n].size for n in net.trainable_names())
        assert sum(a.size for a in opt.flat[1:5]) == 4 * trainable

    @pytest.mark.parametrize("t", [355, 356, 37_411, 37_412])
    def test_bias_correction_shortcut_is_bitwise(self, t):
        """Past t = 355 (beta1) and 37,411 (beta2) a correction rounds to 1.0
        and its divide is skipped; the deltas equal the full formula's bits."""
        net = tanh_net(57)
        opt = make_optimizer("adam", net)
        stream = RngStream(57, 1)
        names = net.trainable_names()

        def grads():
            return {n: stream.normal(0.0, 1.0, net.params[n].size).reshape(net.params[n].shape) for n in names}

        opt.deltas(grads(), 1e-3)
        opt.t = t - 1
        m, v = opt.flat[1].copy(), opt.flat[2].copy()
        g = grads()
        got = np.concatenate([d.ravel() for d in opt.deltas(g, 1e-3).values()])
        flat = np.concatenate([g[n].ravel() for n in names])
        m = m * 0.9 + flat * (1.0 - 0.9)
        v = v * 0.999 + flat * (1.0 - 0.999) * flat
        want = m / (1.0 - 0.9**t) * -1e-3 / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        assert got.tobytes() == want.tobytes()
        assert (1.0 - 0.9**t == 1.0) == (t >= 356)
        assert (1.0 - 0.999**t == 1.0) == (t >= 37_412)

    def test_nan_in_second_tensor_names_it(self):
        net = tanh_net(54)
        opt = make_optimizer("adam", net)
        names = net.trainable_names()[:3]
        grads = {n: np.ones_like(net.params[n]) for n in names}
        grads[names[1]] = grads[names[1]].copy()
        grads[names[1]].flat[-1] = np.nan
        before = {n: net.params[n].copy() for n in net.param_order}
        with pytest.raises(NumericError) as info:
            optimizer_step(opt, net, None, grads_of(grads), 0.1)
        assert info.value.layer == names[1]
        assert opt.t == 0
        for name in net.param_order:
            assert net.params[name].tobytes() == before[name].tobytes()

    @pytest.mark.parametrize("kind", ["adam", "trac", "kron"])
    @pytest.mark.parametrize("planted,value", [(1, np.nan), (2, np.inf)])
    def test_optimizers_name_the_planted_tensor_through_clipping(self, kind, planted, value, monkeypatch):
        """A PPO minibatch step clips to max_grad_norm before the optimizer
        checks the gradients. A NaN norm never clips, and an inf norm scales
        every finite entry to 0 while the planted one stays non-finite, so
        the optimizer names the planted tensor."""
        learner, cfg = make_ppo(56)
        learner.opt = make_optimizer(kind, learner.net)
        traj = collect_synthetic(learner, RngStream(56, 2))
        traj.advantages, traj.returns = gae(traj.rewards, traj.values, traj.dones, 0.1, 0.99, 0.95)
        name = list(learner.net.param_order)[planted]
        seen = []

        def planting_step(opt, net, trace, grads, lr, loss, regs, max_grad_norm):
            grads.by_name[name] = grads.by_name[name].copy()
            grads.by_name[name].flat[0] = value
            seen.append(max_grad_norm)
            return optimizer_step(opt, net, trace, grads, lr, loss, regs, max_grad_norm)

        monkeypatch.setattr(ppo_module, "optimizer_step", planting_step)
        with pytest.raises(NumericError) as info:
            learner._minibatch_step(traj.take(np.arange(16)))
        assert seen == [cfg.max_grad_norm] and cfg.max_grad_norm > 0.0
        assert info.value.layer == name
        assert str(info.value) == f"non-finite gradient in {name}"

    def test_trac_candidate_comes_from_the_flat_base(self):
        net = tanh_net(55)
        opt = make_optimizer("trac", net)
        opt.trac_sigma_sum = np.full(4, 1e6)  # a scale far from 0 and 1
        ref = TracReference(net.params, sigma_sum=1e6)
        batch = RngStream(55, 1).normal(0.0, 1.0, 12).reshape(4, 3)
        scales = []
        for _ in range(5):
            trace = forward(net, batch)
            grads = backward(net, trace, trace.outputs)
            want = ref.step({k: g.copy() for k, g in grads.by_name.items()}, 1e-3)
            optimizer_step(opt, net, None, grads, 1e-3)
            assert opt.base.flat is not None
            assert opt.trac_scale == ref.scale
            scales.append(opt.trac_scale)
            for name in grads.by_name:
                assert net.params[name].tobytes() == want[name].tobytes()
                assert opt.base.m[name].tobytes() == ref.adam.m[name].tobytes()
                assert opt.base.v[name].tobytes() == ref.adam.v[name].tobytes()
        assert any(scale not in (0.0, 1.0) for scale in scales)


class TracReference:
    """Oracle: Fast TRAC one step at a time on per-tensor dicts. A base
    iterate takes plain Adam steps from theta_ref; each step feeds the
    tuners h = <g, iterate - theta_ref> from before the move and returns
    theta_ref + s * (iterate - theta_ref)."""

    def __init__(self, params, sigma_sum=0.0, eps=1e-8):
        self.adam = AdamReference()
        self.theta_ref = {k: v.copy() for k, v in params.items()}
        self.iterate = {k: v.copy() for k, v in params.items()}
        self.v = [0.0] * 4
        self.sigma_sum = [sigma_sum] * 4
        self.eps, self.scale = eps, 0.0

    def step(self, grads, lr):
        h = 0.0
        for name, g in grads.items():
            h += float(np.sum(g * (self.iterate[name] - self.theta_ref[name])))
        for name, delta in self.adam.deltas(grads, lr).items():
            self.iterate[name] = self.iterate[name] + delta
        total = 0.0
        for j, beta in enumerate((0.9, 0.99, 0.999, 0.9999)):
            self.v[j] = beta**2 * self.v[j] + h * h
            self.sigma_sum[j] = beta * self.sigma_sum[j] - h
            arg = self.sigma_sum[j] / (np.sqrt(2.0 * self.v[j]) + 1e-30)
            arg = min(max(arg, -6.0), 6.0)
            total += self.eps / erfi(1.0 / np.sqrt(2.0)) * erfi(arg)
        self.scale = max(0.0, total)
        return {
            name: self.theta_ref[name] + self.scale * (self.iterate[name] - self.theta_ref[name])
            for name in grads
        }


class TestTrac:
    def test_combine_endpoints(self):
        ref = np.array([1.0, 2.0])
        cand = np.array([5.0, -3.0])
        np.testing.assert_array_equal(Trac.combine(ref, cand, 0.0), ref)
        np.testing.assert_array_equal(Trac.combine(ref, cand, 1.0), cand)
        np.testing.assert_allclose(Trac.combine(ref, cand, 0.25), [2.0, 0.75])

    def test_zero_gradients_pin_to_reference(self):
        net = tanh_net(60)
        ref = {k: v.copy() for k, v in net.params.items()}
        opt = make_optimizer("trac", net)
        grads = Gradients(
            by_name={n: np.zeros_like(net.params[n]) for n in net.trainable_names()},
            lin_grads={},
        )
        for _ in range(4):
            optimizer_step(opt, net, None, grads, 1e-3)
        assert opt.trac_scale == 0.0
        for name in net.param_order:
            np.testing.assert_array_equal(net.params[name], ref[name])

    def test_scale_nonnegative_and_on_segment(self):
        net = tanh_net(61)
        batch = RngStream(61, 1).normal(0.0, 1.0, 12).reshape(4, 3)
        opt = make_optimizer("trac", net)
        for _ in range(20):
            trace = forward(net, batch)
            grads = backward(net, trace, trace.outputs)
            deltas_ref = {n: net.params[n].copy() for n in net.param_order}
            optimizer_step(opt, net, None, grads, 1e-3)
            assert opt.trac_scale >= 0.0
        # after updates the parameters satisfy the combination identity
        for name in grads.by_name:
            span = net.params[name] - opt.theta_ref[name]
            assert np.all(np.isfinite(span))

    def test_saturation_clamps_and_counts(self):
        net = tanh_net(62)
        opt = make_optimizer("trac", net)
        opt.trac_sigma_sum = np.full(4, 1e6)
        grads = grads_of({n: np.zeros_like(net.params[n]) for n in net.trainable_names()})
        cand = {n: net.params[n].copy() for n in net.trainable_names()}
        opt.pull(net, grads, cand)
        assert opt.saturation_warnings == 4
        assert np.isfinite(opt.trac_scale)

    def test_explicit_candidate_endpoint(self):
        net = constant_network([LayerSpec(1, 1, "linear")])
        opt = make_optimizer("trac", net)
        # drive the tuners hard enough that the scale becomes positive
        grads = grads_of({"layer0.w": np.array([[1.0]]), "layer0.b": np.array([0.0])})
        net.params["layer0.w"][:] = -1.0  # an edit moves the iterate: iterate - ref = -1, h = -1
        deltas = {"layer0.w": np.array([[3.0]]), "layer0.b": np.array([0.0])}
        opt.pull(net, grads, deltas)
        assert opt.trac_scale > 0.0
        assert opt.iterate["layer0.w"][0, 0] == 2.0
        want = opt.theta_ref["layer0.w"] + opt.trac_scale * (opt.iterate["layer0.w"] - opt.theta_ref["layer0.w"])
        np.testing.assert_allclose(net.params["layer0.w"], want, atol=1e-15)

    def test_an_edit_between_steps_moves_the_iterate(self):
        net = tanh_net(64)
        opt = make_optimizer("trac", net)
        batch = RngStream(64, 1).normal(0.0, 1.0, 12).reshape(4, 3)
        for _ in range(3):
            trace = forward(net, batch)
            optimizer_step(opt, net, None, backward(net, trace, trace.outputs), 1e-2)
        before = {n: opt.iterate[n].copy() for n in net.trainable_names()}
        net.params["layer0.w"] += 0.25  # an event's edit, in place
        zero = {n: np.zeros_like(net.params[n]) for n in net.trainable_names()}
        opt.pull(net, grads_of(zero), zero)
        np.testing.assert_allclose(opt.iterate["layer0.w"], before["layer0.w"] + 0.25, rtol=0.0, atol=1e-15)
        assert opt.iterate["layer1.w"].tobytes() == before["layer1.w"].tobytes()

    def test_scale_grows_and_the_fit_improves(self):
        # the base iterate keeps Adam's progress while the scale is small,
        # so the output leaves theta_ref and the loss falls
        net = tanh_net(65)
        stream = RngStream(65, 1)
        x = stream.normal(0.0, 1.0, 64 * 3).reshape(64, 3)
        y = np.tanh(x @ stream.normal(0.0, 1.0, 6).reshape(3, 2))
        opt = make_optimizer("trac", net)
        losses = []
        for _ in range(400):
            trace = forward(net, x)
            err = trace.outputs - y
            losses.append(float(np.mean(err**2)))
            optimizer_step(opt, net, None, backward(net, trace, 2.0 * err / err.size), 1e-2)
        assert opt.trac_scale > 0.1
        assert losses[-1] < 0.25 * losses[0]

    def test_injected_branch_reference_is_its_init(self):
        net = tanh_net(63)
        opt = make_optimizer("trac", net)
        add_injection_round(net, RngStream(63, 3))
        new_names = [n for n in net.trainable_names() if n not in opt.theta_ref]
        assert new_names
        injected = {n: net.params[n].copy() for n in new_names}
        batch = RngStream(63, 1).normal(0.0, 1.0, 12).reshape(4, 3)
        trace = forward(net, batch)
        optimizer_step(opt, net, None, backward(net, trace, trace.outputs), 1e-3)
        for name in new_names:
            np.testing.assert_array_equal(opt.theta_ref[name], injected[name])


class TestKron:
    def identity_setup(self):
        net = constant_network([LayerSpec(1, 1, "linear")])
        net.params["layer0.w"][:] = 1.0
        opt = make_optimizer("kron", net, damping=0.0, ema=0.0)
        batch = np.array([[1.0], [-1.0]])
        trace = forward(net, batch)
        g_lin = np.array([[1.0], [-1.0]])
        grads = Gradients(
            by_name={"layer0.w": np.array([[0.5]]), "layer0.b": np.array([0.25])},
            lin_grads={"layer0": g_lin},
        )
        return net, opt, trace, grads

    def test_identity_preconditioner_is_plain_gd(self):
        net, opt, trace, grads = self.identity_setup()
        optimizer_step(opt, net, trace, grads, 0.1)
        assert net.params["layer0.w"][0, 0] == pytest.approx(1.0 - 0.1 * 0.5, abs=1e-12)
        assert net.params["layer0.b"][0] == pytest.approx(-0.1 * 0.25, abs=1e-12)

    def test_damping_monotone_shrink(self):
        g_w = RngStream(70, 0).normal(0.0, 1.0, 6).reshape(2, 3)
        g_b = RngStream(70, 1).normal(0.0, 1.0, 2)
        norms = []
        for lam in (0.0, 0.1, 1.0, 10.0):
            opt = make_optimizer("kron", None, damping=lam)
            opt.factors_a["layer0"] = np.eye(4)
            opt.factors_s["layer0"] = np.eye(2)
            pre_w, pre_b = opt.precondition("layer0", g_w, g_b)
            norms.append(np.sqrt(np.sum(pre_w**2) + np.sum(pre_b**2)))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_quadratic_bowl_beats_gd(self):
        # least squares with badly scaled inputs; the preconditioner whitens
        stream = RngStream(71, 0)
        x = stream.normal(0.0, 1.0, 64 * 2).reshape(64, 2) * np.array([1.0, 8.0])
        w_true = np.array([[1.5, -0.5]])
        y = x @ w_true.T

        def run(use_kron, steps=40, lr=0.05):
            net = constant_network([LayerSpec(2, 1, "linear")])
            opt = make_optimizer("kron", net) if use_kron else None
            for _ in range(steps):
                trace = forward(net, x)
                err = trace.outputs - y
                grads = backward(net, trace, err / x.shape[0])
                if use_kron:
                    optimizer_step(opt, net, trace, grads, lr)
                else:
                    for name, g in grads.by_name.items():
                        net.params[name] = net.params[name] - lr * g
            return float(np.mean((network_output(net, x) - y) ** 2))

        assert run(True) < run(False) * 0.5

    def test_singular_factor_falls_back_to_diagonal(self):
        opt = make_optimizer("kron", None, damping=0.0)
        opt.factors_a["layer0"] = np.ones((3, 3))  # rank one, singular
        opt.factors_s["layer0"] = np.eye(2)
        pre_w, pre_b = opt.precondition("layer0", np.ones((2, 2)), np.ones(2))
        assert opt.fallback_count == 1
        assert np.all(np.isfinite(pre_w)) and np.all(np.isfinite(pre_b))

    @pytest.mark.parametrize("name", ["ppo_grid_level_shift", "c51_grid_standard", "regression_probe_level_shift"])
    def test_every_learner_hands_kron_its_forward_trace(self, name, tmp_path, monkeypatch):
        traces = []
        step = Kron.step

        def recording(opt, net, trace, grads, lr):
            traces.append(trace)
            return step(opt, net, trace, grads, lr)

        monkeypatch.setattr(Kron, "step", recording)
        raw = {**golden.CONFIGS[name], "total_steps": 200, "mitigations": ["kron"]}
        assert run_experiment(resolve_config(raw), str(tmp_path / "r")).summary["status"] == "ok"
        assert traces and all(isinstance(trace, ForwardTrace) for trace in traces)


class TestMakeOptimizer:
    @pytest.mark.parametrize(
        "name", ["adam"] + sorted(n for n, m in REGISTRY.items() if m.kind == "optimizer")
    )
    def test_registry_params_build_and_step(self, name):
        net = tanh_net(80, layer_norm=True)
        params = REGISTRY[name].params if name in REGISTRY else {}
        opt = make_optimizer(name, net, **params)
        before = {n: net.params[n].copy() for n in net.param_order}
        batch = RngStream(80, 1).normal(0.0, 1.0, 12).reshape(4, 3)
        trace = forward(net, batch)
        optimizer_step(opt, net, trace, backward(net, trace, trace.outputs), 1e-3)
        for n in net.param_order:
            assert np.all(np.isfinite(net.params[n]))
        if name != "trac":  # trac's first scale is 0, which keeps the reference
            assert any(not np.array_equal(net.params[n], before[n]) for n in net.param_order)


def loop_chain_fires(trig, step, switched):
    """The run loop's trigger if-chain before Trigger.fires owned it (a
    trigger's k and step are its one `arg`)."""
    if trig.kind == "every_k_steps":
        fire = step > 0 and step % trig.arg == 0
    elif trig.kind == "on_task_switch":
        fire = switched
    else:  # per_gradient_step entries fire in _post_step
        fire = trig.kind == "once_at" and step == trig.arg
    return fire


class TestRegistryAndPlan:
    def test_catalog_contents(self):
        assert set(REGISTRY) == {
            "shrink_perturb", "plasticity_injection", "redo",
            "reset_layers", "layer_norm", "nap", "l2_reg", "regenerative_reg",
            "parseval_reg", "crelu", "fourier", "trac", "kron",
        }
        assert len(REGISTRY) == 13
        assert {m.category for m in REGISTRY.values()} == {
            "reset", "normalization", "regularization", "activation", "optimizer",
        }
        for m in REGISTRY.values():
            assert m.summary and m.reference

    def test_build_plan_fills_defaults(self):
        plan = build_plan([{"method": "shrink_perturb"}])
        assert plan[0].params == {"beta": 0.2}
        assert plan[0].trigger == Trigger("on_task_switch")

    def test_soft_snp_is_a_trigger_mode(self):
        plan = build_plan([{"method": "shrink_perturb", "trigger": "per_gradient_step"}])
        assert plan[0].params == {"beta": 1e-4}
        explicit = build_plan([
            {"method": "shrink_perturb", "trigger": "per_gradient_step",
             "params": {"beta": 0.01}},
        ])
        assert explicit[0].params == {"beta": 0.01}

    def test_build_plan_overrides(self):
        plan = build_plan(
            [{"method": "redo", "params": {"tau": 0.1}, "trigger": "every_k_steps(500)"}]
        )
        assert plan[0].params == {"tau": 0.1}
        assert plan[0].trigger == Trigger("every_k_steps", 500)

    def test_build_plan_rejects_unknown(self):
        with pytest.raises(MitigationError):
            build_plan([{"method": "dropout"}])
        with pytest.raises(MitigationError):
            build_plan([{"method": "redo", "params": {"rate": 1}}])

    def test_single_optimizer_rule(self):
        with pytest.raises(MitigationError):
            build_plan([{"method": "trac"}, {"method": "kron"}])

    def test_parse_trigger(self):
        assert Trigger.parse("on_task_switch") == Trigger("on_task_switch")
        assert Trigger.parse("once_at(0)") == Trigger("once_at", 0)
        assert Trigger.parse("every_k_steps(10)") == Trigger("every_k_steps", 10)
        with pytest.raises(MitigationError):
            Trigger.parse("every_k_steps(0)")
        with pytest.raises(MitigationError):
            Trigger.parse("every_k_steps")
        with pytest.raises(MitigationError):
            Trigger.parse("sometimes")

    def test_trigger_text_round_trips(self):
        forms = [spec.default_trigger for spec in REGISTRY.values()] + [
            Trigger("every_k_steps", 1), Trigger("every_k_steps", 10**30), Trigger("once_at", 0),
            Trigger("once_at", 7), Trigger("on_task_switch"), Trigger("per_gradient_step"),
        ]
        for trigger in forms:
            assert Trigger.parse(str(trigger)) == trigger
        assert str(REGISTRY["redo"].default_trigger) == "every_k_steps(1000)"
        assert str(REGISTRY["crelu"].default_trigger) == "once_at(0)"
        assert Trigger.parse(" once_at(5) ") == Trigger("once_at", 5)

    def test_fires_matches_the_loop_chain(self):
        triggers = [Trigger("every_k_steps", k) for k in (1, 2, 3, 7, 1000, 10**30)]
        triggers += [Trigger("once_at", s) for s in (0, 1, 5, 999, 10**30)]
        triggers += [Trigger("on_task_switch"), Trigger("per_gradient_step")]
        for trigger in triggers:
            for step in [*range(2002), 10**12, 10**30]:
                for switched in (False, True):
                    assert trigger.fires(step, switched) == loop_chain_fires(trigger, step, switched)

    @pytest.mark.parametrize("name", sorted(n for n, m in REGISTRY.items() if m.kind != "event"))
    def test_non_event_methods_take_only_their_default_trigger(self, name):
        default = REGISTRY[name].default_trigger
        assert build_plan([{"method": name, "trigger": str(default)}])[0].trigger == default
        for text in ("every_k_steps(3)", "on_task_switch", "once_at(1)"):
            with pytest.raises(MitigationError, match=rf"mitigations\[1\]: .* {name} .*has no effect"):
                build_plan([{"method": "redo"}, {"method": name, "trigger": text}])

    @pytest.mark.parametrize("name", sorted(n for n, m in REGISTRY.items() if m.kind == "event"))
    def test_event_methods_take_any_trigger(self, name):
        for text in ("every_k_steps(3)", "on_task_switch", "once_at(1)", "per_gradient_step"):
            assert build_plan([{"method": name, "trigger": text}])[0].trigger == Trigger.parse(text)

    def test_each_category_is_contiguous(self):
        categories = [spec.category for spec in REGISTRY.values()]
        starts = [c for i, c in enumerate(categories) if i == 0 or c != categories[i - 1]]
        assert len(starts) == len(set(categories))

    def test_network_needs_are_registry_data(self):
        assert {name: spec.network for name, spec in REGISTRY.items() if spec.network} == {
            "layer_norm": (("layer_norm", True),),
            "nap": (("layer_norm", True),),
            "crelu": (("activation", "crelu"),),
            "fourier": (("activation", "fourier"),),
        }

    def test_apply_event_dispatch(self):
        net = tanh_net(80)
        probe = RngStream(80, 3).normal(0.0, 1.0, 30).reshape(10, 3)
        plan = build_plan([{"method": "reset_layers"}])
        assert apply_event_method(plan[0], net, RngStream(80, 1), probe) == 1.0
        redo_plan = build_plan([{"method": "redo", "params": {"tau": 1.0}}])
        ref = clone_network(net)
        want = redo_reset(ref, probe, 1.0, RngStream(80, 2))
        assert want > 0 and apply_event_method(redo_plan[0], net, RngStream(80, 2), probe) == float(want)
        with pytest.raises(TypeError):  # every caller passes the probe batch redo reads
            apply_event_method(redo_plan[0], net, RngStream(80, 2))

    @pytest.mark.parametrize("method", sorted(n for n, spec in REGISTRY.items() if spec.kind == "event"))
    def test_each_firing_counts_one_write(self, method):
        net = tanh_net(81)
        probe = RngStream(81, 3).normal(0.0, 1.0, 30).reshape(10, 3)
        entry = build_plan([{"method": method, "params": {"tau": 1.0} if method == "redo" else {}}])[0]
        for writes in (1, 2):
            apply_event_method(entry, net, RngStream(81, writes), probe)
            assert net.writes == writes
