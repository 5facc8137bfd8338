import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plastlab.errors import InvalidInputError, MitigationError, NumericError
from plastlab.metrics import dormant_ratio, weight_difference
from plastlab.mitigations import (
    REGISTRY,
    OptimizerState,
    Trigger,
    adam_step,
    apply_event_method,
    build_plan,
    inject_plasticity,
    kron_precondition,
    kron_step,
    make_optimizer,
    nap_project,
    optimizer_step,
    parse_trigger,
    redo_reset,
    reg_loss,
    reset_layers,
    shrink_perturb,
    trac_combine,
    trac_step,
    validate_network_for_plan,
)
from plastlab.net import (
    Gradients,
    LayerSpec,
    _draw_layer_params,
    backward,
    clone_network,
    forward,
    init_network,
    network_output,
)
from plastlab.numkit import RngStream


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
    """Every fresh init draw is exactly `value`."""
    return init_network(
        [LayerSpec(2, 3, "tanh", init=f"normal({value},0.0)"), LayerSpec(3, 1, "linear", init=f"normal({value},0.0)")],
        RngStream(0, 0),
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
            w, b = _draw_layer_params(spec, replay)
            np.testing.assert_array_equal(net.params[f"layer{i}.w"], w)
            np.testing.assert_array_equal(net.params[f"layer{i}.b"], b)

    def test_degenerate_draw_arithmetic(self):
        net = degenerate_net(0.5)
        for name in net.param_order:
            net.params[name][:] = 1.0
        shrink_perturb(net, 0.2, RngStream(3, 3))
        for name in net.param_order:
            np.testing.assert_allclose(net.params[name], 0.9, atol=1e-12)

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
        got = weight_difference(net, reference)[0]
        want = beta * weight_difference(full, reference)[0]
        assert got == pytest.approx(want, abs=1e-9)

    def test_layer_norm_affine_shrinks_to_init(self):
        net = tanh_net(4, layer_norm=True)
        net.params["layer0.ln_gain"][:] = 3.0
        net.params["layer0.ln_offset"][:] = -1.0
        shrink_perturb(net, 0.5, RngStream(4, 4))
        np.testing.assert_allclose(net.params["layer0.ln_gain"], 2.0)
        np.testing.assert_allclose(net.params["layer0.ln_offset"], -0.5)

    def test_precondition(self):
        with pytest.raises(InvalidInputError):
            shrink_perturb(tanh_net(), 1.5, RngStream(0))

    def test_shapes_preserved(self):
        net = tanh_net(5)
        shapes = {k: v.shape for k, v in net.params.items()}
        shrink_perturb(net, 0.3, RngStream(5, 1))
        assert {k: v.shape for k, v in net.params.items()} == shapes


class TestInjection:
    def test_regression_fit_moves_only_new_head(self):
        net = tanh_net(7)
        batch = RngStream(7, 1).normal(0.0, 1.0, 24).reshape(8, 3)
        target = RngStream(7, 2).normal(0.0, 1.0, 16).reshape(8, 2)
        pre_out = network_output(net, batch)
        inject_plasticity(net, RngStream(7, 3))
        head_before = net.params["layer2.w"].copy()
        opt = make_optimizer("adam", net)
        first_mse = None
        for _ in range(200):
            trace = forward(net, batch)
            err = trace.outputs - target
            mse = float(np.mean(err**2))
            first_mse = first_mse if first_mse is not None else mse
            adam_step(opt, net, backward(net, trace, 2.0 * err / err.size), 1e-2)
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
        _, count = redo_reset(net, probe, 0.025, RngStream(10, 2))
        assert count >= 1
        assert np.any(net.params["layer1.w"][2, :] != 0.0)
        np.testing.assert_array_equal(net.params["layer2.w"][:, 2], 0.0)
        np.testing.assert_allclose(network_output(net, probe), before_out, atol=1e-6)

    def test_healthy_net_noop(self):
        net = tanh_net(11)
        probe = RngStream(11, 1).normal(0.0, 1.0, 30).reshape(10, 3)
        before = {k: v.copy() for k, v in net.params.items()}
        _, count = redo_reset(net, probe, 0.025, RngStream(11, 2))
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
        _, count = redo_reset(net, probe, 0.025, RngStream(12, 2))
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
        assert weight_difference(net, fresh)[0] == 0.0

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
        assert weight_difference(a, b)[0] == 0.0

    def test_bad_scope(self):
        with pytest.raises(InvalidInputError):
            reset_layers(tanh_net(), "middle", RngStream(0))


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

    def test_requires_layer_norm(self):
        with pytest.raises(MitigationError):
            nap_project(tanh_net(33, layer_norm=False))

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
        value, grads = reg_loss("regenerative", tanh_net(40), 0.7)
        assert value == 0.0
        for g in grads.values():
            assert not np.any(g)

    def test_parseval_zero_for_orthonormal_rows(self):
        net = init_network(
            [LayerSpec(4, 2, "tanh", init="orthogonal(1.0)"), LayerSpec(2, 1, "linear")],
            RngStream(41, 0),
        )
        value, grads = reg_loss("parseval", net, 0.5, 1.0)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grads["layer0.w"], 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["l2", "regenerative", "parseval"])
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
    @given(st.integers(0, 1000), st.sampled_from(["l2", "regenerative", "parseval"]))
    def test_non_negative(self, seed, kind):
        net = tanh_net(seed)
        net.params["layer0.w"] += RngStream(seed, 8).normal(0.0, 0.05, 18).reshape(6, 3)
        assert reg_loss(kind, net, 0.3)[0] >= 0.0

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            reg_loss("l2", tanh_net(), -0.1)
        with pytest.raises(InvalidInputError):
            reg_loss("parseval", tanh_net(), 0.1, s=0.0)
        with pytest.raises(InvalidInputError):
            reg_loss("dropout", tanh_net(), 0.1)


class TestAdam:
    def test_hand_computed_first_step(self):
        net = init_network([LayerSpec(1, 1, "linear", init="normal(0.0,0.0)")], RngStream(0))
        net.params["layer0.w"][:] = 2.0
        opt = make_optimizer("adam", net)
        adam_step(opt, net, {"layer0.w": np.array([[1.0]])}, 0.1)
        assert net.params["layer0.w"][0, 0] == pytest.approx(1.9, abs=1e-6)

    def test_zero_grads_no_change(self):
        net = tanh_net(50)
        before = {k: v.copy() for k, v in net.params.items()}
        opt = make_optimizer("adam", net)
        grads = {n: np.zeros_like(net.params[n]) for n in net.trainable_names()}
        for _ in range(3):
            adam_step(opt, net, grads, 0.1)
        for name in net.param_order:
            assert net.params[name].tobytes() == before[name].tobytes()

    def test_bit_identical_trajectories(self):
        def run():
            net = tanh_net(51)
            batch = RngStream(51, 1).normal(0.0, 1.0, 12).reshape(4, 3)
            opt = make_optimizer("adam", net)
            for _ in range(5):
                trace = forward(net, batch)
                adam_step(opt, net, backward(net, trace, trace.outputs), 1e-3)
            return np.concatenate([net.params[n].ravel() for n in net.param_order])

        assert run().tobytes() == run().tobytes()

    def test_non_finite_rejected(self):
        net = tanh_net(52)
        opt = make_optimizer("adam", net)
        with pytest.raises(NumericError):
            adam_step(opt, net, {"layer0.w": np.full((6, 3), np.nan)}, 0.1)


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
                inject_plasticity(net, RngStream(53, step))
            # equal bit for bit to the reference parameters (checked below)
            ref_params = {k: v.copy() for k, v in net.params.items()}
            before = dict(net.params)
            trace = forward(net, batch)
            grads = backward(net, trace, trace.outputs - 1.0)
            ref_grads = {k: g.copy() for k, g in grads.by_name.items()}
            adam_step(opt, net, grads, 1e-2)
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

    def test_nan_in_second_tensor_names_it(self):
        net = tanh_net(54)
        opt = make_optimizer("adam", net)
        names = net.trainable_names()[:3]
        grads = {n: np.ones_like(net.params[n]) for n in names}
        grads[names[1]] = grads[names[1]].copy()
        grads[names[1]].flat[-1] = np.nan
        before = {n: net.params[n].copy() for n in net.param_order}
        with pytest.raises(NumericError) as info:
            adam_step(opt, net, grads, 0.1)
        assert info.value.layer == names[1]
        assert opt.t == 0
        for name in net.param_order:
            assert net.params[name].tobytes() == before[name].tobytes()

    def test_trac_candidate_comes_from_the_flat_base(self):
        net = tanh_net(55)
        opt = make_optimizer("trac", net)
        opt.trac_sigma_sum = np.full(4, 1e6)  # a scale far from 0 and 1
        batch = RngStream(55, 1).normal(0.0, 1.0, 12).reshape(4, 3)
        ref, scales = AdamReference(), []
        for _ in range(5):
            trace = forward(net, batch)
            grads = backward(net, trace, trace.outputs)
            cand = {n: net.params[n].copy() for n in grads.by_name}
            ref.step(cand, {k: g.copy() for k, g in grads.by_name.items()}, 1e-3)
            optimizer_step(opt, net, None, grads, 1e-3)
            assert opt.base.flat is not None
            scales.append(opt.trac_scale)
            for name in grads.by_name:
                want = trac_combine(opt.theta_ref[name], cand[name], opt.trac_scale)
                assert net.params[name].tobytes() == want.tobytes()
                assert opt.base.m[name].tobytes() == ref.m[name].tobytes()
                assert opt.base.v[name].tobytes() == ref.v[name].tobytes()
        assert any(scale not in (0.0, 1.0) for scale in scales)


class TestTrac:
    def test_combine_endpoints(self):
        ref = np.array([1.0, 2.0])
        cand = np.array([5.0, -3.0])
        np.testing.assert_array_equal(trac_combine(ref, cand, 0.0), ref)
        np.testing.assert_array_equal(trac_combine(ref, cand, 1.0), cand)
        np.testing.assert_allclose(trac_combine(ref, cand, 0.25), [2.0, 0.75])

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
        grads = {n: np.zeros_like(net.params[n]) for n in net.trainable_names()}
        cand = {n: net.params[n].copy() for n in net.trainable_names()}
        trac_step(opt, net, grads, cand)
        assert opt.saturation_warnings == 4
        assert np.isfinite(opt.trac_scale)

    def test_explicit_candidate_endpoint(self):
        net = init_network([LayerSpec(1, 1, "linear", init="normal(0.0,0.0)")], RngStream(0))
        opt = make_optimizer("trac", net)
        # drive the tuners hard enough that the scale becomes positive
        grads = {"layer0.w": np.array([[1.0]]), "layer0.b": np.array([0.0])}
        net.params["layer0.w"][:] = -1.0  # theta - ref = -1, h = -1
        cand = {"layer0.w": np.array([[3.0]]), "layer0.b": np.array([0.0])}
        trac_step(opt, net, grads, cand)
        assert opt.trac_scale > 0.0
        want = opt.theta_ref["layer0.w"] + opt.trac_scale * (cand["layer0.w"] - opt.theta_ref["layer0.w"])
        np.testing.assert_allclose(net.params["layer0.w"], want, atol=1e-15)

    def test_injected_branch_reference_is_its_init(self):
        net = tanh_net(63)
        opt = make_optimizer("trac", net)
        inject_plasticity(net, RngStream(63, 3))
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
        net = init_network([LayerSpec(1, 1, "linear", init="normal(0.0,0.0)")], RngStream(0))
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
        kron_step(opt, net, trace, grads, 0.1)
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
            pre_w, pre_b = kron_precondition(opt, "layer0", g_w, g_b)
            norms.append(np.sqrt(np.sum(pre_w**2) + np.sum(pre_b**2)))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_quadratic_bowl_beats_gd(self):
        # least squares with badly scaled inputs; the preconditioner whitens
        stream = RngStream(71, 0)
        x = stream.normal(0.0, 1.0, 64 * 2).reshape(64, 2) * np.array([1.0, 8.0])
        w_true = np.array([[1.5, -0.5]])
        y = x @ w_true.T

        def run(use_kron, steps=40, lr=0.05):
            net = init_network([LayerSpec(2, 1, "linear", init="normal(0.0,0.0)")], RngStream(0))
            opt = make_optimizer("kron", net) if use_kron else None
            for _ in range(steps):
                trace = forward(net, x)
                err = trace.outputs - y
                grads = backward(net, trace, err / x.shape[0])
                if use_kron:
                    kron_step(opt, net, trace, grads, lr)
                else:
                    for name, g in grads.by_name.items():
                        net.params[name] = net.params[name] - lr * g
            return float(np.mean((network_output(net, x) - y) ** 2))

        assert run(True) < run(False) * 0.5

    def test_singular_factor_falls_back_to_diagonal(self):
        opt = make_optimizer("kron", None, damping=0.0)
        opt.factors_a["layer0"] = np.ones((3, 3))  # rank one, singular
        opt.factors_s["layer0"] = np.eye(2)
        pre_w, pre_b = kron_precondition(opt, "layer0", np.ones((2, 2)), np.ones(2))
        assert opt.fallback_count == 1
        assert np.all(np.isfinite(pre_w)) and np.all(np.isfinite(pre_b))


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
        assert plan.entries[0].params == {"beta": 0.2}
        assert plan.entries[0].trigger == Trigger("on_task_switch")

    def test_soft_snp_is_a_trigger_mode(self):
        plan = build_plan([{"method": "shrink_perturb", "trigger": "per_gradient_step"}])
        assert plan.entries[0].params == {"beta": 1e-4}
        explicit = build_plan([
            {"method": "shrink_perturb", "trigger": "per_gradient_step",
             "params": {"beta": 0.01}},
        ])
        assert explicit.entries[0].params == {"beta": 0.01}

    def test_build_plan_overrides(self):
        plan = build_plan(
            [{"method": "redo", "params": {"tau": 0.1}, "trigger": "every_k_steps(500)"}]
        )
        assert plan.entries[0].params == {"tau": 0.1}
        assert plan.entries[0].trigger == Trigger("every_k_steps", k=500)

    def test_build_plan_rejects_unknown(self):
        with pytest.raises(MitigationError):
            build_plan([{"method": "dropout"}])
        with pytest.raises(MitigationError):
            build_plan([{"method": "redo", "params": {"rate": 1}}])

    def test_single_optimizer_rule(self):
        with pytest.raises(MitigationError):
            build_plan([{"method": "trac"}, {"method": "kron"}])

    def test_parse_trigger(self):
        assert parse_trigger("on_task_switch") == Trigger("on_task_switch")
        assert parse_trigger("once_at(0)") == Trigger("once_at", step=0)
        assert parse_trigger("every_k_steps(10)") == Trigger("every_k_steps", k=10)
        with pytest.raises(MitigationError):
            parse_trigger("every_k_steps(0)")
        with pytest.raises(MitigationError):
            parse_trigger("every_k_steps")
        with pytest.raises(MitigationError):
            parse_trigger("sometimes")

    def test_network_validation(self):
        plan = build_plan([{"method": "layer_norm"}])
        validate_network_for_plan(plan, tanh_net(0, layer_norm=True))
        with pytest.raises(MitigationError):
            validate_network_for_plan(plan, tanh_net(0, layer_norm=False))
        crelu_plan = build_plan([{"method": "crelu"}])
        with pytest.raises(MitigationError):
            validate_network_for_plan(crelu_plan, tanh_net(0))

    def test_apply_event_dispatch(self):
        net = tanh_net(80)
        plan = build_plan([{"method": "reset_layers"}])
        info = apply_event_method(plan.entries[0], net, RngStream(80, 1))
        assert info == {"scope": "final"}
        redo_plan = build_plan([{"method": "redo"}])
        with pytest.raises(MitigationError):
            apply_event_method(redo_plan.entries[0], net, RngStream(80, 2))
