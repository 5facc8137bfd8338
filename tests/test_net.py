import json
import re
import struct

import numpy as np
import pytest

from plastlab.errors import CheckpointError, SpecError
from plastlab.net import (
    Gradients,
    LayerSpec,
    _act_backward,
    _act_forward,
    _branch_names,
    _ln_backward,
    add_injection_round,
    backward,
    clone_network,
    deserialize_network,
    draw_layers,
    forward,
    init_network,
    layer_params,
    network_output,
    serialize_network,
)
from plastlab.numkit import RngStream
from plastlab.runner import resolve_config, run_experiment

from helpers import constant_network, single_draw_reference


def fd_grads(net, batch, coeff, h=1e-5):
    """Central finite differences of L = sum(outputs * coeff) per parameter."""
    out = {}
    for name in net.trainable_names():
        flat = net.params[name].ravel()
        g = np.zeros(flat.size)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = float(np.sum(network_output(net, batch) * coeff))
            flat[j] = keep - h
            down = float(np.sum(network_output(net, batch) * coeff))
            flat[j] = keep
            g[j] = (up - down) / (2.0 * h)
        out[name] = g.reshape(net.params[name].shape)
    return out


def assert_grads_close(analytic, numeric, names):
    assert set(analytic) == set(names)
    for name in names:
        a, f = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-2)
        rel = np.abs(a - f) / denom
        assert rel.max() < 1e-4, f"{name}: max rel err {rel.max():.2e}"


def small_net(activation, layer_norm, seed):
    first = LayerSpec(3, 4, activation, layer_norm, "orthogonal(1.3)")
    head = LayerSpec(first.width_out, 2, "linear", False, "orthogonal(0.7)")
    return init_network([first, head], RngStream(seed, 1))


@pytest.mark.parametrize("activation", ["relu", "tanh", "crelu", "fourier", "linear"])
@pytest.mark.parametrize("layer_norm", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_check(activation, layer_norm, seed):
    net = small_net(activation, layer_norm, seed)
    stream = RngStream(seed, 99)
    batch = stream.normal(0.0, 1.0, 12).reshape(4, 3)
    # keep relu preacts away from the kink so finite differences stay clean
    batch = batch + 0.05 * np.sign(batch)
    coeff = stream.normal(0.0, 1.0, 8).reshape(4, 2)
    trace = forward(net, batch)
    grads = backward(net, trace, coeff)
    assert_grads_close(grads.by_name, fd_grads(net, batch, coeff), net.trainable_names())


def test_zero_output_grad():
    net = small_net("relu", True, 5)
    batch = RngStream(5, 2).normal(0.0, 1.0, 12).reshape(4, 3)
    trace = forward(net, batch)
    grads = backward(net, trace, np.zeros_like(trace.outputs))
    for g in grads.by_name.values():
        assert not np.any(g)


def test_orthogonal_init_gram():
    net = init_network([LayerSpec(2, 3, "linear", init="orthogonal(1.0)")], RngStream(4))
    w = net.params["layer0.w"]  # (out=3, in=2): the narrow side is orthonormal
    np.testing.assert_allclose(w.T @ w, np.eye(2), atol=1e-6)
    net2 = init_network([LayerSpec(5, 3, "linear", init="orthogonal(2.0)")], RngStream(4))
    w2 = net2.params["layer0.w"]
    np.testing.assert_allclose(w2 @ w2.T, 4.0 * np.eye(3), atol=1e-6)


DRAW_CHAINS = {
    "orthogonal": [LayerSpec(16, 64), LayerSpec(64, 64), LayerSpec(64, 4, "linear")],
    "orthogonal_gains_odd_sizes": [
        LayerSpec(3, 5, init="orthogonal(1.41)"),
        LayerSpec(5, 5, init="orthogonal(0.5)"),
        LayerSpec(5, 7, init="orthogonal(1.41)"),
        LayerSpec(7, 1, "linear", init="orthogonal(0.01)"),
    ],
    "zero_and_negative_gains_crelu": [
        LayerSpec(5, 4, init="orthogonal(0.0)"),
        LayerSpec(4, 3, "crelu", init="orthogonal(-2.0)"),
        LayerSpec(6, 6),
        LayerSpec(6, 2, "linear", init="orthogonal(2.0)"),
    ],
}


class TestDrawLayers:
    """The batched chain draw, bit for bit, against one-layer-at-a-time draws."""

    @pytest.mark.parametrize("name", sorted(DRAW_CHAINS))
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_k_draws_equal_k_successive_single_draws(self, name, k):
        specs = tuple(DRAW_CHAINS[name])
        for start in ((0, 3, 0), (5, 3, 17), (2**64 - 1, 2**63, 2**40)):
            fast, ref = RngStream(*start), RngStream(*start)
            got = draw_layers(specs, fast, k)
            for j in range(k):
                for (w, b), spec in zip(got, specs):
                    w_ref, b_ref = single_draw_reference(spec, ref)
                    assert w[j].flags.c_contiguous and w[j].shape == w_ref.shape
                    assert w[j].tobytes() == w_ref.tobytes(), (name, k, j, spec)
                    assert b[j].tobytes() == b_ref.tobytes(), (name, k, j, spec)
            assert fast.counter == ref.counter

    @pytest.mark.parametrize("name", sorted(DRAW_CHAINS))
    def test_one_layer_draw_is_the_k1_case(self, name):
        fast, ref = RngStream(8, 3, 99), RngStream(8, 3, 99)
        for i, spec in enumerate(DRAW_CHAINS[name]):
            w, b = layer_params(i, spec, fast).values()
            w_ref, b_ref = single_draw_reference(spec, ref)
            assert w.tobytes() == w_ref.tobytes() and b.tobytes() == b_ref.tobytes()
            assert fast.counter == ref.counter


def golden_layer_shapes(tmp_path) -> set[tuple[int, int]]:
    """(rows, cols) of every QR input the golden configs build: the network
    each one starts from, read back from a one-step run's checkpoint. The run
    keeps each mitigation at its default trigger: a given one may not fire in
    one step, and none of them changes a layer shape."""
    from test_golden import CONFIGS

    shapes = set()
    for name, raw in CONFIGS.items():
        entries = [e if isinstance(e, str) else {**e, "trigger": None} for e in raw.get("mitigations", [])]
        art = run_experiment(resolve_config({**raw, "total_steps": 1, "mitigations": entries}), str(tmp_path / name))
        with open(art.checkpoint_paths[-1], "rb") as fh:
            net = deserialize_network(fh.read())
        for spec in net.layers:
            shapes.add((max(spec.out_dim, spec.in_dim), min(spec.out_dim, spec.in_dim)))
    return shapes


def test_stacked_qr_equals_single_qr_on_golden_shapes(tmp_path):
    shapes = golden_layer_shapes(tmp_path)
    assert len(shapes) >= 5
    stream = RngStream(21, 0)
    for big, small in sorted(shapes):
        # 16 matrices: two layers of one shape, eight draws each
        stack = stream.normal(0.0, 1.0, 16 * big * small).reshape(16, big, small)
        qs, rs = np.linalg.qr(stack)
        for j in range(16):
            q, r = np.linalg.qr(stack[j].copy())
            assert qs[j].tobytes() == q.tobytes(), (big, small, j)
            assert rs[j].tobytes() == r.tobytes(), (big, small, j)


def test_init_determinism():
    specs = [LayerSpec(3, 4), LayerSpec(4, 2, "linear", init="orthogonal(0.5)")]
    a = init_network(specs, RngStream(7, 3))
    b = init_network(specs, RngStream(7, 3))
    for name in a.param_order:
        assert a.params[name].tobytes() == b.params[name].tobytes()


def test_init_snapshot_frozen_copy():
    net = init_network([LayerSpec(3, 3)], RngStream(0))
    np.testing.assert_array_equal(net.params["layer0.w"], net.init_snapshot["layer0.w"])
    net.params["layer0.w"] += 1.0
    assert not np.array_equal(net.params["layer0.w"], net.init_snapshot["layer0.w"])
    with pytest.raises(ValueError):
        net.init_snapshot["layer0.w"][0, 0] = 9.0


def test_width_doubling_chain():
    init_network([LayerSpec(4, 8, "crelu"), LayerSpec(16, 2, "linear")], RngStream(1))
    with pytest.raises(SpecError):
        init_network([LayerSpec(4, 8, "crelu"), LayerSpec(8, 2, "linear")], RngStream(1))


def test_layer_norm_constant_row():
    net = init_network([LayerSpec(3, 3, "linear", layer_norm=True)], RngStream(2))
    net.params["layer0.w"][:] = np.eye(3)
    net.params["layer0.b"][:] = 0.0
    trace = forward(net, np.array([[5.0, 5.0, 5.0]]))
    np.testing.assert_allclose(trace.preacts[0], [[0.0, 0.0, 0.0]], atol=1e-12)


def test_crelu_and_fourier_values():
    net = constant_network([LayerSpec(2, 2, "crelu")])
    net.params["layer0.w"][:] = np.eye(2)
    trace = forward(net, np.array([[1.0, -2.0]]))
    np.testing.assert_array_equal(trace.postacts[0], [[1.0, 0.0, 0.0, 2.0]])
    assert trace.postacts[0].shape[1] == 2 * trace.preacts[0].shape[1]

    netf = constant_network([LayerSpec(1, 1, "fourier")])
    tracef = forward(netf, np.array([[0.0]]))
    np.testing.assert_array_equal(tracef.postacts[0], [[0.0, 1.0]])


def test_forward_purity():
    net = small_net("tanh", True, 9)
    batch = RngStream(9, 5).uniform(-1.0, 1.0, 12).reshape(4, 3)
    a = forward(net, batch)
    b = forward(net, batch)
    assert a.outputs.tobytes() == b.outputs.tobytes()


class TestInjection:
    def build(self):
        net = init_network(
            [LayerSpec(3, 4, "tanh"), LayerSpec(4, 2, "linear")], RngStream(11, 0)
        )
        batch = RngStream(11, 6).normal(0.0, 1.0, 15).reshape(5, 3)
        return net, batch

    def test_output_preserved_at_injection(self):
        net, batch = self.build()
        before = network_output(net, batch)
        add_injection_round(net, RngStream(11, 7))
        after = network_output(net, batch)
        np.testing.assert_allclose(after, before, atol=1e-6)

    def test_base_head_gets_no_gradient(self):
        net, batch = self.build()
        add_injection_round(net, RngStream(11, 7))
        trace = forward(net, batch)
        grads = backward(net, trace, np.ones_like(trace.outputs))
        assert "layer1.w" not in grads.by_name
        assert "layer1.inj1_frozen.w" not in grads.by_name
        assert "layer1.inj1_train.w" in grads.by_name
        assert np.any(grads.by_name["layer1.inj1_train.w"])

    def test_gradient_check_post_injection(self):
        net, batch = self.build()
        add_injection_round(net, RngStream(11, 7))
        # separate the frozen and trainable branches so the test is not trivial
        net.params["layer1.inj1_train.w"] += 0.3
        coeff = RngStream(11, 8).normal(0.0, 1.0, 10).reshape(5, 2)
        trace = forward(net, batch)
        grads = backward(net, trace, coeff)
        assert_grads_close(grads.by_name, fd_grads(net, batch, coeff), net.trainable_names())

    def test_second_round_freezes_previous_branch(self):
        net, batch = self.build()
        add_injection_round(net, RngStream(11, 7))
        net.params["layer1.inj1_train.w"] += 0.5
        before = network_output(net, batch)
        add_injection_round(net, RngStream(11, 9))
        np.testing.assert_allclose(network_output(net, batch), before, atol=1e-6)
        assert "layer1.inj1_train.w" in net.frozen
        trace = forward(net, batch)
        grads = backward(net, trace, np.ones_like(trace.outputs))
        assert set(n for n in grads.by_name if n.startswith("layer1")) == {
            "layer1.inj2_train.w",
            "layer1.inj2_train.b",
        }


def backward_with_input_grads(net, trace, output_grad):
    """Reverse pass that also forms every layer's input gradient, layer 0's
    included; the oracle for `backward`, which skips the one nothing reads."""
    by_name, lin_grads = {}, {}
    last = len(net.layers) - 1
    spec_last = net.layers[last]

    def accumulate_branch(prefix, pre, post, g_post, x, w_name, cache):
        g_pre = _act_backward(spec_last.activation, pre, post, g_post)
        if cache is not None:
            g_lin, g_gain, g_offset = _ln_backward(cache, net.params[f"{prefix}.ln_gain"], g_pre)
            if f"{prefix}.ln_gain" not in net.frozen:
                by_name[f"{prefix}.ln_gain"] = g_gain
                by_name[f"{prefix}.ln_offset"] = g_offset
        else:
            g_lin = g_pre
        w = net.params[w_name]
        if w_name not in net.frozen:
            by_name[w_name] = g_lin.T @ x
            by_name[f"{prefix}.b"] = g_lin.sum(axis=0)
            lin_grads[prefix] = g_lin
        return g_lin @ w

    head_in = trace.layer_inputs[last]
    if net.injection_rounds:
        base_post = _act_forward(spec_last.activation, trace.preacts[last])
        g_input = accumulate_branch(f"layer{last}", trace.preacts[last], base_post, output_grad,
                                    head_in, f"layer{last}.w", trace.ln_caches[last])
        for r, branches in enumerate(trace.head_branches, start=1):
            train_prefix, frozen_prefix = _branch_names(last, r)
            g_input += accumulate_branch(train_prefix, *branches[train_prefix], output_grad,
                                         head_in, f"{train_prefix}.w", None)
            g_input += accumulate_branch(frozen_prefix, *branches[frozen_prefix], -output_grad,
                                         head_in, f"{frozen_prefix}.w", None)
    else:
        g_input = accumulate_branch(f"layer{last}", trace.preacts[last], trace.postacts[last],
                                    output_grad, head_in, f"layer{last}.w", trace.ln_caches[last])
    for i in range(last - 1, -1, -1):
        g_pre = _act_backward(net.layers[i].activation, trace.preacts[i], trace.postacts[i],
                              g_input)
        if trace.ln_caches[i] is not None:
            g_lin, g_gain, g_offset = _ln_backward(
                trace.ln_caches[i], net.params[f"layer{i}.ln_gain"], g_pre)
            if f"layer{i}.ln_gain" not in net.frozen:
                by_name[f"layer{i}.ln_gain"] = g_gain
                by_name[f"layer{i}.ln_offset"] = g_offset
        else:
            g_lin = g_pre
        if f"layer{i}.w" not in net.frozen:
            by_name[f"layer{i}.w"] = g_lin.T @ trace.layer_inputs[i]
            by_name[f"layer{i}.b"] = g_lin.sum(axis=0)
            lin_grads[f"layer{i}"] = g_lin
        g_input = g_lin @ net.params[f"layer{i}.w"]
    return Gradients(by_name=by_name, lin_grads=lin_grads)


def assert_same_gradients(got, want):
    """Equal keys in equal order (clipping sums in that order), equal bits."""
    for field in ("by_name", "lin_grads"):
        a, b = getattr(got, field), getattr(want, field)
        assert list(a) == list(b), field
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), (field, name)


class TestBackwardOracle:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "crelu", "fourier"])
    @pytest.mark.parametrize("layer_norm", [False, True])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("rounds", [0, 1, 2])
    def test_matches_the_pass_that_forms_every_input_gradient(
        self, activation, layer_norm, depth, rounds
    ):
        seed = 70 + depth + 3 * rounds
        specs, width = [], 5
        for _ in range(depth - 1):
            specs.append(LayerSpec(width, 6, activation, layer_norm, "orthogonal(1.2)"))
            width = specs[-1].width_out
        # injection needs a plain head
        head_ln = layer_norm and not rounds
        specs.append(LayerSpec(width, 3, "linear", head_ln, "orthogonal(0.8)"))
        net = init_network(specs, RngStream(seed, 1))
        for r in range(rounds):
            add_injection_round(net, RngStream(seed, 2 + r))
            # move the trainable branch off its frozen twin
            net.params[f"layer{depth - 1}.inj{r + 1}_train.w"] += 0.2
        stream = RngStream(seed, 9)
        batch = stream.normal(0.0, 1.0, 7 * 5).reshape(7, 5)
        coeff = stream.normal(0.0, 1.0, 7 * 3).reshape(7, 3)
        trace = forward(net, batch)
        assert_same_gradients(backward(net, trace, coeff),
                              backward_with_input_grads(net, trace, coeff))

    @pytest.mark.parametrize(
        "frozen", [{"layer1.w", "layer1.b"}, {"layer0.ln_gain", "layer0.ln_offset"},
                   {"layer0.w", "layer0.b", "layer2.w", "layer2.b"}]
    )
    def test_matches_with_frozen_parameters(self, frozen):
        net = init_network(
            [LayerSpec(4, 6, "relu", True), LayerSpec(6, 5, "tanh"), LayerSpec(5, 2, "linear")],
            RngStream(80, 1),
        )
        net.frozen = frozenset(frozen)
        stream = RngStream(80, 2)
        batch = stream.normal(0.0, 1.0, 24).reshape(6, 4)
        coeff = stream.normal(0.0, 1.0, 12).reshape(6, 2)
        trace = forward(net, batch)
        got = backward(net, trace, coeff)
        assert not frozen & set(got.by_name)
        assert_same_gradients(got, backward_with_input_grads(net, trace, coeff))


class TestSerialization:
    def test_round_trip_bit_exact(self):
        net = init_network(
            [LayerSpec(3, 4, "relu", layer_norm=True), LayerSpec(4, 2, "linear")],
            RngStream(21, 0),
        )
        add_injection_round(net, RngStream(21, 1))
        net.params["layer0.w"] += 0.25
        blob = serialize_network(net)
        back = deserialize_network(blob)
        assert back.param_order == net.param_order
        assert back.frozen == net.frozen
        assert back.injection_rounds == net.injection_rounds
        for name in net.param_order:
            assert back.params[name].tobytes() == net.params[name].tobytes()
            assert back.init_snapshot[name].tobytes() == net.init_snapshot[name].tobytes()
        assert serialize_network(back) == blob

    def test_truncated_blob_rejected(self):
        net = init_network([LayerSpec(2, 2)], RngStream(1))
        blob = serialize_network(net)
        with pytest.raises(CheckpointError):
            deserialize_network(blob[:-8])
        with pytest.raises(CheckpointError):
            deserialize_network(b"\x00" * 4)


def _edit_manifest(blob: bytes, edit) -> bytes:
    """The checkpoint with `edit` applied to its JSON manifest; body unchanged."""
    (head_len,) = struct.unpack_from("<Q", blob, 0)
    manifest = json.loads(blob[8 : 8 + head_len])
    edit(manifest)
    head = json.dumps(manifest).encode("utf-8")
    return struct.pack("<Q", len(head)) + head + blob[8 + head_len :]


_DELETE = object()


def _set(path, value):
    """An edit that sets the manifest entry at `path`, or removes it for _DELETE."""

    def edit(manifest):
        *outer, last = path
        for key in outer:
            manifest = manifest[key]
        if value is _DELETE:
            del manifest[last]
        else:
            manifest[last] = value
    return edit


BAD_MANIFESTS = {
    # missing keys
    "no layers": _set(["layers"], _DELETE),
    "no param_order": _set(["param_order"], _DELETE),
    "no shapes": _set(["shapes"], _DELETE),
    "no shape for one param": _set(["shapes", "layer0.w"], _DELETE),
    "no frozen": _set(["frozen"], _DELETE),
    "no injection_rounds": _set(["injection_rounds"], _DELETE),
    # wrong types
    "layers not a list": _set(["layers"], {"0": {}}),
    "param_order a string": _set(["param_order"], "layer0.w"),
    "param_order of ints": _set(["param_order"], [0, 1]),
    "shapes a list": _set(["shapes"], [[2, 3]]),
    "shape of floats": _set(["shapes", "layer0.w"], [2.0, 3.0]),
    "shape a number": _set(["shapes", "layer0.w"], 6),
    # 6 + (-2 * -1) floats: the body size still matches
    "negative shape": _set(["shapes", "layer0.b"], [-2, -1]),
    "frozen a string": _set(["frozen"], "layer0.w"),
    "frozen names an unknown param": _set(["frozen"], ["layer9.w"]),
    "injection_rounds a string": _set(["injection_rounds"], "0"),
    "injection_rounds a float": _set(["injection_rounds"], 0.5),
    "injection_rounds a bool": _set(["injection_rounds"], False),
    "injection_rounds negative": _set(["injection_rounds"], -1),
    # more rounds than tensors: refused before any layout is built
    "injection_rounds huge": _set(["injection_rounds"], 10**12),
    # four 2-float biases: the body size still matches, the weight is lost
    "repeated param name": _set(["param_order"], ["layer0.b"] * 4),
    # bad layer entries
    "layer entry a list": _set(["layers", 0], [3, 2]),
    "layer entry lacks in_dim": _set(["layers", 0, "in_dim"], _DELETE),
    "layer entry with unknown key": _set(["layers", 0, "bias"], True),
    "in_dim a string": _set(["layers", 0, "in_dim"], "3"),
    "in_dim a float": _set(["layers", 0, "in_dim"], 3.0),
    "in_dim zero": _set(["layers", 0, "in_dim"], 0),
    "layer_norm an int": _set(["layers", 0, "layer_norm"], 0),
    "unknown activation": _set(["layers", 0, "activation"], "swish"),
    "malformed init": _set(["layers", 0, "init"], "orthogonal(1.0"),
    "init gain not a number": _set(["layers", 0, "init"], "orthogonal(x)"),
    "init gain nan": _set(["layers", 0, "init"], "orthogonal(nan)"),
    "init gain inf": _set(["layers", 0, "init"], "orthogonal(-inf)"),
    "init of another kind": _set(["layers", 0, "init"], "normal(0.0,1.0)"),
}


class TestManifestValidation:
    @staticmethod
    def _blob():
        return serialize_network(init_network([LayerSpec(3, 2)], RngStream(8)))

    def test_unedited_manifest_loads(self):
        blob = _edit_manifest(self._blob(), lambda m: None)
        assert deserialize_network(blob).param_order == ("layer0.w", "layer0.b")

    @pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
    def test_bad_manifest_raises_checkpoint_error(self, case):
        with pytest.raises(CheckpointError):
            deserialize_network(_edit_manifest(self._blob(), BAD_MANIFESTS[case]))

    @pytest.mark.parametrize("order,message", [
        (["layer0.w"], "lacks tensor 'layer0.b' that its layers need"),
        (["layer0.w", "layer0.b", "layer0.x"], "tensor 'layer0.x' is not one its layers hold"),
        (["layer0.b", "layer0.w"], "param_order is not the order its layers add tensors in"),
    ], ids=["missing", "unknown", "reordered"])
    def test_param_order_must_be_the_layers_layout(self, order, message):
        def edit(manifest):  # layer0.x holds no value, so the body still fits
            manifest["param_order"] = order
            manifest["shapes"]["layer0.x"] = [0]
        with pytest.raises(CheckpointError, match=re.escape(message)):
            deserialize_network(_edit_manifest(self._blob(), edit))

    def test_injected_layer_norm_head_is_refused(self):
        net = init_network([LayerSpec(3, 2, "linear", layer_norm=True)], RngStream(8))
        w, b = net.params["layer0.w"], net.params["layer0.b"]
        train, frozen = _branch_names(0, 1)
        net.add({f"{train}.w": w, f"{train}.b": b, f"{frozen}.w": w, f"{frozen}.b": b})
        net.injection_rounds = 1
        with pytest.raises(CheckpointError, match="into a LayerNorm head"):
            deserialize_network(serialize_network(net))

    def test_manifest_not_an_object(self):
        head = b"[1, 2]"
        with pytest.raises(CheckpointError, match="not a JSON object"):
            deserialize_network(struct.pack("<Q", len(head)) + head)


def test_clone_keeps_the_write_count_and_a_checkpoint_starts_at_zero():
    net = small_net("tanh", False, 7)
    assert net.writes == 0
    net.writes = 5
    assert clone_network(net).writes == 5
    assert deserialize_network(serialize_network(net)).writes == 0


def test_clone_is_independent():
    net = init_network([LayerSpec(2, 2)], RngStream(3))
    twin = clone_network(net)
    twin.params["layer0.w"] += 1.0
    assert not np.array_equal(twin.params["layer0.w"], net.params["layer0.w"])


class TestLayout:
    """The layout helpers: NetworkState.add, head_prefixes and layer_params."""

    def test_add_appends_in_order_with_read_only_snapshots(self):
        net = init_network([LayerSpec(2, 3), LayerSpec(3, 1, "linear")], RngStream(30))
        before = net.param_order
        extra = {"x.w": np.arange(6.0).reshape(2, 3), "x.b": np.ones(2), "log_std": np.zeros(1)}
        net.add(extra, frozen=("x.b",))
        assert net.param_order == before + ("x.w", "x.b", "log_std")
        assert net.frozen == frozenset({"x.b"})
        assert "x.b" not in net.trainable_names() and "x.w" in net.trainable_names()
        for name, value in extra.items():
            assert net.params[name] is value
            snap = net.init_snapshot[name]
            assert snap is not value and snap.tobytes() == value.tobytes()
            with pytest.raises(ValueError):
                snap[...] = 7.0
        net.params["x.w"] += 1.0
        assert net.init_snapshot["x.w"][0, 0] == 0.0
        # frozen names accumulate
        net.add({"y.w": np.zeros((1, 1))}, frozen=("y.w",))
        assert net.frozen == frozenset({"x.b", "y.w"})

    @pytest.mark.parametrize("depth", [1, 3])
    def test_head_prefixes_follow_the_injection_rounds(self, depth):
        specs = [LayerSpec(3, 3, "tanh") for _ in range(depth - 1)] + [LayerSpec(3, 2, "linear")]
        net = init_network(specs, RngStream(31))
        last = depth - 1
        for rounds in range(4):
            want = (f"layer{last}",) + tuple(
                name for r in range(1, rounds + 1) for name in _branch_names(last, r)
            )
            assert net.head_prefixes() == want
            for prefix in want:
                assert f"{prefix}.w" in net.params and f"{prefix}.b" in net.params
            add_injection_round(net, RngStream(31, rounds + 1))

    def test_layer_params_is_init_networks_draw(self):
        specs = [
            LayerSpec(4, 5, "relu", True, "orthogonal(1.41)"),
            LayerSpec(5, 3, "crelu", False, "orthogonal(0.5)"),
            LayerSpec(6, 2, "linear", True, "orthogonal(0.01)"),
        ]
        net = init_network(specs, RngStream(32, 4))
        stream = RngStream(32, 4)
        drawn = {}
        for i, spec in enumerate(specs):
            drawn.update(layer_params(i, spec, stream))
        assert tuple(drawn) == net.param_order
        for name in net.param_order:
            assert drawn[name].tobytes() == net.params[name].tobytes(), name
        assert drawn["layer0.ln_gain"].tolist() == [1.0] * 5
        assert drawn["layer2.ln_offset"].tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "init", ["uniform_fan_in", "normal(0.0,1.0)", "orthogonal(x)", "orthogonal(nan)",
             "orthogonal(inf)", "orthogonal(1.0,2.0)", "orthogonal()", "Orthogonal(1.0)"],
)
def test_only_finite_orthogonal_init(init):
    with pytest.raises(SpecError):
        LayerSpec(2, 2, init=init)


def test_orthogonal_gain_spellings():
    for init in ("orthogonal", " orthogonal(1.0) ", "orthogonal(1)", "orthogonal(1e0)"):
        w = init_network([LayerSpec(3, 3, init=init)], RngStream(33)).params["layer0.w"]
        assert w.tobytes() == init_network([LayerSpec(3, 3)], RngStream(33)).params["layer0.w"].tobytes()
