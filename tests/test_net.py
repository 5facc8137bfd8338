import json
import struct

import numpy as np
import pytest

from plastlab.errors import CheckpointError, InvalidInputError, SpecError
from plastlab.net import (
    LayerSpec,
    add_injection_round,
    backward,
    clone_network,
    deserialize_network,
    forward,
    init_network,
    network_output,
    serialize_network,
)
from plastlab.numkit import RngStream


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
    specs = [
        LayerSpec(3, 4, activation, layer_norm, "orthogonal(1.3)"),
        LayerSpec(LayerSpec(3, 4, activation).width_out if activation in ("crelu", "fourier") else 4,
                  2, "linear", False, "uniform_fan_in"),
    ]
    specs[1] = LayerSpec(specs[0].width_out, 2, "linear", False, "uniform_fan_in")
    return init_network(specs, RngStream(seed, 1))


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


def test_init_determinism():
    specs = [LayerSpec(3, 4), LayerSpec(4, 2, "linear", init="uniform_fan_in")]
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
    net = init_network([LayerSpec(2, 2, "crelu", init="normal(0.0,0.0)")], RngStream(0))
    net.params["layer0.w"][:] = np.eye(2)
    trace = forward(net, np.array([[1.0, -2.0]]))
    np.testing.assert_array_equal(trace.postacts[0], [[1.0, 0.0, 0.0, 2.0]])
    assert trace.postacts[0].shape[1] == 2 * trace.preacts[0].shape[1]

    netf = init_network([LayerSpec(1, 1, "fourier", init="normal(0.0,0.0)")], RngStream(0))
    tracef = forward(netf, np.array([[0.0]]))
    np.testing.assert_array_equal(tracef.postacts[0], [[0.0, 1.0]])


def test_forward_purity():
    net = small_net("tanh", True, 9)
    batch = RngStream(9, 5).uniform(-1.0, 1.0, 12).reshape(4, 3)
    a = forward(net, batch)
    b = forward(net, batch)
    assert a.outputs.tobytes() == b.outputs.tobytes()


def test_forward_shape_errors():
    net = small_net("relu", False, 3)
    with pytest.raises(InvalidInputError):
        forward(net, np.ones((2, 5)))
    trace = forward(net, np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        backward(net, trace, np.ones((2, 3)))


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

    def test_manifest_not_an_object(self):
        head = b"[1, 2]"
        with pytest.raises(CheckpointError, match="not a JSON object"):
            deserialize_network(struct.pack("<Q", len(head)) + head)


def test_clone_is_independent():
    net = init_network([LayerSpec(2, 2)], RngStream(3))
    twin = clone_network(net)
    twin.params["layer0.w"] += 1.0
    assert not np.array_equal(twin.params["layer0.w"], net.params["layer0.w"])
