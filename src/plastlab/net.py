"""Dense feed-forward networks with manual reverse-mode differentiation.

Everything here is plain numpy on float64. Forward passes record enough
intermediate state (linear outputs, normalized pre-activations,
post-activations) that the diagnostic suite and the structured optimizers can
consume them without re-running the network. Backward is an exact transpose
of forward; parameters flagged as frozen receive no gradient entry but still
pass gradients through to their inputs.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import CheckpointError, SpecError
from .numkit import RngStream, box_muller

ACTIVATIONS = ("relu", "tanh", "crelu", "fourier", "linear")
_WIDTH_DOUBLING = ("crelu", "fourier")
_LN_EPS = 1e-5
_INIT_RE = re.compile(r"^orthogonal(?:\(([^)]*)\))?$")
_CHECKPOINT_VERSION = 1


@lru_cache(maxsize=None)
def _init_gain(text: str) -> float:
    """The gain of an init descriptor "orthogonal(<gain>)"; bare "orthogonal"
    has gain 1."""
    m = _INIT_RE.match(text.strip())
    try:
        gain = 1.0 if m.group(1) is None else float(m.group(1))
    except (AttributeError, ValueError):  # no match, or a gain that is not a number
        raise SpecError(f"init must be orthogonal(<gain>), got {text!r}") from None
    if not np.isfinite(gain):
        raise SpecError(f"orthogonal init gain must be finite, got {text!r}")
    return gain


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: linear map, optional LayerNorm, then a nonlinearity.
    Weights start orthogonal times the init's gain, biases at zero."""

    in_dim: int
    out_dim: int
    activation: str = "relu"
    layer_norm: bool = False
    init: str = "orthogonal(1.0)"

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise SpecError(f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise SpecError(f"unknown activation {self.activation!r}")
        _init_gain(self.init)

    @property
    def width_out(self) -> int:
        """Feature width after the activation (doubled for crelu/fourier)."""
        if self.activation in _WIDTH_DOUBLING:
            return 2 * self.out_dim
        return self.out_dim


def validate_chain(layers: tuple[LayerSpec, ...]) -> None:
    if not layers:
        raise SpecError("network needs at least one layer")
    for i in range(1, len(layers)):
        want = layers[i - 1].width_out
        if layers[i].in_dim != want:
            raise SpecError(
                f"layer {i} expects in_dim {layers[i].in_dim} but layer {i - 1} "
                f"produces width {want}"
            )


@dataclass
class NetworkState:
    """Parameters plus a frozen snapshot of their values at construction.

    `params` maps canonical names ("layer0.w", "layer0.b", "layer0.ln_gain",
    "layer2.inj1_train.w", ...) to float64 arrays. `param_order` fixes the
    iteration order used by optimizers and the checkpoint blob. `frozen`
    lists names excluded from gradients and optimizer updates. `writes`
    counts the edits after init: optimizer steps and event methods.
    """

    layers: tuple[LayerSpec, ...]
    params: dict[str, np.ndarray]
    init_snapshot: dict[str, np.ndarray]
    param_order: tuple[str, ...]
    frozen: frozenset[str] = frozenset()
    injection_rounds: int = 0
    writes: int = 0

    def trainable_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.param_order if n not in self.frozen)

    def add(self, params: dict[str, np.ndarray], frozen=()) -> None:
        """Append `params` to `param_order` in their order, each with a
        read-only snapshot of its value; the names in `frozen` get no gradient."""
        self.params.update(params)
        self.param_order += tuple(params)
        self.init_snapshot.update(_freeze_values(params))
        self.frozen |= frozenset(frozen)

    def head_prefixes(self) -> tuple[str, ...]:
        """The final layer's parameter prefixes: the base head, then each
        injection round's trainable and frozen branch."""
        last = len(self.layers) - 1
        branches = (p for r in range(1, self.injection_rounds + 1) for p in _branch_names(last, r))
        return (f"layer{last}",) + tuple(branches)


@dataclass
class ForwardTrace:
    """Recorded intermediates of one forward pass over a batch.

    `preacts[i]` is what feeds layer i's nonlinearity (after LayerNorm when
    enabled); `postacts[i]` is the activation output, at doubled width for
    crelu/fourier. For an injected network the last postact entry is the
    combined head output.
    """

    batch: np.ndarray
    layer_inputs: list[np.ndarray]
    lin_outs: list[np.ndarray]
    preacts: list[np.ndarray]
    postacts: list[np.ndarray]
    ln_caches: list[tuple[np.ndarray, np.ndarray] | None]
    outputs: np.ndarray
    head_branches: list[dict[str, tuple[np.ndarray, np.ndarray]]] = field(default_factory=list)


@dataclass
class Gradients:
    """Per-parameter gradients keyed like NetworkState.params.

    Frozen parameters have no entry. `lin_grads` holds the loss gradient with
    respect to each layer's linear output (batch x out_dim), keyed by layer
    prefix; the Kronecker-factored optimizer pairs these with the recorded
    layer inputs.
    """

    by_name: dict[str, np.ndarray]
    lin_grads: dict[str, np.ndarray]


def _chain_blocks(specs: tuple[LayerSpec, ...]) -> tuple[list, int]:
    """Per layer (gain, slot offset, weight value count), and the slots S one
    chain draw uses: one Box-Muller pair per two weight values."""
    blocks = []
    slots = 0
    for spec in specs:
        n = spec.out_dim * spec.in_dim
        blocks.append((_init_gain(spec.init), slots, n))
        slots += 2 * ((n + 1) // 2)
    return blocks, slots


def _qr_shape(spec: LayerSpec) -> tuple[int, int]:
    """(rows, cols) of the normal matrix whose QR gives the layer's weight."""
    return max(spec.out_dim, spec.in_dim), min(spec.out_dim, spec.in_dim)


# bytes a `shape_layers` call takes beyond its draws' own: numpy's ufunc
# buffers in the sign-fixing multiply, at most two of getbufsize() doubles
DRAW_FIXED_BYTES = 2 * 8 * np.getbufsize()


def draw_work_bytes(specs: tuple[LayerSpec, ...], ahead: bool = False) -> int:
    """Bytes one chain draw adds to the peak of a `shape_layers` call: the
    values it keeps, its unit draws, and the QR of its largest group of
    same-shaped weights (the input's copy, Q and R; one more copy when the
    group stacks several layers). With `ahead`, also its values in the block
    the run uses while a helper thread makes the next."""
    _, slots = _chain_blocks(specs)
    kept, groups = 0, {}
    for spec in specs:
        kept += spec.out_dim * (spec.in_dim + 1)
        groups.setdefault(_qr_shape(spec), []).append(spec.out_dim * spec.in_dim)
    qr = max(sum(g) * (3 + (len(g) > 1)) for g in groups.values())
    return 8 * ((1 + ahead) * kept + slots + qr)


def chain_slots(specs: tuple[LayerSpec, ...]) -> int:
    """The stream slots S one init draw of a layer chain uses."""
    return _chain_blocks(specs)[1]


def shape_layers(specs: tuple[LayerSpec, ...], u: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The init draws of a layer chain from a (k, S) block of uniforms on
    [0, 1), one row per draw (S = chain_slots(specs)); works in place on u.

    One chain draw takes each layer's weight in turn from its row, so row j
    gives what the j-th of k one-at-a-time chain draws gives. Weights of one
    shape share one stacked QR. Returns per layer C-ordered weights
    (k, out, in) and zero biases (k, out).
    """
    blocks, _ = _chain_blocks(specs)
    k = u.shape[0]
    out: list = []
    qr_groups: dict[tuple[int, int], list[int]] = {}
    for spec, (_, off, n) in zip(specs, blocks):
        normals = box_muller(u[:, off : off + 2 * ((n + 1) // 2)])[:, :n]
        qr_groups.setdefault(_qr_shape(spec), []).append(len(out))
        out.append((normals.reshape(k, *_qr_shape(spec)), np.zeros((k, spec.out_dim))))
    for idx in qr_groups.values():
        a = out[idx[0]][0] if len(idx) == 1 else np.concatenate([out[i][0] for i in idx])
        qs, rs = np.linalg.qr(a)
        for g, i in enumerate(idx):
            spec, q, r = specs[i], qs[g * k : (g + 1) * k], rs[g * k : (g + 1) * k]
            gain = blocks[i][0]
            # column signs that make diag(r) >= 0, times the gain, in one multiply
            fac = np.where(np.diagonal(r, axis1=1, axis2=2) >= 0.0, gain, -gain)
            w = np.empty((k, spec.out_dim, spec.in_dim))
            if spec.out_dim >= spec.in_dim:
                np.multiply(q, fac[:, None, :], out=w)
            else:
                np.multiply(q.transpose(0, 2, 1), fac[:, :, None], out=w)
            out[i] = (w, out[i][1])
    return out


def draw_layers(
    specs: tuple[LayerSpec, ...], stream: RngStream, k: int = 1
) -> list[tuple[np.ndarray, np.ndarray]]:
    """k successive init draws of a layer chain from one uniform(0, 1, k*S)
    call: draw j reads slots j*S .. (j+1)*S, shaped by shape_layers."""
    slots = chain_slots(specs)
    return shape_layers(specs, stream.uniform(0.0, 1.0, k * slots).reshape(k, slots))


def layer_params(i: int, spec: LayerSpec, stream: RngStream) -> dict[str, np.ndarray]:
    """Fresh parameters of layer i by name: weight and bias drawn from its
    init (the k = 1 case of draw_layers), then LayerNorm gain 1 and offset 0."""
    ((w, b),) = draw_layers((spec,), stream)
    w_name, b_name, gain_name, offset_name = _layer_names(i)
    params = {w_name: w[0], b_name: b[0]}
    if spec.layer_norm:
        params[gain_name] = np.ones(spec.out_dim)
        params[offset_name] = np.zeros(spec.out_dim)
    return params


def _freeze_values(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    out = {}
    for name, arr in params.items():
        copy = arr.copy()
        copy.flags.writeable = False
        out[name] = copy
    return out


def init_network(layers: tuple[LayerSpec, ...] | list[LayerSpec], stream: RngStream) -> NetworkState:
    """Draw parameters for a validated layer chain from one stream.

    Layers consume the stream in declaration order, so a fresh network from
    an identically positioned stream is bit-identical.
    """
    layers = tuple(layers)
    validate_chain(layers)
    net = NetworkState(layers=layers, params={}, init_snapshot={}, param_order=())
    for i, spec in enumerate(layers):
        net.add(layer_params(i, spec, stream))
    return net


def clone_network(net: NetworkState) -> NetworkState:
    return replace(
        net,
        params={k: v.copy() for k, v in net.params.items()},
        init_snapshot=dict(net.init_snapshot),
    )


def _act_forward(kind: str, pre: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(pre, 0.0)
    if kind == "tanh":
        return np.tanh(pre)
    if kind == "linear":
        return pre
    if kind == "crelu":
        return np.concatenate([np.maximum(pre, 0.0), np.maximum(-pre, 0.0)], axis=1)
    return np.concatenate([np.sin(pre), np.cos(pre)], axis=1)


def _act_backward(kind: str, pre: np.ndarray, post: np.ndarray, g_post: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return g_post * (pre > 0.0)
    if kind == "tanh":
        return g_post * (1.0 - post * post)
    if kind == "linear":
        return g_post
    h = pre.shape[1]
    if kind == "crelu":
        return g_post[:, :h] * (pre > 0.0) - g_post[:, h:] * (pre < 0.0)
    return g_post[:, :h] * np.cos(pre) - g_post[:, h:] * np.sin(pre)


def _ln_forward(
    x: np.ndarray, gain: np.ndarray, offset: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv_std
    return xhat * gain + offset, (xhat, inv_std)


def _ln_backward(
    cache: tuple[np.ndarray, np.ndarray],
    gain: np.ndarray,
    g_y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv_std = cache
    u = g_y * gain
    g_x = inv_std * (
        u - u.mean(axis=1, keepdims=True) - xhat * (u * xhat).mean(axis=1, keepdims=True)
    )
    return g_x, (g_y * xhat).sum(axis=0), g_y.sum(axis=0)


def _branch_names(layer_idx: int, round_idx: int) -> tuple[str, str]:
    return (
        f"layer{layer_idx}.inj{round_idx}_train",
        f"layer{layer_idx}.inj{round_idx}_frozen",
    )


def add_injection_round(net: NetworkState, stream: RngStream) -> NetworkState:
    """Attach a fresh trainable/frozen head pair to the final layer in place;
    that layer has no LayerNorm (`network_specs` never puts one on a head).

    The base head freezes on the first round; on later rounds the previously
    trainable branch freezes and keeps contributing. Both new branches start
    from one draw, so the combined output is unchanged at the moment of
    injection.
    """
    last = len(net.layers) - 1
    w, b = layer_params(last, net.layers[last], stream).values()
    net.frozen |= {f"{prefix}.{p}" for prefix in net.head_prefixes() for p in "wb"}
    train, frozen = _branch_names(last, net.injection_rounds + 1)
    net.add(
        {f"{train}.w": w, f"{train}.b": b, f"{frozen}.w": w.copy(), f"{frozen}.b": b.copy()},
        frozen=(f"{frozen}.w", f"{frozen}.b"),
    )
    net.injection_rounds += 1
    return net


def _layer_forward(
    spec: LayerSpec,
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    gain: np.ndarray | None,
    offset: np.ndarray | None,
):
    lin = x @ w.T + b
    if spec.layer_norm:
        pre, cache = _ln_forward(lin, gain, offset)
    else:
        pre, cache = lin, None
    return lin, pre, _act_forward(spec.activation, pre), cache


@lru_cache(maxsize=None)
def _layer_names(i: int) -> tuple[str, str, str, str]:
    """The weight, bias, LayerNorm gain and offset names of layer i."""
    return f"layer{i}.w", f"layer{i}.b", f"layer{i}.ln_gain", f"layer{i}.ln_offset"


def forward(net: NetworkState, batch: np.ndarray) -> ForwardTrace:
    """Run the 2-D float64 batch through every layer, recording all intermediates."""
    x = batch
    layer_inputs, lin_outs, preacts, postacts, ln_caches = [], [], [], [], []
    for i, spec in enumerate(net.layers):
        w, b, gain, offset = _layer_names(i)
        lin, pre, post, cache = _layer_forward(
            spec, x, net.params[w], net.params[b], net.params.get(gain), net.params.get(offset)
        )
        layer_inputs.append(x)
        lin_outs.append(lin)
        preacts.append(pre)
        postacts.append(post)
        ln_caches.append(cache)
        x = post
    outputs = postacts[-1]
    head_branches: list[dict[str, tuple[np.ndarray, np.ndarray]]] = []
    if net.injection_rounds:
        spec, head_in, prefixes = net.layers[-1], layer_inputs[-1], net.head_prefixes()
        for train, frozen in zip(prefixes[1::2], prefixes[2::2]):
            branches = {}
            for prefix in (train, frozen):
                _, pre, post, _ = _layer_forward(
                    spec, head_in, net.params[f"{prefix}.w"], net.params[f"{prefix}.b"], None, None
                )
                branches[prefix] = (pre, post)
            head_branches.append(branches)
            outputs = outputs + branches[train][1] - branches[frozen][1]
        postacts[-1] = outputs
    return ForwardTrace(
        batch=batch,
        layer_inputs=layer_inputs,
        lin_outs=lin_outs,
        preacts=preacts,
        postacts=postacts,
        ln_caches=ln_caches,
        outputs=outputs,
        head_branches=head_branches,
    )


def network_output(net: NetworkState, batch: np.ndarray) -> np.ndarray:
    return forward(net, batch).outputs


def backward(net: NetworkState, trace: ForwardTrace, output_grad: np.ndarray) -> Gradients:
    """Exact reverse-mode pass; mirrors forward layer by layer.

    Frozen parameters (injection branches, frozen base head) never appear in
    the result, but gradients still flow through them to earlier layers. The
    gradient with respect to the network input is never formed.
    """
    by_name: dict[str, np.ndarray] = {}
    lin_grads: dict[str, np.ndarray] = {}
    last = len(net.layers) - 1

    def layer_grads(i, prefix, pre, post, g_post, cache):
        """Record the gradients of prefix's parameters (layer i's spec and
        input); return the gradient with respect to its linear output."""
        g_pre = _act_backward(net.layers[i].activation, pre, post, g_post)
        if cache is not None:
            g_lin, g_gain, g_offset = _ln_backward(cache, net.params[f"{prefix}.ln_gain"], g_pre)
            if f"{prefix}.ln_gain" not in net.frozen:
                by_name[f"{prefix}.ln_gain"] = g_gain
                by_name[f"{prefix}.ln_offset"] = g_offset
        else:
            g_lin = g_pre
        if f"{prefix}.w" not in net.frozen:
            by_name[f"{prefix}.w"] = g_lin.T @ trace.layer_inputs[i]
            by_name[f"{prefix}.b"] = g_lin.sum(axis=0)
            lin_grads[prefix] = g_lin
        return g_lin

    # the head is the base layer plus, per injection round, a trainable
    # branch that adds to the output and a frozen one that subtracts
    base_post = trace.postacts[last]
    if net.injection_rounds:
        base_post = _act_forward(net.layers[last].activation, trace.preacts[last])
    prefixes = net.head_prefixes()
    head = [(prefixes[0], trace.preacts[last], base_post, output_grad, trace.ln_caches[last])]
    for train, frozen, branches in zip(prefixes[1::2], prefixes[2::2], trace.head_branches):
        head.append((train, *branches[train], output_grad, None))
        head.append((frozen, *branches[frozen], -output_grad, None))
    g_input = None
    for prefix, pre, post, g_post, cache in head:
        g_lin = layer_grads(last, prefix, pre, post, g_post, cache)
        if last:
            g_x = g_lin @ net.params[f"{prefix}.w"]
            g_input = g_x if g_input is None else g_input + g_x

    for i in range(last - 1, -1, -1):
        g_lin = layer_grads(
            i, f"layer{i}", trace.preacts[i], trace.postacts[i], g_input, trace.ln_caches[i]
        )
        if i:
            g_input = g_lin @ net.params[f"layer{i}.w"]
    return Gradients(by_name=by_name, lin_grads=lin_grads)


def serialize_network(net: NetworkState) -> bytes:
    """Length-prefixed JSON manifest, then params and init snapshot as flat
    little-endian float64 blobs in param_order. Round-trips bit-exactly."""
    manifest = {
        "version": _CHECKPOINT_VERSION,
        "layers": [asdict(s) for s in net.layers],
        "param_order": list(net.param_order),
        "shapes": {n: list(net.params[n].shape) for n in net.param_order},
        "frozen": sorted(net.frozen),
        "injection_rounds": net.injection_rounds,
    }
    head = json.dumps(manifest, sort_keys=True).encode("utf-8")
    parts = [struct.pack("<Q", len(head)), head]
    for source in (net.params, net.init_snapshot):
        flat = np.concatenate([np.ravel(source[n]) for n in net.param_order])
        parts.append(flat.astype("<f8").tobytes())
    return b"".join(parts)


def _is_a(value, kind: type) -> bool:
    # JSON true/false are Python bools, which would otherwise pass as int
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _manifest_value(table: dict, key: str, kind: type, item_kind: type | None = None):
    """table[key], checked to be a `kind` (a list of `item_kind` when given)."""
    if key not in table:
        raise CheckpointError(f"checkpoint manifest lacks {key!r}")
    value = table[key]
    if not _is_a(value, kind) or (
        item_kind is not None and not all(_is_a(v, item_kind) for v in value)
    ):
        of = f" of {item_kind.__name__}" if item_kind is not None else ""
        raise CheckpointError(f"checkpoint manifest {key!r} must be a {kind.__name__}{of}")
    return value


_LAYER_FIELDS = {"in_dim": int, "out_dim": int, "activation": str, "layer_norm": bool, "init": str}


def _layer_entry(entry) -> dict:
    if not isinstance(entry, dict) or set(entry) != set(_LAYER_FIELDS):
        raise CheckpointError(f"checkpoint layer entry must have keys {sorted(_LAYER_FIELDS)}")
    for key, kind in _LAYER_FIELDS.items():
        _manifest_value(entry, key, kind)
    return entry


def _layout(layers: tuple[LayerSpec, ...], rounds: int, log_std: bool) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor a net of `layers` holds, in the order a
    run adds them: each layer's own, PPO's `log_std` (one per policy output:
    the head width minus the value), then each injection round's branches."""
    layout = {}
    for i, spec in enumerate(layers):
        w, b, gain, offset = _layer_names(i)
        layout[w], layout[b] = (spec.out_dim, spec.in_dim), (spec.out_dim,)
        if spec.layer_norm:
            layout[gain] = layout[offset] = (spec.out_dim,)
    if log_std:
        layout["log_std"] = (layers[-1].out_dim - 1,)
    head_w, head_b = _layer_names(len(layers) - 1)[:2]
    for prefix in (p for r in range(1, rounds + 1) for p in _branch_names(len(layers) - 1, r)):
        layout[f"{prefix}.w"], layout[f"{prefix}.b"] = layout[head_w], layout[head_b]
    return layout


def deserialize_network(blob: bytes) -> NetworkState:
    try:
        (head_len,) = struct.unpack_from("<Q", blob, 0)
        manifest = json.loads(blob[8 : 8 + head_len].decode("utf-8"))
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError("checkpoint manifest is not a JSON object")
    if manifest.get("version") != _CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {manifest.get('version')!r}")
    try:  # each layer's spec, then the chain they make
        layers = tuple(LayerSpec(**_layer_entry(e)) for e in _manifest_value(manifest, "layers", list))
        validate_chain(layers)
    except SpecError as exc:
        raise CheckpointError(f"bad checkpoint layer entry: {exc}") from exc
    order = tuple(_manifest_value(manifest, "param_order", list, str))
    shape_map = _manifest_value(manifest, "shapes", dict)
    shapes = {n: tuple(_manifest_value(shape_map, n, list, int)) for n in order}
    frozen = frozenset(_manifest_value(manifest, "frozen", list, str))
    injection_rounds = _manifest_value(manifest, "injection_rounds", int)
    if len(set(order)) != len(order) or not frozen <= set(order):
        raise CheckpointError("checkpoint param_order repeats a name or frozen names an unknown one")
    if not 0 <= injection_rounds <= len(order):  # each round adds four tensors
        raise CheckpointError(f"checkpoint manifest holds an injection count of {injection_rounds}")
    if injection_rounds and layers[-1].layer_norm:  # forward gives branches no LayerNorm tensors
        raise CheckpointError("checkpoint injects branches into a LayerNorm head")
    layout = _layout(layers, injection_rounds, "log_std" in order)
    for n in layout:
        if n not in shapes:
            raise CheckpointError(f"checkpoint lacks tensor {n!r} that its layers need")
    for n in order:
        if n not in layout:
            raise CheckpointError(f"checkpoint tensor {n!r} is not one its layers hold")
        if shapes[n] != layout[n]:
            raise CheckpointError(f"checkpoint tensor {n!r} of shape {list(shapes[n])} does not fit its layers")
    if tuple(layout) != order:
        raise CheckpointError("checkpoint param_order is not the order its layers add tensors in")
    total = sum(int(np.prod(shapes[n])) for n in order)
    if (len(blob) - 8 - head_len) % 8 != 0:
        raise CheckpointError("checkpoint body is not a whole number of floats")
    body = np.frombuffer(blob, dtype="<f8", offset=8 + head_len)
    if body.size != 2 * total:
        raise CheckpointError(
            f"checkpoint blob holds {body.size} floats, expected {2 * total}"
        )
    if not np.isfinite(body).all():
        raise CheckpointError("checkpoint body holds a NaN or inf")

    def unflatten(flat: np.ndarray) -> dict[str, np.ndarray]:
        out, pos = {}, 0
        for n in order:
            size = int(np.prod(shapes[n]))
            out[n] = flat[pos : pos + size].reshape(shapes[n]).astype(np.float64)
            pos += size
        return out

    params = unflatten(body[:total])
    snapshot = _freeze_values(unflatten(body[total:]))
    return NetworkState(
        layers=layers,
        params=params,
        init_snapshot=snapshot,
        param_order=order,
        frozen=frozen,
        injection_rounds=injection_rounds,
    )
