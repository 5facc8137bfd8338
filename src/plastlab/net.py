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
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import CheckpointError, InvalidInputError, MitigationError, SpecError
from .numkit import RngStream, ensure_matrix

ACTIVATIONS = ("relu", "tanh", "crelu", "fourier", "linear")
_WIDTH_DOUBLING = ("crelu", "fourier")
_LN_EPS = 1e-5
_INIT_RE = re.compile(r"^([a-z_]+)(?:\(([^)]*)\))?$")
_CHECKPOINT_VERSION = 1


@lru_cache(maxsize=None)
def _parse_init(text: str) -> tuple[str, tuple[float, ...]]:
    """Split an init descriptor like "orthogonal(1.0)" into (kind, args)."""
    m = _INIT_RE.match(text.strip())
    if m is None:
        raise SpecError(f"malformed init descriptor {text!r}")
    kind, raw = m.group(1), m.group(2)
    args = tuple(float(tok) for tok in raw.split(",")) if raw else ()
    if kind == "orthogonal":
        if len(args) > 1:
            raise SpecError("orthogonal init takes at most one gain argument")
        args = args or (1.0,)
    elif kind == "uniform_fan_in":
        if args:
            raise SpecError("uniform_fan_in init takes no arguments")
    elif kind == "normal":
        if len(args) != 2:
            raise SpecError("normal init takes (mean, std)")
        if args[1] < 0:
            raise SpecError("normal init std must be >= 0")
    else:
        raise SpecError(f"unknown init kind {kind!r}")
    return kind, args


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: linear map, optional LayerNorm, then a nonlinearity."""

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
        _parse_init(self.init)

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
    lists names excluded from gradients and optimizer updates.
    """

    layers: tuple[LayerSpec, ...]
    params: dict[str, np.ndarray]
    init_snapshot: dict[str, np.ndarray]
    param_order: tuple[str, ...]
    frozen: frozenset[str] = frozenset()
    injection_rounds: int = 0

    def trainable_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.param_order if n not in self.frozen)

    def param_count(self) -> int:
        return int(sum(self.params[n].size for n in self.param_order))


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


def _orthogonal(stream: RngStream, out_dim: int, in_dim: int, gain: float) -> np.ndarray:
    big, small = max(out_dim, in_dim), min(out_dim, in_dim)
    a = stream.normal(0.0, 1.0, big * small).reshape(big, small)
    q, r = np.linalg.qr(a)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    w = q if out_dim >= in_dim else q.T
    # keep every parameter C-ordered so ravel() views and reductions are stable
    return np.ascontiguousarray(gain * w)


def _draw_layer_params(spec: LayerSpec, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias for one layer; draw order is fixed (weight, then bias)."""
    kind, args = _parse_init(spec.init)
    if kind == "orthogonal":
        w = _orthogonal(stream, spec.out_dim, spec.in_dim, args[0])
        b = np.zeros(spec.out_dim)
    elif kind == "uniform_fan_in":
        bound = 1.0 / np.sqrt(spec.in_dim)
        w = stream.uniform(-bound, bound, spec.out_dim * spec.in_dim).reshape(
            spec.out_dim, spec.in_dim
        )
        b = stream.uniform(-bound, bound, spec.out_dim)
    else:
        mu, sigma = args
        w = stream.normal(mu, sigma, spec.out_dim * spec.in_dim).reshape(
            spec.out_dim, spec.in_dim
        )
        b = stream.normal(mu, sigma, spec.out_dim)
    return w, b


def _freeze_values(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    out = {}
    for name, arr in params.items():
        copy = arr.copy()
        copy.flags.writeable = False
        out[name] = copy
    return out


def init_network(layers: tuple[LayerSpec, ...] | list[LayerSpec], stream: RngStream) -> NetworkState:
    """Draw parameters for a validated layer chain from one stream.

    Layers consume the stream in declaration order, weight before bias, so a
    fresh network from an identically positioned stream is bit-identical.
    """
    layers = tuple(layers)
    validate_chain(layers)
    params: dict[str, np.ndarray] = {}
    order: list[str] = []
    for i, spec in enumerate(layers):
        w, b = _draw_layer_params(spec, stream)
        params[f"layer{i}.w"] = w
        params[f"layer{i}.b"] = b
        order += [f"layer{i}.w", f"layer{i}.b"]
        if spec.layer_norm:
            params[f"layer{i}.ln_gain"] = np.ones(spec.out_dim)
            params[f"layer{i}.ln_offset"] = np.zeros(spec.out_dim)
            order += [f"layer{i}.ln_gain", f"layer{i}.ln_offset"]
    return NetworkState(
        layers=layers,
        params=params,
        init_snapshot=_freeze_values(params),
        param_order=tuple(order),
    )


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
    """Attach a fresh trainable/frozen head pair to the final layer in place.

    The base head freezes on the first round; on later rounds the previously
    trainable branch freezes and keeps contributing. Both new branches start
    from one draw, so the combined output is unchanged at the moment of
    injection.
    """
    last = len(net.layers) - 1
    spec = net.layers[last]
    if spec.layer_norm:
        raise MitigationError("plasticity injection requires a plain final layer")
    r = net.injection_rounds + 1
    train_prefix, frozen_prefix = _branch_names(last, r)
    w, b = _draw_layer_params(spec, stream)
    newly_frozen = {f"layer{last}.w", f"layer{last}.b"}
    if r > 1:
        prev_train, _ = _branch_names(last, r - 1)
        newly_frozen |= {f"{prev_train}.w", f"{prev_train}.b"}
    net.params[f"{train_prefix}.w"] = w.copy()
    net.params[f"{train_prefix}.b"] = b.copy()
    net.params[f"{frozen_prefix}.w"] = w.copy()
    net.params[f"{frozen_prefix}.b"] = b.copy()
    added = (f"{train_prefix}.w", f"{train_prefix}.b", f"{frozen_prefix}.w", f"{frozen_prefix}.b")
    net.param_order = net.param_order + added
    # distance-from-init bookkeeping needs a reference for the new branches
    for name in added:
        snap = net.params[name].copy()
        snap.flags.writeable = False
        net.init_snapshot[name] = snap
    net.frozen = net.frozen | newly_frozen | {f"{frozen_prefix}.w", f"{frozen_prefix}.b"}
    net.injection_rounds = r
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
    """Run the batch through every layer, recording all intermediates."""
    batch = ensure_matrix(batch, "batch")
    if batch.shape[1] != net.layers[0].in_dim:
        raise InvalidInputError(
            f"batch has {batch.shape[1]} features, first layer expects {net.layers[0].in_dim}"
        )
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
        last = len(net.layers) - 1
        spec = net.layers[last]
        head_in = layer_inputs[last]
        for r in range(1, net.injection_rounds + 1):
            branches = {}
            for prefix in _branch_names(last, r):
                _, pre, post, _ = _layer_forward(
                    spec, head_in, net.params[f"{prefix}.w"], net.params[f"{prefix}.b"], None, None
                )
                branches[prefix] = (pre, post)
            head_branches.append(branches)
            train_prefix, frozen_prefix = _branch_names(last, r)
            outputs = outputs + branches[train_prefix][1] - branches[frozen_prefix][1]
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


def _linear_backward(x, w, g_lin):
    return g_lin.T @ x, g_lin.sum(axis=0), g_lin @ w


def backward(net: NetworkState, trace: ForwardTrace, output_grad: np.ndarray) -> Gradients:
    """Exact reverse-mode pass; mirrors forward layer by layer.

    Frozen parameters (injection branches, frozen base head) never appear in
    the result, but gradients still flow through them to earlier layers.
    """
    output_grad = np.asarray(output_grad, dtype=np.float64)
    if output_grad.shape != trace.outputs.shape:
        raise InvalidInputError(
            f"output_grad shape {output_grad.shape} != outputs shape {trace.outputs.shape}"
        )
    if len(trace.lin_outs) != len(net.layers):
        raise InvalidInputError("trace does not match network depth")
    by_name: dict[str, np.ndarray] = {}
    lin_grads: dict[str, np.ndarray] = {}
    last = len(net.layers) - 1
    spec_last = net.layers[last]

    def accumulate_branch(prefix, pre, post, g_post, x, w_name, cache):
        g_pre = _act_backward(spec_last.activation, pre, post, g_post)
        if cache is not None:
            gain = net.params[f"{prefix}.ln_gain"]
            g_lin, g_gain, g_offset = _ln_backward(cache, gain, g_pre)
            if f"{prefix}.ln_gain" not in net.frozen:
                by_name[f"{prefix}.ln_gain"] = g_gain
                by_name[f"{prefix}.ln_offset"] = g_offset
        else:
            g_lin = g_pre
        g_w, g_b, g_x = _linear_backward(x, net.params[w_name], g_lin)
        if w_name not in net.frozen:
            by_name[w_name] = g_w
            by_name[f"{prefix}.b"] = g_b
            lin_grads[prefix] = g_lin
        return g_x

    g_out = output_grad
    head_in = trace.layer_inputs[last]
    if net.injection_rounds:
        base_post = _act_forward(spec_last.activation, trace.preacts[last])
        g_input = accumulate_branch(
            f"layer{last}", trace.preacts[last], base_post, g_out, head_in,
            f"layer{last}.w", trace.ln_caches[last],
        )
        for r, branches in enumerate(trace.head_branches, start=1):
            train_prefix, frozen_prefix = _branch_names(last, r)
            pre_t, post_t = branches[train_prefix]
            pre_f, post_f = branches[frozen_prefix]
            g_input += accumulate_branch(
                train_prefix, pre_t, post_t, g_out, head_in, f"{train_prefix}.w", None
            )
            g_input += accumulate_branch(
                frozen_prefix, pre_f, post_f, -g_out, head_in, f"{frozen_prefix}.w", None
            )
    else:
        g_input = accumulate_branch(
            f"layer{last}", trace.preacts[last], trace.postacts[last], g_out, head_in,
            f"layer{last}.w", trace.ln_caches[last],
        )

    for i in range(last - 1, -1, -1):
        spec = net.layers[i]
        g_pre = _act_backward(spec.activation, trace.preacts[i], trace.postacts[i], g_input)
        if trace.ln_caches[i] is not None:
            gain = net.params[f"layer{i}.ln_gain"]
            g_lin, g_gain, g_offset = _ln_backward(trace.ln_caches[i], gain, g_pre)
            if f"layer{i}.ln_gain" not in net.frozen:
                by_name[f"layer{i}.ln_gain"] = g_gain
                by_name[f"layer{i}.ln_offset"] = g_offset
        else:
            g_lin = g_pre
        g_w, g_b, g_input = _linear_backward(
            trace.layer_inputs[i], net.params[f"layer{i}.w"], g_lin
        )
        if f"layer{i}.w" not in net.frozen:
            by_name[f"layer{i}.w"] = g_w
            by_name[f"layer{i}.b"] = g_b
            lin_grads[f"layer{i}"] = g_lin
    return Gradients(by_name=by_name, lin_grads=lin_grads)


def serialize_network(net: NetworkState) -> bytes:
    """Length-prefixed JSON manifest, then params and init snapshot as flat
    little-endian float64 blobs in param_order. Round-trips bit-exactly."""
    manifest = {
        "version": _CHECKPOINT_VERSION,
        "layers": [
            {
                "in_dim": s.in_dim,
                "out_dim": s.out_dim,
                "activation": s.activation,
                "layer_norm": s.layer_norm,
                "init": s.init,
            }
            for s in net.layers
        ],
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


def _layer_entry(entry) -> LayerSpec:
    if not isinstance(entry, dict) or set(entry) != set(_LAYER_FIELDS):
        raise CheckpointError(f"checkpoint layer entry must have keys {sorted(_LAYER_FIELDS)}")
    for key, kind in _LAYER_FIELDS.items():
        _manifest_value(entry, key, kind)
    try:
        return LayerSpec(**entry)
    except SpecError as exc:
        raise CheckpointError(f"bad checkpoint layer entry: {exc}") from exc


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
    layers = tuple(_layer_entry(e) for e in _manifest_value(manifest, "layers", list))
    order = tuple(_manifest_value(manifest, "param_order", list, str))
    shape_map = _manifest_value(manifest, "shapes", dict)
    shapes = {n: tuple(_manifest_value(shape_map, n, list, int)) for n in order}
    frozen = frozenset(_manifest_value(manifest, "frozen", list, str))
    injection_rounds = _manifest_value(manifest, "injection_rounds", int)
    if len(set(order)) != len(order) or not frozen <= set(order):
        raise CheckpointError("checkpoint param_order repeats a name or frozen names an unknown one")
    if any(d < 0 for shape in shapes.values() for d in shape) or injection_rounds < 0:
        raise CheckpointError("checkpoint manifest holds a negative shape or injection count")
    total = sum(int(np.prod(shapes[n])) for n in order)
    if (len(blob) - 8 - head_len) % 8 != 0:
        raise CheckpointError("checkpoint body is not a whole number of floats")
    body = np.frombuffer(blob, dtype="<f8", offset=8 + head_len)
    if body.size != 2 * total:
        raise CheckpointError(
            f"checkpoint blob holds {body.size} floats, expected {2 * total}"
        )

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
