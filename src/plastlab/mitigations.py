"""Catalog of plasticity interventions and the optimizers that pair with them.

Five families: parameter resets, normalization maintenance, regularization
losses, activation swaps (validated here, realized as network specs), and
structured optimizers. Every mutating operation is deterministic given the
network state and the stream handed to it.

The registry at the bottom is the single source of truth for method names,
parameter schemas, default triggers, and the original publications the
methods come from; the CLI and config validation both read it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, MitigationError, NumericError
from .net import (
    ForwardTrace,
    Gradients,
    NetworkState,
    _draw_layer_params,
    add_injection_round,
    forward,
)
from .numkit import RngStream, erfi

_WIDTH_DOUBLING = ("crelu", "fourier")


# ---------------------------------------------------------------------------
# plan plumbing


@dataclass(frozen=True)
class Trigger:
    """When a plan entry fires: every_k_steps(k), on_task_switch,
    once_at(step), or per_gradient_step."""

    kind: str
    k: int | None = None
    step: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("every_k_steps", "on_task_switch", "once_at", "per_gradient_step"):
            raise MitigationError(f"unknown trigger kind {self.kind!r}")
        if self.kind == "every_k_steps" and (self.k is None or self.k < 1):
            raise MitigationError("every_k_steps needs k >= 1")
        if self.kind == "once_at" and (self.step is None or self.step < 0):
            raise MitigationError("once_at needs step >= 0")


_TRIGGER_RE = re.compile(r"^([a-z_]+)(?:\((\d+)\))?$")


def parse_trigger(text: str) -> Trigger:
    m = _TRIGGER_RE.match(text.strip())
    if m is None:
        raise MitigationError(f"malformed trigger {text!r}")
    kind, arg = m.group(1), m.group(2)
    if kind == "every_k_steps":
        return Trigger(kind, k=int(arg) if arg else None)
    if kind == "once_at":
        return Trigger(kind, step=int(arg) if arg else None)
    if arg is not None:
        raise MitigationError(f"trigger {kind} takes no argument")
    return Trigger(kind)


@dataclass(frozen=True)
class PlanEntry:
    method: str
    params: dict
    trigger: Trigger


@dataclass(frozen=True)
class MitigationPlan:
    entries: tuple[PlanEntry, ...]


def build_plan(raw_entries: list[dict]) -> MitigationPlan:
    """Validate raw config entries against the registry and fill defaults."""
    entries = []
    optimizers = 0
    for raw in raw_entries:
        name = raw.get("method")
        if name not in REGISTRY:
            raise MitigationError(f"unknown mitigation method {name!r}")
        spec = REGISTRY[name]
        params = dict(spec.params)
        for key, value in (raw.get("params") or {}).items():
            if key not in spec.params:
                raise MitigationError(f"{name} does not take parameter {key!r}")
            params[key] = value
        trigger = spec.default_trigger
        if raw.get("trigger") is not None:
            trigger = parse_trigger(raw["trigger"]) if isinstance(raw["trigger"], str) else raw["trigger"]
        # the per-gradient-step mode of SnP (soft SnP) wants a much milder beta
        if (
            name == "shrink_perturb"
            and trigger.kind == "per_gradient_step"
            and "beta" not in (raw.get("params") or {})
        ):
            params["beta"] = 1e-4
        if spec.kind == "optimizer":
            optimizers += 1
        entries.append(PlanEntry(name, params, trigger))
    if optimizers > 1:
        raise MitigationError("at most one optimizer method per plan")
    return MitigationPlan(tuple(entries))


# ---------------------------------------------------------------------------
# reset family


def shrink_perturb(net: NetworkState, beta: float, stream: RngStream) -> NetworkState:
    """Interpolate every trainable parameter toward a fresh init draw.

    theta <- (1-beta)*theta + beta*draw, with the draw taken from each
    layer's declared init distribution, not the stored snapshot.
    Normalization gain/offset shrink toward their init constants (1 and 0).
    """
    if not 0.0 <= beta <= 1.0:
        raise InvalidInputError(f"beta must be in [0, 1], got {beta}")
    keep = 1.0 - beta
    for i, spec in enumerate(net.layers):
        w_name, b_name = f"layer{i}.w", f"layer{i}.b"
        if w_name not in net.frozen or b_name not in net.frozen:
            w_draw, b_draw = _draw_layer_params(spec, stream)
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
            w_draw, b_draw = _draw_layer_params(net.layers[last], stream)
            net.params[f"{prefix}.w"] = keep * net.params[f"{prefix}.w"] + beta * w_draw
            net.params[f"{prefix}.b"] = keep * net.params[f"{prefix}.b"] + beta * b_draw
    return net


def inject_plasticity(net: NetworkState, stream: RngStream) -> NetworkState:
    """Swap the head for (frozen original, trainable new, frozen copy) so the
    output is unchanged now and only the new branch trains afterwards."""
    return add_injection_round(net, stream)


def _dormant_preact_units(post: np.ndarray, width: int, tau: float) -> np.ndarray:
    """Indices of pre-activation units whose score is <= tau.

    For width-doubling activations a unit counts as dormant only when both
    of its post-activation copies are.
    """
    mean_abs = np.abs(post).mean(axis=0)
    denom = mean_abs.mean()
    scores = np.zeros(post.shape[1]) if denom == 0.0 else mean_abs / denom
    dormant = scores <= tau
    if post.shape[1] == 2 * width:
        dormant = dormant[:width] & dormant[width:]
    return np.nonzero(dormant)[0]


def redo_reset(
    net: NetworkState, probe: np.ndarray, tau: float, stream: RngStream
) -> tuple[NetworkState, int]:
    """Revive dormant hidden units: redraw their incoming row and bias, zero
    every outgoing weight that reads them. Returns the number of units reset.

    Only layers with a successor are considered; output units have no
    outgoing weights to neutralize.
    """
    trace = forward(net, probe)
    total = 0
    last = len(net.layers) - 1
    for i in range(last):
        spec = net.layers[i]
        units = _dormant_preact_units(trace.postacts[i], spec.out_dim, tau)
        if units.size == 0:
            continue
        w_draw, b_draw = _draw_layer_params(spec, stream)
        net.params[f"layer{i}.w"][units, :] = w_draw[units, :]
        net.params[f"layer{i}.b"][units] = b_draw[units]
        out_cols = units
        if spec.activation in _WIDTH_DOUBLING:
            out_cols = np.concatenate([units, units + spec.out_dim])
        next_prefixes = [f"layer{i + 1}"]
        if i + 1 == last and net.injection_rounds:
            for r in range(1, net.injection_rounds + 1):
                next_prefixes += [f"layer{last}.inj{r}_train", f"layer{last}.inj{r}_frozen"]
        for prefix in next_prefixes:
            net.params[f"{prefix}.w"][:, out_cols] = 0.0
        total += int(units.size)
    return net, total


def reset_layers(net: NetworkState, scope: str, stream: RngStream) -> NetworkState:
    """Redraw whole layers from their init distributions.

    scope="all" walks the layers in declaration order, consuming the stream
    exactly like construction; scope="final" redraws only the last declared
    layer. Normalization affine parameters return to their init constants.
    """
    if scope not in ("final", "all"):
        raise InvalidInputError(f"scope must be 'final' or 'all', got {scope!r}")
    targets = range(len(net.layers)) if scope == "all" else [len(net.layers) - 1]
    for i in targets:
        spec = net.layers[i]
        w, b = _draw_layer_params(spec, stream)
        net.params[f"layer{i}.w"] = w
        net.params[f"layer{i}.b"] = b
        if spec.layer_norm:
            net.params[f"layer{i}.ln_gain"] = np.ones(spec.out_dim)
            net.params[f"layer{i}.ln_offset"] = np.zeros(spec.out_dim)
    return net


# ---------------------------------------------------------------------------
# normalization family


def nap_project(net: NetworkState) -> NetworkState:
    """Rescale each weight matrix back to its Frobenius norm at init.

    The companion half of the method is LayerNorm, which must already be in
    the network spec on every hidden layer. Directions, biases, and affine
    parameters are untouched.
    """
    for spec in net.layers[:-1]:
        if not spec.layer_norm:
            raise MitigationError("projection requires layer_norm on every hidden layer")
    for i in range(len(net.layers)):
        name = f"layer{i}.w"
        target = float(np.linalg.norm(net.init_snapshot[name]))
        current = float(np.linalg.norm(net.params[name]))
        if current == 0.0:
            raise MitigationError(f"cannot project {name}: current norm is zero")
        net.params[name] = net.params[name] * (target / current)
    return net


# ---------------------------------------------------------------------------
# regularization family


def reg_loss(
    kind: str, net: NetworkState, alpha: float, s: float = 1.0
) -> tuple[float, dict[str, np.ndarray]]:
    """Regularizer value and its gradient contribution per trainable param.

    l2: alpha*||theta||^2. regenerative: alpha*||theta - theta_init||^2.
    parseval: alpha * sum over hidden weights of ||W W^T - s I||_F (not
    squared), pushing rows toward an orthonormal frame of scale sqrt(s).
    """
    if alpha < 0.0:
        raise InvalidInputError(f"alpha must be >= 0, got {alpha}")
    if kind == "parseval" and s <= 0.0:
        raise InvalidInputError(f"parseval scale must be > 0, got {s}")
    value = 0.0
    grads: dict[str, np.ndarray] = {}
    if kind == "l2":
        for name in net.trainable_names():
            theta = net.params[name]
            value += float(np.sum(theta * theta))
            grads[name] = 2.0 * alpha * theta
        return alpha * value, grads
    if kind == "regenerative":
        for name in net.trainable_names():
            d = net.params[name] - net.init_snapshot[name]
            value += float(np.sum(d * d))
            grads[name] = 2.0 * alpha * d
        return alpha * value, grads
    if kind == "parseval":
        eye_cache: dict[int, np.ndarray] = {}
        for i in range(len(net.layers) - 1):
            name = f"layer{i}.w"
            if name in net.frozen:
                continue
            w = net.params[name]
            out = w.shape[0]
            eye = eye_cache.setdefault(out, np.eye(out))
            m = w @ w.T - s * eye
            norm = float(np.linalg.norm(m))
            value += norm
            # d||M||_F/dW = (2 / ||M||_F) M W for symmetric M; the norm is not
            # differentiable at M = 0, so take the zero subgradient there
            grads[name] = (2.0 * alpha / norm) * (m @ w) if norm > 1e-12 else np.zeros_like(w)
        return alpha * value, grads
    raise InvalidInputError(f"unknown regularizer kind {kind!r}")


# ---------------------------------------------------------------------------
# optimizers


_TRAC_DISCOUNTS = (0.9, 0.99, 0.999, 0.9999)
_ERFI_LIMIT = 6.0
_ERFI_HALF_INV_SQRT2 = erfi(1.0 / np.sqrt(2.0))


@dataclass
class OptimizerState:
    """Moment buffers for adam, tuner accumulators for trac, factor EMAs for
    kron. trac wraps a base adam state that produces its candidate step."""

    kind: str
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    # adam: (names and shapes, flat m, v and two scratch, views of scratch)
    flat: tuple | None = field(default=None, init=False, repr=False)
    # trac
    base: "OptimizerState | None" = None
    theta_ref: dict = field(default_factory=dict)
    discounts: tuple = _TRAC_DISCOUNTS
    trac_eps: float = 1e-8
    trac_v: np.ndarray | None = None
    trac_sigma_sum: np.ndarray | None = None
    trac_scale: float = 0.0
    saturation_warnings: int = 0
    # kron
    damping: float = 1e-3
    ema: float = 0.95
    t_inv: int = 10
    factors_a: dict = field(default_factory=dict)
    factors_s: dict = field(default_factory=dict)
    inv_a: dict = field(default_factory=dict)
    inv_s: dict = field(default_factory=dict)
    fallback_count: int = 0


def make_optimizer(kind: str, net: NetworkState, **hyper) -> OptimizerState:
    if kind == "adam":
        return OptimizerState(kind="adam", **hyper)
    if kind == "trac":
        n = len(_TRAC_DISCOUNTS)
        return OptimizerState(
            kind="trac",
            base=OptimizerState(kind="adam"),
            theta_ref={k: v.copy() for k, v in net.params.items()},
            trac_v=np.zeros(n),
            trac_sigma_sum=np.zeros(n),
            **hyper,
        )
    if kind == "kron":
        return OptimizerState(kind="kron", **hyper)
    raise InvalidInputError(f"unknown optimizer kind {kind!r}")


def _check_finite(grads: dict[str, np.ndarray]) -> None:
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            err = NumericError(f"non-finite gradient in {name}")
            err.layer = name
            raise err


def _adam_layout(opt: OptimizerState, key: tuple) -> tuple:
    """Flat buffers for the gradient (name, shape) pairs in `key`; kept moments
    are copied in, and a name that leaves keeps a copy of its last moments."""
    sizes = [int(np.prod(shape)) for _, shape in key]
    m, v, scratch, tmp = (np.zeros(sum(sizes)) for _ in range(4))
    deltas, start = {}, 0
    for moments in (opt.m, opt.v):
        for name in moments.keys() - {name for name, _ in key}:
            moments[name] = moments[name].copy()
    for (name, shape), size in zip(key, sizes):
        for flat, moments in ((m, opt.m), (v, opt.v)):
            view = flat[start : start + size].reshape(shape)
            if name in moments:
                view[...] = moments[name]
            moments[name] = view
        deltas[name] = scratch[start : start + size].reshape(shape)
        start += size
    return key, m, v, scratch, tmp, deltas


def _adam_deltas(opt: OptimizerState, grads: dict[str, np.ndarray], lr: float) -> dict:
    """-lr * m_hat / (sqrt(v_hat) + eps) per entry: the per-tensor float ops,
    in place over flat buffers. Returns views of scratch (valid until the next call)."""
    key = tuple((name, g.shape) for name, g in grads.items())
    if opt.flat is None or opt.flat[0] != key:
        opt.flat = _adam_layout(opt, key)
    _, m, v, g, tmp, deltas = opt.flat
    for name, grad in grads.items():
        deltas[name][...] = grad
    if not np.isfinite(g).all():
        _check_finite(grads)
    opt.t += 1
    correct1 = 1.0 - opt.beta1**opt.t
    correct2 = 1.0 - opt.beta2**opt.t
    m *= opt.beta1
    m += np.multiply(g, 1.0 - opt.beta1, out=tmp)
    v *= opt.beta2
    np.multiply(g, 1.0 - opt.beta2, out=tmp)
    tmp *= g
    v += tmp
    np.divide(m, correct1, out=g)
    g *= -lr
    np.sqrt(np.divide(v, correct2, out=tmp), out=tmp)
    tmp += opt.eps
    g /= tmp
    return deltas


def adam_step(
    opt: OptimizerState, net: NetworkState, grads: Gradients | dict, lr: float
) -> None:
    """Standard bias-corrected Adam over the gradient entries, in place."""
    if opt.kind != "adam":
        raise InvalidInputError(f"adam_step needs an adam state, got {opt.kind}")
    by_name = grads.by_name if isinstance(grads, Gradients) else grads
    for name, delta in _adam_deltas(opt, by_name, lr).items():
        net.params[name] += delta


def trac_step(
    opt: OptimizerState,
    net: NetworkState,
    grads: Gradients | dict,
    base_candidate: dict[str, np.ndarray],
) -> None:
    """Pull the base optimizer's candidate toward the reference point.

    theta_new = theta_ref + s_t * (candidate - theta_ref). The scale s_t is
    the clipped sum of per-discount tuners driven by <g_t, theta_t -
    theta_ref> through the erfi potential; arguments beyond the erfi domain
    are clamped and counted rather than raised.
    """
    if opt.kind != "trac":
        raise InvalidInputError(f"trac_step needs a trac state, got {opt.kind}")
    by_name = grads.by_name if isinstance(grads, Gradients) else grads
    _check_finite(by_name)
    h = 0.0
    for name, g in by_name.items():
        if name not in opt.theta_ref:  # injected after make_optimizer, still at its init
            opt.theta_ref[name] = net.params[name].copy()
        h += float(np.sum(g * (net.params[name] - opt.theta_ref[name])))
    betas = np.asarray(opt.discounts)
    opt.trac_v = betas**2 * opt.trac_v + h * h
    opt.trac_sigma_sum = betas * opt.trac_sigma_sum - h
    sigmas = np.zeros(len(betas))
    for j in range(len(betas)):
        denom = np.sqrt(2.0 * opt.trac_v[j]) + 1e-30
        arg = opt.trac_sigma_sum[j] / denom
        if abs(arg) > _ERFI_LIMIT:
            arg = np.sign(arg) * _ERFI_LIMIT
            opt.saturation_warnings += 1
        sigmas[j] = (opt.trac_eps / _ERFI_HALF_INV_SQRT2) * erfi(float(arg))
    opt.trac_scale = max(0.0, float(sigmas.sum()))
    for name in by_name:
        net.params[name] = trac_combine(
            opt.theta_ref[name], base_candidate[name], opt.trac_scale
        )


def trac_combine(ref: np.ndarray, candidate: np.ndarray, scale: float) -> np.ndarray:
    """theta_ref + scale * (candidate - theta_ref); scale 0 and 1 return the
    endpoints exactly."""
    if scale == 0.0:
        return ref.copy()
    if scale == 1.0:
        return candidate.copy()
    return ref + scale * (candidate - ref)


def _kron_inputs(prefix: str, trace: ForwardTrace) -> np.ndarray:
    layer_idx = int(prefix.split(".")[0][len("layer") :])
    return trace.layer_inputs[layer_idx]


def kron_precondition(
    opt: OptimizerState, prefix: str, g_w: np.ndarray, g_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply (S + lambda I)^-1 G (A + lambda I)^-1 with the bias folded into
    G's last column; falls back to diagonal preconditioning when a factor
    does not invert."""
    g_ext = np.concatenate([g_w, g_b[:, None]], axis=1)
    a, s = opt.factors_a[prefix], opt.factors_s[prefix]
    if prefix not in opt.inv_a or opt.t % opt.t_inv == 0:
        try:
            opt.inv_a[prefix] = np.linalg.inv(a + opt.damping * np.eye(a.shape[0]))
            opt.inv_s[prefix] = np.linalg.inv(s + opt.damping * np.eye(s.shape[0]))
        except np.linalg.LinAlgError:
            opt.fallback_count += 1
            opt.inv_a.pop(prefix, None)
            opt.inv_s.pop(prefix, None)
            pre = g_ext / (np.diag(s) + opt.damping)[:, None] / (np.diag(a) + opt.damping)[None, :]
            return pre[:, :-1], pre[:, -1]
    pre = opt.inv_s[prefix] @ g_ext @ opt.inv_a[prefix]
    return pre[:, :-1], pre[:, -1]


def kron_step(
    opt: OptimizerState,
    net: NetworkState,
    trace: ForwardTrace,
    grads: Gradients,
    lr: float,
) -> None:
    """Factorized natural-gradient-style update per dense layer.

    EMA factors A = E[a a^T] over layer inputs (with a trailing 1 for the
    bias) and S = E[g g^T] over linear-output gradients. Parameters with no
    matching factors (normalization affine) take a plain gradient step.
    """
    if opt.kind != "kron":
        raise InvalidInputError(f"kron_step needs a kron state, got {opt.kind}")
    _check_finite(grads.by_name)
    covered: set[str] = set()
    for prefix, g_lin in grads.lin_grads.items():
        x = _kron_inputs(prefix, trace)
        batch = x.shape[0]
        a_ext = np.concatenate([x, np.ones((batch, 1))], axis=1)
        a_new = a_ext.T @ a_ext / batch
        s_new = g_lin.T @ g_lin / batch
        if prefix in opt.factors_a:
            opt.factors_a[prefix] = opt.ema * opt.factors_a[prefix] + (1.0 - opt.ema) * a_new
            opt.factors_s[prefix] = opt.ema * opt.factors_s[prefix] + (1.0 - opt.ema) * s_new
        else:
            opt.factors_a[prefix] = a_new
            opt.factors_s[prefix] = s_new
        w_name, b_name = f"{prefix}.w", f"{prefix}.b"
        pre_w, pre_b = kron_precondition(opt, prefix, grads.by_name[w_name], grads.by_name[b_name])
        net.params[w_name] = net.params[w_name] - lr * pre_w
        net.params[b_name] = net.params[b_name] - lr * pre_b
        covered |= {w_name, b_name}
    for name, g in grads.by_name.items():
        if name not in covered:
            net.params[name] = net.params[name] - lr * g
    opt.t += 1


def optimizer_step(
    opt: OptimizerState,
    net: NetworkState,
    trace: ForwardTrace | None,
    grads: Gradients,
    lr: float,
) -> None:
    """Dispatch one update through whichever optimizer the plan selected."""
    if opt.kind == "adam":
        adam_step(opt, net, grads, lr)
    elif opt.kind == "trac":
        deltas = _adam_deltas(opt.base, grads.by_name, lr)
        candidate = {name: net.params[name] + d for name, d in deltas.items()}
        trac_step(opt, net, grads, candidate)
    elif opt.kind == "kron":
        if trace is None:
            raise InvalidInputError("kron needs the forward trace")
        kron_step(opt, net, trace, grads, lr)
    else:
        raise InvalidInputError(f"unknown optimizer kind {opt.kind!r}")


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class MethodSpec:
    """Registry row: how a method is configured and when it runs by default.

    kind: "event" methods mutate the network when their trigger fires;
    "loss" methods add a differentiable term each gradient step; "optimizer"
    methods replace the update rule; "spec" methods are architecture choices
    checked once at startup.
    """

    name: str
    category: str
    kind: str
    params: dict
    default_trigger: Trigger
    reference: str
    summary: str


def _spec_trigger() -> Trigger:
    return Trigger("once_at", step=0)


REGISTRY: dict[str, MethodSpec] = {
    m.name: m
    for m in [
        MethodSpec(
            "shrink_perturb", "reset", "event", {"beta": 0.2},
            Trigger("on_task_switch"), "Ash & Adams (2020)",
            "interpolate parameters toward a fresh init draw; scheduled on "
            "task switches by default, or per gradient step as soft SnP "
            "(default beta drops to 1e-4)",
        ),
        MethodSpec(
            "plasticity_injection", "reset", "event", {},
            Trigger("on_task_switch"), "Nikishin et al. (2023)",
            "freeze the head and add a fresh trainable/frozen branch pair",
        ),
        MethodSpec(
            "redo", "reset", "event", {"tau": 0.025},
            Trigger("every_k_steps", k=1000), "Sokar et al. (2023)",
            "reinitialize dormant units and zero their outgoing weights",
        ),
        MethodSpec(
            "reset_layers", "reset", "event", {"scope": "final"},
            Trigger("on_task_switch"), "Nikishin et al. (2022)",
            "redraw the final layer (or all layers) from the init distribution",
        ),
        MethodSpec(
            "layer_norm", "normalization", "spec", {},
            _spec_trigger(), "Ba et al. (2016)",
            "normalize pre-activations on every hidden layer",
        ),
        MethodSpec(
            "nap", "normalization", "event", {},
            Trigger("per_gradient_step"), "Lyle et al. (2024)",
            "layer_norm plus periodic projection of weight norms to init",
        ),
        MethodSpec(
            "l2_reg", "regularization", "loss", {"alpha": 1e-4},
            Trigger("per_gradient_step"), "Lyle et al. (2023)",
            "alpha * squared L2 norm of the parameters",
        ),
        MethodSpec(
            "regenerative_reg", "regularization", "loss", {"alpha": 1e-2},
            Trigger("per_gradient_step"), "Kumar et al. (2023)",
            "alpha * squared distance to the initial parameters",
        ),
        MethodSpec(
            "parseval_reg", "regularization", "loss", {"alpha": 1e-3, "s": 1.0},
            Trigger("per_gradient_step"), "Chung et al. (2024)",
            "push hidden weight rows toward an orthonormal frame",
        ),
        MethodSpec(
            "crelu", "activation", "spec", {},
            _spec_trigger(), "Abbas et al. (2023)",
            "concatenated ReLU activations, doubling layer width",
        ),
        MethodSpec(
            "fourier", "activation", "spec", {},
            _spec_trigger(), "Lewandowski et al. (2025)",
            "concatenated sin/cos activations, doubling layer width",
        ),
        MethodSpec(
            "trac", "optimizer", "optimizer", {"trac_eps": 1e-8},
            Trigger("per_gradient_step"), "Muppidi et al. (2024)",
            "parameter-free scaling between a reference point and the Adam candidate",
        ),
        MethodSpec(
            "kron", "optimizer", "optimizer", {"damping": 1e-3, "ema": 0.95, "t_inv": 10},
            Trigger("per_gradient_step"), "Castanyer et al. (2025)",
            "Kronecker-factored preconditioning of dense-layer gradients",
        ),
    ]
}


def validate_network_for_plan(plan: MitigationPlan, net: NetworkState) -> None:
    """Check architecture-level methods against the actual network spec."""
    hidden = net.layers[:-1]
    for entry in plan.entries:
        if entry.method == "layer_norm" and not all(s.layer_norm for s in hidden):
            raise MitigationError("layer_norm plan entry requires layer_norm on hidden layers")
        if entry.method == "nap" and not all(s.layer_norm for s in hidden):
            raise MitigationError("nap requires layer_norm on hidden layers")
        if entry.method in ("crelu", "fourier"):
            if not any(s.activation == entry.method for s in net.layers):
                raise MitigationError(f"{entry.method} plan entry but no layer uses it")


def apply_event_method(
    entry: PlanEntry,
    net: NetworkState,
    stream: RngStream,
    probe: np.ndarray | None = None,
) -> dict:
    """Run one event-kind method; returns details worth logging."""
    name = entry.method
    if name == "shrink_perturb":
        shrink_perturb(net, float(entry.params["beta"]), stream)
        return {"beta": float(entry.params["beta"])}
    if name == "plasticity_injection":
        inject_plasticity(net, stream)
        return {"rounds": net.injection_rounds}
    if name == "redo":
        if probe is None:
            raise MitigationError("redo needs a probe batch")
        _, count = redo_reset(net, probe, float(entry.params["tau"]), stream)
        return {"reset_count": count}
    if name == "reset_layers":
        reset_layers(net, str(entry.params["scope"]), stream)
        return {"scope": entry.params["scope"]}
    if name == "nap":
        nap_project(net)
        return {}
    raise MitigationError(f"{name} is not an event-kind method")
