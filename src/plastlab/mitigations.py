"""Catalog of plasticity interventions and the optimizers that pair with them.

Five families: parameter resets, normalization maintenance, regularization
losses, activation swaps (validated here, realized as network specs), and
structured optimizers. Every mutating operation is deterministic given the
network state and the stream handed to it.

The registry at the bottom is the single source of truth for method names,
parameter schemas, default triggers, network needs and the original
publications; the CLI, config validation and the run loop all read it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import MitigationError, NumericError
from .metrics import _layer_scores, check_finite, gradient_norm
from .net import (
    ForwardTrace,
    Gradients,
    NetworkState,
    add_injection_round,
    chain_slots,
    forward,
    layer_params,
    shape_layers,
)
from .numkit import DrawAhead, RngStream, erfi


# ---------------------------------------------------------------------------
# plan plumbing


@dataclass(frozen=True)
class Trigger:
    """When a plan entry fires: every_k_steps(k), on_task_switch,
    once_at(step), or per_gradient_step. `str` gives the spelling `parse` reads."""

    kind: str
    arg: int | None = None  # k or step

    def __post_init__(self) -> None:
        if self.kind not in ("every_k_steps", "on_task_switch", "once_at", "per_gradient_step"):
            raise MitigationError(f"unknown trigger kind {self.kind!r}")
        least = {"every_k_steps": 1, "once_at": 0}.get(self.kind)  # None: the kind takes no argument
        if least is None and self.arg is not None:
            raise MitigationError(f"trigger {self.kind} takes no argument")
        if least is not None and (self.arg is None or self.arg < least):
            raise MitigationError(f"{self.kind} needs an argument >= {least}")

    @classmethod
    def parse(cls, text: str) -> Trigger:
        m = re.fullmatch(r"([a-z_]+)(?:\((\d+)\))?", text.strip())
        if m is None:
            raise MitigationError(f"malformed trigger {text!r}")
        return cls(m.group(1), None if m.group(2) is None else int(m.group(2)))

    def __str__(self) -> str:
        return self.kind if self.arg is None else f"{self.kind}({self.arg})"

    def fires(self, step: int, switched: bool) -> bool:
        """Whether the entry runs before `step` (`switched`: the step opens a
        task); per_gradient_step entries run after each gradient step instead."""
        if self.kind == "every_k_steps":
            return step > 0 and step % self.arg == 0
        return switched if self.kind == "on_task_switch" else step == self.arg


@dataclass(frozen=True)
class PlanEntry:
    method: str
    params: dict
    trigger: Trigger


def build_plan(raw_entries: list[dict]) -> tuple[PlanEntry, ...]:
    """Validate raw config entries against the registry and fill defaults.
    Only event methods take a trigger other than their default; any other
    trigger is an error, not a setting ignored."""
    entries = []
    for i, raw in enumerate(raw_entries):
        try:
            name, given = raw.get("method"), raw.get("params") or {}
            if name not in REGISTRY:
                raise MitigationError(f"unknown mitigation method {name!r}")
            spec = REGISTRY[name]
            for key in given:
                if key not in spec.params:
                    raise MitigationError(f"{name} does not take parameter {key!r}")
            trigger = spec.default_trigger if raw.get("trigger") is None else Trigger.parse(raw["trigger"])
            if spec.kind != "event" and trigger != spec.default_trigger:
                raise MitigationError(
                    f"the {spec.kind} method {name} always runs {spec.default_trigger}; "
                    f"trigger {trigger} has no effect"
                )
        except MitigationError as exc:
            raise MitigationError(f"mitigations[{i}]: {exc}") from None
        # the per-gradient-step mode of SnP (soft SnP) wants a much milder beta
        soft = {"beta": 1e-4} if name == "shrink_perturb" and trigger.kind == "per_gradient_step" else {}
        entries.append(PlanEntry(name, {**spec.params, **soft, **given}, trigger))
    if sum(REGISTRY[entry.method].kind == "optimizer" for entry in entries) > 1:
        raise MitigationError("at most one optimizer method per plan")
    return tuple(entries)


# ---------------------------------------------------------------------------
# reset family


def shrink_perturb(
    net: NetworkState, beta: float, stream: RngStream, ahead: DrawAhead | None = None
) -> NetworkState:
    """Interpolate every trainable parameter toward a fresh init draw.

    theta <- (1-beta)*theta + beta*draw, with the draw taken from each
    layer's declared init distribution, not the stored snapshot.
    Normalization gain/offset shrink toward their init constants (1 and 0).
    With `ahead`, the draws come from it; the values are the same.
    """
    keep = 1.0 - beta
    targets = []  # (spec, weight name, bias name) in draw order: the layers, then the head's branches
    last = len(net.layers) - 1
    for i, prefix in enumerate([f"layer{j}" for j in range(last)] + list(net.head_prefixes())):
        spec = net.layers[min(i, last)]
        w_name, b_name = f"{prefix}.w", f"{prefix}.b"
        if w_name not in net.frozen or b_name not in net.frozen:
            targets.append((spec, w_name, b_name))
        if spec.layer_norm and f"{prefix}.ln_gain" not in net.frozen:
            net.params[f"{prefix}.ln_gain"] = keep * net.params[f"{prefix}.ln_gain"] + beta
            net.params[f"{prefix}.ln_offset"] = keep * net.params[f"{prefix}.ln_offset"]
    specs = tuple(spec for spec, _, _ in targets)
    shape = partial(shape_layers, specs)
    draws = (ahead or DrawAhead(1)).take(specs, stream, chain_slots(specs), shape) if specs else []
    for (_, w_name, b_name), (w_draw, b_draw) in zip(targets, draws):
        if w_name not in net.frozen:
            net.params[w_name] = keep * net.params[w_name] + beta * w_draw
        if b_name not in net.frozen:
            net.params[b_name] = keep * net.params[b_name] + beta * b_draw
    return net


def redo_reset(net: NetworkState, probe: np.ndarray, tau: float, stream: RngStream) -> int:
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
        dormant = _layer_scores(trace.postacts[i]) <= tau
        doubled = spec.width_out != spec.out_dim
        if doubled:
            # a unit is dormant only when both of its output copies are
            dormant = dormant[: spec.out_dim] & dormant[spec.out_dim :]
        units = np.nonzero(dormant)[0]
        if units.size == 0:
            continue
        w_name, b_name = f"layer{i}.w", f"layer{i}.b"
        fresh = layer_params(i, spec, stream)
        net.params[w_name][units, :] = fresh[w_name][units, :]
        net.params[b_name][units] = fresh[b_name][units]
        cols = np.concatenate([units, units + spec.out_dim]) if doubled else units
        # the next layer reads the units; after the last hidden layer, every head branch does
        for prefix in net.head_prefixes() if i + 1 == last else (f"layer{i + 1}",):
            net.params[f"{prefix}.w"][:, cols] = 0.0
        total += int(units.size)
    return total


def reset_layers(net: NetworkState, scope: str, stream: RngStream) -> NetworkState:
    """Redraw whole layers from their init distributions.

    scope="all" walks the layers in declaration order, consuming the stream
    exactly like construction; scope="final" redraws only the last declared
    layer. Normalization affine parameters return to their init constants.
    """
    targets = range(len(net.layers)) if scope == "all" else [len(net.layers) - 1]
    for i in targets:
        net.params.update(layer_params(i, net.layers[i], stream))
    return net


# ---------------------------------------------------------------------------
# normalization family


def nap_project(net: NetworkState) -> NetworkState:
    """Rescale each weight matrix back to its Frobenius norm at init.

    The companion half of the method is LayerNorm on every hidden layer, which
    config resolution puts in the network spec. Directions, biases, and affine
    parameters are untouched.
    """
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
    method: str, net: NetworkState, alpha: float, s: float = 1.0
) -> tuple[float, dict[str, np.ndarray]] | None:
    """A regularization method's value and its gradient contribution per
    trainable param, by registry name.

    l2_reg: alpha*||theta||^2. regenerative_reg: alpha*||theta - theta_init||^2.
    parseval_reg: alpha * sum over hidden weights of ||W W^T - s I||_F (not
    squared), pushing rows toward an orthonormal frame of scale sqrt(s).
    Any other name returns None, which no caller can unpack.
    """
    value = 0.0
    grads: dict[str, np.ndarray] = {}
    if method in ("l2_reg", "regenerative_reg"):
        for name in net.trainable_names():
            d = net.params[name] if method == "l2_reg" else net.params[name] - net.init_snapshot[name]
            value += float(np.sum(d * d))
            grads[name] = 2.0 * alpha * d
        return alpha * value, grads
    if method == "parseval_reg":
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


# ---------------------------------------------------------------------------
# optimizers


_TRAC_DISCOUNTS = (0.9, 0.99, 0.999, 0.9999)
_ERFI_LIMIT = 6.0
_ERFI_HALF_INV_SQRT2 = erfi(1.0 / np.sqrt(2.0))


class Adam:
    """Bias-corrected Adam over the gradient entries, in place on flat buffers."""

    def __init__(self, net=None, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        # net is unused; make_optimizer hands it to every optimizer class
        self.t = 0
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        # (names and shapes, flat m, v and two scratch, views of scratch)
        self.flat: tuple | None = None

    def _layout(self, key: tuple) -> tuple:
        """Flat buffers for the gradient (name, shape) pairs in `key`; kept moments
        are copied in, and a name that leaves keeps a copy of its last moments."""
        sizes = [int(np.prod(shape)) for _, shape in key]
        m, v, scratch, tmp = (np.zeros(sum(sizes)) for _ in range(4))
        deltas, start = {}, 0
        for moments in (self.m, self.v):
            for name in moments.keys() - {name for name, _ in key}:
                moments[name] = moments[name].copy()
        for (name, shape), size in zip(key, sizes):
            for flat, moments in ((m, self.m), (v, self.v)):
                view = flat[start : start + size].reshape(shape)
                if name in moments:
                    view[...] = moments[name]
                moments[name] = view
            deltas[name] = scratch[start : start + size].reshape(shape)
            start += size
        return key, m, v, scratch, tmp, deltas

    def deltas(self, by_name: dict[str, np.ndarray], lr: float) -> dict:
        """-lr * m_hat / (sqrt(v_hat) + eps) per entry: the per-tensor float ops,
        in place over flat buffers. Returns views of scratch (valid until the next call)."""
        key = tuple((name, g.shape) for name, g in by_name.items())
        if self.flat is None or self.flat[0] != key:
            self.flat = self._layout(key)
        _, m, v, g, tmp, deltas = self.flat
        for name, grad in by_name.items():
            deltas[name][...] = grad
        if not np.isfinite(g).all():
            check_finite(by_name)
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=tmp)
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        v += tmp
        # x / 1.0 == x for every double, so once a correction rounds to 1.0
        # (t >= 356 and t >= 37,412 at the default betas) its divide is skipped
        if correct1 == 1.0:
            np.multiply(m, -lr, out=g)
        else:
            np.divide(m, correct1, out=g)
            g *= -lr
        np.sqrt(v if correct2 == 1.0 else np.divide(v, correct2, out=tmp), out=tmp)
        tmp += self.eps
        g /= tmp
        return deltas

    def step(self, net: NetworkState, trace: ForwardTrace | None, grads: Gradients, lr: float) -> None:
        for name, delta in self.deltas(grads.by_name, lr).items():
            net.params[name] += delta


class Trac:
    """Parameter-free scaling between a reference point and a base iterate
    that only a plain Adam moves; the scale comes from per-discount erfi
    tuners (Fast TRAC, Muppidi et al. 2024, on the Mechanic tuner of
    Cutkosky et al. 2023)."""

    def __init__(self, net: NetworkState, trac_eps: float = 1e-8):
        self.base = Adam()
        self.theta_ref = {k: v.copy() for k, v in net.params.items()}
        self.iterate = {k: v.copy() for k, v in net.params.items()}
        self.written = {k: v.copy() for k, v in net.params.items()}  # what the last step wrote
        self.discounts = _TRAC_DISCOUNTS
        self.trac_eps = trac_eps
        self.trac_v = np.zeros(len(_TRAC_DISCOUNTS))
        self.trac_sigma_sum = np.zeros(len(_TRAC_DISCOUNTS))
        self.trac_scale = 0.0
        self.saturation_warnings = 0

    def step(self, net: NetworkState, trace: ForwardTrace | None, grads: Gradients, lr: float) -> None:
        self.pull(net, grads, self.base.deltas(grads.by_name, lr))

    def pull(self, net: NetworkState, grads: Gradients, deltas: dict[str, np.ndarray]) -> None:
        """Move the base iterate by `deltas` and pull it toward the reference point.

        theta_new = theta_ref + s_t * (iterate - theta_ref). The scale s_t is
        the clipped sum of per-discount tuners driven by <g_t, iterate_t -
        theta_ref>, taken before the move, through the erfi potential;
        arguments beyond the erfi domain are clamped and counted rather than
        raised. A change made to the parameters since the last step (an
        event) moves the iterate by as much. The base Adam's `deltas` has
        already checked the gradients are finite.
        """
        by_name = grads.by_name
        h = 0.0
        for name, g in by_name.items():
            if name not in self.theta_ref:  # injected after make_optimizer, still at its init
                self.theta_ref[name] = net.params[name].copy()
                self.iterate[name] = net.params[name].copy()
            else:
                self.iterate[name] += net.params[name] - self.written[name]
            h += float(np.sum(g * (self.iterate[name] - self.theta_ref[name])))
            self.iterate[name] += deltas[name]
        betas = np.asarray(self.discounts)
        self.trac_v = betas**2 * self.trac_v + h * h
        self.trac_sigma_sum = betas * self.trac_sigma_sum - h
        sigmas = np.zeros(len(betas))
        for j in range(len(betas)):
            denom = np.sqrt(2.0 * self.trac_v[j]) + 1e-30
            arg = self.trac_sigma_sum[j] / denom
            if abs(arg) > _ERFI_LIMIT:
                arg = np.sign(arg) * _ERFI_LIMIT
                self.saturation_warnings += 1
            sigmas[j] = (self.trac_eps / _ERFI_HALF_INV_SQRT2) * erfi(float(arg))
        self.trac_scale = max(0.0, float(sigmas.sum()))
        for name in by_name:
            self.written[name] = self.combine(self.theta_ref[name], self.iterate[name], self.trac_scale)
            net.params[name] = self.written[name].copy()

    @staticmethod
    def combine(ref: np.ndarray, candidate: np.ndarray, scale: float) -> np.ndarray:
        """theta_ref + scale * (candidate - theta_ref); scale 0 and 1 return the
        endpoints exactly."""
        if scale == 0.0:
            return ref.copy()
        if scale == 1.0:
            return candidate.copy()
        return ref + scale * (candidate - ref)


class Kron:
    """Factorized natural-gradient-style update per dense layer.

    EMA factors A = E[a a^T] over layer inputs (with a trailing 1 for the
    bias) and S = E[g g^T] over linear-output gradients. Parameters with no
    matching factors (normalization affine) take a plain gradient step.
    """

    def __init__(self, net=None, damping: float = 1e-3, ema: float = 0.95, t_inv: int = 10):
        # net is unused; make_optimizer hands it to every optimizer class
        self.t = 0
        self.damping, self.ema, self.t_inv = damping, ema, t_inv
        self.factors_a: dict[str, np.ndarray] = {}
        self.factors_s: dict[str, np.ndarray] = {}
        self.inv_a: dict[str, np.ndarray] = {}
        self.inv_s: dict[str, np.ndarray] = {}
        self.fallback_count = 0

    def step(self, net: NetworkState, trace: ForwardTrace, grads: Gradients, lr: float) -> None:
        check_finite(grads.by_name)
        covered: set[str] = set()
        for prefix, g_lin in grads.lin_grads.items():
            x = trace.layer_inputs[int(prefix.split(".")[0][len("layer") :])]
            batch = x.shape[0]
            a_ext = np.concatenate([x, np.ones((batch, 1))], axis=1)
            a_new = a_ext.T @ a_ext / batch
            s_new = g_lin.T @ g_lin / batch
            if prefix in self.factors_a:
                self.factors_a[prefix] = self.ema * self.factors_a[prefix] + (1.0 - self.ema) * a_new
                self.factors_s[prefix] = self.ema * self.factors_s[prefix] + (1.0 - self.ema) * s_new
            else:
                self.factors_a[prefix] = a_new
                self.factors_s[prefix] = s_new
            w_name, b_name = f"{prefix}.w", f"{prefix}.b"
            pre_w, pre_b = self.precondition(prefix, grads.by_name[w_name], grads.by_name[b_name])
            net.params[w_name] = net.params[w_name] - lr * pre_w
            net.params[b_name] = net.params[b_name] - lr * pre_b
            covered |= {w_name, b_name}
        for name, g in grads.by_name.items():
            if name not in covered:
                net.params[name] = net.params[name] - lr * g
        self.t += 1

    def precondition(self, prefix: str, g_w: np.ndarray, g_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply (S + sqrt(lambda)/pi I)^-1 G (A + pi sqrt(lambda) I)^-1 with the
        bias folded into G's last column: factored Tikhonov damping, where pi^2
        is the ratio of A's and S's mean eigenvalues (pi = 1 when either trace
        is 0 or not finite). Falls back to diagonal preconditioning with the
        same damping when a factor does not invert."""
        g_ext = np.concatenate([g_w, g_b[:, None]], axis=1)
        a, s = self.factors_a[prefix], self.factors_s[prefix]
        tr_a, tr_s = float(np.trace(a)) / a.shape[0], float(np.trace(s)) / s.shape[0]
        ratio = tr_a / tr_s if tr_s > 0.0 else 0.0  # NaN, 0 and inf all mean pi = 1
        pi = np.sqrt(ratio) if 0.0 < ratio < np.inf else 1.0
        damp_a, damp_s = pi * np.sqrt(self.damping), np.sqrt(self.damping) / pi
        if prefix not in self.inv_a or self.t % self.t_inv == 0:
            try:
                self.inv_a[prefix] = np.linalg.inv(a + damp_a * np.eye(a.shape[0]))
                self.inv_s[prefix] = np.linalg.inv(s + damp_s * np.eye(s.shape[0]))
            except np.linalg.LinAlgError:
                self.fallback_count += 1
                self.inv_a.pop(prefix, None)
                self.inv_s.pop(prefix, None)
                pre = g_ext / (np.diag(s) + damp_s)[:, None] / (np.diag(a) + damp_a)[None, :]
                return pre[:, :-1], pre[:, -1]
        pre = self.inv_s[prefix] @ g_ext @ self.inv_a[prefix]
        return pre[:, :-1], pre[:, -1]


Optimizer = Adam | Trac | Kron
_OPTIMIZERS = {"adam": Adam, "trac": Trac, "kron": Kron}


def make_optimizer(kind: str, net: NetworkState | None, **hyper) -> Optimizer:
    """The optimizer `kind` names: "adam" or a plan's optimizer method."""
    return _OPTIMIZERS[kind](net, **hyper)


def clip_gradients(by_name: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale gradients in place to a global L2 norm <= max_norm; returns the pre-clip norm."""
    norm = gradient_norm(by_name)
    if max_norm > 0.0 and norm > max_norm:
        for name in by_name:
            by_name[name] = by_name[name] * (max_norm / norm)
    return norm


def optimizer_step(
    opt: Optimizer,
    net: NetworkState,
    trace: ForwardTrace | None,
    grads: Gradients,
    lr: float,
    loss: float = 0.0,
    regs: list | tuple = (),
    max_grad_norm: float | None = None,
) -> tuple[float, float | None]:
    """Every learner's update: fold each (value, gradients) term of `regs` into
    `loss` and the gradients in order, raise NumericError on a non-finite folded
    loss, clip to `max_grad_norm` when given, then step the plan's optimizer.
    Returns the folded loss and the pre-clip norm (None when not clipping)."""
    by_name = grads.by_name
    for value, reg_grads in regs:
        loss += value
        for name, g in reg_grads.items():
            by_name[name] = by_name[name] + g if name in by_name else g
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")
    norm = None if max_grad_norm is None else clip_gradients(by_name, max_grad_norm)
    opt.step(net, trace, grads, lr)
    net.writes += 1  # acting memos (learners.common.act_memo) start over
    return loss, norm


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class MethodSpec:
    """Registry row: how a method is configured and when it runs by default.

    kind: "event" methods mutate the network when their trigger fires;
    "loss" methods add a differentiable term each gradient step; "optimizer"
    methods replace the update rule; "spec" methods are architecture choices
    checked once at startup. network: the (field, value) pairs the method
    needs on every hidden layer; config resolution sets them.
    """

    name: str
    category: str
    kind: str
    params: dict
    default_trigger: Trigger
    reference: str
    summary: str
    network: tuple[tuple[str, object], ...] = ()


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
            Trigger("every_k_steps", 1000), "Sokar et al. (2023)",
            "reinitialize dormant units and zero their outgoing weights",
        ),
        MethodSpec(
            "reset_layers", "reset", "event", {"scope": "final"},
            Trigger("on_task_switch"), "Nikishin et al. (2022)",
            "redraw the final layer (or all layers) from the init distribution",
        ),
        MethodSpec(
            "layer_norm", "normalization", "spec", {},
            Trigger("once_at", 0), "Ba et al. (2016)",
            "normalize pre-activations on every hidden layer",
            network=(("layer_norm", True),),
        ),
        MethodSpec(
            "nap", "normalization", "event", {},
            Trigger("per_gradient_step"), "Lyle et al. (2024)",
            "layer_norm plus periodic projection of weight norms to init",
            network=(("layer_norm", True),),
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
            Trigger("once_at", 0), "Abbas et al. (2023)",
            "concatenated ReLU activations, doubling layer width",
            network=(("activation", "crelu"),),
        ),
        MethodSpec(
            "fourier", "activation", "spec", {},
            Trigger("once_at", 0), "Lewandowski et al. (2025)",
            "concatenated sin/cos activations, doubling layer width",
            network=(("activation", "fourier"),),
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


def apply_event_method(
    entry: PlanEntry,
    net: NetworkState,
    stream: RngStream,
    probe: np.ndarray,
    ahead: DrawAhead | None = None,
) -> float:
    """Run one event-kind method; returns the value its event row logs: the
    number of units redo reset, else 1. Only redo reads `probe`, and only
    shrink_perturb reads `ahead`. Each firing is one of the net's `writes`."""
    name, params = entry.method, entry.params
    net.writes += 1
    if name == "redo":
        return float(redo_reset(net, probe, float(params["tau"]), stream))
    if name == "shrink_perturb":
        shrink_perturb(net, float(params["beta"]), stream, ahead)
    elif name == "plasticity_injection":
        add_injection_round(net, stream)
    elif name == "reset_layers":
        reset_layers(net, str(params["scope"]), stream)
    elif name == "nap":
        nap_project(net)
    else:
        raise MitigationError(f"{name} is not an event-kind method")
    return 1.0
