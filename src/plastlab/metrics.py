"""Plasticity diagnostics: dormancy, active units, spectral ranks, drift.

All operations are pure functions over forward traces, parameter states, and
gradients. Rank metrics normalize the singular spectrum, so they are
invariant to positive rescaling of the feature matrix; the effective rank
accumulates its entropy in extended precision so that uniform spectra land
on exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericError, UndefinedRankError
from .net import ForwardTrace, NetworkState, forward

DEFAULT_TAU = 0.025
_SR_THRESHOLD = 0.99


@dataclass
class MetricReport:
    """One scope's diagnostics at one step; None marks unavailable inputs."""

    step: int
    scope: str
    rdu: float
    fau: float
    stable_rank: int | None
    effective_rank: float | None
    weight_diff: float | None
    weight_diff_per_param: float | None

    def rows(self) -> list[tuple[str, float]]:
        """Present metrics as (name, value) pairs, for structured logging."""
        pairs = []
        for name in [f.name for f in fields(self)][2:]:  # past step and scope
            value = getattr(self, name)
            if value is not None:
                pairs.append((name, float(value)))
        return pairs


def _layer_scores(post: np.ndarray) -> np.ndarray:
    """Normalized mean-absolute-activation score per neuron of one layer."""
    mean_abs = np.abs(post).mean(axis=0)
    denom = mean_abs.mean()
    if denom == 0.0:
        return np.zeros(post.shape[1])
    return mean_abs / denom


def dormant_ratio(trace: ForwardTrace, tau: float = DEFAULT_TAU) -> dict[str, float]:
    """Fraction of neurons whose normalized activation score is <= tau.

    Scores are computed per layer on post-activations. A layer whose mean
    absolute activation is exactly zero counts as fully dormant. Returns one
    entry per layer plus "all".
    """
    out: dict[str, float] = {}
    dormant = total = 0
    for i, post in enumerate(trace.postacts):
        scores = _layer_scores(post)
        d = int(np.count_nonzero(scores <= tau))
        out[f"layer{i}"] = d / post.shape[1]
        dormant += d
        total += post.shape[1]
    out["all"] = dormant / total
    return out


def active_fraction(trace: ForwardTrace) -> dict[str, float]:
    """Fraction of strictly positive post-activations, per layer plus "all".

    The indicator is applied verbatim even for tanh/fourier layers, where
    "active" degenerates to "positive-valued".
    """
    out: dict[str, float] = {}
    active = total = 0
    for i, post in enumerate(trace.postacts):
        a = int(np.count_nonzero(post > 0.0))
        out[f"layer{i}"] = a / post.size
        active += a
        total += post.size
    out["all"] = active / total
    return out


def ranks(f: np.ndarray) -> tuple[int, float]:
    """Stable rank (the fewest leading singular values holding >99% of the
    spectrum sum) and effective rank (exp of the entropy of the L1-normalized
    spectrum, summed in extended precision so uniform spectra give exact
    integers) of f, both from one SVD."""
    sv = np.linalg.svd(f, compute_uv=False)
    total = float(sv.sum())
    if total == 0.0:
        raise UndefinedRankError("rank of an all-zero matrix is undefined")
    stable = int(np.argmax(np.cumsum(sv) / total > _SR_THRESHOLD)) + 1
    p = sv.astype(np.longdouble)
    p = p / p.sum()
    nz = p[p > 0.0]
    entropy = -(nz * np.log(nz)).sum()
    return stable, float(np.exp(entropy))


def _params_l2(
    params: dict[str, np.ndarray], reference: dict[str, np.ndarray], names: list[str]
) -> tuple[float, float]:
    total = 0.0
    count = 0
    for name in names:
        d = params[name] - reference[name]
        total += float(np.sum(d * d))
        count += d.size
    l2 = float(np.sqrt(total))
    return l2, l2 / count if count else 0.0


def check_finite(by_name: dict[str, np.ndarray]) -> None:
    """Raise NumericError, with `.layer` set, for the first entry holding a NaN or inf."""
    for name, g in by_name.items():
        if not np.all(np.isfinite(g)):
            err = NumericError(f"non-finite gradient in {name}")
            err.layer = name
            raise err


def gradient_norm(by_name: dict[str, np.ndarray]) -> float:
    """sqrt of the summed squared L2 norms over all gradient entries; NaN or
    inf when an entry is not finite (the optimizer names that entry)."""
    total = 0.0
    for g in by_name.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def collect_metrics(net: NetworkState, probe: np.ndarray, step: int = 0) -> list[MetricReport]:
    """Full diagnostic sweep: one report per layer, then an "all" aggregate.

    Rank metrics in per-layer reports use that layer's post-activations; the
    aggregate uses the penultimate layer (the representation feeding the
    head). Weight drift is measured against the init snapshot.
    """
    trace = forward(net, probe)
    rdu = dormant_ratio(trace)
    fau = active_fraction(trace)
    ref = net.init_snapshot

    reports = []
    n_layers = len(net.layers)
    layer_ranks = []  # one SVD per layer; the "all" scope reuses its feature layer's
    for post in trace.postacts:
        try:
            layer_ranks.append(ranks(post))
        except UndefinedRankError:
            layer_ranks.append((None, None))
    for i in range(n_layers):
        scope = f"layer{i}"
        names = [n for n in net.param_order if n.startswith(scope + ".")]
        wd, wd_pp = _params_l2(net.params, ref, names)
        reports.append(MetricReport(step, scope, rdu[scope], fau[scope], *layer_ranks[i], wd, wd_pp))
    sr_all, er_all = layer_ranks[max(n_layers - 2, 0)]
    wd_all, wd_pp_all = _params_l2(net.params, ref, list(net.param_order))
    reports.append(MetricReport(step, "all", rdu["all"], fau["all"], sr_all, er_all, wd_all, wd_pp_all))
    return reports
