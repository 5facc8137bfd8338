import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from plastlab.errors import NumericError, UndefinedRankError
from plastlab.metrics import (
    _params_l2,
    active_fraction,
    check_finite,
    collect_metrics,
    dormant_ratio,
    gradient_norm,
    ranks,
)
from plastlab import metrics as metrics_module
from plastlab.net import (
    ForwardTrace,
    LayerSpec,
    add_injection_round,
    clone_network,
    forward,
    init_network,
)
from plastlab.numkit import RngStream

from helpers import constant_network


def fake_trace(postacts):
    postacts = [np.asarray(p, dtype=np.float64) for p in postacts]
    return ForwardTrace(
        batch=np.zeros((postacts[0].shape[0], 1)),
        layer_inputs=[],
        lin_outs=[],
        preacts=[],
        postacts=postacts,
        ln_caches=[],
        outputs=postacts[-1],
    )


def naive_rdu(postacts, tau):
    """Direct per-neuron double loop over the dormancy definition."""
    per, dormant, total = {}, 0, 0
    for i, post in enumerate(postacts):
        rows, width = post.shape
        means = [sum(abs(post[n, k]) for n in range(rows)) / rows for k in range(width)]
        layer_mean = sum(means) / width
        if layer_mean == 0.0:
            d = width
        else:
            d = sum(1 for m in means if m / layer_mean <= tau)
        per[f"layer{i}"] = d / width
        dormant += d
        total += width
    per["all"] = dormant / total
    return per


def mp_effective_rank(sv):
    mp.dps = 50
    vals = [mp.mpf(float(s)) for s in sv if s > 0]
    total = sum(vals)
    entropy = -sum((v / total) * mp.log(v / total) for v in vals)
    return float(mp.e**entropy)


def jacobi_singular_values(m: np.ndarray) -> np.ndarray:
    """Brute-force oracle: cyclic Jacobi eigensolver on m^T m, sqrt of spectrum."""
    a = m.T @ m
    n = a.shape[0]
    for _ in range(100):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < 1e-14:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < 1e-14:
            break
    eig = np.clip(np.sort(np.diag(a))[::-1], 0.0, None)
    return np.sqrt(eig)


def jacobi_ranks(m):
    """Stable and effective rank, by their definitions, of the Jacobi oracle's
    spectrum (taken on the tall side, so it has min(rows, cols) values)."""
    sv = jacobi_singular_values(m if m.shape[0] >= m.shape[1] else m.T)
    return int(np.nonzero(np.cumsum(sv) / sv.sum() > 0.99)[0][0]) + 1, mp_effective_rank(sv)


class TestDormantRatio:
    def test_zero_neuron(self):
        trace = fake_trace([np.array([[2.0, 0.0], [2.0, 0.0]])])
        assert dormant_ratio(trace, 0.1) == {"layer0": 0.5, "all": 0.5}

    def test_uniform_activity_is_zero(self):
        trace = fake_trace([np.full((4, 6), 3.7)])
        assert dormant_ratio(trace, 0.1)["all"] == 0.0

    def test_all_zero_layer_fully_dormant(self):
        trace = fake_trace([np.zeros((3, 5))])
        assert dormant_ratio(trace, 0.0)["layer0"] == 1.0

    def test_matches_naive_loop_exactly(self):
        stream = RngStream(31, 0)
        postacts = [
            np.maximum(stream.normal(0.0, 1.0, 256 * 8).reshape(256, 8), 0.0),
            stream.uniform(0.0, 2.0, 256 * 5).reshape(256, 5),
        ]
        got = dormant_ratio(fake_trace(postacts), 0.025)
        assert got == naive_rdu(postacts, 0.025)

    def test_tau_zero_counts_exact_zero_scores(self):
        post = np.array([[1.0, 0.0, 1e-300], [1.0, 0.0, 1e-300]])
        assert dormant_ratio(fake_trace([post]), 0.0)["layer0"] == pytest.approx(1 / 3)

    def test_monotone_in_tau(self):
        post = RngStream(3, 3).uniform(0.0, 1.0, 64 * 9).reshape(64, 9)
        trace = fake_trace([post])
        values = [dormant_ratio(trace, t)["all"] for t in (0.0, 0.025, 0.1, 0.5, 1.0, 2.0)]
        assert values == sorted(values)

    def test_row_permutation_invariant(self):
        stream = RngStream(8, 1)
        post = stream.normal(0.0, 1.0, 40).reshape(10, 4)
        perm = stream.permutation(10)
        a = dormant_ratio(fake_trace([post]), 0.025)
        b = dormant_ratio(fake_trace([post[perm]]), 0.025)
        assert a == b


class TestActiveFraction:
    def test_all_zero(self):
        assert active_fraction(fake_trace([np.zeros((3, 4))]))["all"] == 0.0

    def test_all_positive(self):
        assert active_fraction(fake_trace([np.full((3, 4), 0.2)]))["all"] == 1.0

    def test_crelu_doubled_width(self):
        net = constant_network([LayerSpec(2, 2, "crelu")])
        net.params["layer0.w"][:] = np.eye(2)
        trace = forward(net, np.array([[1.0, -2.0]]))
        assert active_fraction(trace)["layer0"] == 0.5

    def test_row_permutation_invariant(self):
        stream = RngStream(12, 0)
        post = stream.normal(0.0, 1.0, 60).reshape(12, 5)
        perm = stream.permutation(12)
        assert active_fraction(fake_trace([post])) == active_fraction(fake_trace([post[perm]]))


class TestStableRank:
    def test_rank_one(self):
        u, v = np.arange(1.0, 5.0), np.arange(1.0, 4.0)
        assert ranks(np.outer(u, v))[0] == 1

    def test_identity_requires_full_spectrum(self):
        assert ranks(np.eye(4))[0] == 4

    def test_scan_oracle(self):
        m = RngStream(40, 0).normal(0.0, 1.0, 48).reshape(8, 6)
        sv = np.linalg.svd(m, compute_uv=False)
        fracs = np.cumsum(sv) / sv.sum()
        want = int(np.nonzero(fracs > 0.99)[0][0]) + 1
        assert ranks(m)[0] == want

    def test_all_zero_rejected(self):
        with pytest.raises(UndefinedRankError):
            ranks(np.zeros((3, 3)))


class TestEffectiveRank:
    def test_identity_exact(self):
        assert ranks(np.eye(3))[1] == 3.0
        assert ranks(np.eye(8))[1] == 8.0

    def test_point_mass_spectrum(self):
        assert ranks(np.diag([1.0, 0.0]))[1] == 1.0

    def test_high_precision_oracle(self):
        m = RngStream(41, 0).normal(0.0, 1.0, 25).reshape(5, 5)
        want = mp_effective_rank(np.linalg.svd(m, compute_uv=False))
        assert abs(ranks(m)[1] - want) < 1e-9

    def test_all_zero_rejected(self):
        with pytest.raises(UndefinedRankError):
            ranks(np.zeros((2, 5)))


class TestRanksMatchTheJacobiSpectrum:
    @pytest.mark.parametrize("stream,sigma,shape", [((7, 1), 1.0, (5, 4)), ((3, 2), 2.0, (3, 7)), ((5, 9), 3.0, (6, 5))],
                             ids=["5x4", "3x7", "6x5"])
    def test_random_matrix(self, stream, sigma, shape):
        m = RngStream(*stream).normal(0.0, sigma, shape[0] * shape[1]).reshape(shape)
        stable, effective = ranks(m)
        want_stable, want_effective = jacobi_ranks(m)
        assert stable == want_stable and abs(effective - want_effective) < 1e-8

    @pytest.mark.parametrize("m", [np.eye(3), np.diag([3.0, 0.0])], ids=["identity", "diagonal"])
    def test_exact_spectrum(self, m):
        assert ranks(m) == jacobi_ranks(m)

    def test_transpose_invariance(self):
        m = RngStream(11, 4).normal(0.0, 1.0, 24).reshape(4, 6)
        (sa, ea), (sb, eb) = ranks(m), ranks(m.T)
        assert sa == sb and abs(ea - eb) < 1e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 6))
def test_ranks_match_the_jacobi_spectrum_property(seed, rows, cols):
    m = RngStream(seed, 1).normal(0.0, 1.0, rows * cols).reshape(rows, cols)
    stable, effective = ranks(m)
    want_stable, want_effective = jacobi_ranks(m)
    assert stable == want_stable and abs(effective - want_effective) < 1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 6), st.integers(1, 3))
def test_effective_rank_bounded_by_rank(seed, rows, cols, r):
    r = min(r, rows, cols)
    stream = RngStream(seed, 2)
    m = stream.normal(0.0, 1.0, rows * r).reshape(rows, r) @ stream.normal(
        0.0, 1.0, r * cols
    ).reshape(r, cols)
    sv = np.linalg.svd(m, compute_uv=False)
    nonzero = int(np.count_nonzero(sv > sv.max() * 1e-12))
    er = ranks(m)[1]
    assert 1.0 - 1e-9 <= er <= nonzero + 1e-9
    assert er <= min(rows, cols) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 100.0))
def test_rank_metrics_scale_invariant(seed, c):
    m = RngStream(seed, 3).normal(0.0, 1.0, 30).reshape(6, 5)
    assert ranks(c * m)[0] == ranks(m)[0]
    assert abs(ranks(c * m)[1] - ranks(m)[1]) < 1e-9


def _random_net(seed):
    net = init_network([LayerSpec(3, 4, "tanh"), LayerSpec(4, 2, "linear")], RngStream(seed, 0))
    return net


def l2_between(a, b):
    return _params_l2(a.params, b.params, list(a.param_order))


class TestWeightDifference:
    def test_identical_states(self):
        net = _random_net(1)
        assert l2_between(net, net) == (0.0, 0.0)

    def test_single_coordinate(self):
        a = _random_net(2)
        b = clone_network(a)
        b.params["layer0.w"][1, 2] += 3.0
        l2, per = l2_between(a, b)
        assert l2 == pytest.approx(3.0, abs=1e-12)
        count = sum(a.params[n].size for n in a.param_order)
        assert per == pytest.approx(3.0 / count, abs=1e-12)

    def test_flatten_oracle(self):
        a, b = _random_net(3), _random_net(4)
        flat = np.concatenate(
            [(a.params[n] - b.params[n]).ravel() for n in a.param_order]
        )
        want = float(np.linalg.norm(flat))
        l2, per = l2_between(a, b)
        assert abs(l2 - want) < 1e-12
        assert abs(per - want / flat.size) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 5_000))
    def test_metric_axioms(self, seed):
        nets = [_random_net(seed + k) for k in range(3)]
        d = lambda x, y: l2_between(x, y)[0]
        assert d(nets[0], nets[1]) == pytest.approx(d(nets[1], nets[0]), abs=1e-12)
        assert d(nets[0], nets[2]) <= d(nets[0], nets[1]) + d(nets[1], nets[2]) + 1e-9


class TestGradientNorm:
    def test_three_four_five(self):
        assert gradient_norm({"a": np.array([3.0]), "b": np.array([4.0])}) == pytest.approx(5.0)

    def test_zero(self):
        assert gradient_norm({"a": np.zeros((2, 2))}) == 0.0

    def test_flatten_oracle(self):
        stream = RngStream(50, 0)
        grads = {
            "x": stream.normal(0.0, 1.0, 12).reshape(3, 4),
            "y": stream.normal(0.0, 2.0, 5),
        }
        flat = np.concatenate([g.ravel() for g in grads.values()])
        assert abs(gradient_norm(grads) - float(np.linalg.norm(flat))) < 1e-12

    def test_non_finite_entry_gives_a_non_finite_norm(self):
        assert np.isinf(gradient_norm({"a": np.ones(2), "layer3.w": np.array([np.inf])}))
        assert np.isnan(gradient_norm({"a": np.ones(2), "layer3.w": np.array([np.nan])}))

    def test_sums_entry_by_entry(self):
        stream = RngStream(51, 0)
        grads = {f"layer{i}.w": stream.normal(0.0, 10.0 ** i, 7 * (i + 1)) for i in range(4)}
        total = 0.0
        for g in grads.values():
            total += float(np.sum(g * g))
        assert gradient_norm(grads) == float(np.sqrt(total))


class TestCheckFinite:
    def test_non_finite_names_layer(self):
        with pytest.raises(NumericError) as exc:
            check_finite({"layer3.w": np.array([np.inf])})
        assert exc.value.layer == "layer3.w"
        assert "layer3.w" in str(exc.value)

    def test_first_non_finite_entry_named(self):
        grads = {"a": np.ones(3), "b": np.array([1.0, np.nan]), "c": np.array([np.inf])}
        with pytest.raises(NumericError) as exc:
            check_finite(grads)
        assert exc.value.layer == "b"
        check_finite({"a": np.ones(3), "d": np.full(2, 1e300)})  # finite, though its squares overflow


class TestCollectMetrics:
    def setup_method(self):
        self.net = init_network(
            [LayerSpec(3, 6, "tanh"), LayerSpec(6, 5, "tanh"), LayerSpec(5, 2, "linear")],
            RngStream(60, 0),
        )
        self.probe = RngStream(60, 1).normal(0.0, 1.0, 3 * 32).reshape(32, 3)

    def test_fresh_net_zero_drift(self):
        reports = collect_metrics(self.net, self.probe)
        assert len(reports) == 4
        assert reports[-1].scope == "all"
        assert reports[-1].weight_diff == 0.0

    def test_constructed_dormancy(self):
        net = clone_network(self.net)
        net.params["layer1.w"][2, :] = 0.0
        net.params["layer1.b"][2] = 0.0
        report = collect_metrics(net, self.probe)[1]
        assert report.scope == "layer1"
        assert report.rdu > 0.0

    def test_fields_match_standalone_ops(self):
        net = clone_network(self.net)
        net.params["layer0.w"] += 0.1
        trace = forward(net, self.probe)
        reports = collect_metrics(net, self.probe)
        agg = reports[-1]
        assert agg.rdu == dormant_ratio(trace)["all"]
        assert agg.fau == active_fraction(trace)["all"]
        assert agg.stable_rank == ranks(trace.postacts[-2])[0]
        assert agg.effective_rank == ranks(trace.postacts[-2])[1]
        l2, per = l2_between(net, deserialize_init(net))
        assert agg.weight_diff == pytest.approx(l2, abs=1e-12)
        assert agg.weight_diff_per_param == pytest.approx(per, abs=1e-12)
        for i in range(3):
            assert reports[i].stable_rank == ranks(trace.postacts[i])[0]


def _rank_case(name):
    """A network and probe for each shape the one-SVD sweep must handle."""
    probe = RngStream(61, 1).normal(0.0, 1.0, 4 * 24).reshape(24, 4)
    if name == "one_layer":
        return init_network([LayerSpec(4, 3, "linear")], RngStream(61, 0)), probe
    if name == "crelu":
        specs = [LayerSpec(4, 5, "crelu"), LayerSpec(10, 5, "crelu"), LayerSpec(10, 2, "linear")]
        return init_network(specs, RngStream(61, 0)), probe
    specs = [LayerSpec(4, 6, "relu"), LayerSpec(6, 5, "relu"), LayerSpec(5, 3, "linear")]
    net = init_network(specs, RngStream(61, 0))
    if name == "zero_layer":
        # every unit of layer1 is dead: no spectrum, both ranks undefined
        net.params["layer1.w"][:] = 0.0
        net.params["layer1.b"][:] = -1.0
    if name == "injection":
        for r in (1, 2):
            add_injection_round(net, RngStream(61, 1 + r))
            net.params[f"layer2.inj{r}_train.w"] += 0.3
    return net, probe


def _standalone_ranks(f):
    try:
        return ranks(f)
    except UndefinedRankError:
        return None, None


@pytest.mark.parametrize("case", ["plain", "zero_layer", "crelu", "injection", "one_layer"])
class TestOneSvdPerLayer:
    def test_svd_runs_once_per_layer(self, case, monkeypatch):
        net, probe = _rank_case(case)
        calls = []

        svd = np.linalg.svd

        def counting_svd(m, **kwargs):
            calls.append(m.shape)
            return svd(m, **kwargs)

        monkeypatch.setattr(metrics_module.np.linalg, "svd", counting_svd)
        reports = collect_metrics(net, probe)
        assert len(calls) == len(net.layers) == len(reports) - 1

    def test_rows_equal_the_standalone_ranks_of_their_scope(self, case):
        net, probe = _rank_case(case)
        post = forward(net, probe).postacts
        reports = collect_metrics(net, probe)
        scopes = list(range(len(net.layers))) + [max(len(net.layers) - 2, 0)]
        for report, layer in zip(reports, scopes):
            assert (report.stable_rank, report.effective_rank) == _standalone_ranks(post[layer])
        if case == "zero_layer":
            assert reports[1].stable_rank is None and reports[1].effective_rank is None
            assert reports[-1].stable_rank is None and reports[-1].effective_rank is None
            assert "stable_rank" not in dict(reports[-1].rows())


def deserialize_init(net):
    """Rebuild a state whose live params equal the init snapshot."""
    twin = clone_network(net)
    twin.params = {k: v.copy() for k, v in net.init_snapshot.items()}
    return twin
