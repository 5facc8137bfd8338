"""Package acceptance checks: one test per advertised guarantee.

Each test prints a single [PASS]/[FAIL] headline with its measured numbers
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live) and then
asserts the stated tolerance. The slow entries are the gridworld PPO runs and
the 21-task switch protocol; the whole file finishes in a few minutes on CPU.
"""

import json
import os
import time

import numpy as np
from scipy import integrate

import helpers
from plastlab.learners import (
    CategoricalHead,
    TrajectoryBatch,
    c51_support,
    categorical_projection_batch,
    gae,
)
from plastlab.learners.ppo import _clipped_objective
from plastlab.metrics import (
    active_fraction,
    dormant_ratio,
    gradient_norm,
    ranks,
)
from plastlab.mitigations import (
    make_optimizer,
    nap_project,
    optimizer_step,
    redo_reset,
    reg_loss,
    shrink_perturb,
    Trac,
)
from plastlab.net import (
    ForwardTrace,
    Gradients,
    add_injection_round,
    backward,
    deserialize_network,
    forward,
    layer_params,
    network_output,
    serialize_network,
)
from plastlab.numkit import RngStream, erfi
from plastlab.runner import replay_metrics, resolve_config, run_experiment
from plastlab.runner.cli import main as cli_main

from helpers import build_network


def headline(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {num} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. analytic gradients vs central finite differences, all activation kinds
#    x layer_norm x each loss regularizer


_REGS = {"l2_reg": (1e-2, 1.0), "regenerative_reg": (1e-2, 1.0), "parseval_reg": (1e-3, 1.0)}


def _total_loss(net, x, y, kind, alpha, s):
    err = forward(net, x).outputs - y
    return float(np.mean(err * err)) + reg_loss(kind, net, alpha, s)[0]


def _analytic_grads(net, x, y, kind, alpha, s):
    trace = forward(net, x)
    err = trace.outputs - y
    grads = backward(net, trace, 2.0 * err / err.size).by_name
    for name, g in reg_loss(kind, net, alpha, s)[1].items():
        grads[name] = grads.get(name, 0.0) + g
    return grads

def _fd_rel_err(net, x, y, kind, alpha, s, h=1e-5):
    """Max |analytic - central difference| over all parameters, relative to
    the largest finite-difference gradient magnitude."""
    an = _analytic_grads(net, x, y, kind, alpha, s)
    worst_abs = 0.0
    fd_max = 0.0
    for name in an:
        flat = net.params[name].ravel()
        g_fd = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = _total_loss(net, x, y, kind, alpha, s)
            flat[i] = keep - h
            down = _total_loss(net, x, y, kind, alpha, s)
            flat[i] = keep
            g_fd[i] = (up - down) / (2.0 * h)
        fd_max = max(fd_max, float(np.max(np.abs(g_fd))))
        worst_abs = max(worst_abs, float(np.max(np.abs(an[name].ravel() - g_fd))))
    return worst_abs / max(fd_max, 1e-8)


def test_1_gradient_checks():
    t0 = time.perf_counter()
    worst = 0.0
    configs = 0
    for seed in (0, 1, 2):
        x = RngStream(900 + seed, 0).normal(0.0, 1.0, 5 * 6).reshape(5, 6)
        y = RngStream(901 + seed, 0).normal(0.0, 1.0, 5 * 3).reshape(5, 3)
        for act in ("relu", "tanh", "crelu", "fourier", "linear"):
            for ln in (False, True):
                for kind, (alpha, s) in _REGS.items():
                    net = build_network(6, 3, (8,), act, ln, RngStream(70 + seed, 3))
                    worst = max(worst, _fd_rel_err(net, x, y, kind, alpha, s))
                    configs += 1
    elapsed = time.perf_counter() - t0
    headline(
        1, "gradient checks", worst < 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.2e} over {configs} configs (tol 1e-4), "
        f"{elapsed:.1f}s (budget 30s)",
    )


# ---------------------------------------------------------------------------
# 2. metric implementations vs closed forms and double-loop oracles


def _trace_from(postacts):
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


def _loop_rdu(postacts, tau):
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


def _loop_fau(postacts):
    per, active, total = {}, 0, 0
    for i, post in enumerate(postacts):
        a = sum(1 for row in post for v in row if v > 0.0)
        per[f"layer{i}"] = a / post.size
        active += a
        total += post.size
    per["all"] = active / total
    return per


def test_2_metric_oracles():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 8):
        ok = ok and ranks(np.eye(n))[1] == float(n)
        ok = ok and ranks(np.eye(n))[0] == n
    rank1 = np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    ok = ok and ranks(rank1)[0] == 1
    crafted = [
        [  # exact-zero column, a tiny column, and negatives in the mix
            [[0.0, 1.0, -2.0, 0.012], [0.0, 3.0, 1.0, -0.02], [0.0, 0.5, -0.5, 0.015]],
            [[1.0, -1.0], [2.0, 0.0], [0.5, 0.25]],
        ],
        [  # an entirely silent first layer
            [[0.0] * 3] * 4,
            [[0.3, -0.7], [1.2, 0.0], [0.0, 2.0], [-0.1, 0.4]],
        ],
    ]
    for postacts in crafted:
        arrays = [np.asarray(p, dtype=np.float64) for p in postacts]
        trace = _trace_from(arrays)
        for tau in (0.0, 0.1):
            ok = ok and dormant_ratio(trace, tau) == _loop_rdu(arrays, tau)
        ok = ok and active_fraction(trace) == _loop_fau(arrays)
    gn = gradient_norm({"a": np.array([3.0]), "b": np.array([4.0])})
    ok = ok and gn == 5.0
    elapsed = time.perf_counter() - t0
    headline(
        2, "metric oracles", ok and elapsed < 5.0,
        f"effective/stable rank closed forms, crafted-trace loop oracles, "
        f"norm([3],[4])={gn}, all exact, {elapsed:.2f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# 3. reset-family semantics: injection, dormant-unit recycling, norm
#    projection, shrink-and-perturb endpoints


def test_3_reset_semantics():
    t0 = time.perf_counter()

    # head injection keeps outputs unchanged at the moment it happens
    net = build_network(6, 4, (16, 16), "relu", False, RngStream(21, 1))
    probe = RngStream(22, 0).normal(0.0, 1.0, 64 * 6).reshape(64, 6)
    before = network_output(net, probe)
    add_injection_round(net, RngStream(23, 2))
    inj_err = float(np.max(np.abs(network_output(net, probe) - before)))

    # recycling a constructed dead unit touches exactly that unit
    net2 = build_network(5, 3, (8,), "relu", False, RngStream(31, 1))
    probe2 = RngStream(32, 0).normal(0.0, 1.0, 128 * 5).reshape(128, 5)
    d = 2
    net2.params["layer0.b"][d] = -50.0  # pre-activation forced negative
    trace = forward(net2, probe2)
    rdu_before = dormant_ratio(trace, 0.05)["all"]
    out_before = trace.outputs.copy()
    w0, b0 = net2.params["layer0.w"].copy(), net2.params["layer0.b"].copy()
    w1, b1 = net2.params["layer1.w"].copy(), net2.params["layer1.b"].copy()
    n_reset = redo_reset(net2, probe2, 0.05, RngStream(33, 3))
    others = [i for i in range(8) if i != d]
    redo_exact = (
        n_reset == 1
        and not np.array_equal(net2.params["layer0.w"][d], w0[d])
        and np.array_equal(net2.params["layer0.w"][others], w0[others])
        and np.array_equal(net2.params["layer0.b"][others], b0[others])
        and np.all(net2.params["layer1.w"][:, d] == 0.0)
        and np.array_equal(net2.params["layer1.w"][:, others], w1[:, others])
        and np.array_equal(net2.params["layer1.b"], b1)
    )
    redo_out_err = float(np.max(np.abs(network_output(net2, probe2) - out_before)))
    rdu_after = dormant_ratio(forward(net2, probe2), 0.05)["all"]

    # norm projection restores init magnitudes without turning the weights
    net3 = build_network(6, 3, (12, 12), "tanh", True, RngStream(41, 1))
    noise = RngStream(42, 0)
    for i in range(len(net3.layers)):
        w = net3.params[f"layer{i}.w"]
        w *= 1.6
        w += 0.05 * noise.normal(0.0, 1.0, w.size).reshape(w.shape)
    drifted = {f"layer{i}.w": net3.params[f"layer{i}.w"].copy() for i in range(3)}
    nap_project(net3)
    norm_err = cos_err = 0.0
    for i in range(len(net3.layers)):
        w_new = net3.params[f"layer{i}.w"]
        target = float(np.linalg.norm(net3.init_snapshot[f"layer{i}.w"]))
        norm_err = max(norm_err, abs(float(np.linalg.norm(w_new)) / target - 1.0))
        w_old = drifted[f"layer{i}.w"]
        cos = float(np.sum(w_new * w_old)) / (
            float(np.linalg.norm(w_new)) * float(np.linalg.norm(w_old))
        )
        cos_err = max(cos_err, 1.0 - cos)

    # shrink-and-perturb endpoints: beta=0 is the identity, beta=1 is a
    # fresh draw reproducible from an identically seeded stream
    net4 = build_network(4, 2, (8,), "relu", True, RngStream(51, 1))
    snap = {k: v.copy() for k, v in net4.params.items()}
    shrink_perturb(net4, 0.0, RngStream(52, 3))
    snp_id = all(np.array_equal(net4.params[k], snap[k]) for k in snap)
    net5 = build_network(4, 2, (8,), "relu", True, RngStream(51, 1))
    shrink_perturb(net5, 1.0, RngStream(99, 3))
    replica = RngStream(99, 3)
    snp_fresh = True
    for i, spec in enumerate(net5.layers):
        fresh = layer_params(i, spec, replica)
        w, b = fresh[f"layer{i}.w"], fresh[f"layer{i}.b"]
        snp_fresh = snp_fresh and np.array_equal(net5.params[f"layer{i}.w"], w)
        snp_fresh = snp_fresh and np.array_equal(net5.params[f"layer{i}.b"], b)
        if spec.layer_norm:
            snp_fresh = snp_fresh and np.all(net5.params[f"layer{i}.ln_gain"] == 1.0)
            snp_fresh = snp_fresh and np.all(net5.params[f"layer{i}.ln_offset"] == 0.0)

    elapsed = time.perf_counter() - t0
    ok = (
        inj_err < 1e-6
        and redo_exact
        and redo_out_err < 1e-6
        and rdu_after <= rdu_before
        and norm_err < 1e-6
        and cos_err < 1e-9
        and snp_id
        and snp_fresh
        and elapsed < 10.0
    )
    headline(
        3, "reset semantics", ok,
        f"injection out err {inj_err:.1e}, recycle exact={redo_exact} "
        f"out err {redo_out_err:.1e} dormancy {rdu_before:.3f}->{rdu_after:.3f}, "
        f"norm err {norm_err:.1e} cos err {cos_err:.1e}, "
        f"interp endpoints exact={snp_id and snp_fresh}, "
        f"{elapsed:.2f}s (budget 10s)",
    )


# ---------------------------------------------------------------------------
# 4. categorical value machinery: support grid, projection mass/oracle,
#    convergence on the 2-state chain


def _loop_projection(p, r, done, gamma, head):
    m = np.zeros(head.n_atoms)
    for j in range(head.n_atoms):
        tz = r + gamma * (0.0 if done else 1.0) * head.atoms[j]
        tz = min(max(tz, head.v_min), head.v_max)
        b = (tz - head.v_min) / head.delta_z
        lo, hi = int(np.floor(b)), int(np.ceil(b))
        if lo == hi:
            m[lo] += p[j]
        else:
            m[lo] += p[j] * (hi - b)
            m[hi] += p[j] * (b - lo)
    return m


def test_4_distributional_value_machinery():
    t0 = time.perf_counter()
    head = CategoricalHead(51, -10.0, 10.0)
    atoms = c51_support(-10.0, 10.0, 51)
    support_ok = (
        atoms[0] == -10.0
        and atoms[-1] == 10.0
        and head.delta_z == 0.4
        and float(np.max(np.abs(np.diff(atoms) - 0.4))) < 1e-12
    )

    stream = RngStream(7, 4)
    mass_err = 0.0
    oracle_err = 0.0
    n_cases = 0
    for _ in range(100):
        logits = stream.normal(0.0, 1.0, 100 * 51).reshape(100, 51)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        rewards = stream.uniform(-12.0, 12.0, 100)
        dones = (stream.uniform(0.0, 1.0, 100) < 0.1).astype(np.float64)
        m = categorical_projection_batch(p, rewards, dones, 0.99, head)
        mass_err = max(mass_err, float(np.max(np.abs(m.sum(axis=1) - 1.0))))
        for row in range(100):
            ref = _loop_projection(p[row], rewards[row], bool(dones[row]), 0.99, head)
            oracle_err = max(oracle_err, float(np.max(np.abs(m[row] - ref))))
        n_cases += 100

    learner = helpers.make_chain_learner(seed=101, n_updates=3000, lr=2e-3)
    q_err = float(np.max(np.abs(helpers.chain_q_estimates(learner) - helpers.chain_optimal_q())))

    elapsed = time.perf_counter() - t0
    ok = (
        support_ok
        and mass_err < 1e-6
        and oracle_err < 1e-10
        and q_err < 0.05
        and elapsed < 60.0
    )
    headline(
        4, "categorical value machinery", ok,
        f"support grid exact={support_ok}, mass err {mass_err:.1e} and loop "
        f"oracle err {oracle_err:.1e} over {n_cases} cases, chain q err "
        f"{q_err:.3f} (tol 0.05), {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# 5. policy-gradient machinery: advantage estimator oracle, zero loss at the
#    old policy, and actually solving the gridworld


def _double_sum_gae(rewards, values, dones, bootstrap, gamma, lam):
    n = len(rewards)
    adv = np.zeros(n)
    for t in range(n):
        acc, coef = 0.0, 1.0
        for u in range(t, n):
            v_next = bootstrap if u == n - 1 else values[u + 1]
            delta = rewards[u] + gamma * (1.0 - dones[u]) * v_next - values[u]
            acc += coef * delta
            if dones[u]:
                break
            coef *= gamma * lam
        adv[t] = acc
    return adv


def _gridworld_best_window(seed, total=200_000):
    cfg = resolve_config({
        "algo": "ppo", "seed": seed, "total_steps": total,
        "scenario": {"mode": "standard", "horizon": 100, "reward_normalization": False},
        "network": {"hidden": [64, 64]},
        "learner": {"ent_coef": 0.02},
        "logging": {"metric_interval": 50_000, "probe_batch": 64},
    })
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        art = run_experiment(cfg, d)
        rows = open(art.episodes_path).read().splitlines()[1:]
    rets = np.array([float(line.split(",")[2]) for line in rows])
    if len(rets) <= 20:
        return float(rets.mean())
    return float(max(np.mean(rets[i:i + 20]) for i in range(len(rets) - 20)))


def test_5_policy_gradient_machinery():
    t0 = time.perf_counter()
    stream = RngStream(17, 0)
    n = 200
    rewards = stream.normal(0.0, 1.0, n)
    values = stream.normal(0.0, 1.0, n)
    dones = (stream.uniform(0.0, 1.0, n) < 0.05).astype(np.float64)
    adv, rets = gae(rewards, values, dones, 0.37, 0.99, 0.95)
    oracle = _double_sum_gae(rewards, values, dones, 0.37, 0.99, 0.95)
    gae_err = float(np.max(np.abs(adv - oracle)))
    ret_err = float(np.max(np.abs(rets - (adv + values))))

    batch = TrajectoryBatch(
        observations=stream.normal(0.0, 1.0, 64 * 3).reshape(64, 3),
        actions=stream.randint(4, 64),
        rewards=stream.normal(0.0, 1.0, 64),
        dones=np.zeros(64),
        log_probs=stream.normal(-1.0, 0.3, 64),
        values=stream.normal(0.0, 1.0, 64),
    )
    batch.advantages = stream.normal(0.0, 2.0, 64)
    batch.returns = batch.advantages + batch.values
    _, parts = _clipped_objective(
        batch, batch.log_probs.copy(), batch.values.copy(),
        entropy=np.full(64, 1.3), clip_eps=0.2, vf_coef=0.5, ent_coef=0.0, value_clip=0.2,
    )[:2]
    old_policy_loss = abs(parts["policy"])

    best = [_gridworld_best_window(seed) for seed in (0, 1, 2, 3)]
    solved = sum(b >= 0.8 for b in best)

    elapsed = time.perf_counter() - t0
    ok = (
        gae_err <= 1e-10
        and ret_err <= 1e-10
        and old_policy_loss < 1e-8
        and solved >= 3
        and elapsed < 900.0
    )
    headline(
        5, "policy-gradient machinery", ok,
        f"gae oracle err {gae_err:.1e}, old-policy loss {old_policy_loss:.1e}, "
        f"gridworld best-20-episode returns {[round(b, 2) for b in best]} "
        f"(need >=0.8 on >=3/4 seeds), {elapsed:.0f}s (budget 900s)",
    )


# ---------------------------------------------------------------------------
# 6. switch protocol: 21 segments = 20 permutation switches; resetting all
#    layers on every switch must adapt like a fresh task-1 network


def _protocol(mitigations, seed=11):
    cfg = resolve_config({
        "algo": "regression", "seed": seed, "total_steps": 21 * 600,
        "scenario": {"mode": "level_shift", "segment_length": 600, "n_segments": 21},
        "network": {"hidden": [64, 64]},
        "mitigations": mitigations,
        "logging": {"metric_interval": 600, "probe_batch": 128},
    })
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        art = run_experiment(cfg, d)
        speeds, rdu_rows = {}, 0
        for line in open(art.metrics_path):
            r = json.loads(line)
            if r["scope"].startswith("task") and r["metric"] == "adaptation_speed":
                speeds[int(r["scope"][4:])] = r["value"]
            if r["metric"] == "rdu" and r["scope"] == "all":
                rdu_rows += 1
    return [speeds[i] for i in sorted(speeds)], rdu_rows


def test_6_switch_protocol_adaptation():
    t0 = time.perf_counter()
    vanilla, rdu_vanilla = _protocol([])
    reset, rdu_reset = _protocol([
        {"method": "reset_layers", "params": {"scope": "all"}, "trigger": "on_task_switch"},
    ])
    v1 = vanilla[0]
    max_dev = max(abs(s - v1) / v1 for s in reset)
    trend = float(np.mean(vanilla[-5:]) / np.mean(vanilla[:5]))
    elapsed = time.perf_counter() - t0
    ok = (
        len(vanilla) == 21
        and len(reset) == 21
        and max_dev <= 0.10
        and rdu_vanilla >= 21
        and rdu_reset >= 21
        and elapsed < 600.0
    )
    headline(
        6, "switch protocol adaptation", ok,
        f"reset-every-switch speed within {max_dev:.1%} of fresh task-1 speed "
        f"{v1:.4f} (tol 10%) across {len(reset)} tasks, dormancy rows logged "
        f"{rdu_reset}, vanilla late/early speed ratio {trend:.3f} (reported, "
        f"not asserted), {elapsed:.0f}s (budget 600s)",
    )


# ---------------------------------------------------------------------------
# 7. determinism and interfaces: byte-identical reruns, checkpoint round
#    trips, the method catalogue, and metric replay from checkpoints


def _small_c51_cfg():
    return resolve_config({
        "algo": "c51", "seed": 3, "total_steps": 2000,
        "scenario": {"mode": "standard", "horizon": 40},
        "network": {"hidden": [32]},
        "learner": {
            "buffer_size": 2000, "batch_size": 32, "learning_starts": 200,
            "train_frequency": 4, "target_network_frequency": 500, "n_atoms": 11,
        },
        "logging": {"metric_interval": 1000, "probe_batch": 64},
        "checkpoint_interval": 1000,
    })


def test_7_determinism_and_interfaces(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg = _small_c51_cfg()
    art_a = run_experiment(cfg, str(tmp_path / "a"))
    art_b = run_experiment(_small_c51_cfg(), str(tmp_path / "b"))
    identical = (
        open(art_a.metrics_path, "rb").read() == open(art_b.metrics_path, "rb").read()
        and open(art_a.episodes_path, "rb").read() == open(art_b.episodes_path, "rb").read()
        and open(art_a.config_path, "rb").read() == open(art_b.config_path, "rb").read()
    )

    blob = open(os.path.join(art_a.out_dir, "ckpt_final.bin"), "rb").read()
    round_trip = serialize_network(deserialize_network(blob)) == blob

    assert cli_main(["list-methods", "--json"]) == 0
    catalogue = json.loads(capsys.readouterr().out)
    methods_ok = (
        len(catalogue) == 13
        and len({row["category"] for row in catalogue}) == 5
    )

    logged = {
        (r["metric"], r["scope"]): r["value"]
        for r in (json.loads(line) for line in open(art_a.metrics_path))
        if r["step"] == 1000 and r["scope"] != "event"
    }
    replay_err, replayed = 0.0, {}
    for rep in replay_metrics(os.path.join(art_a.out_dir, "ckpt_step1000.bin"), cfg.seed, 64):
        for metric, value in rep.rows():
            replayed[(metric, rep.scope)] = float(value)
    replay_ok = set(replayed) == set(logged)
    for key in logged:
        replay_err = max(replay_err, abs(replayed[key] - logged[key]))

    elapsed = time.perf_counter() - t0
    ok = identical and round_trip and methods_ok and replay_ok and replay_err <= 1e-9
    headline(
        7, "determinism and interfaces", ok,
        f"rerun byte-identical={identical}, checkpoint round-trip exact="
        f"{round_trip}, catalogue {len(catalogue)} methods in "
        f"{len({row['category'] for row in catalogue})} categories, replay err "
        f"{replay_err:.1e} over {len(logged)} rows (tol 1e-9), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. optimizer contracts: the scale tuner's zero point and positivity, the
#    identity-factor preconditioner, and the erfi building block


def test_8_optimizer_contracts():
    t0 = time.perf_counter()
    net = build_network(3, 2, (4,), "tanh", False, RngStream(61, 1))
    opt = make_optimizer("trac", net)
    names = list(net.trainable_names())
    shapes = {k: net.params[k].shape for k in names}
    gstream = RngStream(62, 5)

    def random_grads():
        return Gradients(
            by_name={
                k: gstream.normal(0.0, 1.0, int(np.prod(shapes[k]))).reshape(shapes[k])
                for k in names
            },
            lin_grads={},
        )

    optimizer_step(opt, net, None, random_grads(), lr=1e-3)
    at_ref = all(np.array_equal(net.params[k], opt.theta_ref[k]) for k in names)
    ref = np.array([1.0, -2.0])
    combine_exact = np.array_equal(Trac.combine(ref, np.array([5.0, 7.0]), 0.0), ref)

    # a zero scale parks the parameters exactly on the reference, where the
    # correlation signal vanishes; keep the tuner live by nudging off it
    nudge = RngStream(63, 0)

    def nudge_off_reference():
        if all(np.array_equal(net.params[k], opt.theta_ref[k]) for k in names):
            for k in names:
                noise = nudge.normal(0.0, 1.0, int(np.prod(shapes[k])))
                net.params[k] += 0.01 * noise.reshape(shapes[k])

    min_scale = np.inf
    pos_steps = 0
    for _ in range(10_000):
        nudge_off_reference()
        optimizer_step(opt, net, None, random_grads(), lr=1e-3)
        min_scale = min(min_scale, opt.trac_scale)
        pos_steps += opt.trac_scale > 0.0

    net2 = build_network(5, 3, (6,), "relu", False, RngStream(64, 1))
    kron = make_optimizer("kron", net2, damping=0.0)
    kron.factors_a["layer0"] = np.eye(6)
    kron.factors_s["layer0"] = np.eye(6)
    g_w = RngStream(65, 0).normal(0.0, 1.0, 30).reshape(6, 5)
    g_b = RngStream(66, 0).normal(0.0, 1.0, 6)
    pre_w, pre_b = kron.precondition("layer0", g_w, g_b)
    kron_err = max(
        float(np.max(np.abs(pre_w - g_w))), float(np.max(np.abs(pre_b - g_b)))
    )

    oracle = 2.0 / np.sqrt(np.pi) * integrate.quad(lambda t: np.exp(t * t), 0.0, 1.0)[0]
    erfi_err = abs(erfi(1.0) - oracle)

    elapsed = time.perf_counter() - t0
    ok = (
        at_ref
        and combine_exact
        and min_scale >= 0.0
        and kron_err <= 1e-10
        and kron.fallback_count == 0
        and erfi_err <= 1e-9
    )
    headline(
        8, "optimizer contracts", ok,
        f"zero-scale step returns reference exactly={at_ref and combine_exact}, "
        f"scale min {min_scale:.3g} over 10000 steps ({pos_steps} strictly "
        f"positive), identity-factor preconditioner err {kron_err:.1e}, "
        f"erfi(1) vs quadrature err {erfi_err:.1e}, {elapsed:.1f}s",
    )
